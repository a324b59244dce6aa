#include "src/sim/hot_page_sampler.h"

#include <algorithm>

namespace xnuma {

HotPageSampler::HotPageSampler(int nodes, Observability* obs) : nodes_(nodes) {
  if (obs != nullptr) {
    MetricsRegistry& m = obs->metrics();
    candidates_metric_ = m.RegisterCounter(
        "engine.sampler.candidates", "pages", "Candidate pages considered by hot-page scans");
    bounded_metric_ = m.RegisterCounter(
        "engine.sampler.bounded", "pages",
        "Candidate pages whose own noisy-total bound hot-page scans computed");
    scored_metric_ = m.RegisterCounter(
        "engine.sampler.scored", "pages",
        "Candidate pages whose sampling noise a hot-page scan transformed");
  }
}

void HotPageSampler::AddJob(const std::vector<PlacementTracker::Region>& regions,
                            std::span<const Thread> threads) {
  const int num_threads = static_cast<int>(threads.size());
  for (const PlacementTracker::Region& region : regions) {
    const double share = region.spec->access_share;
    if (share <= 0.0 || region.total_mass <= 0.0) {
      continue;
    }
    // Room for every page, written by index: the buffers only grow, so a
    // scan neither reallocates nor checks capacity per page.
    pfns_.resize(std::max(pfns_.size(), static_cast<size_t>(candidates_ + region.pages)));
    classes_.resize(pfns_.size());
    const double aff = region.spec->owner_affinity;
    // Uniform component: per source node, the total rate into this region.
    uniform_by_node_.assign(nodes_, 0.0);
    for (const Thread& th : threads) {
      if (th.node != kInvalidNode) {
        uniform_by_node_[th.node] += th.rate * share * (1.0 - aff);
      }
    }
    const bool written = region.spec->write_fraction > 0.0;
    // A page weighs w_hot or w_cold, so its rates are one of two rows per
    // slice: the uniform rates of its weight plus, on the slice owner's
    // node, the owner's affinity rate (the affinity component, attributed
    // to the owner thread's node). Class 2 * slice + hot of this region
    // holds that row.
    const int first_class = static_cast<int>(class_written_.size());
    for (int slice = 0; slice < num_threads; ++slice) {
      const Thread& owner = threads[slice];
      const bool owned = region.slice_total[slice] > 0.0 && owner.node != kInvalidNode;
      for (const bool hot : {false, true}) {
        const double w = hot ? region.w_hot : region.w_cold;
        for (NodeId n = 0; n < nodes_; ++n) {
          class_rows_.push_back(uniform_by_node_[n] * w / region.total_mass);
        }
        if (owned) {
          class_rows_[class_rows_.size() - nodes_ + owner.node] +=
              owner.rate * share * aff * w / region.slice_total[slice];
        }
        class_written_.push_back(written);
      }
      const int cold_class = first_class + 2 * slice;
      // IsHot(idx) without a division per page: hot pages are the
      // multiples of hot_stride below hot_end.
      const int64_t stride = region.hot_stride;
      const int64_t hot_end = region.hot_count * stride;
      const int64_t begin = region.SliceBegin(slice, num_threads);
      const int64_t end = region.SliceEnd(slice, num_threads);
      int64_t next_multiple = (begin + stride - 1) / stride * stride;
      for (int64_t idx = begin; idx < end; ++idx) {
        const bool hot = idx == next_multiple && idx < hot_end;
        next_multiple += idx == next_multiple ? stride : 0;
        const PagePlacement& page = region.page_cache[idx];
        if (page.pfn == kInvalidPfn || page.replicated) {
          continue;  // replicated pages are already local everywhere
        }
        pfns_[candidates_] = page.pfn;
        classes_[candidates_] = cold_class + (hot ? 1 : 0);
        ++candidates_;
      }
    }
  }
}

void HotPageSampler::Select(DomainId domain, int max_pages, Rng& rng,
                            std::vector<PageAccessSample>* out) {
  // IBS-style sampling noise; the noisy totals rank the pages.
  const int keep = top_k_.Select(class_rows_, std::span<const int>(classes_.data(), candidates_),
                                 nodes_, max_pages, kSamplingNoise, rng);
  // Kept pages overwrite the caller's samples in place, reusing their rate
  // vectors.
  out->resize(keep);
  for (int k = 0; k < keep; ++k) {
    const int i = top_k_.kept(k);
    const double* rates = top_k_.kept_rates(k);
    PageAccessSample& sample = (*out)[k];
    sample.domain = domain;
    sample.pfn = pfns_[i];
    sample.current_node = kInvalidNode;
    sample.rate_by_node.assign(rates, rates + nodes_);
    sample.written = class_written_[classes_[i]];
  }
  if (candidates_metric_ != nullptr) {
    candidates_metric_->Increment(candidates_);
    bounded_metric_->Increment(top_k_.bounded());
    scored_metric_->Increment(top_k_.scored());
  }
  candidates_ = 0;
  class_rows_.clear();
  class_written_.clear();
}

}  // namespace xnuma
