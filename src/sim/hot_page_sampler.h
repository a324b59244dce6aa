// Carrefour's IBS view of a domain (docs/MODEL.md §9): a scan adds each
// running job's pages as candidates, one rate row per (region, slice,
// hot/cold) class, and keeps the noisy top k through NoisyTopK.

#ifndef XENNUMA_SRC_SIM_HOT_PAGE_SAMPLER_H_
#define XENNUMA_SRC_SIM_HOT_PAGE_SAMPLER_H_

#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/numa/perf_counters.h"
#include "src/obs/obs.h"
#include "src/sim/noisy_top_k.h"
#include "src/sim/placement_tracker.h"

namespace xnuma {

// IBS-emulation noise on sampled per-page rates (relative sigma). This is
// also what occasionally makes Carrefour migrate a page it should not (the
// paper's "temporary burst" degradations on low-imbalance apps).
inline constexpr double kSamplingNoise = 0.25;

class HotPageSampler {
 public:
  // One thread of a scanned job: its node (kInvalidNode once it is done)
  // and its access rate (accesses/s).
  struct Thread {
    NodeId node = kInvalidNode;
    double rate = 0.0;
  };

  HotPageSampler(int nodes, Observability* obs);

  // Adds one job's pages that have a pfn and are not replicated to the scan.
  void AddJob(const std::vector<PlacementTracker::Region>& regions,
              std::span<const Thread> threads);
  // Ends the scan: draws its noise from `rng` and writes the `max_pages`
  // hottest candidates, hottest first, over *out's elements.
  void Select(DomainId domain, int max_pages, Rng& rng, std::vector<PageAccessSample>* out);

 private:
  const int nodes_;
  // Per candidate page its pfn and class, written by index into buffers
  // that only grow; per class one row of per-source-node rates and whether
  // the region is written; and the noisy top-k selection over them.
  int candidates_ = 0;
  std::vector<Pfn> pfns_;
  std::vector<int> classes_;
  std::vector<double> class_rows_;  // [classes][nodes]
  std::vector<char> class_written_;
  NoisyTopK top_k_;
  std::vector<double> uniform_by_node_;  // per-region scratch

  Counter* candidates_metric_ = nullptr;
  Counter* bounded_metric_ = nullptr;
  Counter* scored_metric_ = nullptr;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_SIM_HOT_PAGE_SAMPLER_H_
