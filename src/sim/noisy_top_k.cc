#include "src/sim/noisy_top_k.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "src/common/check.h"

namespace xnuma {
namespace {

// Relative slack on a class key and a page reach, far above the rounding
// error of their sums.
constexpr double kReachMargin = 1e-9;
// Bucket b holds the keys whose bit pattern lies b to b + 1 sixteenths of a
// binary order of magnitude below the highest class key's; the first bucket
// also holds anything higher, and the last everything lower.
constexpr int kBucketShift = 48;

int Bucket(uint64_t top_bits, double key, int buckets) {
  const uint64_t bits = std::bit_cast<uint64_t>(key);
  if (bits >= top_bits) {
    return 0;
  }
  return static_cast<int>(std::min<uint64_t>((top_bits - bits) >> kBucketShift, buckets - 1));
}

// A NaN bound bounds nothing: visit its page first.
double Finite(double bound) {
  return std::isnan(bound) ? std::numeric_limits<double>::infinity() : bound;
}

}  // namespace

template <bool kRising>
double NoisyTopK::Reach(const double* row, int i) {
  // r * (1 + sigma * g) is monotone in g, also as rounded, so its largest
  // value over g's bounds lies at one of them, the upper one when r and
  // sigma share a sign; summed in the order Score sums, the reach is at
  // least the noisy total.
  const size_t first = static_cast<size_t>(i) * nodes_;
  double reach = 0.0;
  if constexpr (kRising) {
    noise_.UpperBounds(first, nodes_, row_noise_.data());
    for (int n = 0; n < nodes_; ++n) {
      reach += std::max(0.0, row[n] * (1.0 + sigma_ * row_noise_[n]));
    }
  } else {
    for (int n = 0; n < nodes_; ++n) {
      const BoxMullerPair::Interval g = noise_.Bounds(first + n);
      const double r = row[n];
      reach += std::max({0.0, r * (1.0 + sigma_ * g.lo), r * (1.0 + sigma_ * g.hi)});
    }
  }
  return Finite(reach * (1.0 + kReachMargin));
}

double NoisyTopK::Score(const double* row, int i) {
  const size_t slot = slot_candidate_.size();
  noise_.Values(static_cast<size_t>(i) * nodes_, nodes_, row_noise_.data());
  noisy_.resize((slot + 1) * nodes_);
  double* out = &noisy_[slot * nodes_];
  double total = 0.0;
  for (int n = 0; n < nodes_; ++n) {
    out[n] = std::max(0.0, row[n] * (1.0 + sigma_ * row_noise_[n]));
    total += out[n];
  }
  slot_candidate_.push_back(i);
  slot_total_.push_back(total);
  return total;
}

bool NoisyTopK::Hotter(const Entry& a, const Entry& b) {
  return a.total > b.total || (a.total == b.total && a.candidate < b.candidate);
}

int NoisyTopK::Select(std::span<const double> rows, std::span<const int> classes, int nodes,
                      int max_pages, double sigma, Rng& rng) {
  XNUMA_CHECK(nodes > 0);
  const int candidates = static_cast<int>(classes.size());
  rng.DrawGaussians(static_cast<size_t>(candidates) * nodes, &noise_);
  const int keep = std::clamp(max_pages, 0, candidates);
  nodes_ = nodes;
  sigma_ = sigma;
  bounded_ = 0;
  slot_candidate_.clear();
  slot_total_.clear();
  noisy_.clear();
  kept_.clear();
  if (keep == 0) {
    return 0;
  }
  row_noise_.resize(nodes);

  // The span of each class's members: a class is expanded by walking the
  // candidates between its first and last member.
  const int num_classes = static_cast<int>(rows.size()) / nodes;
  class_first_.assign(num_classes, -1);
  class_end_.resize(num_classes);
  for (int i = 0; i < candidates; ++i) {
    const int c = classes[i];
    XNUMA_DCHECK(static_cast<unsigned>(c) < static_cast<unsigned>(num_classes));
    if (class_first_[c] < 0) {
      class_first_[c] = i;
    }
    class_end_[c] = i + 1;
  }

  // Each noisy rate max(0, r * (1 + sigma * g)) is at most |r| (1 + |sigma|
  // |g|), and every |g| of the block is at most its largest radius bound, so
  // a class's key bounds the noisy total of each of its members.
  const double spread = 1.0 + std::abs(sigma) * noise_.MaxMagnitude();
  class_key_.resize(num_classes);
  class_rising_.resize(num_classes);
  double top = 0.0;
  for (int c = 0; c < num_classes; ++c) {
    if (class_first_[c] < 0) {
      continue;
    }
    double weight = 0.0;
    bool rising = true;
    for (int n = 0; n < nodes; ++n) {
      const double r = rows[static_cast<size_t>(c) * nodes + n];
      weight += std::abs(r);
      rising = rising && ((r >= 0.0) == (sigma >= 0.0) || r == 0.0);
    }
    class_rising_[c] = rising;
    class_key_[c] = Finite(weight * spread * (1.0 + kReachMargin));
    top = std::max(top, class_key_[c]);
  }
  // The classes with members by descending key bucket: a stable counting
  // sort.
  const uint64_t top_bits = std::bit_cast<uint64_t>(top);
  std::array<int, kBuckets + 1> start{};
  class_bucket_.resize(num_classes);
  for (int c = 0; c < num_classes; ++c) {
    if (class_first_[c] >= 0) {
      class_bucket_[c] = Bucket(top_bits, class_key_[c], kBuckets);
      ++start[class_bucket_[c] + 1];
    }
  }
  for (int b = 1; b <= kBuckets; ++b) {
    start[b] += start[b - 1];
  }
  class_visit_.resize(start[kBuckets]);
  for (int c = 0; c < num_classes; ++c) {
    if (class_first_[c] >= 0) {
      class_visit_[start[class_bucket_[c]]++] = c;
    }
  }

  // Best first over both levels of bounds, with a min-heap of the keep
  // largest noisy totals so far. Its top, tau, is at most the keep-th
  // largest noisy total of all candidates, so a class or page whose bound
  // falls below tau cannot be kept, and neither can anything in a later
  // bucket once the bucket's highest key does. Within a bucket, pages go
  // first: scoring them raises tau before another class is expanded.
  const auto hotter = [](const Entry& a, const Entry& b) { return Hotter(a, b); };
  page_head_.fill(-1);
  pending_.resize(candidates);
  int pending = 0;
  heap_.clear();
  double tau = 0.0;
  size_t next_class = 0;
  auto class_here = [&](int b) {
    return next_class < class_visit_.size() && class_bucket_[class_visit_[next_class]] == b;
  };
  for (int b = 0; b < kBuckets; ++b) {
    if (page_head_[b] < 0 && !class_here(b)) {
      continue;
    }
    if (std::bit_cast<double>(top_bits - (static_cast<uint64_t>(b) << kBucketShift)) < tau) {
      break;
    }
    for (;;) {
      if (page_head_[b] >= 0) {
        const Pending& page = pending_[page_head_[b]];
        page_head_[b] = page.next;
        if (page.reach < tau) {
          continue;
        }
        const int i = page.candidate;
        const Entry entry = {Score(&rows[static_cast<size_t>(classes[i]) * nodes], i), i,
                             scored() - 1};
        // tau stays 0 until keep pages are scored, so the heap is built
        // only then.
        if (heap_.size() < static_cast<size_t>(keep)) {
          heap_.push_back(entry);
          if (heap_.size() == static_cast<size_t>(keep)) {
            std::make_heap(heap_.begin(), heap_.end(), hotter);
            tau = heap_.front().total;
          }
        } else if (hotter(entry, heap_.front())) {
          std::pop_heap(heap_.begin(), heap_.end(), hotter);
          heap_.back() = entry;
          std::push_heap(heap_.begin(), heap_.end(), hotter);
          tau = heap_.front().total;
        }
      } else if (class_here(b)) {
        const int c = class_visit_[next_class++];
        if (class_key_[c] < tau) {
          continue;
        }
        // Bound the class's pages, keep those that can still reach tau,
        // and push them onto their buckets' lists in reverse, so that each
        // list pops them in candidate order.
        const double* row = &rows[static_cast<size_t>(c) * nodes];
        const int mark = pending;
        for (int i = class_first_[c]; i < class_end_[c]; ++i) {
          if (classes[i] != c) {
            continue;
          }
          const double reach = class_rising_[c] ? Reach<true>(row, i) : Reach<false>(row, i);
          pending_[pending] = {reach, i, -1};
          pending += reach >= tau ? 1 : 0;
          ++bounded_;
        }
        for (int e = pending - 1; e >= mark; --e) {
          const int bucket = std::max(b, Bucket(top_bits, pending_[e].reach, kBuckets));
          pending_[e].next = page_head_[bucket];
          page_head_[bucket] = e;
        }
      } else {
        break;
      }
    }
  }
  Rank(keep);
  return keep;
}

void NoisyTopK::Rank(int keep) {
  if (heap_.front().total > 0.0) {
    // Every kept total is positive, so its bit pattern orders it, and the
    // totals lie between the heap's top and the largest. A counting sort by
    // each pattern's distance below the largest, in at most 512 buckets,
    // leaves them nearly ranked, and an insertion sort by Hotter finishes:
    // a comparison sort of the same entries mispredicts most branches.
    uint64_t top_bits = 0;
    for (const Entry& e : heap_) {
      top_bits = std::max(top_bits, std::bit_cast<uint64_t>(e.total));
    }
    const uint64_t span = top_bits - std::bit_cast<uint64_t>(heap_.front().total);
    const int shift = std::max(0, static_cast<int>(std::bit_width(span)) - 9);
    auto bucket = [&](const Entry& e) {
      return static_cast<int>((top_bits - std::bit_cast<uint64_t>(e.total)) >> shift);
    };
    std::array<int, 513> start{};
    for (const Entry& e : heap_) {
      ++start[bucket(e) + 1];
    }
    for (int b = 1; b <= 512; ++b) {
      start[b] += start[b - 1];
    }
    ranked_.resize(keep);
    for (const Entry& e : heap_) {
      ranked_[start[bucket(e)]++] = e;
    }
    for (int k = 1; k < keep; ++k) {
      const Entry e = ranked_[k];
      int j = k;
      for (; j > 0 && Hotter(e, ranked_[j - 1]); --j) {
        ranked_[j] = ranked_[j - 1];
      }
      ranked_[j] = e;
    }
    kept_.resize(keep);
    for (int k = 0; k < keep; ++k) {
      kept_[k] = ranked_[k].slot;
    }
    return;
  }
  // A keep-th total of 0 kept tau at 0, so every candidate was scored, and
  // the kept pages include ties at 0: rank all of them in candidate order
  // by the partial sort that scoring every page used, which orders such
  // ties by position.
  const int candidates = static_cast<int>(pending_.size());
  XNUMA_CHECK(scored() == candidates);
  order_.resize(candidates);
  for (int slot = 0; slot < candidates; ++slot) {
    order_[slot_candidate_[slot]] = {slot_total_[slot], slot};
  }
  std::partial_sort(order_.begin(), order_.begin() + keep, order_.end(),
                    [](const std::pair<double, int>& a, const std::pair<double, int>& b) {
                      return a.first > b.first;
                    });
  kept_.resize(keep);
  for (int k = 0; k < keep; ++k) {
    kept_[k] = order_[k].second;
  }
}

}  // namespace xnuma
