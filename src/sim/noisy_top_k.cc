#include "src/sim/noisy_top_k.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>

namespace xnuma {
namespace {

// Relative slack on a candidate's reach, far above the rounding error of
// its noisy and noise-free sums.
constexpr double kReachMargin = 1e-9;
// Reach buckets: bucket b holds the reaches whose bit pattern lies b to
// b + 1 sixteenths of a binary order of magnitude below the highest one's;
// the last bucket also holds everything lower.
constexpr int kBuckets = 256;
constexpr int kBucketShift = 48;

int Bucket(uint64_t top_bits, double reach) {
  const uint64_t gap = top_bits - std::bit_cast<uint64_t>(reach);
  return static_cast<int>(std::min<uint64_t>(gap >> kBucketShift, kBuckets - 1));
}

bool Hotter(const std::pair<double, int>& a, const std::pair<double, int>& b) {
  return a.first > b.first;
}

}  // namespace

double NoisyTopK::Score(std::span<double> rates, int nodes, int row, double sigma) {
  const size_t first = static_cast<size_t>(row) * nodes;
  noise_.Values(first, nodes, row_noise_.data());
  double* r = &rates[first];
  double total = 0.0;
  for (int n = 0; n < nodes; ++n) {
    r[n] = std::max(0.0, r[n] * (1.0 + sigma * row_noise_[n]));
    total += r[n];
  }
  ++scored_;
  return total;
}

int NoisyTopK::Select(std::span<double> rates, int nodes, int max_pages, double sigma,
                      Rng& rng) {
  const int candidates = nodes > 0 ? static_cast<int>(rates.size() / nodes) : 0;
  rng.DrawGaussians(rates.size(), &noise_);
  const int keep = std::clamp(max_pages, 0, candidates);
  scored_ = 0;
  order_.clear();
  if (keep == 0) {
    return 0;
  }
  row_noise_.resize(nodes);

  // Each noisy rate max(0, r * (1 + sigma * g)) is at most |r| (1 + |sigma|
  // |g|), so a candidate's noisy total is at most its reach: the sum of |r|
  // over its row plus |sigma| times the noise block's weighted bound there.
  const double spread = std::abs(sigma);
  keys_.resize(candidates);
  double top = 0.0;
  for (int i = 0; i < candidates; ++i) {
    const size_t first = static_cast<size_t>(i) * nodes;
    double weight = 0.0;
    for (int n = 0; n < nodes; ++n) {
      weight += std::abs(rates[first + n]);
    }
    const double reach = (weight + spread * noise_.WeightedBound(first, nodes, &rates[first])) *
                         (1.0 + kReachMargin);
    keys_[i] = std::isnan(reach) ? std::numeric_limits<double>::infinity() : reach;
    top = std::max(top, keys_[i]);
  }

  // Visit the candidates by descending reach: a stable counting sort into
  // reach buckets, after which bucket b spans [start[b], start[b + 1]).
  const uint64_t top_bits = std::bit_cast<uint64_t>(top);
  std::array<int, kBuckets + 1> start{};
  for (int i = 0; i < candidates; ++i) {
    ++start[Bucket(top_bits, keys_[i]) + 1];
  }
  for (int b = 1; b <= kBuckets; ++b) {
    start[b] += start[b - 1];
  }
  std::array<int, kBuckets> next{};
  std::copy_n(start.begin(), kBuckets, next.begin());
  visit_.resize(candidates);
  for (int i = 0; i < candidates; ++i) {
    visit_[next[Bucket(top_bits, keys_[i])]++] = i;
  }

  // Score into a min-heap of the keep largest noisy totals so far. Its top,
  // tau, is at most the keep-th largest noisy total of all candidates, so a
  // candidate whose reach falls below tau cannot be kept, and neither can
  // any candidate of a later bucket once the bucket's highest reach does.
  scored_rows_.assign(candidates, 0);
  heap_.clear();
  double tau = 0.0;
  for (int b = 0; b < kBuckets; ++b) {
    if (start[b] == start[b + 1]) {
      continue;
    }
    const double highest =
        std::bit_cast<double>(top_bits - (static_cast<uint64_t>(b) << kBucketShift));
    if (highest < tau) {
      break;
    }
    for (int v = start[b]; v < start[b + 1]; ++v) {
      const int i = visit_[v];
      if (keys_[i] < tau) {
        continue;
      }
      const double total = Score(rates, nodes, i, sigma);
      keys_[i] = total;
      scored_rows_[i] = 1;
      if (heap_.size() < static_cast<size_t>(keep)) {
        heap_.push_back(total);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      } else if (total > heap_.front()) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        heap_.back() = total;
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      }
      if (heap_.size() == static_cast<size_t>(keep)) {
        tau = heap_.front();
      }
    }
  }

  // Rank the scored candidates in index order, as when every one is scored.
  for (int i = 0; i < candidates; ++i) {
    if (scored_rows_[i]) {
      order_.push_back({keys_[i], i});
    }
  }
  std::partial_sort(order_.begin(), order_.begin() + keep, order_.end(), Hotter);
  return keep;
}

}  // namespace xnuma
