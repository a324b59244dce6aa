// Differential test of the hot-page sampler's noisy top-k selection against
// the algorithm it replaced, which transformed the noise of every candidate
// and partial-sorted all of them. Over many seeded random cases the two must
// keep the same rows in the same order, with bit-equal noisy rates, and leave
// their generators in the same state.

#include "src/sim/noisy_top_k.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace xnuma {
namespace {

// The reference: every candidate scored in index order, one NextGaussian()
// per entry, then a partial sort over all candidates. Returns the kept rows,
// hottest first.
std::vector<int> ReferenceSelect(std::vector<double>& rates, int nodes, int max_pages,
                                 double sigma, Rng& rng) {
  const int candidates = static_cast<int>(rates.size()) / nodes;
  std::vector<std::pair<double, int>> order(candidates);
  for (int i = 0; i < candidates; ++i) {
    double* r = &rates[static_cast<size_t>(i) * nodes];
    double total = 0.0;
    for (int n = 0; n < nodes; ++n) {
      r[n] = std::max(0.0, r[n] * (1.0 + sigma * rng.NextGaussian()));
      total += r[n];
    }
    order[i] = {total, i};
  }
  const int keep = std::clamp(max_pages, 0, candidates);
  std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                    [](const std::pair<double, int>& a, const std::pair<double, int>& b) {
                      return a.first > b.first;
                    });
  std::vector<int> kept;
  for (int k = 0; k < keep; ++k) {
    kept.push_back(order[k].second);
  }
  return kept;
}

enum class Spread { kNarrow, kWide, kHotCold };

// One scan's noise-free rows: `spread` sets how far page weights differ, and
// some rows get zero entries, whole zero rows or (rarely) negative entries.
std::vector<double> RandomRows(Rng& rng, int nodes, int candidates, Spread spread) {
  const double zero_entry = rng.NextBool(0.5) ? 0.3 : 0.0;
  const double zero_row = rng.NextBool(0.5) ? 0.15 : 0.0;
  const bool concentrated = rng.NextBool(0.5);
  std::vector<double> rates(static_cast<size_t>(candidates) * nodes);
  for (int i = 0; i < candidates; ++i) {
    double weight = 1.0;
    switch (spread) {
      case Spread::kNarrow:
        weight = 1.0 + 0.05 * rng.NextDouble();
        break;
      case Spread::kWide:
        weight = std::pow(10.0, -6.0 * rng.NextDouble());
        break;
      case Spread::kHotCold:
        weight = (rng.NextBool(0.3) ? 1.0 : 0.1) * (1.0 + 0.01 * rng.NextDouble());
        break;
    }
    const bool empty = rng.NextBool(zero_row);
    const int owner = static_cast<int>(rng.NextInt(nodes));
    for (int n = 0; n < nodes; ++n) {
      double r = weight * rng.NextDouble() * (concentrated && n == owner ? 10.0 : 1.0);
      if (empty || rng.NextBool(zero_entry)) {
        r = 0.0;
      } else if (rng.NextBool(0.01)) {
        r = -r;
      }
      rates[static_cast<size_t>(i) * nodes + n] = r;
    }
  }
  return rates;
}

bool SameBits(const double* a, const double* b, int count) {
  return std::memcmp(a, b, sizeof(double) * count) == 0;
}

TEST(NoisyTopKTest, MatchesScoringEveryCandidate) {
  Rng cases(2017);
  NoisyTopK selector;  // reused across cases, as the engine does
  int64_t candidates_total = 0;
  int64_t scored_total = 0;
  for (int c = 0; c < 1500; ++c) {
    // Odd node counts make pages straddle Box-Muller pairs, so a carried
    // Gaussian crosses rows and, between scans, Select calls.
    const int nodes = 1 + static_cast<int>(cases.NextInt(9));
    constexpr double kSigmas[] = {0.25, 0.25, 0.05, 1.0, 4.0};
    const double sigma = kSigmas[cases.NextInt(5)];
    const Spread spread = static_cast<Spread>(cases.NextInt(3));
    const uint64_t seed = cases.NextU64();
    Rng reference_rng(seed);
    Rng rng(seed);
    const int scans = 1 + static_cast<int>(cases.NextInt(4));
    for (int s = 0; s < scans; ++s) {
      const int candidates = static_cast<int>(cases.NextInt(260));
      const int k = 1 + static_cast<int>(cases.NextInt(64));
      const int max_pages_choices[] = {-1, 0, 1, k, candidates - 1, candidates, candidates + 7};
      const int max_pages = max_pages_choices[cases.NextInt(7)];
      std::vector<double> expected = RandomRows(cases, nodes, candidates, spread);
      std::vector<double> rates = expected;
      const std::vector<int> kept =
          ReferenceSelect(expected, nodes, max_pages, sigma, reference_rng);
      const int keep = selector.Select(rates, nodes, max_pages, sigma, rng);
      SCOPED_TRACE(::testing::Message() << "case " << c << " scan " << s << " nodes " << nodes
                                        << " candidates " << candidates << " max_pages "
                                        << max_pages << " sigma " << sigma);
      ASSERT_EQ(keep, static_cast<int>(kept.size()));
      for (int j = 0; j < keep; ++j) {
        ASSERT_EQ(selector.kept(j), kept[j]) << "rank " << j;
        const size_t row = static_cast<size_t>(kept[j]) * nodes;
        ASSERT_TRUE(SameBits(&rates[row], &expected[row], nodes)) << "rank " << j;
      }
      EXPECT_LE(selector.scored(), candidates);
      EXPECT_GE(selector.scored(), keep);
      candidates_total += candidates;
      scored_total += selector.scored();
    }
    for (int i = 0; i < 8; ++i) {
      const double a = rng.NextGaussian();
      const double b = reference_rng.NextGaussian();
      ASSERT_TRUE(SameBits(&a, &b, 1)) << "case " << c;
      ASSERT_EQ(rng.NextU64(), reference_rng.NextU64()) << "case " << c;
    }
  }
  // The cases must exercise the pruning, not only the score-everything path.
  EXPECT_LT(scored_total, candidates_total / 2);
}

TEST(NoisyTopKTest, NonPositiveMaxPagesKeepsNothingButDrawsAllNoise) {
  for (const int max_pages : {0, -1, -1000}) {
    Rng rng(5);
    Rng reference_rng(5);
    std::vector<double> rates(7 * 3, 1.0);
    NoisyTopK selector;
    EXPECT_EQ(selector.Select(rates, 3, max_pages, 0.25, rng), 0);
    EXPECT_EQ(selector.scored(), 0);
    for (int i = 0; i < 7 * 3; ++i) {
      reference_rng.NextGaussian();
    }
    const double a = rng.NextGaussian();
    const double b = reference_rng.NextGaussian();
    EXPECT_TRUE(SameBits(&a, &b, 1));
    EXPECT_EQ(rng.NextU64(), reference_rng.NextU64());
  }
}

}  // namespace
}  // namespace xnuma
