// Differential test of the hot-page sampler's noisy top-k selection against
// the algorithm it replaced, which transformed the noise of every candidate
// and partial-sorted all of them. Over many seeded random cases the two must
// keep the same candidates in the same order, with bit-equal noisy rates,
// and leave their generators in the same state.

#include "src/sim/noisy_top_k.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace xnuma {
namespace {

// The reference: every candidate scored in index order from its class's
// row, one NextGaussian() per entry, then a partial sort over all
// candidates. Returns the kept candidates, hottest first, and writes every
// candidate's noisy rates to `noisy`.
std::vector<int> ReferenceSelect(const std::vector<double>& rows, const std::vector<int>& classes,
                                 int nodes, int max_pages, double sigma, Rng& rng,
                                 std::vector<double>* noisy) {
  const int candidates = static_cast<int>(classes.size());
  noisy->resize(static_cast<size_t>(candidates) * nodes);
  std::vector<std::pair<double, int>> order(candidates);
  for (int i = 0; i < candidates; ++i) {
    const double* row = &rows[static_cast<size_t>(classes[i]) * nodes];
    double* r = &(*noisy)[static_cast<size_t>(i) * nodes];
    double total = 0.0;
    for (int n = 0; n < nodes; ++n) {
      r[n] = std::max(0.0, row[n] * (1.0 + sigma * rng.NextGaussian()));
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

// Work counts summed over a test's scans.
struct Work {
  int64_t candidates = 0;
  int64_t bounded = 0;
  int64_t scored = 0;
};

// Runs one scan through `selector` and the reference from equal generators
// and checks that they agree.
void ExpectSameScan(NoisyTopK& selector, const std::vector<double>& rows,
                    const std::vector<int>& classes, int nodes, int max_pages, double sigma,
                    Rng& rng, Rng& reference_rng, Work* work) {
  std::vector<double> expected;
  const std::vector<int> kept =
      ReferenceSelect(rows, classes, nodes, max_pages, sigma, reference_rng, &expected);
  const int keep = selector.Select(rows, classes, nodes, max_pages, sigma, rng);
  const int candidates = static_cast<int>(classes.size());
  ASSERT_EQ(keep, static_cast<int>(kept.size()));
  for (int j = 0; j < keep; ++j) {
    ASSERT_EQ(selector.kept(j), kept[j]) << "rank " << j;
    ASSERT_TRUE(SameBits(selector.kept_rates(j),
                         &expected[static_cast<size_t>(kept[j]) * nodes], nodes))
        << "rank " << j;
  }
  EXPECT_LE(selector.scored(), selector.bounded());
  EXPECT_LE(selector.bounded(), candidates);
  EXPECT_GE(selector.scored(), keep);
  work->candidates += candidates;
  work->bounded += selector.bounded();
  work->scored += selector.scored();
}

void ExpectSameStream(Rng& rng, Rng& reference_rng) {
  for (int i = 0; i < 8; ++i) {
    const double a = rng.NextGaussian();
    const double b = reference_rng.NextGaussian();
    ASSERT_TRUE(SameBits(&a, &b, 1));
    ASSERT_EQ(rng.NextU64(), reference_rng.NextU64());
  }
}

constexpr double kSigmas[] = {0.25, 0.25, 0.05, 1.0, 4.0};

TEST(NoisyTopKTest, MatchesScoringEveryCandidate) {
  Rng cases(2017);
  NoisyTopK selector;  // reused across cases, as the engine does
  Work work;
  for (int c = 0; c < 1500; ++c) {
    // Odd node counts make pages straddle Box-Muller pairs, so a carried
    // Gaussian crosses rows and, between scans, Select calls.
    const int nodes = 1 + static_cast<int>(cases.NextInt(9));
    const double sigma = kSigmas[cases.NextInt(5)];
    const Spread spread = static_cast<Spread>(cases.NextInt(3));
    const uint64_t seed = cases.NextU64();
    Rng reference_rng(seed);
    Rng rng(seed);
    const int scans = 1 + static_cast<int>(cases.NextInt(4));
    for (int s = 0; s < scans; ++s) {
      // Every candidate its own class.
      const int candidates = static_cast<int>(cases.NextInt(260));
      const int k = 1 + static_cast<int>(cases.NextInt(64));
      const int max_pages_choices[] = {-1, 0, 1, k, candidates - 1, candidates, candidates + 7};
      const int max_pages = max_pages_choices[cases.NextInt(7)];
      const std::vector<double> rows = RandomRows(cases, nodes, candidates, spread);
      std::vector<int> classes(candidates);
      std::iota(classes.begin(), classes.end(), 0);
      SCOPED_TRACE(::testing::Message() << "case " << c << " scan " << s << " nodes " << nodes
                                        << " candidates " << candidates << " max_pages "
                                        << max_pages << " sigma " << sigma);
      ExpectSameScan(selector, rows, classes, nodes, max_pages, sigma, rng, reference_rng,
                     &work);
    }
    ExpectSameStream(rng, reference_rng);
  }
  // The cases must exercise the pruning, not only the score-everything path.
  EXPECT_LT(work.scored, work.candidates / 2);
}

// Candidates sharing class rows, as the engine's (region, slice, hot/cold)
// classes do: 1 to `candidates` classes, rows with zero and negative
// entries, and one class scaled far below the rest. Across the cases some
// classes must be pruned whole, before any of their pages is bounded.
TEST(NoisyTopKTest, MatchesScoringEveryCandidateWithSharedClasses) {
  Rng cases(2021);
  NoisyTopK selector;
  Work work;
  int64_t scans_skipping_classes = 0;
  int64_t scans = 0;
  for (int c = 0; c < 1500; ++c) {
    const int nodes = 1 + static_cast<int>(cases.NextInt(9));
    const double sigma = kSigmas[cases.NextInt(5)];
    const Spread spread = static_cast<Spread>(cases.NextInt(3));
    const uint64_t seed = cases.NextU64();
    Rng reference_rng(seed);
    Rng rng(seed);
    const int case_scans = 1 + static_cast<int>(cases.NextInt(4));
    for (int s = 0; s < case_scans; ++s) {
      const int candidates = 1 + static_cast<int>(cases.NextInt(400));
      const int num_classes = 1 + static_cast<int>(cases.NextInt(
                                      cases.NextBool(0.5) ? std::min(candidates, 12) : candidates));
      std::vector<double> rows = RandomRows(cases, nodes, num_classes, spread);
      const int faint = static_cast<int>(cases.NextInt(num_classes));
      for (int n = 0; n < nodes; ++n) {
        rows[static_cast<size_t>(faint) * nodes + n] *= 1e-9;
      }
      std::vector<int> classes(candidates);
      for (int& cls : classes) {
        cls = static_cast<int>(cases.NextInt(num_classes));
      }
      const int k = 1 + static_cast<int>(cases.NextInt(64));
      const int max_pages_choices[] = {-1, 0, 1, k, k, candidates - 1, candidates, candidates + 7};
      const int max_pages = max_pages_choices[cases.NextInt(8)];
      SCOPED_TRACE(::testing::Message() << "case " << c << " scan " << s << " nodes " << nodes
                                        << " candidates " << candidates << " classes "
                                        << num_classes << " max_pages " << max_pages << " sigma "
                                        << sigma);
      ExpectSameScan(selector, rows, classes, nodes, max_pages, sigma, rng, reference_rng,
                     &work);
      ++scans;
      scans_skipping_classes += selector.bounded() < candidates ? 1 : 0;
    }
    ExpectSameStream(rng, reference_rng);
  }
  // Whole classes were pruned before any of their pages were bounded, and
  // bounded pages were pruned before their noise was transformed.
  EXPECT_GT(scans_skipping_classes, scans / 4);
  EXPECT_LT(work.bounded, work.candidates * 3 / 4);
  EXPECT_LT(work.scored, work.bounded);
}

TEST(NoisyTopKTest, NonPositiveMaxPagesKeepsNothingButDrawsAllNoise) {
  for (const int max_pages : {0, -1, -1000}) {
    Rng rng(5);
    Rng reference_rng(5);
    const std::vector<double> rows(3, 1.0);
    const std::vector<int> classes(7, 0);
    NoisyTopK selector;
    EXPECT_EQ(selector.Select(rows, classes, 3, max_pages, 0.25, rng), 0);
    EXPECT_EQ(selector.bounded(), 0);
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
