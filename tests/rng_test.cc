#include "src/common/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

namespace xnuma {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextIntInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(13);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 13);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBoolProbabilityRoughlyRespected) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBool(0.3)) {
      ++hits;
    }
  }
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.02);
}

TEST(RngTest, NextBoolExtremes) {
  Rng rng(13);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
  EXPECT_FALSE(rng.NextBool(-1.0));
  EXPECT_TRUE(rng.NextBool(2.0));
}

TEST(RngTest, GaussianMomentsAreSane) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0.0;
  double sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.Fork();
  // The child must not replay the parent's stream.
  Rng parent_copy(21);
  parent_copy.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.NextU64() == parent.NextU64()) {
      ++same;
    }
  }
  EXPECT_LE(same, 1);
}

TEST(RngTest, UniformityAcrossBuckets) {
  Rng rng(23);
  const int buckets = 16;
  std::vector<int> counts(buckets, 0);
  const int n = 32000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.NextInt(buckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, n / buckets, 0.15 * n / buckets);
  }
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

// Checks every value of `block` against `expected` in a scattered order that
// moves the replay cursor forward, backward and across saved states.
void ExpectBlockValues(GaussianBlock& block, const std::vector<double>& expected, Rng& order) {
  ASSERT_EQ(block.size(), expected.size());
  const size_t n = expected.size();
  for (int round = 0; round < 3 && n > 0; ++round) {
    const size_t first = static_cast<size_t>(order.NextInt(static_cast<int64_t>(n)));
    const size_t count = 1 + static_cast<size_t>(order.NextInt(static_cast<int64_t>(n - first)));
    std::vector<double> got(count);
    block.Values(first, count, got.data());
    for (size_t k = 0; k < count; ++k) {
      EXPECT_TRUE(SameBits(got[k], expected[first + k])) << "value " << first + k;
    }
  }
  std::vector<double> all(n);
  block.Values(0, n, all.data());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(SameBits(all[i], expected[i])) << "value " << i;
  }
}

TEST(RngTest, GaussianBlockMatchesNextGaussianBitForBit) {
  Rng schedule(29);
  Rng reference(31);
  Rng drawn(31);
  GaussianBlock block;  // reused across draws, as the sampler does
  for (int step = 0; step < 400; ++step) {
    switch (schedule.NextInt(4)) {
      case 0: {
        const size_t n = static_cast<size_t>(schedule.NextInt(70));
        std::vector<double> expected(n);
        for (double& g : expected) {
          g = reference.NextGaussian();
        }
        drawn.DrawGaussians(n, &block);
        ExpectBlockValues(block, expected, schedule);
        break;
      }
      case 1:
        EXPECT_TRUE(SameBits(drawn.NextGaussian(), reference.NextGaussian()));
        break;
      case 2:
        EXPECT_EQ(drawn.NextU64(), reference.NextU64());
        break;
      default: {
        Rng drawn_child = drawn.Fork();
        Rng reference_child = reference.Fork();
        EXPECT_EQ(drawn_child.NextU64(), reference_child.NextU64());
        break;
      }
    }
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(SameBits(drawn.NextGaussian(), reference.NextGaussian()));
    EXPECT_EQ(drawn.NextU64(), reference.NextU64());
  }
}

// Every value of `block` lies in its signed bounds, which lie within
// MaxMagnitude(), and UpperBounds() over the whole block bounds each
// upper bound.
void ExpectBlockBounded(GaussianBlock& block) {
  std::vector<double> values(block.size());
  block.Values(0, values.size(), values.data());
  std::vector<double> uppers(block.size());
  block.UpperBounds(0, uppers.size(), uppers.data());
  for (size_t i = 0; i < values.size(); ++i) {
    const BoxMullerPair::Interval g = block.Bounds(i);
    EXPECT_GE(uppers[i], g.hi) << "value " << i;
    EXPECT_LE(uppers[i], g.hi + 1e-6 * std::abs(g.hi) + 1e-30) << "value " << i;
    EXPECT_LE(g.lo, values[i]) << "value " << i;
    EXPECT_GE(g.hi, values[i]) << "value " << i;
    EXPECT_LE(std::abs(g.lo), block.MaxMagnitude()) << "value " << i;
    EXPECT_LE(std::abs(g.hi), block.MaxMagnitude()) << "value " << i;
  }
}

TEST(RngTest, BlockBoundsCoverEveryDrawnGaussian) {
  Rng rng(37);
  Rng pick(41);
  GaussianBlock block;
  for (int trial = 0; trial < 200; ++trial) {
    // An odd count now and then leaves a carried half for the next block.
    if (pick.NextBool(0.3)) {
      rng.NextGaussian();
    }
    rng.DrawGaussians(static_cast<size_t>(pick.NextInt(200)), &block);
    ExpectBlockBounded(block);
  }
}

// Both normals of a pair must lie in their signed bounds.
void ExpectPairBounded(const BoxMullerPair& pair) {
  double normals[2] = {};
  pair.Normals(normals);
  const int tier = pair.RadiusTier();
  EXPECT_GE(BoxMullerPair::RadiusBound(tier), std::sqrt(-2.0 * std::log(pair.u1))) << pair.u1;
  for (int half = 0; half < 2; ++half) {
    const BoxMullerPair::Interval g = BoxMullerPair::Bounds(tier, pair.AngleSector(), half);
    EXPECT_LE(g.lo, normals[half]) << "u1 " << pair.u1 << " u2 " << pair.u2 << " half " << half;
    EXPECT_GE(g.hi, normals[half]) << "u1 " << pair.u1 << " u2 " << pair.u2 << " half " << half;
  }
}

TEST(RngTest, PairBoundsCoverBothNormals) {
  Rng rng(43);
  for (int i = 0; i < 20000; ++i) {
    // Spread u1 over every binary order of magnitude a draw can reach.
    const double u1 = std::ldexp(0.5 + 0.5 * rng.NextDouble(), -static_cast<int>(rng.NextInt(54)));
    ExpectPairBounded(BoxMullerPair::FromUniforms(u1, rng.NextDouble()));
  }
  // u1 at and next to every tier edge, where the radius bounds are tight.
  for (int tier = 0; tier <= BoxMullerPair::kClampedTier; ++tier) {
    const double edge =
        std::bit_cast<double>(0x3ff0000000000000ull - (static_cast<uint64_t>(tier) << 51));
    for (const double u1 : {std::nextafter(edge, 0.0), edge, std::nextafter(edge, 1.0)}) {
      if (u1 > 0.0 && u1 < 1.0) {
        ExpectPairBounded(BoxMullerPair::FromUniforms(u1, rng.NextDouble()));
      }
    }
  }
  // Angles at and next to every sector edge, where cos or sin peaks or
  // changes sign.
  for (int edge = 0; edge <= BoxMullerPair::kSectors; ++edge) {
    const double u2 = static_cast<double>(edge) / BoxMullerPair::kSectors;
    for (const double near : {std::nextafter(u2, 0.0), u2, std::nextafter(u2, 1.0)}) {
      if (near >= 0.0 && near < 1.0) {
        ExpectPairBounded(BoxMullerPair::FromUniforms(0.3, near));
        ExpectPairBounded(BoxMullerPair::FromUniforms(0x1p-53, near));
      }
    }
  }
  for (int tier = 1; tier <= BoxMullerPair::kClampedTier; ++tier) {
    EXPECT_GT(BoxMullerPair::RadiusBound(tier), BoxMullerPair::RadiusBound(tier - 1));
  }
  // The smallest unclamped draw, 2^-53, has a radius of 8.5717.
  EXPECT_LT(BoxMullerPair::RadiusBound(BoxMullerPair::FromUniforms(0x1p-53, 0.0).RadiusTier()),
            8.62);
}

// A sector never straddles a quadrant: beyond the rounding slack, each bound
// keeps one sign, so a normal's sign is known before it is transformed.
TEST(RngTest, SectorsFixTheSignOfEachNormal) {
  for (int tier = 0; tier <= BoxMullerPair::kClampedTier; ++tier) {
    const double slack = 1e-8 * BoxMullerPair::RadiusBound(tier);
    for (int sector = 0; sector < BoxMullerPair::kSectors; ++sector) {
      for (int half = 0; half < 2; ++half) {
        const BoxMullerPair::Interval g = BoxMullerPair::Bounds(tier, sector, half);
        EXPECT_LE(g.lo, g.hi);
        EXPECT_TRUE(g.lo >= -slack || g.hi <= slack)
            << "tier " << tier << " sector " << sector << " half " << half;
      }
    }
  }
}

// The draw reads tier and sector off the integers behind u1 and u2; they
// must match the pair's own, including the clamped u1 = 0.
TEST(RngTest, MantissaTierAndSectorMatchThePair) {
  Rng rng(47);
  for (int i = 0; i < 20000; ++i) {
    // Mantissas with every count of leading zeros, and their neighbours.
    const uint64_t m = (rng.NextU64() >> 11) >> rng.NextInt(54);
    for (const uint64_t m1 : {m, m + 1, m > 0 ? m - 1 : 0}) {
      if (m1 >> 53 != 0) {
        continue;  // u = 1, which NextDouble() never returns
      }
      const BoxMullerPair pair = BoxMullerPair::FromUniforms(static_cast<double>(m1) * 0x1.0p-53,
                                                             static_cast<double>(m1) * 0x1.0p-53);
      EXPECT_EQ(BoxMullerPair::TierOfMantissa(m1), pair.RadiusTier()) << m1;
      EXPECT_EQ(BoxMullerPair::SectorOfMantissa(m1), pair.AngleSector()) << m1;
    }
  }
  EXPECT_EQ(BoxMullerPair::TierOfMantissa(0), BoxMullerPair::kClampedTier);
  EXPECT_EQ(BoxMullerPair::TierOfMantissa(1), BoxMullerPair::kClampedTier - 1);
  EXPECT_EQ(BoxMullerPair::SectorOfMantissa((uint64_t{1} << 53) - 1), BoxMullerPair::kSectors - 1);
}

TEST(RngTest, ClampedUniformIsBoundedInBlocksAndPairs) {
  // Explicit uniforms: u1 = 0 is clamped to 1e-300 (radius 37.17).
  for (const double u2 : {0.0, 0.1, 0.25, 0.6, 0.999}) {
    const BoxMullerPair pair = BoxMullerPair::FromUniforms(0.0, u2);
    EXPECT_EQ(pair.u1, 1e-300);
    EXPECT_EQ(pair.RadiusTier(), BoxMullerPair::kClampedTier);
    double normals[2] = {};
    pair.Normals(normals);
    EXPECT_TRUE(std::isfinite(normals[0]) && std::isfinite(normals[1]));
    ExpectPairBounded(pair);
  }
  // A generator whose next NextU64() is 0 (xoshiro256** outputs 0 when its
  // second state word is 0), so its first Box-Muller u1 is clamped.
  const Rng::State state = {1, 0, 0, 0};
  Rng reference = Rng::FromState(state);
  Rng drawn = Rng::FromState(state);
  GaussianBlock block;
  drawn.DrawGaussians(3, &block);
  std::vector<double> values(3);
  block.Values(0, 3, values.data());
  EXPECT_GT(std::abs(values[0]), 37.0);
  EXPECT_GE(block.MaxMagnitude(), 37.17);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_TRUE(SameBits(values[i], reference.NextGaussian()));
  }
  ExpectBlockBounded(block);
  EXPECT_TRUE(SameBits(drawn.NextGaussian(), reference.NextGaussian()));
  EXPECT_EQ(drawn.NextU64(), reference.NextU64());
}

}  // namespace
}  // namespace xnuma
