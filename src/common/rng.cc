#include "src/common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace xnuma {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

// kRadii[tier] holds sqrt(-2 ln u1) for every u1 of the tier: the radius at
// the tier's largest and smallest u1, widened by a relative 1e-9, far above
// the rounding of log and sqrt. Every unclamped u1 (>= 2^-53) lies at or
// below tier 106, bounded by 8.62; the last tier's 37.2 covers the clamped
// 1e-300.
const std::array<BoxMullerPair::Interval, BoxMullerPair::kClampedTier + 1> BoxMullerPair::kRadii =
    [] {
      auto radius_at = [](int tier_edge) {
        const double u1 = std::bit_cast<double>(0x3ff0000000000000ull -
                                                (static_cast<uint64_t>(tier_edge) << 51));
        return std::sqrt(-2.0 * std::log(u1));
      };
      std::array<Interval, kClampedTier + 1> radii{};
      for (int tier = 0; tier <= kClampedTier; ++tier) {
        radii[tier].lo = radius_at(tier) * (1.0 - 1e-9);
        // The tier's smallest u1 lies one bit above the next tier's largest.
        const double lowest = std::bit_cast<double>(0x3ff0000000000000ull -
                                                    (static_cast<uint64_t>(tier + 1) << 51) + 1);
        radii[tier].hi = std::sqrt(-2.0 * std::log(lowest)) * (1.0 + 1e-9);
      }
      radii[kClampedTier].hi = 37.2;
      return radii;
    }();

// kAngles[sector][half] holds cos (half 0) or sin (half 1) of every angle
// 2*pi*u2 with u2 in the sector. The sectors' edges include every peak of
// cos and sin (multiples of a quarter turn), so each is monotone over a
// sector and its values at the two edges bound it; 1e-9 covers the rounding
// of the angle and of cos and sin.
const std::array<std::array<BoxMullerPair::Interval, 2>, BoxMullerPair::kSectors>
    BoxMullerPair::kAngles = [] {
      std::array<std::array<Interval, 2>, kSectors> angles{};
      for (int sector = 0; sector < kSectors; ++sector) {
        const double lo = 2.0 * M_PI * sector / kSectors;
        const double hi = 2.0 * M_PI * (sector + 1) / kSectors;
        angles[sector][0] = {std::min(std::cos(lo), std::cos(hi)) - 1e-9,
                             std::max(std::cos(lo), std::cos(hi)) + 1e-9};
        angles[sector][1] = {std::min(std::sin(lo), std::sin(hi)) - 1e-9,
                             std::max(std::sin(lo), std::sin(hi)) + 1e-9};
      }
      return angles;
    }();

const std::array<std::array<float, 2>, BoxMullerPair::kSectors << GaussianBlock::kSectorShift>
    GaussianBlock::kUppers = [] {
      std::array<std::array<float, 2>, BoxMullerPair::kSectors << kSectorShift> uppers{};
      for (int sector = 0; sector < BoxMullerPair::kSectors; ++sector) {
        for (int tier = 0; tier <= BoxMullerPair::kClampedTier; ++tier) {
          for (int half = 0; half < 2; ++half) {
            const double hi = BoxMullerPair::Bounds(tier, sector, half).hi;
            float up = static_cast<float>(hi);
            if (static_cast<double>(up) < hi) {
              up = std::nextafter(up, std::numeric_limits<float>::infinity());
            }
            uppers[tier | sector << kSectorShift][half] = up;
          }
        }
      }
      return uppers;
    }();

// Every Gaussian the generator hands out, one at a time or from a block, is
// computed here, so they agree bit for bit.
void BoxMullerPair::Normals(double out[2]) const {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  out[0] = r * std::cos(theta);
  out[1] = r * std::sin(theta);
}

void GaussianBlock::Values(size_t first, size_t count, double* out) {
  size_t j = first + offset_;  // position in the pairs' value stream
  const size_t end = j + count;
  auto emit = [&](const BoxMullerPair& pair) {
    double normals[2] = {};
    pair.Normals(normals);
    for (size_t half = j % 2; half < 2 && j < end; ++half, ++j) {
      *out++ = normals[half];
    }
  };
  if (j < end && j / 2 < offset_) {
    emit(carried_);
  }
  if (j < end) {
    // Replay from the cursor when it is at most as far behind as the
    // nearest saved state.
    const size_t q = j / 2 - offset_;
    if (q < cursor_q_ || q - cursor_q_ > q % kPairsPerState) {
      cursor_ = Rng::FromState(states_[q / kPairsPerState]);
      cursor_q_ = q - q % kPairsPerState;
    }
    for (; cursor_q_ < q; ++cursor_q_) {
      cursor_.NextPair();
    }
    while (j < end) {
      emit(cursor_.NextPair());
      ++cursor_q_;
    }
  }
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(&sm);
  }
}

Rng Rng::FromState(const State& state) { return Rng(state); }

bool Rng::NextBool(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

double Rng::NextGaussian() {
  double normals[2] = {};
  if (HasPending()) {
    pending_.Normals(normals);
    pending_ = {0.0, 0.0};
    return normals[1];
  }
  pending_ = NextPair();
  pending_.Normals(normals);
  return normals[0];
}

void Rng::DrawGaussians(size_t n, GaussianBlock* block) {
  const size_t offset = n > 0 && HasPending() ? 1 : 0;
  const size_t pairs = (offset + n + 1) / 2;
  block->size_ = n;
  block->offset_ = offset;
  block->carried_ = pending_;
  block->codes_.resize(pairs);
  block->states_.clear();
  block->cursor_q_ = SIZE_MAX;
  uint16_t* codes = block->codes_.data();
  int max_tier = 0;
  if (offset == 1) {
    max_tier = pending_.RadiusTier();
    codes[0] = static_cast<uint16_t>(max_tier | pending_.AngleSector()
                                                    << GaussianBlock::kSectorShift);
  }
  // Draw through a local generator whose address never escapes, so its
  // state stays in registers across the stores. Tier and sector come
  // straight from the integers behind u1 and u2, and the smallest m1 has
  // the largest tier.
  Rng gen = FromState(s_);
  uint64_t m1 = 0;
  uint64_t m2 = 0;
  uint64_t min_m1 = UINT64_MAX;
  for (size_t p = offset; p < pairs;) {
    const State state = gen.s_;
    block->states_.push_back(state);
    const size_t end = std::min(pairs, p + GaussianBlock::kPairsPerState);
    for (; p < end; ++p) {
      m1 = gen.NextU64() >> 11;
      m2 = gen.NextU64() >> 11;
      min_m1 = std::min(min_m1, m1);
      codes[p] = static_cast<uint16_t>(BoxMullerPair::TierOfMantissa(m1) |
                                       BoxMullerPair::SectorOfMantissa(m2)
                                           << GaussianBlock::kSectorShift);
    }
  }
  s_ = gen.s_;
  if (min_m1 != UINT64_MAX) {
    max_tier = std::max(max_tier, BoxMullerPair::TierOfMantissa(min_m1));
  }
  // Every angle bound lies within 1 + 1e-9 of zero.
  block->max_magnitude_ = pairs > 0 ? BoxMullerPair::RadiusBound(max_tier) * (1.0 + 1e-9) : 0.0;
  if (n > 0) {
    // An odd end leaves the last pair, a fresh one, waiting with its sine
    // half for the next call.
    pending_ = (offset + n) % 2 == 1
                   ? BoxMullerPair::FromUniforms(static_cast<double>(m1) * 0x1.0p-53,
                                                 static_cast<double>(m2) * 0x1.0p-53)
                   : BoxMullerPair{0.0, 0.0};
  }
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace xnuma
