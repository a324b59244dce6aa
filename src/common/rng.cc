#include "src/common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace xnuma {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// kRadiusBounds[tier] >= sqrt(-2 ln u1) for every u1 of the tier: the
// radius at the tier's smallest u1, raised by 1e-9, far above the rounding
// of log and sqrt. Every unclamped u1 (>= 2^-53) lies at or below tier 106,
// bounded by 8.62; the last tier's 37.2 covers the clamped 1e-300.
const std::array<double, BoxMullerPair::kClampedTier + 1> kRadiusBounds = [] {
  std::array<double, BoxMullerPair::kClampedTier + 1> bounds{};
  for (int tier = 0; tier < BoxMullerPair::kClampedTier; ++tier) {
    const double lowest = std::bit_cast<double>(0x3ff0000000000000ull -
                                                (static_cast<uint64_t>(tier + 1) << 51) + 1);
    bounds[tier] = std::sqrt(-2.0 * std::log(lowest)) * (1.0 + 1e-9);
  }
  bounds[BoxMullerPair::kClampedTier] = 37.2;
  return bounds;
}();

// kAngleBounds[half][sector] >= |cos| (half 0) or |sin| (half 1) of every
// angle 2*pi*u2 with u2 in the sector. The sectors' edges include every
// peak of |cos| and |sin| (multiples of a quarter turn), so the larger
// value at the two edges is the maximum; 1e-9 covers the rounding of the
// angle and of cos and sin.
const std::array<std::array<double, BoxMullerPair::kSectors>, 2> kAngleBounds = [] {
  std::array<std::array<double, BoxMullerPair::kSectors>, 2> bounds{};
  for (int sector = 0; sector < BoxMullerPair::kSectors; ++sector) {
    const double lo = 2.0 * M_PI * sector / BoxMullerPair::kSectors;
    const double hi = 2.0 * M_PI * (sector + 1) / BoxMullerPair::kSectors;
    bounds[0][sector] = std::max(std::abs(std::cos(lo)), std::abs(std::cos(hi))) + 1e-9;
    bounds[1][sector] = std::max(std::abs(std::sin(lo)), std::abs(std::sin(hi))) + 1e-9;
  }
  return bounds;
}();

}  // namespace

// Every Gaussian the generator hands out, one at a time or from a block, is
// computed here, so they agree bit for bit.
void BoxMullerPair::Normals(double out[2]) const {
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  out[0] = r * std::cos(theta);
  out[1] = r * std::sin(theta);
}

double BoxMullerPair::RadiusBound(int tier) { return kRadiusBounds[tier]; }

double BoxMullerPair::AngleBound(int sector, int half) { return kAngleBounds[half][sector]; }

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

double GaussianBlock::WeightedBound(size_t first, size_t count, const double* weights) const {
  double sum = 0.0;
  for (size_t k = 0; k < count; ++k) {
    const size_t j = first + offset_ + k;
    sum += std::abs(weights[k]) * BoxMullerPair::RadiusBound(tiers_[j / 2]) *
           BoxMullerPair::AngleBound(sectors_[j / 2], static_cast<int>(j % 2));
  }
  return sum;
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
  block->tiers_.resize(pairs);
  block->sectors_.resize(pairs);
  block->states_.clear();
  block->cursor_q_ = SIZE_MAX;
  // Draw through a local generator whose address never escapes, so its
  // state stays in registers across the byte-wide stores.
  Rng gen = FromState(s_);
  BoxMullerPair pair = pending_;
  uint8_t* tiers = block->tiers_.data();
  uint8_t* sectors = block->sectors_.data();
  for (size_t p = 0; p < pairs; ++p) {
    if (p >= offset) {
      if ((p - offset) % GaussianBlock::kPairsPerState == 0) {
        const State state = gen.s_;
        block->states_.push_back(state);
      }
      pair = gen.NextPair();
    }
    tiers[p] = static_cast<uint8_t>(pair.RadiusTier());
    sectors[p] = static_cast<uint8_t>(pair.AngleSector());
  }
  s_ = gen.s_;
  if (n > 0) {
    // An odd end leaves the last pair's sine half for the next call.
    pending_ = (offset + n) % 2 == 1 ? pair : BoxMullerPair{0.0, 0.0};
  }
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace xnuma
