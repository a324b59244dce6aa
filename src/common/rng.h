// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic decision in the simulator draws from an explicitly seeded
// Rng so that experiments are exactly reproducible run-to-run. The generator
// is xoshiro256** seeded through SplitMix64, which is fast and has no
// observable bias for our uses (placement jitter, sampling noise).

#ifndef XENNUMA_SRC_COMMON_RNG_H_
#define XENNUMA_SRC_COMMON_RNG_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace xnuma {

// The two uniforms behind one Box-Muller pair of standard normals: the
// radius is sqrt(-2 ln u1) and the angle 2*pi*u2; the first normal is
// radius*cos(angle), the second radius*sin(angle).
struct BoxMullerPair {
  double u1 = 1.0;
  double u2 = 0.0;

  // Clamps u1 to at least 1e-300, so the radius stays finite.
  static BoxMullerPair FromUniforms(double u1, double u2) {
    return {std::max(u1, 1e-300), u2};
  }

  // Both normals: the cosine one first.
  void Normals(double out[2]) const;

  // Signed bounds on each normal with no transcendental call: half `half`
  // (0 the cosine, 1 the sine) lies in Bounds(RadiusTier(), AngleSector(),
  // half).
  //
  // The radius falls as u1 rises, so the tier of u1 bounds it from both
  // sides. RadiusTier() buckets u1 by half binary orders of magnitude, from
  // 0 for u1 above 0.75 up to kClampedTier, which no unclamped u1 (at least
  // 2^-53) reaches; RadiusBound(tier) is the tier's upper bound.
  static constexpr int kClampedTier = 107;
  int RadiusTier() const {
    const uint64_t below_one = 0x3ff0000000000000ull - std::bit_cast<uint64_t>(u1);
    return static_cast<int>(std::min<uint64_t>(below_one >> 51, kClampedTier));
  }
  static double RadiusBound(int tier) { return kRadii[tier].hi; }
  // AngleSector() is the 64th of the turn u2 falls in. A sector never
  // straddles a quadrant, so it fixes the signs of cos and sin.
  static constexpr int kSectors = 64;
  int AngleSector() const { return std::clamp(static_cast<int>(u2 * kSectors), 0, kSectors - 1); }

  // The same tier and sector from the 53-bit integers m = x >> 11 that
  // Rng::NextDouble() scales by 2^-53 into u1 and u2. m1 = 0 is the clamped
  // u1, whose exponent difference saturates at kClampedTier.
  static int TierOfMantissa(uint64_t m1) {
    const uint64_t below_one =
        0x4340000000000000ull - std::bit_cast<uint64_t>(static_cast<double>(m1));
    return static_cast<int>(std::min<uint64_t>(below_one >> 51, kClampedTier));
  }
  static int SectorOfMantissa(uint64_t m2) { return static_cast<int>(m2 >> 47); }

  struct Interval {
    double lo = 0.0;
    double hi = 0.0;
  };
  static Interval Bounds(int tier, int sector, int half) {
    const Interval& r = kRadii[tier];
    const Interval& a = kAngles[sector][half];
    return {std::min(r.lo * a.lo, r.hi * a.lo), std::max(r.lo * a.hi, r.hi * a.hi)};
  }

 private:
  // Per tier: the radius over its u1. Per sector and half: cos or sin over
  // its angles, signed. Each is widened for the rounding of log, sqrt, cos
  // and sin.
  static const std::array<Interval, kClampedTier + 1> kRadii;
  static const std::array<std::array<Interval, 2>, kSectors> kAngles;
};

class GaussianBlock;

class Rng {
 public:
  using State = std::array<uint64_t, 4>;

  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);
  // A generator resumed from a raw xoshiro256** state (not all zero), with
  // no carried Gaussian.
  static Rng FromState(const State& state);

  // Uniform 64-bit value. Inline: the per-page hot paths (placement jitter,
  // release selection) draw millions of values per simulated second.
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). `bound` must be positive. Modulo bias is
  // negligible for bounds far below 2^64.
  int64_t NextInt(int64_t bound) {
    return static_cast<int64_t>(NextU64() % static_cast<uint64_t>(bound));
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  // True with probability `p` (clamped to [0, 1]).
  bool NextBool(double p);

  // Normal(0, 1) via Box-Muller; deterministic for a given seed. Each pair
  // of uniforms yields two values; the second is carried to the next call.
  double NextGaussian();

  // Draws the uniforms behind the next `n` NextGaussian() values into
  // `block` (its storage is reused). The generator ends in the state n
  // NextGaussian() calls would have left, carried half included.
  void DrawGaussians(size_t n, GaussianBlock* block);

  // Derives an independent child generator; useful to give each simulated
  // component its own stream without cross-coupling.
  Rng Fork();

 private:
  friend class GaussianBlock;

  explicit Rng(const State& state) : s_(state) {}

  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  BoxMullerPair NextPair() {
    const double u1 = NextDouble();
    const double u2 = NextDouble();
    return BoxMullerPair::FromUniforms(u1, u2);
  }

  // Whether a pair's sine half waits for the next NextGaussian().
  bool HasPending() const { return pending_.u1 > 0.0; }

  State s_;
  // The pair whose sine half the next NextGaussian() returns; u1 = 0 (which
  // no draw yields, as drawn u1 are clamped) when none waits.
  BoxMullerPair pending_{0.0, 0.0};
};

// The next n NextGaussian() values of a generator, drawn by
// Rng::DrawGaussians and transformed only on demand: value i is bit-equal
// to the i-th NextGaussian() the generator would have returned instead. The
// block keeps each pair's radius tier and angle sector, which bound its
// values, and the generator's state every kPairsPerState pairs to replay
// the uniforms of the pairs it transforms.
class GaussianBlock {
 public:
  size_t size() const { return size_; }

  // Writes values [first, first + count) to `out`, transforming each pair
  // the range overlaps once. Ranges visited in ascending order replay the
  // fewest uniforms.
  void Values(size_t first, size_t count, double* out);
  // Signed bounds on value i, from its pair's radius tier and angle sector
  // alone.
  BoxMullerPair::Interval Bounds(size_t i) const {
    const size_t j = i + offset_;
    const uint16_t code = codes_[j / 2];
    return BoxMullerPair::Bounds(code & kTierMask, code >> kSectorShift, static_cast<int>(j % 2));
  }
  // Upper bounds on values [first, first + count), written to out: each at
  // least Bounds(i).hi, looked up per pair from its code.
  void UpperBounds(size_t first, size_t count, double* out) const {
    size_t j = first + offset_;
    const size_t end = j + count;
    while (j < end) {
      const std::array<float, 2>& hi = kUppers[codes_[j / 2]];
      for (size_t half = j % 2; half < 2 && j < end; ++half, ++j) {
        *out++ = hi[half];
      }
    }
  }
  // At least |Bounds(i).lo| and |Bounds(i).hi| for every value i: the
  // radius bound of the largest tier drawn.
  double MaxMagnitude() const { return max_magnitude_; }

 private:
  friend class Rng;

  static constexpr size_t kPairsPerState = 16;

  // Value i is half (i + offset_) % 2 of pair (i + offset_) / 2. When
  // offset_ is 1, pair 0 is carried_, whose cosine half went to an earlier
  // NextGaussian(). Pair p of the others is fresh pair q = p - offset_,
  // drawn from states_[q / kPairsPerState] after q % kPairsPerState pairs.
  size_t size_ = 0;
  size_t offset_ = 0;
  BoxMullerPair carried_;
  std::vector<Rng::State> states_;
  // Per pair p: RadiusTier() | AngleSector() << kSectorShift.
  static constexpr int kSectorShift = 7;
  static constexpr uint16_t kTierMask = (1 << kSectorShift) - 1;
  std::vector<uint16_t> codes_;
  // Per pair code and half: BoxMullerPair::Bounds(...).hi rounded up to a
  // float, a table small enough that the codes a scan meets stay cached.
  static const std::array<std::array<float, 2>, BoxMullerPair::kSectors << kSectorShift>
      kUppers;
  double max_magnitude_ = 0.0;
  // The generator right before fresh pair cursor_q_, where the last
  // Values() call stopped replaying.
  Rng cursor_;
  size_t cursor_q_ = SIZE_MAX;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_COMMON_RNG_H_
