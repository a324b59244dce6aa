// Memory access latency model calibrated against the paper's Table 3.
//
// Uncontended latencies by hop distance (cycles @ 2.2 GHz):
//     local 156, one hop 276, two hops 383.
// Fully contended (48 threads hammering a single node):
//     local 697, one hop 740, two hops 863.
//
// Contention model: the extra delay is a function of the bottleneck
// utilization (destination memory controller or any link on the route,
// whichever is more loaded). Below `saturation_util` it follows a steep
// power law reaching exactly the Table 3 contended surplus at saturation;
// beyond saturation it keeps growing linearly and unboundedly, which is what
// makes an overloaded resource throttle throughput: the rate/latency fixed
// point settles where demand roughly equals capacity.

#ifndef XENNUMA_SRC_NUMA_LATENCY_MODEL_H_
#define XENNUMA_SRC_NUMA_LATENCY_MODEL_H_

#include <array>

#include "src/common/types.h"

namespace xnuma {

struct LatencyParams {
  // Cache hierarchy (Table 3, for reference output and think-time modeling).
  double l1_cycles = 5.0;
  double l2_cycles = 16.0;
  double l3_cycles = 48.0;

  // DRAM base latency by hop count.
  std::array<double, 3> base_cycles = {156.0, 276.0, 383.0};
  // Extra delay at `saturation_util`, by hop count: 697-156, 740-276,
  // 863-383.
  std::array<double, 3> saturated_extra_cycles = {541.0, 464.0, 480.0};

  // Utilization at which the Table 3 contended surplus is reached.
  double saturation_util = 0.98;
  // Shape of the congestion curve below saturation: (u/sat)^exponent.
  double congestion_exponent = 4.0;
  // Growth of the congestion factor per unit of utilization beyond
  // saturation; large enough that an overloaded resource throttles the
  // offered load down to roughly its capacity.
  double overload_slope = 25.0;
  // Upper bound on the congestion factor (keeps the rate/latency fixed point
  // numerically stable; high enough that equilibria below it exist for every
  // realistic workload).
  double max_congestion = 16.0;

  // Fraction of the peak memory-controller / link bandwidth that is actually
  // achievable by random cache-line traffic (real machines never reach the
  // datasheet peak; 48 threads at ~700 cycles/access move ~9.6 GiB/s through
  // a 13 GiB/s controller, which is the Table 3 operating point).
  double mc_efficiency = 0.72;
  double link_efficiency = 0.72;
};

class LatencyModel {
 public:
  explicit LatencyModel(LatencyParams params = LatencyParams());

  const LatencyParams& params() const { return params_; }

  // DRAM access latency in cycles. `mc_util` is the destination memory
  // controller utilization (raw demand/capacity, may exceed 1);
  // `path_link_util` the maximum utilization among links on the route
  // (0 when local).
  double AccessCycles(int hops, double mc_util, double path_link_util) const;

  // Congestion factor: 0 idle, exactly 1 at saturation_util, unbounded
  // beyond (overload region).
  double CongestionFactor(double util) const;

  // DRAM access latency in cycles at `hops` for a given congestion factor:
  // the one home of the latency formula, shared by AccessCycles and the
  // engine's per-solve latency table.
  double CyclesAt(int hops, double congestion_factor) const {
    return params_.base_cycles[hops] + congestion_factor * params_.saturated_extra_cycles[hops];
  }

  double UncontendedCycles(int hops) const { return params_.base_cycles[hops]; }
  double SaturatedCycles(int hops) const {
    return params_.base_cycles[hops] + params_.saturated_extra_cycles[hops];
  }

 private:
  LatencyParams params_;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_NUMA_LATENCY_MODEL_H_
