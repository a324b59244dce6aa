// The epoch's bandwidth/latency fixed point (docs/MODEL.md §3, §9), built
// from the machine alone: a solve takes the running threads and the DMA
// demand per node and returns each thread's rate and latency and the
// controller and link utilizations, which the next solve starts from.

#ifndef XENNUMA_SRC_SIM_UTILIZATION_SOLVER_H_
#define XENNUMA_SRC_SIM_UTILIZATION_SOLVER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/types.h"
#include "src/numa/latency_model.h"
#include "src/numa/topology.h"
#include "src/obs/obs.h"

namespace xnuma {

// The damped Picard iteration stops once the largest per-iteration
// change of any controller or link utilization is at most the tolerance.
// A damped step keeps 85% of the error where the map is flat, so a solve
// whose fixed point moved far converges too slowly to meet the tolerance
// within the cap; it stops there and keeps its last iterate (docs/MODEL.md §3).
inline constexpr double kFixedPointTolerance = 1e-7;
inline constexpr int kFixedPointMaxIterations = 24;
// Weight of each iteration's new utilization estimate. The rate/latency
// fixed point has steep negative slope in the overload region (|d'| up to
// ~8 with the default overload_slope), so the damped Picard iteration needs
// damping < 2/(1+|d'|) to contract.
inline constexpr double kUtilizationDamping = 0.15;

class UtilizationSolver {
 public:
  // A running thread's entry in the plan key; threads on one CPU split it.
  struct Key {
    int32_t job = 0;
    int32_t thread = 0;
    NodeId node = kInvalidNode;
    CpuId cpu = kInvalidCpu;
    bool operator==(const Key&) const = default;
  };
  // One running thread as a solve reads it. Equal keys and an equal
  // generation (Solve) promise equal cycles, MLP and p_node rows.
  struct Thread {
    Key key;
    double cycles_per_access = 0.0;
    double mlp = 0.0;
    double walk_cycles = 0.0;        // page-walk stall per access, this solve
    const double* p_node = nullptr;  // access distribution, one entry per node
  };

  // With XNUMA_VERIFY_PLACEMENT_CACHE's period N > 0, every Nth solve that
  // reuses its plan rebuilds it and aborts unless the two are equal.
  UtilizationSolver(const Topology& topo, const LatencyModel& latency,
                    Observability* obs = nullptr, int verify_period = 0);

  // `threads` are the running threads in job and thread order; `generation`
  // moves whenever some p_node row may have.
  void Solve(std::span<const Thread> threads, uint64_t generation,
             const std::vector<double>& dma_bytes_per_node);

  // The last solve's answers, rates and latencies indexed like its threads.
  double rate(size_t i) const { return thread_rate_[i]; }
  double latency_cycles(size_t i) const { return thread_latency_[i]; }
  const std::vector<double>& mc_util() const { return mc_util_; }
  const std::vector<double>& link_util() const { return link_util_; }
  const std::vector<double>& traffic() const { return traffic_; }  // accesses/s [src * nodes + dst]
  int last_iterations() const { return last_iterations_; }
  double last_residual() const { return last_residual_; }
  int64_t total_iterations() const { return total_iterations_; }
  // `engine.solver.seconds`, which the engine's solver_fixed_point span fills.
  Histogram* seconds_histogram() const { return seconds_; }

 private:
  // A (source node, destination node) pair some running thread reads.
  struct LatencyPair {
    NodeId src = 0;
    NodeId dst = 0;
    int32_t hops = 0;
    bool operator==(const LatencyPair&) const = default;
  };
  // The solve plan: what a solve derives from the running threads,
  // flattened. Every input of a plan entry is named by the plan key, so a
  // plan built under the same key holds the same bits, and only a key change
  // rebuilds it (there are no invalidation calls).
  struct SolvePlan {
    std::vector<Key> key;
    uint64_t generation = 0;
    std::vector<double> share_hz;  // per thread: CPU share (1 / threads on its CPU) * cpu_hz
    std::vector<double> p_node;    // [threads][nodes], copies of their rows
    // Every pair read, destination-major: each iteration prices them into
    // pair_cycles_ ([src * nodes + dst]) before the thread loop.
    std::vector<LatencyPair> latency_pairs;
    // The remote pairs among them (src != dst) as src * nodes + dst,
    // source-major: the only pairs whose traffic can be spread over links.
    std::vector<int32_t> remote_pairs;
    bool operator==(const SolvePlan&) const = default;
  };
  // Worst-link-per-path route index: route_pairs_[src * nodes + dst] names
  // the equal-cost paths of the pair; each path is a contiguous run of link
  // ids in route_links_. Replaces topology().Routes() calls (and their
  // nested vector walks) in the solver's inner loops.
  struct RoutePath {
    int32_t first_link = 0;
    int32_t num_links = 0;
  };
  struct RoutePair {
    int32_t first_path = 0;
    int32_t num_paths = 0;
  };
  // Per-iteration CongestionFactor memo, keyed by the bits of its input and
  // open-addressed in a power-of-two table at most half full (a plan has at
  // most nodes^2 pairs, each pricing one input). A slot is live only when
  // its stamp is the current iteration's. The factor is a pure function of
  // one double, so a memo hit returns the bits a fresh call would.
  struct CongestionSlot {
    uint64_t input_bits = 0;
    uint64_t stamp = 0;
    double factor = 0.0;
  };

  // Brings plan_ up to date with `threads` (docs/MODEL.md §9).
  void RefreshPlan(std::span<const Thread> threads, uint64_t generation);
  void PriceLatencyPairs();
  // LatencyModel::CongestionFactor(util), evaluated once per distinct input
  // per iteration.
  double MemoizedCongestionFactor(double util);

  const Topology* topo_;
  const LatencyModel* latency_;
  const int nodes_;
  const int verify_period_;
  std::vector<RoutePair> route_pairs_;
  std::vector<RoutePath> route_paths_;
  std::vector<LinkId> route_links_;
  // Effective controller and link bandwidths (bytes/s), fixed per machine.
  std::vector<double> mc_capacity_;
  std::vector<double> link_capacity_;
  SolvePlan plan_;
  SolvePlan spare_plan_;            // the next plan, built when the key moved
  std::vector<int> cpu_sharers_;    // [cpus], plan-build scratch
  std::vector<uint8_t> pair_read_;  // [src * nodes + dst], plan-build scratch
  std::vector<CongestionSlot> congestion_memo_;
  int congestion_shift_ = 63;  // 64 - log2(table size)
  uint64_t congestion_stamp_ = 0;

  // Utilization state, persisting across solves, and per-iteration values.
  std::vector<double> mc_util_;
  std::vector<double> link_util_;
  std::vector<double> traffic_;
  std::vector<double> thread_rate_;     // indexed like the solve's threads
  std::vector<double> thread_latency_;  // indexed like the solve's threads
  std::vector<double> pair_cycles_;
  std::vector<double> link_scratch_;
  int last_iterations_ = 0;
  // Largest utilization change of the most recent solve's last iteration.
  double last_residual_ = 0.0;
  int64_t total_iterations_ = 0;
  int64_t solves_ = 0;

  Histogram* seconds_ = nullptr;
  Histogram* iterations_ = nullptr;
  Histogram* residual_ = nullptr;
  Counter* unconverged_ = nullptr;
  Counter* plan_builds_ = nullptr;
  Counter* congestion_evals_ = nullptr;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_SIM_UTILIZATION_SOLVER_H_
