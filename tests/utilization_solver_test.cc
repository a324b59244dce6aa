// The utilization fixed point on hand-built plans over the AMD48 machine,
// with no hypervisor, guest or engine: a loaded plan that converges and
// re-converges in one iteration from its own answer, the plan whose cold
// solve stops at the iteration cap, and a plan whose demand exceeds a
// controller's capacity.

#include "src/sim/utilization_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/numa/latency_model.h"
#include "src/numa/topology.h"
#include "src/obs/obs.h"

namespace xnuma {
namespace {

// `threads` threads on CPUs 0, 1, ..., each reading `local` of its accesses
// from its own node and the rest evenly from every node.
struct Plan {
  std::vector<std::vector<double>> rows;
  std::vector<UtilizationSolver::Thread> threads;

  Plan(const Topology& topo, int count, double cycles_per_access, double mlp, double local) {
    const int nodes = topo.num_nodes();
    rows.resize(count);
    for (int t = 0; t < count; ++t) {
      const NodeId node = topo.node_of_cpu(t);
      rows[t].assign(nodes, (1.0 - local) / nodes);
      rows[t][node] += local;
      threads.push_back({{0, t, node, t}, cycles_per_access, mlp, 0.0, rows[t].data()});
    }
  }
};

int64_t CounterValue(const Observability& obs, const std::string& name) {
  for (const MetricSnapshot& m : obs.metrics().Snapshot()) {
    if (m.name == name) {
      return m.count;
    }
  }
  ADD_FAILURE() << "metric " << name << " not registered";
  return 0;
}

TEST(UtilizationSolverTest, LoadedPlanConvergesAndReconvergesInOneIteration) {
  const Topology topo = Topology::Amd48();
  const LatencyModel latency;
  UtilizationSolver solver(topo, latency);
  const Plan plan(topo, 24, /*cycles_per_access=*/60.0, /*mlp=*/2.0, /*local=*/0.5);
  std::vector<double> dma(topo.num_nodes(), 0.0);
  dma[2] = 2e9;

  // From idle the first solves stop at the cap; each starts from the last.
  int solves = 0;
  do {
    solver.Solve(plan.threads, /*generation=*/1, dma);
    ++solves;
  } while (solver.last_residual() > kFixedPointTolerance && solves < 20);
  ASSERT_LE(solver.last_residual(), kFixedPointTolerance) << solves << " solves";
  EXPECT_GT(solves, 1);
  EXPECT_LT(solver.last_iterations(), kFixedPointMaxIterations);

  // The fixed point carries real load, and its utilizations reproduce the
  // demand of the rates it returns.
  const LatencyParams& lp = latency.params();
  double max_util = 0.0;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    double bytes = dma[n];
    for (size_t i = 0; i < plan.threads.size(); ++i) {
      bytes += solver.rate(i) * plan.rows[i][n] * kCacheLineBytes;
    }
    const double util = bytes / (topo.node(n).mc_bandwidth_bytes_per_s * lp.mc_efficiency);
    EXPECT_NEAR(solver.mc_util()[n], util, 1e-6) << "node " << n;
    max_util = std::max(max_util, util);
  }
  EXPECT_GT(max_util, 0.3);
  for (size_t i = 0; i < plan.threads.size(); ++i) {
    EXPECT_GT(solver.rate(i), 0.0);
    EXPECT_GT(solver.latency_cycles(i), 0.0);
  }

  // Warm-started from its own answer, the next solve stops after one
  // iteration, within the tolerance, and keeps the answer.
  const std::vector<double> mc_before = solver.mc_util();
  const int64_t total_before = solver.total_iterations();
  solver.Solve(plan.threads, /*generation=*/1, dma);
  EXPECT_EQ(solver.last_iterations(), 1);
  EXPECT_EQ(solver.total_iterations(), total_before + 1);
  EXPECT_LE(solver.last_residual(), kFixedPointTolerance);
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    EXPECT_NEAR(solver.mc_util()[n], mc_before[n], kFixedPointTolerance);
  }
}

TEST(UtilizationSolverTest, OverloadStopsAtTheCapAndCountsUnconverged) {
  // FixedPointTest's plan: all 48 threads at 20 cycles per access, reading
  // every node evenly as round-4K places their pages. Its controllers
  // settle near 0.4 utilization, below saturation, so nothing is
  // overloaded; the cap is reached because the solve starts from idle: a
  // damped step keeps 85% of the error, so the solve cannot reach the
  // tolerance within the cap: it stops there and keeps its last iterate.
  const Topology topo = Topology::Amd48();
  const LatencyModel latency;
  Observability obs;
  UtilizationSolver solver(topo, latency, &obs);
  const Plan plan(topo, 48, /*cycles_per_access=*/20.0, /*mlp=*/2.0, /*local=*/0.0);
  const std::vector<double> dma(topo.num_nodes(), 0.0);

  solver.Solve(plan.threads, /*generation=*/1, dma);
  EXPECT_EQ(solver.last_iterations(), kFixedPointMaxIterations);
  EXPECT_GT(solver.last_residual(), kFixedPointTolerance);
  EXPECT_EQ(CounterValue(obs, "engine.solver.unconverged"), 1);
  EXPECT_EQ(CounterValue(obs, "engine.solver.plan_builds"), 1);
  for (const double u : solver.mc_util()) {
    EXPECT_GT(u, 0.3);
  }

  // The same key and generation reuse the plan; a new generation rebuilds it.
  solver.Solve(plan.threads, /*generation=*/1, dma);
  EXPECT_EQ(CounterValue(obs, "engine.solver.plan_builds"), 1);
  solver.Solve(plan.threads, /*generation=*/2, dma);
  EXPECT_EQ(CounterValue(obs, "engine.solver.plan_builds"), 2);
}

// SaturatedControllerStaysFiniteAndPositive's answer under the damped
// iteration (kUtilizationDamping, kFixedPointMaxIterations): three solves
// stop at the cap and the fourth converges after 3 iterations, with node
// 0's controller at 1.0216 utilization.
constexpr int kPinnedSolves = 4;
constexpr int64_t kPinnedIterations = 75;
constexpr int64_t kPinnedUnconverged = 3;
constexpr uint64_t kPinnedNode0UtilBits = 0x3ff0587efde7eff6ull;
constexpr uint64_t kPinnedUtilDigest = 0xd061966b7a2198a4ull;

TEST(UtilizationSolverTest, SaturatedControllerStaysFiniteAndPositive) {
  // All 48 threads at 20 cycles per access read node 0 alone. At idle
  // latency their demand is about four times the controller's capacity, so
  // the iteration climbs the steep overload slope (utilization above
  // saturation) that kUtilizationDamping keeps contracting. Warm solves
  // run until one converges; the counts and bits below are today's damped
  // iteration's, pinned so a new iteration re-records them knowingly.
  const Topology topo = Topology::Amd48();
  const LatencyModel latency;
  const LatencyParams& lp = latency.params();
  Observability obs;
  UtilizationSolver solver(topo, latency, &obs);
  Plan plan(topo, 48, /*cycles_per_access=*/20.0, /*mlp=*/2.0, /*local=*/0.0);
  for (std::vector<double>& row : plan.rows) {
    std::fill(row.begin(), row.end(), 0.0);
    row[0] = 1.0;
  }
  const std::vector<double> dma(topo.num_nodes(), 0.0);
  const double capacity = topo.node(0).mc_bandwidth_bytes_per_s * lp.mc_efficiency;

  // Demand at idle latency: every access pays the uncontended cycles of
  // its hop count.
  double idle_demand = 0.0;
  for (const UtilizationSolver::Thread& th : plan.threads) {
    const double cycles =
        lp.base_cycles[topo.Distance(th.key.node, 0)] / th.mlp + th.cycles_per_access;
    idle_demand += topo.cpu_hz() / cycles * kCacheLineBytes;
  }
  EXPECT_GT(idle_demand, 4.0 * capacity);

  constexpr int kMaxSolves = 100;
  int solves = 0;
  do {
    solver.Solve(plan.threads, /*generation=*/1, dma);
    ++solves;
    for (const double u : solver.mc_util()) {
      ASSERT_TRUE(std::isfinite(u) && u >= 0.0) << "solve " << solves;
    }
    for (const double u : solver.link_util()) {
      ASSERT_TRUE(std::isfinite(u) && u >= 0.0) << "solve " << solves;
    }
    ASSERT_GT(solver.mc_util()[0], 0.0) << "solve " << solves;
    for (size_t i = 0; i < plan.threads.size(); ++i) {
      ASSERT_TRUE(std::isfinite(solver.rate(i)) && solver.rate(i) > 0.0) << "solve " << solves;
      ASSERT_TRUE(std::isfinite(solver.latency_cycles(i)) && solver.latency_cycles(i) > 0.0)
          << "solve " << solves;
    }
  } while (solver.last_residual() > kFixedPointTolerance && solves < kMaxSolves);

  // The controller sits past saturation, and its utilization reproduces
  // the demand of the rates the solve returns.
  double bytes = 0.0;
  for (size_t i = 0; i < plan.threads.size(); ++i) {
    bytes += solver.rate(i) * kCacheLineBytes;
  }
  EXPECT_GT(solver.mc_util()[0], lp.saturation_util);
  EXPECT_NEAR(solver.mc_util()[0], bytes / capacity, 1e-6);

  uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a over every utilization's bits
  for (const std::vector<double>* utils : {&solver.mc_util(), &solver.link_util()}) {
    for (const double u : *utils) {
      const uint64_t bits = std::bit_cast<uint64_t>(u);
      for (int b = 0; b < 8; ++b) {
        digest = (digest ^ ((bits >> (8 * b)) & 0xFF)) * 0x100000001b3ull;
      }
    }
  }
  EXPECT_EQ(solves, kPinnedSolves);
  EXPECT_EQ(solver.total_iterations(), kPinnedIterations);
  EXPECT_EQ(CounterValue(obs, "engine.solver.unconverged"), kPinnedUnconverged);
  EXPECT_EQ(std::bit_cast<uint64_t>(solver.mc_util()[0]), kPinnedNode0UtilBits)
      << solver.mc_util()[0];
  EXPECT_EQ(digest, kPinnedUtilDigest) << std::hex << digest;
}

}  // namespace
}  // namespace xnuma
