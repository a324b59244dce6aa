// The utilization fixed point on hand-built plans over the AMD48 machine,
// with no hypervisor, guest or engine: a loaded plan that converges and
// re-converges in one iteration from its own answer, and the overloaded
// plan whose solves stop at the iteration cap.

#include "src/sim/utilization_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
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
  // FixedPointTest's overload plan: all 48 threads at 20 cycles per access,
  // reading every node evenly as round-4K places their pages. Its
  // controllers settle near 0.4 utilization, below saturation; from idle
  // a damped step keeps 85% of the error, so the solve cannot reach the
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

}  // namespace
}  // namespace xnuma
