// Tests for the fixed-point solver's convergence rule, its iteration cap and
// its convergence telemetry, and for the access distributions the epoch loop
// hands each solve.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "src/guest/guest_os.h"
#include "src/hv/hypervisor.h"
#include "src/numa/latency_model.h"
#include "src/numa/topology.h"
#include "src/obs/obs.h"
#include "src/sim/engine.h"
#include "src/workload/app_profile.h"

namespace xnuma {
namespace {

AppProfile SmallApp(double cycles_per_access = 150.0) {
  AppProfile app;
  app.name = "fp-app";
  app.cpu_cycles_per_access = cycles_per_access;
  app.nominal_seconds = 0.5;
  RegionSpec shared;
  shared.name = "shared";
  shared.footprint_mb = 512;
  shared.init = AllocPattern::kMasterInit;
  shared.access_share = 0.7;
  app.regions.push_back(shared);
  RegionSpec priv;
  priv.name = "private";
  priv.footprint_mb = 256;
  priv.init = AllocPattern::kOwnerPartitioned;
  priv.access_share = 0.3;
  priv.owner_affinity = 0.9;
  app.regions.push_back(priv);
  return app;
}

struct FpMachine {
  Topology topo = Topology::Amd48();
  Hypervisor hv{topo};
  LatencyModel latency;
  std::unique_ptr<GuestOs> guest;
  std::unique_ptr<Engine> engine;

  FpMachine(const EngineConfig& ec, const AppProfile& app, int threads = 12,
            Observability* obs = nullptr) {
    hv.set_observability(obs);
    DomainConfig dc;
    dc.name = "dom";
    dc.num_vcpus = threads;
    dc.memory_pages = AppSimPages(app, hv.frames().bytes_per_frame(), ec.min_region_pages) + 64;
    for (int i = 0; i < threads; ++i) {
      dc.pinned_cpus.push_back(i);
    }
    dc.policy.placement = StaticPolicy::kRound4k;
    const DomainId dom = hv.CreateDomain(dc);
    guest = std::make_unique<GuestOs>(hv, dom);
    engine = std::make_unique<Engine>(hv, latency, ec);
    JobSpec spec;
    spec.app = &app;
    spec.domain = dom;
    spec.guest = guest.get();
    spec.threads = threads;
    engine->AddJob(spec);
  }
};

MetricSnapshot FindMetric(const Observability& obs, const std::string& name) {
  for (const MetricSnapshot& m : obs.metrics().Snapshot()) {
    if (m.name == name) {
      return m;
    }
  }
  ADD_FAILURE() << "metric " << name << " not registered";
  return {};
}

TEST(FixedPointTest, EarlyExitSavesIterationsAndMatchesWithinTolerance) {
  // The same run with every solve taking all 24 iterations, as the solver
  // did before it stopped at convergence.
  constexpr double kCappedCompletionSeconds = 0.53069480430183436;
  constexpr double kCappedAvgLatencyCycles = 262.41183727419883;
  const AppProfile app = SmallApp();
  EngineConfig ec;
  ec.seed = 5;
  Observability obs;
  FpMachine m(ec, app, /*threads=*/12, &obs);
  RunResult r = m.engine->Run();
  ASSERT_TRUE(r.jobs.back().finished);
  // The converged steady state makes most epochs exit after a handful of
  // iterations.
  const int64_t epochs = m.engine->epochs_run();
  ASSERT_GT(epochs, 0);
  EXPECT_LT(m.engine->fixed_point_iterations_total(), epochs * kFixedPointMaxIterations);
  EXPECT_EQ(FindMetric(obs, "engine.solver.residual").count, epochs);
  EXPECT_LT(FindMetric(obs, "engine.solver.unconverged").count, epochs);
  // Results agree with the capped run within a tolerance-scale relative
  // error.
  const JobResult& result = r.jobs.back();
  EXPECT_NEAR(result.completion_seconds, kCappedCompletionSeconds,
              1e-4 * kCappedCompletionSeconds);
  EXPECT_NEAR(result.avg_latency_cycles, kCappedAvgLatencyCycles,
              1e-4 * kCappedAvgLatencyCycles);
}

TEST(FixedPointTest, OverloadStillTerminatesAtIterationCap) {
  // A bandwidth-hungry app (few CPU cycles per access, all 48 threads)
  // whose round-4K pages spread its load over every node: the controllers
  // peak near 0.37 utilization and the links near 0.80, so nothing
  // saturates. Its solves reach the cap only where the fixed point jumps
  // (4 of 18: the two climbing from idle and the two after threads
  // finish), since a damped step keeps 85% of the error.
  // UtilizationSolverTest.SaturatedControllerStaysFiniteAndPositive drives
  // a controller past saturation.
  const AppProfile app = SmallApp(/*cycles_per_access=*/20.0);
  EngineConfig ec;
  ec.seed = 5;
  ec.max_sim_seconds = 30.0;
  Observability obs;
  FpMachine m(ec, app, /*threads=*/48, &obs);
  RunResult r = m.engine->Run();
  ASSERT_TRUE(r.jobs.back().finished);
  EXPECT_LE(m.engine->last_fixed_point_iterations(), kFixedPointMaxIterations);
  EXPECT_LE(m.engine->fixed_point_iterations_total(),
            m.engine->epochs_run() * kFixedPointMaxIterations);
  EXPECT_EQ(FindMetric(obs, "engine.solver.iterations").max, kFixedPointMaxIterations);
  const MetricSnapshot unconverged = FindMetric(obs, "engine.solver.unconverged");
  EXPECT_GT(unconverged.count, 0);
  EXPECT_LE(unconverged.count, m.engine->epochs_run());
  // A solve stopped by the cap reports a residual above the tolerance.
  EXPECT_GT(FindMetric(obs, "engine.solver.residual").max, kFixedPointTolerance);
}

TEST(FixedPointTest, DistributionsAreRecomputedOnlyWhenTheirInputsMove) {
  // Round-4K placement with no churn, no Carrefour and pinned threads: the
  // derived masses are set once, so only the first epoch and the epochs
  // after threads finish recompute the distributions.
  AppProfile app = SmallApp();
  app.nominal_seconds = 2.0;
  EngineConfig ec;
  ec.seed = 5;
  Observability obs;
  FpMachine m(ec, app, /*threads=*/12, &obs);
  RunResult r = m.engine->Run();
  ASSERT_TRUE(r.jobs.back().finished);
  const int64_t epochs = m.engine->epochs_run();
  const int64_t recomputes = FindMetric(obs, "engine.placement.distribution_recomputes").count;
  EXPECT_EQ(FindMetric(obs, "engine.epochs").count, epochs);
  EXPECT_GE(recomputes, 1);
  EXPECT_LE(recomputes, 1 + 12);
  EXPECT_LT(recomputes * 4, epochs);
}

}  // namespace
}  // namespace xnuma
