// Differential test: a run with the observability layer attached must be
// bit-identical to a run without it.
//
// The instrumentation sits on every hot path — allocation faults, P2M
// remaps, backend migrations, the PV queue flush, Carrefour ticks, the
// solver loop — and only ever *reads* simulation state. Any write-back
// (an rng draw, a reordered container, a float accumulated differently)
// would silently skew every instrumented experiment, so the layer's core
// contract is: attached or detached, the simulation computes the same bits.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/guest/guest_os.h"
#include "src/hv/hypervisor.h"
#include "src/numa/latency_model.h"
#include "src/numa/topology.h"
#include "src/obs/obs.h"
#include "src/sim/engine.h"
#include "src/workload/app_profile.h"

namespace xnuma {
namespace {

AppProfile DiffChurnApp(const char* name) {
  AppProfile app;
  app.name = name;
  app.cpu_cycles_per_access = 150;
  app.nominal_seconds = 0.5;
  app.release_rate_per_s = 20000.0;  // churn drives the PV queue every epoch
  app.disk_read_mb = 64.0;
  RegionSpec shared;
  shared.name = "shared";
  shared.footprint_mb = 512;
  shared.init = AllocPattern::kMasterInit;
  shared.access_share = 0.6;
  shared.hot_fraction = 0.25;
  shared.hot_share = 0.8;
  app.regions.push_back(shared);
  RegionSpec priv;
  priv.name = "private";
  priv.footprint_mb = 256;
  priv.init = AllocPattern::kOwnerPartitioned;
  priv.access_share = 0.4;
  priv.owner_affinity = 0.9;
  app.regions.push_back(priv);
  return app;
}

struct PolicyCase {
  const char* label;
  StaticPolicy placement;
  bool carrefour;
};

class ObsDifferentialTest : public ::testing::TestWithParam<PolicyCase> {};

// One full simulation; `obs` non-null attaches the full layer before any
// domain exists (the CLI wiring order).
JobResult RunOnce(const AppProfile& app, const PolicyCase& pc, Observability* obs) {
  EngineConfig ec;
  ec.seed = 21;
  ec.max_sim_seconds = 20.0;
  PolicyConfig policy;
  policy.placement = pc.placement;
  policy.carrefour = pc.carrefour;

  Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  hv.set_observability(obs);
  LatencyModel latency;
  DomainConfig dc;
  dc.name = "dom";
  dc.num_vcpus = 12;
  dc.memory_pages = 4096;
  for (int i = 0; i < 12; ++i) {
    dc.pinned_cpus.push_back(i);
  }
  dc.policy = policy;
  const DomainId dom = hv.CreateDomain(dc);
  GuestOs guest(hv, dom);
  Engine engine(hv, latency, ec);
  JobSpec spec;
  spec.app = &app;
  spec.domain = dom;
  spec.guest = &guest;
  spec.threads = 12;
  spec.vcpu_migration_period_s = 0.2;
  engine.AddJob(spec);
  const RunResult r = engine.Run();
  return r.jobs.back();
}

TEST_P(ObsDifferentialTest, AttachedObservabilityIsBitIdentical) {
  const PolicyCase pc = GetParam();
  const AppProfile app = DiffChurnApp("obs-diff-churn");

  const JobResult off = RunOnce(app, pc, nullptr);
  Observability obs;
  const JobResult on = RunOnce(app, pc, &obs);

  EXPECT_TRUE(off.finished);
  EXPECT_TRUE(on.finished);
  EXPECT_EQ(off.completion_seconds, on.completion_seconds);
  EXPECT_EQ(off.init_seconds, on.init_seconds);
  EXPECT_EQ(off.imbalance_pct, on.imbalance_pct);
  EXPECT_EQ(off.interconnect_pct, on.interconnect_pct);
  EXPECT_EQ(off.avg_mc_util_pct, on.avg_mc_util_pct);
  EXPECT_EQ(off.avg_latency_cycles, on.avg_latency_cycles);
  EXPECT_EQ(off.hv_page_faults, on.hv_page_faults);
  EXPECT_EQ(off.carrefour_migrations, on.carrefour_migrations);

  // And the attached layer must actually have recorded the run: epochs
  // advanced, page faults counted consistently with the sim's own numbers.
  std::vector<MetricSnapshot> snap = obs.metrics().Snapshot();
  int64_t epochs = 0, hv_faults = 0, sampled = 0, scored = 0;
  for (const MetricSnapshot& m : snap) {
    if (m.name == "engine.epochs") {
      epochs = m.count;
    } else if (m.name == "hv.page_faults") {
      hv_faults = m.count;
    } else if (m.name == "engine.sampler.candidates") {
      sampled = m.count;
    } else if (m.name == "engine.sampler.scored") {
      scored = m.count;
    }
  }
  EXPECT_GT(epochs, 0);
  EXPECT_EQ(hv_faults, on.hv_page_faults);
  // Only Carrefour scans hot pages; a scan scores at most its candidates.
  EXPECT_EQ(sampled > 0, pc.carrefour);
  EXPECT_LE(scored, sampled);
  EXPECT_GT(obs.tracer().size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ObsDifferentialTest,
    ::testing::Values(PolicyCase{"first_touch", StaticPolicy::kFirstTouch, false},
                      PolicyCase{"round_4k", StaticPolicy::kRound4k, false},
                      PolicyCase{"round_1g", StaticPolicy::kRound1g, false},
                      PolicyCase{"first_touch_carrefour", StaticPolicy::kFirstTouch, true}),
    [](const ::testing::TestParamInfo<PolicyCase>& info) {
      return std::string(info.param.label);
    });

}  // namespace
}  // namespace xnuma
