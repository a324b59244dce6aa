// Differential tests for per-node P2M replication (docs/MODEL.md §18):
// replicas are generation mirrors, never placement, so running a domain
// with replication enabled — including the Carrefour translation-refresh
// extension — must be bit-identical to running without it, for every
// placement policy, as long as walk pricing is off.
// A teeth check then pins that pricing DOES move results, so the
// equivalence above is not vacuous.

#include <gtest/gtest.h>

#include <string>

#include "src/guest/guest_os.h"
#include "src/hv/hypervisor.h"
#include "src/hv/p2m.h"
#include "src/numa/latency_model.h"
#include "src/numa/topology.h"
#include "src/sim/engine.h"
#include "src/workload/app_profile.h"

namespace xnuma {
namespace {

// Same churn profile as the P2M differential suites: a shared master-init
// region (remapped by Carrefour) plus an owner-partitioned private region,
// with a release rate high enough to mutate the table — and so invalidate
// replica copies — every epoch.
AppProfile DiffChurnApp() {
  AppProfile app;
  app.name = "repl-diff";
  app.cpu_cycles_per_access = 150;
  app.nominal_seconds = 0.5;
  app.release_rate_per_s = 20000.0;
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

// Compute-bound variant for the pricing-teeth check: no disk stream (the
// churn profile's 64 MB read otherwise dominates completion and hides the
// walk term) and a gentler release rate so replica copies survive between
// refreshes.
AppProfile TeethApp() {
  AppProfile app = DiffChurnApp();
  app.name = "repl-teeth";
  app.disk_read_mb = 0.0;
  app.release_rate_per_s = 5000.0;
  return app;
}

struct DiffCase {
  const char* label;
  StaticPolicy placement;
  bool carrefour;
};

class ReplicationDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

struct DiffOutcome {
  JobResult job;
  int64_t guest_minor_faults = 0;
  int64_t guest_releases = 0;
  // Replication-side diagnostics (allowed — required, even — to differ).
  int64_t replica_count = 0;
  int64_t replica_invalidations = 0;
};

DiffOutcome RunOnce(const AppProfile& app, const DiffCase& dc, bool replication,
                    bool price_walks) {
  EngineConfig ec;
  ec.seed = 21;
  ec.max_sim_seconds = 20.0;
  ec.price_walks = price_walks;
  ec.carrefour.replicate_translation = replication;

  Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  LatencyModel latency;
  DomainConfig cfg;
  cfg.name = "dom";
  cfg.num_vcpus = 12;
  cfg.memory_pages = 4096;
  for (int i = 0; i < 12; ++i) {
    cfg.pinned_cpus.push_back(i);  // spans nodes 0 and 1
  }
  cfg.policy.placement = dc.placement;
  cfg.policy.carrefour = dc.carrefour;
  cfg.p2m_replication = replication;
  const DomainId dom = hv.CreateDomain(cfg);
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

  DiffOutcome out;
  out.job = r.jobs.back();
  out.guest_minor_faults = guest.stats().guest_minor_faults;
  out.guest_releases = guest.stats().releases;
  out.replica_count = hv.domain(dom).p2m().replica_count();
  out.replica_invalidations = hv.domain(dom).p2m().replica_invalidations();
  hv.domain(dom).p2m().AuditCounters();
  return out;
}

void ExpectSameOutcome(const DiffOutcome& a, const DiffOutcome& b) {
  EXPECT_TRUE(a.job.finished);
  EXPECT_TRUE(b.job.finished);
  EXPECT_EQ(a.job.completion_seconds, b.job.completion_seconds);
  EXPECT_EQ(a.job.init_seconds, b.job.init_seconds);
  EXPECT_EQ(a.job.compute_seconds, b.job.compute_seconds);
  EXPECT_EQ(a.job.imbalance_pct, b.job.imbalance_pct);
  EXPECT_EQ(a.job.interconnect_pct, b.job.interconnect_pct);
  EXPECT_EQ(a.job.avg_mc_util_pct, b.job.avg_mc_util_pct);
  EXPECT_EQ(a.job.avg_latency_cycles, b.job.avg_latency_cycles);
  EXPECT_EQ(a.job.observed_disk_mb_per_s, b.job.observed_disk_mb_per_s);
  EXPECT_EQ(a.job.hv_page_faults, b.job.hv_page_faults);
  EXPECT_EQ(a.job.carrefour_migrations, b.job.carrefour_migrations);
  EXPECT_EQ(a.guest_minor_faults, b.guest_minor_faults);
  EXPECT_EQ(a.guest_releases, b.guest_releases);
}

TEST_P(ReplicationDifferentialTest, ReplicationWithoutPricingIsBitIdentical) {
  const DiffCase dc = GetParam();
  const AppProfile app = DiffChurnApp();

  const DiffOutcome off = RunOnce(app, dc, /*replication=*/false,
                                  /*price_walks=*/false);
  const DiffOutcome on = RunOnce(app, dc, /*replication=*/true,
                                 /*price_walks=*/false);

  ExpectSameOutcome(on, off);

  // Off really is off, and a priced run reports no walks either way when
  // pricing is disabled.
  EXPECT_EQ(off.replica_count, 0);
  EXPECT_EQ(off.replica_invalidations, 0);
  EXPECT_EQ(off.job.local_walks, 0);
  EXPECT_EQ(off.job.remote_walks, 0);
  EXPECT_EQ(on.job.local_walks, 0);
  EXPECT_EQ(on.job.remote_walks, 0);

  // The equivalence is not vacuous: the replicated twin really instantiated
  // replicas (vCPUs span two nodes). Valid copies — and so invalidations —
  // come from the guest fault/touch path, which only the demand-faulting
  // policies drive hard: eager round-robin maps everything up front, so its
  // replicas legitimately stay empty and nothing can go valid→stale.
  EXPECT_GT(on.replica_count, 0);
  if (dc.placement == StaticPolicy::kFirstTouch) {
    EXPECT_GT(on.replica_invalidations, 0);
  }
}

TEST(ReplicationDifferentialTeethTest, PricingMovesResultsAndCountsWalks) {
  const AppProfile app = TeethApp();
  // Carrefour is on in every run so the translation-refresh extension gets
  // to tick in the replicated one; replication itself never perturbs
  // Carrefour (the parameterized equivalence above pins that).
  const DiffCase dc{"teeth", StaticPolicy::kFirstTouch, true};

  const DiffOutcome unpriced = RunOnce(app, dc, /*replication=*/false,
                                       /*price_walks=*/false);
  const DiffOutcome priced = RunOnce(app, dc, /*replication=*/false,
                                     /*price_walks=*/true);
  // Six of twelve vCPUs sit off the table's home node, so remote-walk
  // cycles must slow the run and the walk split must be populated.
  EXPECT_GT(priced.job.completion_seconds, unpriced.job.completion_seconds);
  EXPECT_GT(priced.job.local_walks, 0);
  EXPECT_GT(priced.job.remote_walks, 0);

  // Replication claws the penalty back: same priced run, now with replicas
  // kept fresh by the Carrefour translation extension.
  const DiffOutcome replicated = RunOnce(app, dc, /*replication=*/true,
                                         /*price_walks=*/true);
  EXPECT_LT(replicated.job.completion_seconds, priced.job.completion_seconds);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ReplicationDifferentialTest,
    ::testing::Values(
        DiffCase{"first_touch", StaticPolicy::kFirstTouch, false},
        DiffCase{"round_4k", StaticPolicy::kRound4k, false},
        DiffCase{"round_1g", StaticPolicy::kRound1g, false},
        DiffCase{"first_touch_carrefour", StaticPolicy::kFirstTouch, true}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return std::string(info.param.label);
    });

}  // namespace
}  // namespace xnuma
