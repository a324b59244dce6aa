// Property-style tests on simulation invariants: determinism, work
// conservation, monotonicity under contention, placement sanity, and
// machine consistency while full nodes refuse work.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/core/experiment.h"
#include "src/guest/guest_os.h"
#include "src/hv/hv_backend.h"
#include "src/hv/hypervisor.h"
#include "src/numa/latency_model.h"
#include "src/numa/topology.h"
#include "src/obs/obs.h"
#include "src/sim/engine.h"

namespace xnuma {
namespace {

AppProfile SmallApp(double master_share, double affinity, double cycles = 200, double mlp = 2) {
  AppProfile app;
  app.name = "prop-app";
  app.cpu_cycles_per_access = cycles;
  app.mlp = mlp;
  app.nominal_seconds = 0.8;
  RegionSpec shared;
  shared.name = "shared";
  shared.footprint_mb = 256;
  shared.init = AllocPattern::kMasterInit;
  shared.access_share = master_share;
  shared.owner_affinity = 0.0;
  app.regions.push_back(shared);
  RegionSpec priv;
  priv.name = "private";
  priv.footprint_mb = 256;
  priv.init = AllocPattern::kOwnerPartitioned;
  priv.access_share = 1.0 - master_share;
  priv.owner_affinity = affinity;
  app.regions.push_back(priv);
  return app;
}

RunOptions Opts(uint64_t seed = 7) {
  RunOptions o;
  o.seed = seed;
  o.engine.max_sim_seconds = 120.0;
  return o;
}

// Imbalance under first-touch must track the master share linearly
// (the Table 1 calibration identity: imbalance ~ 264.6% x share).
class ImbalanceSweep : public ::testing::TestWithParam<double> {};

TEST_P(ImbalanceSweep, FirstTouchImbalanceTracksMasterShare) {
  const double share = GetParam();
  const AppProfile app = SmallApp(share, 0.95);
  const JobResult r = RunSingleApp(app, LinuxStack({StaticPolicy::kFirstTouch, false}), Opts());
  // The private part is placed on owner nodes nearly evenly, so the
  // prediction holds within a few points (capacity fallback aside).
  EXPECT_NEAR(r.imbalance_pct, 264.6 * share, 25.0) << "share " << share;
}

INSTANTIATE_TEST_SUITE_P(Shares, ImbalanceSweep, ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

// More memory-bound applications (fewer compute cycles per access) suffer
// more from bad placement.
TEST(EnginePropertyTest, PlacementSensitivityGrowsWithMemoryIntensity) {
  double prev_ratio = 1.0;
  for (double cycles : {1200.0, 400.0, 120.0}) {
    const AppProfile app = SmallApp(0.8, 0.9, cycles, 3);
    const JobResult bad =
        RunSingleApp(app, LinuxStack({StaticPolicy::kFirstTouch, false}), Opts());
    const JobResult good = RunSingleApp(app, LinuxStack({StaticPolicy::kRound4k, false}), Opts());
    const double ratio = bad.completion_seconds / good.completion_seconds;
    EXPECT_GE(ratio, prev_ratio * 0.98) << "cycles " << cycles;
    prev_ratio = ratio;
  }
  EXPECT_GT(prev_ratio, 1.5);  // strongly memory-bound: large penalty
}

TEST(EnginePropertyTest, DeterministicAcrossIdenticalRuns) {
  const AppProfile app = SmallApp(0.6, 0.9);
  for (PolicyConfig pc :
       {PolicyConfig{StaticPolicy::kRound4k, true}, PolicyConfig{StaticPolicy::kFirstTouch, true}}) {
    const JobResult a = RunSingleApp(app, XenPlusStack(pc), Opts(123));
    const JobResult b = RunSingleApp(app, XenPlusStack(pc), Opts(123));
    EXPECT_DOUBLE_EQ(a.completion_seconds, b.completion_seconds);
    EXPECT_EQ(a.carrefour_migrations, b.carrefour_migrations);
    EXPECT_DOUBLE_EQ(a.imbalance_pct, b.imbalance_pct);
  }
}

TEST(EnginePropertyTest, SeedChangesCarrefourDetailsNotOutcomeClass) {
  const AppProfile app = SmallApp(0.8, 0.9);
  const JobResult a = RunSingleApp(app, XenPlusStack({StaticPolicy::kRound4k, true}), Opts(1));
  const JobResult b = RunSingleApp(app, XenPlusStack({StaticPolicy::kRound4k, true}), Opts(2));
  // Sampling noise differs, the broad outcome must not.
  EXPECT_NEAR(a.completion_seconds, b.completion_seconds, 0.35 * a.completion_seconds);
}

TEST(EnginePropertyTest, MoreThreadsFinishFasterWhenUncontended) {
  AppProfile app = SmallApp(0.05, 0.97, 800, 1.5);
  double prev = 1e18;
  for (int threads : {12, 24, 48}) {
    RunOptions opts = Opts();
    opts.threads = threads;
    const JobResult r = RunSingleApp(app, LinuxStack(), opts);
    // Work is per-thread in the model, so wall time should not grow with
    // more threads for a thread-local app...
    EXPECT_LE(r.completion_seconds, prev * 1.10) << threads;
    prev = r.completion_seconds;
  }
}

TEST(EnginePropertyTest, CompletionScalesLinearlyWithWork) {
  AppProfile one = SmallApp(0.5, 0.9);
  AppProfile two = one;
  two.nominal_seconds = 2.0 * one.nominal_seconds;
  const JobResult r1 = RunSingleApp(one, XenPlusStack(), Opts());
  const JobResult r2 = RunSingleApp(two, XenPlusStack(), Opts());
  EXPECT_NEAR(r2.completion_seconds / r1.completion_seconds, 2.0, 0.15);
}

TEST(EnginePropertyTest, ColocatedVmsDontShareCpusButShareInterconnect) {
  const AppProfile app = SmallApp(0.7, 0.9, 150, 3);
  const StackConfig stack = XenPlusStack({StaticPolicy::kRound4k, false});
  RunOptions opts = Opts();
  opts.threads = 24;
  const JobResult solo24 = RunSingleApp(app, stack, opts);
  const PairResult pair = RunAppPair(app, stack, app, stack, PairMode::kSplitHalves, Opts());
  // Both halves busy: some interconnect/controller interference, but far
  // less than CPU sharing would cost.
  EXPECT_LT(pair.first.completion_seconds, 1.9 * solo24.completion_seconds);
}

TEST(EnginePropertyTest, InterconnectMetricHigherForRemotePlacement) {
  const AppProfile app = SmallApp(0.05, 0.95, 150, 3);
  const JobResult local =
      RunSingleApp(app, LinuxStack({StaticPolicy::kFirstTouch, false}), Opts());
  const JobResult remote =
      RunSingleApp(app, LinuxStack({StaticPolicy::kRound4k, false}), Opts());
  EXPECT_GT(remote.interconnect_pct, local.interconnect_pct);
  EXPECT_GT(remote.avg_latency_cycles, local.avg_latency_cycles);
}

TEST(EnginePropertyTest, HvFaultCountMatchesTouchedPages) {
  // Under first-touch in a guest, every initial page touch takes exactly one
  // hypervisor fault (plus churn refaults, absent here).
  AppProfile app = SmallApp(0.5, 0.9);
  app.nominal_seconds = 0.3;
  const JobResult r =
      RunSingleApp(app, XenPlusStack({StaticPolicy::kFirstTouch, false}), Opts());
  // 256 MB + 256 MB at 4 MiB/page = 64 + 96 (min) pages... at least every
  // region page touched once.
  EXPECT_GE(r.hv_page_faults, 128);
  EXPECT_LE(r.hv_page_faults, 400);
}

TEST(EnginePropertyTest, CarrefourMigratesOnlyWhenEnabled) {
  const AppProfile app = SmallApp(0.8, 0.9, 150, 3);
  const JobResult off = RunSingleApp(app, XenPlusStack({StaticPolicy::kRound4k, false}), Opts());
  const JobResult on = RunSingleApp(app, XenPlusStack({StaticPolicy::kRound4k, true}), Opts());
  EXPECT_EQ(off.carrefour_migrations, 0);
  EXPECT_GT(on.carrefour_migrations, 0);
}

// A Carrefour run of `placement` with allocator churn on a machine whose
// non-home nodes were filled before it started: every migration Carrefour
// aims at them is refused by genuine exhaustion. Every 8 epochs:
//  (a) every valid P2M entry is backed by an allocated machine frame with a
//      home node, and a replicated page's replica set is consistent
//      (allocated frames, no duplicate of the primary);
//  (b) the engine's incremental placement aggregates match a full rescan;
//  (c) every owned virtual page resolves to a mapped physical page.
// At the end the P2M's counters must match its entries.
void CheckInvariantsWhileFullNodesRefuseMigrations(StaticPolicy placement) {
  AppProfile app;
  app.name = "full-nodes";
  app.cpu_cycles_per_access = 150;
  app.nominal_seconds = 0.5;
  app.release_rate_per_s = 20000.0;  // allocator churn: PV queue every epoch
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

  const Topology topo = Topology::Amd48();
  Observability obs;  // outlives hv
  Hypervisor hv(topo);
  hv.set_observability(&obs);
  const LatencyModel latency;
  DomainConfig dc;
  dc.name = "dom";
  dc.num_vcpus = 12;
  dc.memory_pages = 4096;
  for (int i = 0; i < 12; ++i) {
    dc.pinned_cpus.push_back(i);
  }
  dc.policy = {placement, true};
  const DomainId dom = hv.CreateDomain(dc);
  GuestOs guest(hv, dom);
  const std::vector<NodeId>& homes = hv.domain(dom).home_nodes();
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    if (std::find(homes.begin(), homes.end(), n) == homes.end()) {
      while (hv.frames().AllocOnNode(n) != kInvalidMfn) {
      }
    }
  }

  EngineConfig ec;
  ec.seed = 17;
  ec.max_sim_seconds = 20.0;
  Engine engine(hv, latency, ec);
  JobSpec spec;
  spec.app = &app;
  spec.domain = dom;
  spec.guest = &guest;
  spec.threads = 12;
  engine.AddJob(spec);
  const int64_t vpages = AppSimPages(app, hv.frames().bytes_per_frame(), ec.min_region_pages);

  Domain& domain = hv.domain(dom);
  HvPlacementBackend& be = hv.backend(dom);
  const auto check_mappings = [&] {
    for (Pfn pfn = 0; pfn < domain.memory_pages(); ++pfn) {
      if (!be.IsMapped(pfn)) {
        ASSERT_FALSE(domain.IsReplicated(pfn)) << "unmapped page " << pfn << " has replicas";
        continue;
      }
      const Mfn mfn = domain.p2m().Lookup(pfn);
      ASSERT_TRUE(hv.frames().IsAllocated(mfn)) << "page " << pfn;
      const NodeId home = hv.frames().NodeOf(mfn);
      ASSERT_GE(home, 0) << "page " << pfn;
      ASSERT_LT(home, topo.num_nodes()) << "page " << pfn;
      if (domain.IsReplicated(pfn)) {
        const std::vector<Mfn>& replicas = domain.replicas().at(pfn);
        ASSERT_FALSE(replicas.empty()) << "page " << pfn;
        for (const Mfn replica : replicas) {
          ASSERT_TRUE(hv.frames().IsAllocated(replica)) << "page " << pfn << " replica " << replica;
          ASSERT_NE(replica, mfn) << "page " << pfn << " replicates its primary";
        }
      }
    }
  };
  const auto check_owned_pages_mapped = [&] {
    for (int pid = 0; pid < guest.num_processes(); ++pid) {
      for (Vpn vpn = 0; vpn < vpages; ++vpn) {
        const Pfn pfn = guest.PfnOfVpage(pid, vpn);
        if (pfn != kInvalidPfn) {
          ASSERT_TRUE(be.IsMapped(pfn)) << "pid " << pid << " vpn " << vpn << " pfn " << pfn;
        }
      }
    }
  };

  int64_t epoch = 0;
  engine.set_epoch_hook([&](double) {
    if (++epoch % 8 != 0) {
      return;  // a full sweep every epoch would dominate the test's runtime
    }
    check_mappings();
    ASSERT_TRUE(engine.DebugVerifyPlacementCache()) << "epoch " << epoch;
    check_owned_pages_mapped();
  });

  const RunResult r = engine.Run();
  ASSERT_GT(epoch, 8) << "run too short to exercise the invariants";
  check_mappings();
  check_owned_pages_mapped();
  ASSERT_FALSE(r.jobs.empty());
  EXPECT_TRUE(r.jobs.back().finished);
  int64_t failed_migrations = 0;
  for (const MetricSnapshot& m : obs.metrics().Snapshot()) {
    if (m.name == "carrefour.failed_migrations") {
      failed_migrations = m.count;
    }
  }
  EXPECT_GT(failed_migrations, 0) << "no migration was refused by a full node";
  domain.p2m().AuditCounters();
}

TEST(EnginePropertyTest, InvariantsHoldWhileFullNodesRefuseMigrations) {
  for (const StaticPolicy placement : {StaticPolicy::kFirstTouch, StaticPolicy::kRound1g}) {
    SCOPED_TRACE(ToString(placement));
    CheckInvariantsWhileFullNodesRefuseMigrations(placement);
  }
}

}  // namespace
}  // namespace xnuma
