// Tests for the incremental placement-tracking machinery: backend/guest
// dirty sets and generations, the engine's per-page cache and integer
// aggregates, and exact equivalence with the full-rescan path.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>
#include <vector>

#include "src/guest/guest_os.h"
#include "src/hv/hv_backend.h"
#include "src/hv/hypervisor.h"
#include "src/numa/latency_model.h"
#include "src/numa/topology.h"
#include "src/sim/engine.h"
#include "src/workload/app_profile.h"

namespace xnuma {
namespace {

class BackendDirtyTest : public ::testing::Test {
 protected:
  BackendDirtyTest() : topo_(Topology::Amd48()), hv_(topo_) {
    DomainConfig dc;
    dc.name = "dom";
    dc.num_vcpus = 2;
    dc.memory_pages = 64;
    dc.policy.placement = StaticPolicy::kFirstTouch;  // start unmapped
    dc.pinned_cpus = {0, 6};
    id_ = hv_.CreateDomain(dc);
  }

  HvPlacementBackend& be() { return hv_.backend(id_); }

  Topology topo_;
  Hypervisor hv_;
  DomainId id_;
};

TEST_F(BackendDirtyTest, GenerationBumpsOnEveryPlacementChange) {
  const uint64_t g0 = be().placement_generation();
  ASSERT_TRUE(be().MapOnNode(0, 3));
  const uint64_t g1 = be().placement_generation();
  EXPECT_GT(g1, g0);
  ASSERT_TRUE(be().Migrate(0, 5));
  const uint64_t g2 = be().placement_generation();
  EXPECT_GT(g2, g1);
  ASSERT_TRUE(be().Replicate(0));
  const uint64_t g3 = be().placement_generation();
  EXPECT_GT(g3, g2);
  be().CollapseReplicas(0);
  const uint64_t g4 = be().placement_generation();
  EXPECT_GT(g4, g3);
  be().Invalidate(0);
  EXPECT_GT(be().placement_generation(), g4);
}

TEST_F(BackendDirtyTest, DrainReturnsEachDirtyPfnOnce) {
  ASSERT_TRUE(be().MapOnNode(1, 0));
  ASSERT_TRUE(be().Migrate(1, 2));  // same pfn twice: deduplicated
  ASSERT_TRUE(be().MapOnNode(7, 4));
  std::vector<Pfn> dirty;
  EXPECT_TRUE(be().DrainDirtyPfns(&dirty));
  std::sort(dirty.begin(), dirty.end());
  ASSERT_EQ(dirty.size(), 2u);
  EXPECT_EQ(dirty[0], 1);
  EXPECT_EQ(dirty[1], 7);

  // A second drain is empty, and the set re-arms after it.
  dirty.clear();
  EXPECT_TRUE(be().DrainDirtyPfns(&dirty));
  EXPECT_TRUE(dirty.empty());
  ASSERT_TRUE(be().Migrate(7, 6));
  EXPECT_TRUE(be().DrainDirtyPfns(&dirty));
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 7);
}

TEST(BackendDirtyOverflowTest, BulkChurnDegradesToFullRescanSignal) {
  Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  DomainConfig dc;
  dc.name = "big";
  dc.num_vcpus = 1;
  dc.memory_pages = 20000;  // dirty limit = 5000
  dc.policy.placement = StaticPolicy::kFirstTouch;
  dc.pinned_cpus = {0};
  const DomainId id = hv.CreateDomain(dc);
  HvPlacementBackend& be = hv.backend(id);

  for (Pfn pfn = 0; pfn < 5001; ++pfn) {
    ASSERT_TRUE(be.MapOnNode(pfn, static_cast<NodeId>(pfn % topo.num_nodes())));
  }
  std::vector<Pfn> dirty;
  EXPECT_FALSE(be.DrainDirtyPfns(&dirty));  // overflowed: caller must rescan
  EXPECT_TRUE(dirty.empty());

  // Overflow is consumed by the drain; tracking resumes precisely.
  ASSERT_TRUE(be.Migrate(3, 1));
  EXPECT_TRUE(be.DrainDirtyPfns(&dirty));
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 3);
}

// Eager placement is one full-rescan signal however small the domain: at
// creation (round-1G's 1G ranges plus its round-robin tail) and on a
// runtime switch to round-4K. Maps made afterwards are tracked page by page.
TEST(BackendDirtyOverflowTest, EagerInitializationSendsOneFullRescanSignal) {
  Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  DomainConfig dc;
  dc.name = "eager";
  dc.num_vcpus = 1;
  dc.memory_pages = 600;  // two 256-page 1G ranges and 88 pages; dirty limit 4096
  dc.policy.placement = StaticPolicy::kRound1g;
  dc.pinned_cpus = {0};
  const DomainId eager = hv.CreateDomain(dc);
  HvPlacementBackend& be = hv.backend(eager);
  std::vector<Pfn> dirty;
  EXPECT_FALSE(be.DrainDirtyPfns(&dirty));
  EXPECT_TRUE(dirty.empty());
  be.Invalidate(5);
  ASSERT_TRUE(be.MapRangeOnNode(5, 1, 2));
  EXPECT_TRUE(be.DrainDirtyPfns(&dirty));
  EXPECT_EQ(dirty, std::vector<Pfn>{5});

  dc.name = "switched";
  dc.policy.placement = StaticPolicy::kFirstTouch;
  const DomainId lazy = hv.CreateDomain(dc);
  HvPlacementBackend& lazy_be = hv.backend(lazy);
  ASSERT_TRUE(lazy_be.MapOnNode(3, 1));
  dirty.clear();
  EXPECT_TRUE(lazy_be.DrainDirtyPfns(&dirty));
  EXPECT_EQ(dirty, std::vector<Pfn>{3});
  PolicyConfig round_4k;
  round_4k.placement = StaticPolicy::kRound4k;
  ASSERT_EQ(hv.HypercallSetPolicy(lazy, round_4k), HypercallStatus::kOk);
  EXPECT_TRUE(lazy_be.IsMapped(599));
  dirty.clear();
  EXPECT_FALSE(lazy_be.DrainDirtyPfns(&dirty));
  EXPECT_TRUE(dirty.empty());
}

TEST(GuestDirtyTest, TouchAndReleaseProduceVpageEvents) {
  Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  DomainConfig dc;
  dc.name = "dom";
  dc.num_vcpus = 1;
  dc.memory_pages = 64;
  dc.policy.placement = StaticPolicy::kFirstTouch;
  dc.pinned_cpus = {0};
  const DomainId id = hv.CreateDomain(dc);
  GuestOs guest(hv, id);
  const int pid = guest.CreateProcess(16);

  guest.TouchPage(pid, 5, 0);
  std::vector<GuestOs::VpageEvent> events;
  EXPECT_TRUE(guest.DrainDirtyVpages(&events));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].pid, pid);
  EXPECT_EQ(events[0].vpn, 5);

  // The reverse map resolves the backing pfn to its owning vpage...
  const Pfn pfn = guest.PfnOfVpage(pid, 5);
  ASSERT_NE(pfn, kInvalidPfn);
  int owner_pid = -1;
  Vpn owner_vpn = -1;
  ASSERT_TRUE(guest.VpageOfPfn(pfn, &owner_pid, &owner_vpn));
  EXPECT_EQ(owner_pid, pid);
  EXPECT_EQ(owner_vpn, 5);

  // ...and a release both dirties the vpage and clears the owner.
  events.clear();
  guest.ReleasePage(pid, 5);
  EXPECT_TRUE(guest.DrainDirtyVpages(&events));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].vpn, 5);
  EXPECT_FALSE(guest.VpageOfPfn(pfn, &owner_pid, &owner_vpn));
}

// ---- Engine-level cache coherence under randomized churn. ----

AppProfile ChurnApp(const char* name) {
  AppProfile app;
  app.name = name;
  app.cpu_cycles_per_access = 150;
  app.nominal_seconds = 0.5;
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

struct CacheMachine {
  Topology topo = Topology::Amd48();
  Hypervisor hv{topo};
  LatencyModel latency;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<GuestOs> guest;
  DomainId dom = kInvalidDomain;

  explicit CacheMachine(const EngineConfig& ec, PolicyConfig policy, int64_t memory_pages,
                        int threads = 12) {
    DomainConfig dc;
    dc.name = "dom";
    dc.num_vcpus = threads;
    dc.memory_pages = memory_pages;
    for (int i = 0; i < threads; ++i) {
      dc.pinned_cpus.push_back(i);
    }
    dc.policy = policy;
    dom = hv.CreateDomain(dc);
    guest = std::make_unique<GuestOs>(hv, dom);
    engine = std::make_unique<Engine>(hv, latency, ec);
  }

  int AddJob(const AppProfile& app, int threads = 12) {
    JobSpec spec;
    spec.app = &app;
    spec.domain = dom;
    spec.guest = guest.get();
    spec.threads = threads;
    return engine->AddJob(spec);
  }
};

TEST(PlacementCacheTest, RandomizedChurnMatchesFullRescanExactly) {
  const AppProfile app_a = ChurnApp("churn-a");
  const AppProfile app_b = ChurnApp("churn-b");
  EngineConfig ec;
  ec.seed = 11;
  PolicyConfig policy;
  policy.placement = StaticPolicy::kFirstTouch;
  CacheMachine m(ec, policy, 4096);
  m.AddJob(app_a);
  m.AddJob(app_b);
  // AddJob creates one process per job in this guest, in order.
  const int pid_a = 0;
  const int pid_b = 1;
  const int64_t vpages_a =
      AppSimPages(app_a, m.hv.frames().bytes_per_frame(), ec.min_region_pages);

  // Populate, then build the cache once.
  std::mt19937_64 rng(1234);
  for (Vpn vpn = 0; vpn < vpages_a; ++vpn) {
    m.guest->TouchPage(pid_a, vpn, static_cast<CpuId>(rng() % 12));
    m.guest->TouchPage(pid_b, vpn, static_cast<CpuId>(rng() % 12));
  }
  ASSERT_TRUE(m.engine->DebugVerifyPlacementCache());

  HvPlacementBackend& be = m.hv.backend(m.dom);
  for (int batch = 0; batch < 40; ++batch) {
    for (int op = 0; op < 64; ++op) {
      const int pid = (rng() % 2 == 0) ? pid_a : pid_b;
      const Vpn vpn = static_cast<Vpn>(rng() % vpages_a);
      switch (rng() % 5) {
        case 0:
          m.guest->TouchPage(pid, vpn, static_cast<CpuId>(rng() % 12));
          break;
        case 1:
          m.guest->ReleasePage(pid, vpn);
          break;
        case 2: {
          const Pfn pfn = m.guest->PfnOfVpage(pid, vpn);
          if (pfn != kInvalidPfn && be.IsMapped(pfn)) {
            be.Migrate(pfn, static_cast<NodeId>(rng() % m.topo.num_nodes()));
          }
          break;
        }
        case 3: {
          const Pfn pfn = m.guest->PfnOfVpage(pid, vpn);
          if (pfn != kInvalidPfn && be.IsMapped(pfn)) {
            be.Replicate(pfn);
          }
          break;
        }
        case 4: {
          const Pfn pfn = m.guest->PfnOfVpage(pid, vpn);
          if (pfn != kInvalidPfn) {
            be.CollapseReplicas(pfn);
          }
          break;
        }
      }
    }
    ASSERT_TRUE(m.engine->DebugVerifyPlacementCache()) << "batch " << batch;
  }
}

// End-to-end run with XNUMA_VERIFY_PLACEMENT_CACHE=1: every refresh
// cross-checks the aggregates against a full rescan (XNUMA_CHECK aborts on
// mismatch, so finishing the run is the assertion).
TEST(PlacementCacheTest, VerifyModeRunsCleanUnderChurnAndCarrefour) {
  setenv("XNUMA_VERIFY_PLACEMENT_CACHE", "1", /*overwrite=*/1);
  AppProfile app = ChurnApp("verify-mode");
  app.release_rate_per_s = 20000.0;
  PolicyConfig policy;
  policy.placement = StaticPolicy::kFirstTouch;
  policy.carrefour = true;
  EngineConfig ec;
  ec.seed = 31;
  ec.max_sim_seconds = 20.0;
  CacheMachine m(ec, policy, 4096);
  m.AddJob(app);
  RunResult r = m.engine->Run();
  unsetenv("XNUMA_VERIFY_PLACEMENT_CACHE");
  EXPECT_TRUE(r.jobs.back().finished);
}

}  // namespace
}  // namespace xnuma
