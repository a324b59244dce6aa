// Differential tests for the page-order knob: a domain shaped for 1G
// superpages (DomainConfig::p2m_max_order = k1G) must be bit-identical to
// one at the default 4K maximum, for every placement policy, on an idle
// machine and on one whose non-home nodes were filled before the run, so
// that Carrefour's migrations meet genuine refusals.
//
// The order never changes the P2M, which stores 4K entries only; it sets
// the admission solver's preferred order and the policies' region geometry
// (docs/MODEL.md §14). At the default 4 MiB frame scale the 2M order
// collapses and the 1G span is 256 pages, which is the default geometry, so
// without ft_superpage the order must not move any result field. The
// digests in p2m_pinned_test fix the answers themselves.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

// A shared master-init region (remapped by Carrefour) plus an
// owner-partitioned private region, with a release rate high enough to
// unmap and remap pages every epoch.
AppProfile DiffChurnApp() {
  AppProfile app;
  app.name = "p2m-order-diff";
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

struct DiffCase {
  const char* label;
  StaticPolicy placement;
  bool carrefour;
  // Share of each non-home node's free frames allocated before the run
  // (0 = none, 1 = the node is full).
  double non_home_fill;
};

class P2mOrderDifferentialTest : public ::testing::TestWithParam<DiffCase> {};

struct DiffOutcome {
  JobResult job;
  int64_t guest_minor_faults = 0;
  int64_t guest_releases = 0;
  int64_t failed_migrations = 0;  // carrefour.failed_migrations
};

DiffOutcome RunOnce(const AppProfile& app, const DiffCase& dc, PageOrder max_order) {
  EngineConfig ec;
  ec.seed = 21;
  ec.max_sim_seconds = 20.0;

  Topology topo = Topology::Amd48();
  Observability obs;  // outlives hv
  Hypervisor hv(topo);
  hv.set_observability(&obs);
  LatencyModel latency;
  DomainConfig cfg;
  cfg.name = "dom";
  cfg.num_vcpus = 12;
  cfg.memory_pages = 4096;
  for (int i = 0; i < 12; ++i) {
    cfg.pinned_cpus.push_back(i);
  }
  cfg.policy.placement = dc.placement;
  cfg.policy.carrefour = dc.carrefour;
  cfg.p2m_max_order = max_order;
  const DomainId dom = hv.CreateDomain(cfg);
  // At the default 4 MiB frame scale either order leaves the default
  // geometry: 256 pages per 1G region, the 2M order collapsed.
  const PolicyGeometry& geom = hv.domain(dom).policy_geometry();
  EXPECT_EQ(geom.pages_per_1g, PolicyGeometry{}.pages_per_1g);
  EXPECT_EQ(geom.pages_per_2m, PolicyGeometry{}.pages_per_2m);
  EXPECT_EQ(geom.ft_fault_map_pages, PolicyGeometry{}.ft_fault_map_pages);
  GuestOs guest(hv, dom);
  const std::vector<NodeId>& homes = hv.domain(dom).home_nodes();
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    if (std::find(homes.begin(), homes.end(), n) != homes.end()) {
      continue;
    }
    const auto fill = static_cast<int64_t>(dc.non_home_fill *
                                           static_cast<double>(hv.frames().FreeFrames(n)));
    for (int64_t i = 0; i < fill; ++i) {
      if (hv.frames().AllocOnNode(n) == kInvalidMfn) {
        ADD_FAILURE() << "node " << n << " ran out of frames while filling";
        break;
      }
    }
  }
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
  for (const MetricSnapshot& m : obs.metrics().Snapshot()) {
    if (m.name == "carrefour.failed_migrations") {
      out.failed_migrations = m.count;
    }
  }
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
  EXPECT_EQ(a.failed_migrations, b.failed_migrations);
}

TEST_P(P2mOrderDifferentialTest, OrderLadderIsBitIdentical) {
  const DiffCase dc = GetParam();
  const AppProfile app = DiffChurnApp();

  const DiffOutcome base = RunOnce(app, dc, PageOrder::k4K);
  const DiffOutcome order = RunOnce(app, dc, PageOrder::k1G);

  ExpectSameOutcome(order, base);
  if (dc.non_home_fill > 0.0) {
    // The filled cells are only meaningful if a full node refused a move.
    EXPECT_GT(base.failed_migrations, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, P2mOrderDifferentialTest,
    ::testing::Values(
        DiffCase{"first_touch", StaticPolicy::kFirstTouch, false, 0.0},
        DiffCase{"round_4k", StaticPolicy::kRound4k, false, 0.0},
        DiffCase{"round_1g", StaticPolicy::kRound1g, false, 0.0},
        DiffCase{"first_touch_carrefour", StaticPolicy::kFirstTouch, true, 0.0},
        DiffCase{"first_touch_carrefour_full_nodes", StaticPolicy::kFirstTouch, true, 1.0},
        DiffCase{"round_1g_carrefour_full_nodes", StaticPolicy::kRound1g, true, 1.0}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return std::string(info.param.label);
    });

}  // namespace
}  // namespace xnuma
