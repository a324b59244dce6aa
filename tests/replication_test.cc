// Tests for the optional read-only page replication extension — the
// heuristic the paper discards in §3.4 but whose mechanism we implement to
// reproduce that judgement experimentally.

#include <gtest/gtest.h>

#include "src/carrefour/system_component.h"
#include "src/carrefour/user_component.h"
#include "src/numa/topology.h"
#include "src/sim/engine.h"

namespace xnuma {
namespace {

class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest() : topo_(Topology::Amd48()), hv_(topo_) {
    DomainConfig dc;
    dc.num_vcpus = 8;
    dc.memory_pages = 64;
    dc.policy = {StaticPolicy::kRound4k, false};
    dc.pinned_cpus = {0, 6, 12, 18, 24, 30, 36, 42};
    dom_ = hv_.CreateDomain(dc);
  }

  HvPlacementBackend& be() { return hv_.backend(dom_); }

  Topology topo_;
  Hypervisor hv_;
  DomainId dom_ = kInvalidDomain;
};

TEST_F(ReplicationTest, ReplicateAllocatesOneFramePerOtherHomeNode) {
  const int64_t free_before = hv_.frames().TotalFreeFrames();
  ASSERT_TRUE(be().Replicate(0));
  EXPECT_TRUE(be().IsReplicated(0));
  // 8 home nodes, one already holds the primary copy -> 7 replicas.
  EXPECT_EQ(hv_.frames().TotalFreeFrames(), free_before - 7);
  EXPECT_EQ(hv_.domain(dom_).stats().pages_replicated, 1);
}

TEST_F(ReplicationTest, ReplicatedPageIsWriteProtected) {
  ASSERT_TRUE(be().Replicate(3));
  EXPECT_TRUE(hv_.domain(dom_).p2m().IsValid(3));
  EXPECT_FALSE(hv_.domain(dom_).p2m().IsWritable(3));
}

TEST_F(ReplicationTest, DoubleReplicationFails) {
  ASSERT_TRUE(be().Replicate(1));
  EXPECT_FALSE(be().Replicate(1));
}

TEST_F(ReplicationTest, UnmappedPageCannotBeReplicated) {
  be().Invalidate(5);
  EXPECT_FALSE(be().Replicate(5));
}

TEST_F(ReplicationTest, CollapseFreesReplicasAndRestoresWritability) {
  const int64_t free_before = hv_.frames().TotalFreeFrames();
  ASSERT_TRUE(be().Replicate(2));
  be().CollapseReplicas(2);
  EXPECT_FALSE(be().IsReplicated(2));
  EXPECT_TRUE(hv_.domain(dom_).p2m().IsWritable(2));
  EXPECT_EQ(hv_.frames().TotalFreeFrames(), free_before);
  EXPECT_EQ(hv_.domain(dom_).stats().replicas_collapsed, 1);
  // Idempotent.
  be().CollapseReplicas(2);
  EXPECT_EQ(hv_.domain(dom_).stats().replicas_collapsed, 1);
}

TEST_F(ReplicationTest, MigrationCollapsesFirst) {
  ASSERT_TRUE(be().Replicate(4));
  const int64_t free_before = hv_.frames().TotalFreeFrames();
  EXPECT_TRUE(be().Migrate(4, 5));
  EXPECT_FALSE(be().IsReplicated(4));
  EXPECT_EQ(be().NodeOf(4), 5);
  // 7 replicas freed, old primary freed, one new frame taken: net +7.
  EXPECT_EQ(hv_.frames().TotalFreeFrames(), free_before + 7);
}

TEST_F(ReplicationTest, InvalidateCollapsesReplicas) {
  const int64_t free_before = hv_.frames().TotalFreeFrames();
  ASSERT_TRUE(be().Replicate(6));
  be().Invalidate(6);
  EXPECT_FALSE(be().IsReplicated(6));
  // All 8 frames (primary + 7 replicas) back.
  EXPECT_EQ(hv_.frames().TotalFreeFrames(), free_before + 1);
}

TEST_F(ReplicationTest, RollsBackWhenANodeIsExhausted) {
  // Drain node 7 completely, then try to replicate.
  while (hv_.frames().FreeFrames(7) > 0) {
    ASSERT_NE(hv_.frames().AllocOnNode(7), kInvalidMfn);
  }
  const int64_t free_before = hv_.frames().TotalFreeFrames();
  EXPECT_FALSE(be().Replicate(9));
  EXPECT_EQ(hv_.frames().TotalFreeFrames(), free_before);  // nothing leaked
  EXPECT_FALSE(be().IsReplicated(9));
}

TEST(ReplicationEngineTest, ReadOnlySharedWorkloadBenefits) {
  // A synthetic workload dominated by a read-only shared hot table: the one
  // case replication is built for.
  AppProfile app;
  app.name = "readonly-shared";
  app.cpu_cycles_per_access = 150;
  app.mlp = 3;
  app.nominal_seconds = 1.0;
  RegionSpec table;
  table.name = "hot-table";
  table.footprint_mb = 96;
  table.init = AllocPattern::kMasterInit;
  table.access_share = 0.85;
  table.owner_affinity = 0.0;
  table.write_fraction = 0.0;  // read-only -> replication candidate
  app.regions.push_back(table);
  RegionSpec priv;
  priv.name = "private";
  priv.footprint_mb = 128;
  priv.init = AllocPattern::kOwnerPartitioned;
  priv.access_share = 0.15;
  priv.owner_affinity = 0.95;
  app.regions.push_back(priv);

  auto run = [&](bool replication) {
    Topology topo = Topology::Amd48();
    Hypervisor hv(topo);
    LatencyModel latency;
    EngineConfig ec;
    ec.carrefour.enable_replication = replication;
    Engine engine(hv, latency, ec);
    DomainConfig dc;
    dc.num_vcpus = 48;
    dc.memory_pages = 4096;
    for (int i = 0; i < 48; ++i) {
      dc.pinned_cpus.push_back(i);
    }
    dc.policy = {StaticPolicy::kFirstTouch, true};  // Carrefour active
    const DomainId dom = hv.CreateDomain(dc);
    GuestOs guest(hv, dom);
    JobSpec spec;
    spec.app = &app;
    spec.domain = dom;
    spec.guest = &guest;
    spec.threads = 48;
    engine.AddJob(spec);
    RunResult r = engine.Run();
    return r.jobs[0];
  };

  const JobResult without = run(false);
  const JobResult with = run(true);
  EXPECT_LT(with.completion_seconds, 0.9 * without.completion_seconds);
  EXPECT_LT(with.avg_latency_cycles, without.avg_latency_cycles);
}

TEST(ReplicationCarrefourTest, WrittenPagesAreNeverReplicated) {
  Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  PerfCounters counters(topo);

  class OneWrittenPage : public PageAccessSource {
   public:
    void SampleHotPages(DomainId, int, std::vector<PageAccessSample>* out) override {
      PageAccessSample s;
      s.pfn = 0;
      s.written = true;
      s.rate_by_node.assign(8, 1.0);  // no dominant source
      out->assign(1, s);
    }
  } sampler;

  DomainConfig dc;
  dc.num_vcpus = 2;
  dc.memory_pages = 16;
  const DomainId dom = hv.CreateDomain(dc);

  TrafficSnapshot snap;
  snap.epoch_seconds = 0.05;
  snap.accesses_per_s.assign(8, std::vector<double>(8, 0.0));
  snap.dma_bytes_per_s.assign(8, 0.0);
  snap.mc_utilization.assign(8, 0.1);
  snap.link_utilization.assign(topo.num_links(), 0.9);  // saturated
  counters.CommitEpoch(snap);

  CarrefourSystemComponent system(hv, counters, sampler);
  CarrefourConfig cfg;
  cfg.enable_replication = true;
  CarrefourUserComponent user(system, cfg);
  const CarrefourTickStats stats = user.Tick(dom);
  EXPECT_EQ(stats.replications, 0);
  EXPECT_FALSE(hv.backend(dom).IsReplicated(0));
}

}  // namespace
}  // namespace xnuma
