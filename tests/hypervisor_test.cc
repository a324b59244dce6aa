#include "src/hv/hypervisor.h"

#include <gtest/gtest.h>

#include <set>

#include "src/numa/topology.h"

namespace xnuma {
namespace {

class HypervisorTest : public ::testing::Test {
 protected:
  Topology topo_ = Topology::Amd48();
  Hypervisor hv_{topo_};
};

DomainConfig SmallDomain(int vcpus = 4, int64_t pages = 128) {
  DomainConfig dc;
  dc.name = "test";
  dc.num_vcpus = vcpus;
  dc.memory_pages = pages;
  return dc;
}

TEST_F(HypervisorTest, CreateDomainDefaultsToRound4k) {
  const DomainId id = hv_.CreateDomain(SmallDomain());
  const Domain& dom = hv_.domain(id);
  EXPECT_EQ(dom.policy_config().placement, StaticPolicy::kRound4k);
  EXPECT_FALSE(dom.policy_config().carrefour);
  // Eager policy: memory fully mapped at creation.
  EXPECT_EQ(dom.p2m().valid_count(), 128);
}

TEST_F(HypervisorTest, FirstTouchDomainStartsUnmapped) {
  DomainConfig dc = SmallDomain();
  dc.policy.placement = StaticPolicy::kFirstTouch;
  const DomainId id = hv_.CreateDomain(dc);
  EXPECT_EQ(hv_.domain(id).p2m().valid_count(), 0);
}

TEST_F(HypervisorTest, ExplicitPinningDerivesHomeNodes) {
  DomainConfig dc = SmallDomain(/*vcpus=*/4);
  dc.pinned_cpus = {0, 1, 6, 7};  // nodes 0 and 1
  const DomainId id = hv_.CreateDomain(dc);
  EXPECT_EQ(hv_.domain(id).home_nodes(), (std::vector<NodeId>{0, 1}));
}

TEST_F(HypervisorTest, AutoPackingUsesFewUnderloadedNodes) {
  DomainConfig dc = SmallDomain(/*vcpus=*/6, /*pages=*/128);
  const DomainId id = hv_.CreateDomain(dc);
  const Domain& dom = hv_.domain(id);
  EXPECT_EQ(static_cast<int>(dom.home_nodes().size()), 1);
  // All vCPUs pinned to distinct CPUs of that node.
  std::set<CpuId> cpus;
  for (const VcpuDesc& v : dom.vcpus()) {
    cpus.insert(v.pinned_cpu);
    EXPECT_EQ(topo_.node_of_cpu(v.pinned_cpu), dom.home_nodes()[0]);
  }
  EXPECT_EQ(cpus.size(), 6u);
}

TEST_F(HypervisorTest, SecondDomainPacksElsewhere) {
  const DomainId a = hv_.CreateDomain(SmallDomain(6));
  const DomainId b = hv_.CreateDomain(SmallDomain(6));
  EXPECT_NE(hv_.domain(a).home_nodes(), hv_.domain(b).home_nodes());
}

TEST_F(HypervisorTest, Round4kSpreadsOverHomeNodes) {
  DomainConfig dc = SmallDomain(/*vcpus=*/4, /*pages=*/80);
  dc.pinned_cpus = {0, 6, 12, 18};  // nodes 0..3
  const DomainId id = hv_.CreateDomain(dc);
  std::map<NodeId, int> hist;
  HvPlacementBackend& be = hv_.backend(id);
  for (Pfn p = 0; p < 80; ++p) {
    ++hist[be.NodeOf(p)];
  }
  ASSERT_EQ(hist.size(), 4u);
  for (const auto& [node, count] : hist) {
    EXPECT_EQ(count, 20) << "node " << node;
  }
}

TEST_F(HypervisorTest, TryCreateRejectsOversizedDomain) {
  DomainConfig dc = SmallDomain(1, hv_.frames().TotalFreeFrames() + 1);
  EXPECT_EQ(hv_.TryCreateDomain(dc), kInvalidDomain);
}

TEST_F(HypervisorTest, TryCreateRejectsFirstTouchWithPassthrough) {
  DomainConfig dc = SmallDomain();
  dc.policy.placement = StaticPolicy::kFirstTouch;
  dc.pci_passthrough = true;
  EXPECT_EQ(hv_.TryCreateDomain(dc), kInvalidDomain);  // §4.4.1
}

TEST_F(HypervisorTest, SetPolicyHypercallSwitchesAndInitializes) {
  DomainConfig dc = SmallDomain();
  dc.policy.placement = StaticPolicy::kFirstTouch;
  const DomainId id = hv_.CreateDomain(dc);
  EXPECT_EQ(hv_.domain(id).p2m().valid_count(), 0);

  EXPECT_EQ(hv_.HypercallSetPolicy(id, {StaticPolicy::kRound4k, true}),
            HypercallStatus::kOk);
  EXPECT_EQ(hv_.domain(id).policy_config().placement, StaticPolicy::kRound4k);
  EXPECT_TRUE(hv_.domain(id).policy_config().carrefour);
  EXPECT_EQ(hv_.domain(id).p2m().valid_count(), 128);  // eagerly placed
}

TEST_F(HypervisorTest, SetPolicyRejectsBadDomain) {
  EXPECT_EQ(hv_.HypercallSetPolicy(99, {StaticPolicy::kRound4k, false}),
            HypercallStatus::kBadDomain);
}

TEST_F(HypervisorTest, SetPolicyRejectsFirstTouchOnPassthroughDomain) {
  DomainConfig dc = SmallDomain();
  dc.pci_passthrough = true;
  const DomainId id = hv_.CreateDomain(dc);
  EXPECT_EQ(hv_.HypercallSetPolicy(id, {StaticPolicy::kFirstTouch, false}),
            HypercallStatus::kPolicyConflictsWithIommu);
}

TEST_F(HypervisorTest, CarrefourToggleKeepsPlacement) {
  const DomainId id = hv_.CreateDomain(SmallDomain());
  const Mfn before = hv_.domain(id).p2m().Lookup(0);
  EXPECT_EQ(hv_.HypercallSetPolicy(id, {StaticPolicy::kRound4k, true}), HypercallStatus::kOk);
  EXPECT_EQ(hv_.domain(id).p2m().Lookup(0), before);
}

TEST_F(HypervisorTest, GuestFaultPlacesOnToucherNode) {
  DomainConfig dc = SmallDomain();
  dc.policy.placement = StaticPolicy::kFirstTouch;
  dc.pinned_cpus = {0, 6, 12, 18};
  const DomainId id = hv_.CreateDomain(dc);
  // CPU 12 belongs to node 2.
  EXPECT_EQ(hv_.HandleGuestFault(id, 5, /*toucher_cpu=*/12), 2);
  EXPECT_EQ(hv_.backend(id).NodeOf(5), 2);
  EXPECT_EQ(hv_.domain(id).stats().hv_page_faults, 1);
}

TEST_F(HypervisorTest, QueueFlushReplayHonoursMostRecentOp) {
  DomainConfig dc = SmallDomain();
  dc.policy.placement = StaticPolicy::kFirstTouch;
  const DomainId id = hv_.CreateDomain(dc);
  hv_.HandleGuestFault(id, 7, 0);
  hv_.HandleGuestFault(id, 8, 0);
  ASSERT_TRUE(hv_.backend(id).IsMapped(7));
  ASSERT_TRUE(hv_.backend(id).IsMapped(8));

  // Page 7: released then reallocated -> must stay mapped (§4.2.4).
  // Page 8: released only -> must be invalidated.
  const PageQueueOp ops[] = {
      {PageQueueOp::Kind::kRelease, 7},
      {PageQueueOp::Kind::kRelease, 8},
      {PageQueueOp::Kind::kAlloc, 7},
  };
  hv_.HypercallPageQueueFlush(id, ops);
  EXPECT_TRUE(hv_.backend(id).IsMapped(7));
  EXPECT_FALSE(hv_.backend(id).IsMapped(8));
  EXPECT_EQ(hv_.domain(id).stats().pages_invalidated, 1);
  EXPECT_EQ(hv_.domain(id).stats().reallocated_in_queue, 1);
}

TEST_F(HypervisorTest, QueueFlushIgnoredForEagerPolicies) {
  const DomainId id = hv_.CreateDomain(SmallDomain());  // round-4K
  const PageQueueOp ops[] = {{PageQueueOp::Kind::kRelease, 3}};
  hv_.HypercallPageQueueFlush(id, ops);
  EXPECT_TRUE(hv_.backend(id).IsMapped(3));
  EXPECT_EQ(hv_.domain(id).stats().pages_invalidated, 0);
}

TEST_F(HypervisorTest, QueueFlushReturnsSimulatedTime) {
  DomainConfig dc = SmallDomain();
  dc.policy.placement = StaticPolicy::kFirstTouch;
  const DomainId id = hv_.CreateDomain(dc);
  const PageQueueOp ops[] = {{PageQueueOp::Kind::kRelease, 3}};
  const double t = hv_.HypercallPageQueueFlush(id, ops);
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, 1e-4);
}

TEST_F(HypervisorTest, CpuShareWithConsolidatedVcpus) {
  DomainConfig a = SmallDomain(/*vcpus=*/48);
  a.pinned_cpus.resize(48);
  for (int i = 0; i < 48; ++i) {
    a.pinned_cpus[i] = i;
  }
  DomainConfig b = a;
  const DomainId da = hv_.CreateDomain(a);
  const DomainId db = hv_.CreateDomain(b);
  EXPECT_DOUBLE_EQ(hv_.CpuShare(da, 0), 0.5);
  EXPECT_DOUBLE_EQ(hv_.CpuShare(db, 17), 0.5);
  EXPECT_EQ(hv_.VcpusOnCpu(0), 2);
}

// The P2M order rule (docs/MODEL.md §14) decides which superpage orders
// exist at the machine's frame scale; the surviving orders set the region
// geometry the domain's policies place with. Pinned for every frame scale,
// max order and ft_superpage combination.
TEST(HypervisorGeometryTest, PolicyGeometryFollowsFrameScaleAndMaxOrder) {
  struct Case {
    int64_t bytes_per_frame;
    PageOrder max_order;
    bool ft_superpage;
    int64_t pages_per_1g;
    int64_t pages_per_2m;
    int64_t ft_fault_map_pages;
  };
  constexpr int64_t k256K = 256ll << 10;
  constexpr int64_t k1M = 1ll << 20;
  constexpr int64_t k4M = 4ll << 20;
  const Case cases[] = {
      {k256K, PageOrder::k4K, false, 256, 1, 1},  {k256K, PageOrder::k4K, true, 256, 1, 1},
      {k256K, PageOrder::k2M, false, 4096, 8, 1}, {k256K, PageOrder::k2M, true, 4096, 8, 8},
      {k256K, PageOrder::k1G, false, 4096, 8, 1}, {k256K, PageOrder::k1G, true, 4096, 8, 8},
      {k1M, PageOrder::k4K, false, 256, 1, 1},    {k1M, PageOrder::k4K, true, 256, 1, 1},
      {k1M, PageOrder::k2M, false, 1024, 2, 1},   {k1M, PageOrder::k2M, true, 1024, 2, 2},
      {k1M, PageOrder::k1G, false, 1024, 2, 1},   {k1M, PageOrder::k1G, true, 1024, 2, 2},
      // At 4 MiB per frame the 2M order collapses to one page, so a 2M
      // maximum leaves no order and 1G is the only one that exists.
      {k4M, PageOrder::k4K, false, 256, 1, 1},    {k4M, PageOrder::k4K, true, 256, 1, 1},
      {k4M, PageOrder::k2M, false, 256, 1, 1},    {k4M, PageOrder::k2M, true, 256, 1, 1},
      {k4M, PageOrder::k1G, false, 256, 1, 1},    {k4M, PageOrder::k1G, true, 256, 1, 256},
  };
  const Topology topo = Topology::Amd48();
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << "bytes_per_frame=" << c.bytes_per_frame
                 << " max_order=" << static_cast<int>(c.max_order)
                 << " ft_superpage=" << c.ft_superpage);
    Hypervisor hv(topo, c.bytes_per_frame);
    DomainConfig dc = SmallDomain();
    dc.policy.placement = StaticPolicy::kFirstTouch;
    dc.p2m_max_order = c.max_order;
    dc.ft_superpage = c.ft_superpage;
    const PolicyGeometry& geom = hv.domain(hv.CreateDomain(dc)).policy_geometry();
    EXPECT_EQ(geom.pages_per_1g, c.pages_per_1g);
    EXPECT_EQ(geom.pages_per_2m, c.pages_per_2m);
    EXPECT_EQ(geom.ft_fault_map_pages, c.ft_fault_map_pages);
  }
}

}  // namespace
}  // namespace xnuma
