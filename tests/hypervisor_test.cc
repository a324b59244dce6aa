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

}  // namespace
}  // namespace xnuma
