#include "src/hv/hv_backend.h"

#include <gtest/gtest.h>

#include "src/hv/hypervisor.h"
#include "src/numa/topology.h"
#include "src/obs/obs.h"

namespace xnuma {
namespace {

class HvBackendTest : public ::testing::Test {
 protected:
  HvBackendTest() : topo_(Topology::Amd48()), hv_(topo_) {
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
  Observability obs_;  // outlives hv_; attached only by tests that read metrics
  Hypervisor hv_;
  DomainId id_;
};

TEST_F(HvBackendTest, MapOnNodeBacksWithFrameOfThatNode) {
  EXPECT_FALSE(be().IsMapped(0));
  EXPECT_TRUE(be().MapOnNode(0, 3));
  EXPECT_TRUE(be().IsMapped(0));
  EXPECT_EQ(be().NodeOf(0), 3);
  const Mfn mfn = hv_.domain(id_).p2m().Lookup(0);
  EXPECT_EQ(hv_.frames().NodeOf(mfn), 3);
}

TEST_F(HvBackendTest, MapTwiceFails) {
  EXPECT_TRUE(be().MapOnNode(1, 0));
  EXPECT_FALSE(be().MapOnNode(1, 2));
  EXPECT_EQ(be().NodeOf(1), 0);
}

TEST_F(HvBackendTest, MapRangeGetsContiguousMachineFrames) {
  EXPECT_TRUE(be().MapRangeOnNode(8, 8, 5));
  const Mfn base = hv_.domain(id_).p2m().Lookup(8);
  for (int k = 0; k < 8; ++k) {
    EXPECT_EQ(hv_.domain(id_).p2m().Lookup(8 + k), base + k);
    EXPECT_EQ(be().NodeOf(8 + k), 5);
  }
}

TEST_F(HvBackendTest, MapRangeFailsOnPartialOverlap) {
  EXPECT_TRUE(be().MapOnNode(20, 1));
  EXPECT_FALSE(be().MapRangeOnNode(18, 4, 1));
  EXPECT_FALSE(be().IsMapped(18));
  EXPECT_FALSE(be().IsMapped(19));
}

TEST_F(HvBackendTest, MigrateMovesFrameAndFreesOld) {
  EXPECT_TRUE(be().MapOnNode(2, 0));
  const Mfn old_mfn = hv_.domain(id_).p2m().Lookup(2);
  const int64_t free0_before = hv_.frames().FreeFrames(0);
  const int64_t free4_before = hv_.frames().FreeFrames(4);

  EXPECT_TRUE(be().Migrate(2, 4));
  EXPECT_EQ(be().NodeOf(2), 4);
  EXPECT_FALSE(hv_.frames().IsAllocated(old_mfn));
  EXPECT_EQ(hv_.frames().FreeFrames(0), free0_before + 1);
  EXPECT_EQ(hv_.frames().FreeFrames(4), free4_before - 1);
  // Entry remains valid and writable after the migration commit.
  EXPECT_TRUE(hv_.domain(id_).p2m().IsWritable(2));
}

TEST_F(HvBackendTest, MigrateToSameNodeIsNoOp) {
  EXPECT_TRUE(be().MapOnNode(3, 2));
  const Mfn mfn = hv_.domain(id_).p2m().Lookup(3);
  EXPECT_TRUE(be().Migrate(3, 2));
  EXPECT_EQ(hv_.domain(id_).p2m().Lookup(3), mfn);
  EXPECT_EQ(be().DrainMigrationWindow().migrations, 0);
}

TEST_F(HvBackendTest, MigrateUnmappedFails) {
  EXPECT_FALSE(be().Migrate(9, 1));
}

TEST_F(HvBackendTest, MigrationWindowAccumulatesAndDrains) {
  be().MapOnNode(0, 0);
  be().MapOnNode(1, 0);
  be().Migrate(0, 1);
  be().Migrate(1, 2);
  const auto w = be().DrainMigrationWindow();
  EXPECT_EQ(w.migrations, 2);
  EXPECT_EQ(w.bytes, 2 * hv_.frames().bytes_per_frame());
  EXPECT_EQ(be().DrainMigrationWindow().migrations, 0);
  EXPECT_EQ(hv_.domain(id_).stats().pages_migrated, 2);
}

TEST_F(HvBackendTest, InvalidateFreesFrame) {
  be().MapOnNode(5, 6);
  const Mfn mfn = hv_.domain(id_).p2m().Lookup(5);
  be().Invalidate(5);
  EXPECT_FALSE(be().IsMapped(5));
  EXPECT_FALSE(hv_.frames().IsAllocated(mfn));
  // Idempotent on unmapped pages.
  be().Invalidate(5);
  EXPECT_FALSE(be().IsMapped(5));
}

TEST_F(HvBackendTest, HomeNodesComeFromDomain) {
  EXPECT_EQ(be().home_nodes(), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(be().num_pages(), 64);
}

TEST_F(HvBackendTest, BackendExposesTopology) {
  // What a policy sees of the machine: the address space and the home
  // nodes of the vCPUs' pCPUs (0 and 6, on nodes 0 and 1).
  EXPECT_EQ(be().num_pages(), 64);
  EXPECT_EQ(be().home_nodes(), (std::vector<NodeId>{0, 1}));
}

// Allocates every free frame of `node` straight from the allocator, the way
// other domains' memory fills a node on a live machine.
void FillNode(FrameAllocator& frames, NodeId node) {
  while (frames.AllocOnNode(node) != kInvalidMfn) {
  }
  ASSERT_EQ(frames.FreeFrames(node), 0);
}

TEST_F(HvBackendTest, MapOnNodeOnFullNodeConsumesNoFrame) {
  FillNode(hv_.frames(), 3);
  const int64_t total_free_before = hv_.frames().TotalFreeFrames();

  EXPECT_FALSE(be().MapOnNode(0, 3));
  EXPECT_FALSE(be().IsMapped(0));
  EXPECT_EQ(hv_.frames().FreeFrames(3), 0);
  EXPECT_EQ(hv_.frames().TotalFreeFrames(), total_free_before);
}

TEST_F(HvBackendTest, MigrateToFullNodeLeavesPageInPlace) {
  hv_.set_observability(&obs_);
  Counter* failed = obs_.metrics().RegisterCounter("hv.backend.failed_migrations", "pages", "");
  ASSERT_TRUE(be().MapOnNode(2, 0));
  const Mfn mfn = hv_.domain(id_).p2m().Lookup(2);
  FillNode(hv_.frames(), 4);
  const int64_t free0_before = hv_.frames().FreeFrames(0);
  const int64_t failed_before = failed->value();

  EXPECT_FALSE(be().Migrate(2, 4));
  // The page keeps its frame, stays writable, and neither node gained or
  // lost a frame.
  EXPECT_EQ(be().NodeOf(2), 0);
  EXPECT_EQ(hv_.domain(id_).p2m().Lookup(2), mfn);
  EXPECT_TRUE(hv_.domain(id_).p2m().IsWritable(2));
  EXPECT_EQ(hv_.frames().FreeFrames(0), free0_before);
  EXPECT_EQ(hv_.frames().FreeFrames(4), 0);
  EXPECT_EQ(failed->value(), failed_before + 1);
  EXPECT_EQ(be().DrainMigrationWindow().migrations, 0);
}

}  // namespace
}  // namespace xnuma
