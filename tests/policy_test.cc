#include <gtest/gtest.h>

#include "src/hv/hypervisor.h"
#include "src/numa/topology.h"
#include "src/policy/first_touch.h"
#include "src/policy/numa_policy.h"
#include "src/policy/round_robin.h"
#include "tests/fake_backend.h"

namespace xnuma {
namespace {

TEST(FirstTouchTest, InitializeLeavesPagesUnmapped) {
  FakeBackend be(64, {0, 1, 2, 3}, 100, 4);
  FirstTouchPolicy ft;
  ft.Initialize(be);
  for (Pfn p = 0; p < 64; ++p) {
    EXPECT_FALSE(be.IsMapped(p));
  }
  EXPECT_TRUE(ft.traps_releases());
}

TEST(FirstTouchTest, PlacesOnToucherNode) {
  FakeBackend be(64, {0, 1, 2, 3}, 100, 4);
  FirstTouchPolicy ft;
  EXPECT_EQ(ft.OnFirstTouch(be, 10, 2), 2);
  EXPECT_EQ(be.NodeOf(10), 2);
}

TEST(FirstTouchTest, FallsBackRoundRobinWhenNodeFull) {
  FakeBackend be(64, {0, 1, 2, 3}, /*frames_per_node=*/4, 4);
  FirstTouchPolicy ft;
  for (Pfn p = 0; p < 4; ++p) {
    EXPECT_EQ(ft.OnFirstTouch(be, p, 1), 1);
  }
  // Node 1 is now full: placement falls back to other home nodes.
  const NodeId fallback = ft.OnFirstTouch(be, 4, 1);
  EXPECT_NE(fallback, kInvalidNode);
  EXPECT_NE(fallback, 1);
}

TEST(FirstTouchTest, ExhaustedMemoryReturnsInvalid) {
  FakeBackend be(64, {0, 1}, /*frames_per_node=*/2, 2);
  FirstTouchPolicy ft;
  for (Pfn p = 0; p < 4; ++p) {
    EXPECT_NE(ft.OnFirstTouch(be, p, 0), kInvalidNode);
  }
  EXPECT_EQ(ft.OnFirstTouch(be, 4, 0), kInvalidNode);
}

TEST(FirstTouchTest, TouchOfMappedPageKeepsPlacement) {
  FakeBackend be(8, {0, 1}, 8, 2);
  FirstTouchPolicy ft;
  ft.OnFirstTouch(be, 0, 1);
  EXPECT_EQ(ft.OnFirstTouch(be, 0, 0), 1);  // second toucher does not move it
}

TEST(Round4kTest, BalancesAcrossHomeNodes) {
  FakeBackend be(80, {0, 1, 2, 3}, 100, 4);
  Round4kPolicy r4k;
  r4k.Initialize(be);
  const auto hist = be.NodeHistogram();
  ASSERT_EQ(hist.size(), 4u);
  for (const auto& [node, count] : hist) {
    EXPECT_EQ(count, 20) << "node " << node;
  }
}

TEST(Round4kTest, RestrictsToHomeNodes) {
  FakeBackend be(40, {1, 3}, 100, 4);
  Round4kPolicy r4k;
  r4k.Initialize(be);
  const auto hist = be.NodeHistogram();
  EXPECT_EQ(hist.count(0), 0u);
  EXPECT_EQ(hist.count(2), 0u);
  EXPECT_EQ(hist.at(1), 20);
  EXPECT_EQ(hist.at(3), 20);
}

TEST(Round4kTest, OverflowSpillsToOtherHomes) {
  FakeBackend be(30, {0, 1}, /*frames_per_node=*/20, 2);
  Round4kPolicy r4k;
  r4k.Initialize(be);
  const auto hist = be.NodeHistogram();
  EXPECT_EQ(hist.at(0) + hist.at(1), 30);
}

TEST(Round1gTest, PlacesWholeChunksPerNode) {
  FakeBackend be(1024, {0, 1, 2, 3}, 1024, 4);
  Round1gPolicy r1g;
  r1g.Initialize(be);
  EXPECT_EQ(r1g.pages_placed_1g(), 1024);
  // Chunk k lands entirely on home node k % 4.
  for (int chunk = 0; chunk < 4; ++chunk) {
    const NodeId node = be.NodeOf(chunk * 256);
    for (Pfn p = chunk * 256; p < (chunk + 1) * 256; ++p) {
      EXPECT_EQ(be.NodeOf(p), node);
    }
  }
}

TEST(Round1gTest, SmallDomainLandsOnFewNodes) {
  // A domain smaller than one 1 GiB region is a single partial chunk: it is
  // placed page by page.
  FakeBackend be(100, {0, 1, 2, 3}, 1024, 4);
  Round1gPolicy r1g;
  r1g.Initialize(be);
  EXPECT_EQ(r1g.pages_placed_1g(), 0);
  int64_t mapped = 0;
  for (Pfn p = 0; p < 100; ++p) {
    mapped += be.IsMapped(p) ? 1 : 0;
  }
  EXPECT_EQ(mapped, 100);
}

TEST(Round1gTest, FallsBackOnFragmentation) {
  // Node capacity below a full chunk forces the per-page fallback.
  FakeBackend be(512, {0, 1, 2, 3}, /*frames_per_node=*/140, 4);
  Round1gPolicy r1g;
  r1g.Initialize(be);
  EXPECT_EQ(r1g.pages_placed_1g(), 0);
  EXPECT_EQ(r1g.pages_placed_4k(), 512);
  int64_t mapped = 0;
  for (Pfn p = 0; p < 512; ++p) {
    mapped += be.IsMapped(p) ? 1 : 0;
  }
  EXPECT_EQ(mapped, 512);
}

TEST(Round1gTest, EagerPoliciesDoNotTrapReleases) {
  Round1gPolicy r1g;
  Round4kPolicy r4k;
  EXPECT_FALSE(r1g.traps_releases());
  EXPECT_FALSE(r4k.traps_releases());
}

// Round-1G against the real machine allocator with BIOS/I-O edge holes
// (§3.3): at every frame scale, whole regions take the bulk of the domain
// and the hole-fragmented remainder falls back to single pages.
TEST(Round1gCascadeTest, EdgeFragmentationCascadesAcrossFrameScales) {
  struct Scale {
    const char* label;
    int64_t bytes_per_frame;
  };
  const Scale scales[] = {
      {"256KiB", 256ll << 10},
      {"1MiB", 1ll << 20},
      {"4MiB", 4ll << 20},
  };
  for (const Scale& s : scales) {
    SCOPED_TRACE(s.label);
    Topology topo = Topology::Synthetic(/*nodes=*/4, /*cpus_per_node=*/4,
                                        /*bytes_per_node=*/4ll << 30);
    // The hypervisor constructor pins edge holes via FragmentEdgeRegions.
    Hypervisor hv(topo, s.bytes_per_frame);
    FrameAllocator& frames = hv.frames();
    const int64_t free_before = frames.TotalFreeFrames();
    ASSERT_LT(free_before, frames.total_frames());  // holes were pinned

    DomainConfig dc;
    dc.name = "cascade";
    dc.num_vcpus = 4;
    // Sized to consume every free frame: the tail of the placement works
    // through the hole-fragmented edge remnants, forcing the fine paths.
    dc.memory_pages = free_before;
    dc.policy.placement = StaticPolicy::kFirstTouch;  // policy driven manually
    const DomainId dom = hv.CreateDomain(dc);

    Round1gPolicy r1g;
    r1g.Initialize(hv.backend(dom));

    const int64_t placed = r1g.pages_placed_1g() + r1g.pages_placed_4k();
    // Every free frame was consumed and every placement took one frame.
    EXPECT_EQ(placed, free_before - frames.TotalFreeFrames());
    EXPECT_EQ(frames.TotalFreeFrames(), 0);
    // The bulk of the domain lands as whole regions...
    EXPECT_GT(r1g.pages_placed_1g(), 0);
    EXPECT_EQ(r1g.pages_placed_1g() % kRound1gRegionPages, 0);
    EXPECT_GT(r1g.pages_placed_1g(), placed / 2);
    // ...and the fragmented remainder falls back to single pages.
    EXPECT_GT(r1g.pages_placed_4k(), 0);

    // The committed mappings respect contiguity: every mapped run the P2M
    // reports is physically contiguous on one node by construction, so
    // counting run boundaries bounds the fragmentation the cascade left.
    const P2mTable& p2m = hv.domain(dom).p2m();
    EXPECT_EQ(p2m.valid_count(), placed);
  }
}

TEST(MakePolicyTest, FactoryProducesMatchingKind) {
  for (StaticPolicy kind :
       {StaticPolicy::kFirstTouch, StaticPolicy::kRound4k, StaticPolicy::kRound1g}) {
    auto policy = MakePolicy(kind);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->kind(), kind);
  }
}

TEST(MapWithFallbackTest, PrefersPreferredNode) {
  FakeBackend be(8, {0, 1, 2}, 8, 3);
  int cursor = 0;
  EXPECT_EQ(MapWithFallback(be, 0, 2, &cursor), 2);
}

TEST(MapWithFallbackTest, ReturnsExistingMappingUnchanged) {
  FakeBackend be(8, {0, 1}, 8, 2);
  int cursor = 0;
  MapWithFallback(be, 0, 1, &cursor);
  EXPECT_EQ(MapWithFallback(be, 0, 0, &cursor), 1);
}

}  // namespace
}  // namespace xnuma
