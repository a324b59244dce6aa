#include "src/mm/frame_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "src/numa/topology.h"

namespace xnuma {
namespace {

class FrameAllocatorTest : public ::testing::Test {
 protected:
  Topology topo_ = Topology::Synthetic(4, 2, 64ll << 20);  // 16 frames/node @4MiB
  FrameAllocator alloc_{topo_, 4ll << 20};
};

TEST_F(FrameAllocatorTest, Layout) {
  EXPECT_EQ(alloc_.total_frames(), 64);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(alloc_.frames_per_node(n), 16);
    EXPECT_EQ(alloc_.FreeFrames(n), 16);
  }
}

TEST_F(FrameAllocatorTest, NodeOfRespectsPartition) {
  for (NodeId n = 0; n < 4; ++n) {
    const Mfn mfn = alloc_.AllocOnNode(n);
    ASSERT_NE(mfn, kInvalidMfn);
    EXPECT_EQ(alloc_.NodeOf(mfn), n);
  }
}

TEST_F(FrameAllocatorTest, ExhaustionReturnsInvalid) {
  for (int i = 0; i < 16; ++i) {
    EXPECT_NE(alloc_.AllocOnNode(2), kInvalidMfn);
  }
  EXPECT_EQ(alloc_.AllocOnNode(2), kInvalidMfn);
  EXPECT_EQ(alloc_.FreeFrames(2), 0);
}

TEST_F(FrameAllocatorTest, FreeMakesFrameReusable) {
  const Mfn mfn = alloc_.AllocOnNode(1);
  EXPECT_TRUE(alloc_.IsAllocated(mfn));
  alloc_.Free(mfn);
  EXPECT_FALSE(alloc_.IsAllocated(mfn));
  EXPECT_EQ(alloc_.FreeFrames(1), 16);
}

TEST_F(FrameAllocatorTest, AllocationsAreUnique) {
  std::set<Mfn> seen;
  for (NodeId n = 0; n < 4; ++n) {
    for (int i = 0; i < 16; ++i) {
      const Mfn mfn = alloc_.AllocOnNode(n);
      ASSERT_NE(mfn, kInvalidMfn);
      EXPECT_TRUE(seen.insert(mfn).second) << "duplicate frame " << mfn;
    }
  }
  EXPECT_EQ(alloc_.TotalFreeFrames(), 0);
}

TEST_F(FrameAllocatorTest, ContiguousRunIsContiguousAndOnNode) {
  const Mfn first = alloc_.AllocContiguous(3, 8);
  ASSERT_NE(first, kInvalidMfn);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(alloc_.IsAllocated(first + i));
    EXPECT_EQ(alloc_.NodeOf(first + i), 3);
  }
  EXPECT_EQ(alloc_.FreeFrames(3), 8);
}

TEST_F(FrameAllocatorTest, ContiguousFailsOnFragmentation) {
  // Allocate every other frame of node 0, then ask for a run of 2.
  std::vector<Mfn> singles;
  for (int i = 0; i < 16; ++i) {
    singles.push_back(alloc_.AllocOnNode(0));
  }
  for (size_t i = 0; i < singles.size(); i += 2) {
    alloc_.Free(singles[i]);
  }
  EXPECT_EQ(alloc_.FreeFrames(0), 8);
  EXPECT_EQ(alloc_.AllocContiguous(0, 2), kInvalidMfn);
  EXPECT_NE(alloc_.AllocContiguous(0, 1), kInvalidMfn);
}

TEST_F(FrameAllocatorTest, FreeContiguousReleasesWholeRun) {
  const Mfn first = alloc_.AllocContiguous(1, 6);
  ASSERT_NE(first, kInvalidMfn);
  alloc_.FreeContiguous(first, 6);
  EXPECT_EQ(alloc_.FreeFrames(1), 16);
}

TEST_F(FrameAllocatorTest, FramesPerOrderScalesWithFrameSize) {
  EXPECT_EQ(alloc_.FramesPerOrder(PageOrder::k4K), 1);
  EXPECT_EQ(alloc_.FramesPerOrder(PageOrder::k2M), 1);  // collapses to quantum
  EXPECT_EQ(alloc_.FramesPerOrder(PageOrder::k1G), 256);

  FrameAllocator fine(topo_, 4096);
  EXPECT_EQ(fine.FramesPerOrder(PageOrder::k4K), 1);
  EXPECT_EQ(fine.FramesPerOrder(PageOrder::k2M), 512);
  EXPECT_EQ(fine.FramesPerOrder(PageOrder::k1G), 262144);
}

// Every mutator moves the generation of the node whose frames it changed
// and of no other node: the admission solver recomputes a node's cached
// NodeSpace only when that node's generation moved.
TEST_F(FrameAllocatorTest, MutatorsBumpOnlyTheTouchedNodesGeneration) {
  std::vector<uint64_t> before;
  auto snapshot = [&] {
    before.clear();
    for (NodeId n = 0; n < 4; ++n) {
      before.push_back(alloc_.generation(n));
    }
  };
  auto expect_moved = [&](const std::vector<NodeId>& touched, const char* what) {
    for (NodeId n = 0; n < 4; ++n) {
      const bool moved = alloc_.generation(n) != before[n];
      const bool want = std::find(touched.begin(), touched.end(), n) != touched.end();
      EXPECT_EQ(moved, want) << what << ", node " << n;
    }
  };

  snapshot();
  const Mfn one = alloc_.AllocOnNode(1);
  ASSERT_NE(one, kInvalidMfn);
  expect_moved({1}, "AllocOnNode");

  snapshot();
  const Mfn run = alloc_.AllocContiguous(2, 4);
  ASSERT_NE(run, kInvalidMfn);
  expect_moved({2}, "AllocContiguous");

  snapshot();
  alloc_.Free(one);
  expect_moved({1}, "Free");

  snapshot();
  alloc_.FreeContiguous(run, 4);
  expect_moved({2}, "FreeContiguous");

  // Fill node 0: a refused allocation changes no frame and no generation.
  for (int i = 0; i < 16; ++i) {
    ASSERT_NE(alloc_.AllocOnNode(0), kInvalidMfn);
  }
  snapshot();
  EXPECT_EQ(alloc_.AllocOnNode(0), kInvalidMfn);
  EXPECT_EQ(alloc_.AllocContiguous(0, 2), kInvalidMfn);
  expect_moved({}, "refused allocation");

  // Edge holes land on every node with a free frame left to pin; the full
  // node 0 has none, so its generation stays.
  snapshot();
  alloc_.FragmentEdgeRegions(/*holes_per_edge=*/2);
  expect_moved({1, 2, 3}, "FragmentEdgeRegions");
}

// The bitmap packs 64 frames per word; these cases pin the word-boundary
// behavior of the ctz/clz scans (nodes sized and offset so runs and rover
// wraps straddle words).
TEST(FrameAllocatorBitmapTest, ContiguousRunsCrossWordBoundaries) {
  // 2 nodes x 100 frames: node 1 spans bits [100, 200) — unaligned start,
  // interior word, unaligned end.
  const Topology topo = Topology::Synthetic(2, 2, 400ll << 20);
  FrameAllocator alloc(topo, 4ll << 20);
  ASSERT_EQ(alloc.frames_per_node(1), 100);
  ASSERT_EQ(alloc.AllocContiguous(1, 100), 100);  // the whole node fits
  EXPECT_EQ(alloc.FreeFrames(1), 0);
  // Free all but [126,130) (straddles the bit-128 word boundary) and
  // [164,166) (interior to a word).
  for (Mfn mfn = 100; mfn < 200; ++mfn) {
    if ((mfn >= 126 && mfn < 130) || (mfn >= 164 && mfn < 166)) {
      continue;
    }
    alloc.Free(mfn);
  }
  // Free runs: [100,126) = 26, [130,164) = 34, [166,200) = 34.
  EXPECT_EQ(alloc.AllocContiguous(1, 35), kInvalidMfn);
  EXPECT_EQ(alloc.AllocContiguous(1, 34), 130);  // leftmost fit
  EXPECT_EQ(alloc.AllocContiguous(1, 27), 166);  // crosses bit 192
  EXPECT_EQ(alloc.AllocContiguous(1, 26), 100);  // unaligned node start
}

TEST(FrameAllocatorBitmapTest, RoverWrapScansAcrossWords) {
  const Topology topo = Topology::Synthetic(1, 2, 520ll << 20);
  FrameAllocator alloc(topo, 4ll << 20);
  ASSERT_EQ(alloc.total_frames(), 130);  // > 2 words
  // Advance the rover to the tail, free an early frame, and exhaust the
  // rest: the cyclic scan must wrap through full words to find it.
  std::vector<Mfn> all;
  for (int i = 0; i < 130; ++i) {
    all.push_back(alloc.AllocOnNode(0));
  }
  EXPECT_EQ(alloc.AllocOnNode(0), kInvalidMfn);
  alloc.Free(7);
  EXPECT_EQ(alloc.AllocOnNode(0), 7);  // found via wrap-around
  EXPECT_EQ(alloc.AllocOnNode(0), kInvalidMfn);
}

TEST_F(FrameAllocatorTest, FreeExtentCursorYieldsMaximalRuns) {
  // Carve node 0 (frames [0,16)) into known holes: used {3,4,5,9}.
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(alloc_.AllocOnNode(0), i);
  }
  for (const Mfn mfn : {0, 1, 2, 6, 7, 8}) {
    alloc_.Free(mfn);
  }
  FrameAllocator::FreeExtentCursor cursor = alloc_.FreeExtents(0);
  FreeExtent extent;
  ASSERT_TRUE(cursor.Next(&extent));
  EXPECT_EQ(extent.first, 0);
  EXPECT_EQ(extent.count, 3);
  ASSERT_TRUE(cursor.Next(&extent));
  EXPECT_EQ(extent.first, 6);
  EXPECT_EQ(extent.count, 3);
  ASSERT_TRUE(cursor.Next(&extent));
  EXPECT_EQ(extent.first, 10);
  EXPECT_EQ(extent.count, 6);
  EXPECT_FALSE(cursor.Next(&extent));
}

TEST_F(FrameAllocatorTest, FreeExtentCursorIsScopedToItsNode) {
  // Node 1 fully free: exactly one extent covering [16, 32), regardless of
  // what neighboring nodes look like.
  for (int i = 0; i < 16; ++i) {
    ASSERT_NE(alloc_.AllocOnNode(0), kInvalidMfn);
  }
  FrameAllocator::FreeExtentCursor cursor = alloc_.FreeExtents(1);
  FreeExtent extent;
  ASSERT_TRUE(cursor.Next(&extent));
  EXPECT_EQ(extent.first, 16);
  EXPECT_EQ(extent.count, 16);
  EXPECT_FALSE(cursor.Next(&extent));
}

TEST(FrameAllocatorRecountTest, RecountTracksCachedCounterAcrossWordBoundaries) {
  // 100 frames/node: node 1 spans bits [100, 200), exercising unaligned
  // word edges in the popcount recount.
  const Topology topo = Topology::Synthetic(2, 2, 400ll << 20);
  FrameAllocator alloc(topo, 4ll << 20);
  EXPECT_EQ(alloc.RecountFreeFrames(1), 100);
  ASSERT_EQ(alloc.AllocContiguous(1, 100), 100);
  EXPECT_EQ(alloc.RecountFreeFrames(1), 0);
  for (Mfn mfn = 120; mfn < 170; ++mfn) {
    alloc.Free(mfn);
  }
  EXPECT_EQ(alloc.RecountFreeFrames(1), 50);
  EXPECT_EQ(alloc.RecountFreeFrames(1), alloc.FreeFrames(1));
  EXPECT_EQ(alloc.RecountFreeFrames(0), alloc.FreeFrames(0));
}

TEST(FrameAllocatorEdgeTest, FragmentEdgeRegionsPinsHoles) {
  const Topology topo = Topology::Amd48();
  FrameAllocator alloc(topo, 4ll << 20);
  const int64_t before = alloc.TotalFreeFrames();
  alloc.FragmentEdgeRegions(4);
  EXPECT_LT(alloc.TotalFreeFrames(), before);
  // Holes never exceed 2 per hole-pair per node.
  EXPECT_GE(alloc.TotalFreeFrames(), before - 8 * 8);
}

TEST(FrameAllocatorAmd48Test, CapacityMatchesMachine) {
  const Topology topo = Topology::Amd48();
  FrameAllocator alloc(topo, 4ll << 20);
  EXPECT_EQ(alloc.total_frames(), 32768);  // 128 GiB / 4 MiB
}

}  // namespace
}  // namespace xnuma
