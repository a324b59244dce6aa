// Property battery for the admission layer (docs/MODEL.md §17).
//
// Over seeded random FrameAllocator states — including allocation-heavy
// histories that fill nodes, so later allocations are refused mid-way — the
// extent-cursor available-space calculation and the word-wise scoring
// summary must equal an exhaustive per-frame recount, every admitted
// request must provably fit its node-set,
// and a rejection must never be spurious: reject if and only if the request
// exceeds the bare machine.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "src/admission/available_space.h"
#include "src/admission/solver.h"
#include "src/common/rng.h"
#include "src/mm/frame_allocator.h"
#include "src/numa/topology.h"

namespace xnuma {
namespace {

struct RandomMachine {
  explicit RandomMachine(Topology t) : topo(std::move(t)), frames(topo, 4ll << 20) {}
  Topology topo;
  FrameAllocator frames;
};

// Builds a machine with a random shape and drives the allocator through a
// random mutation sequence (single allocations, contiguous runs, frees,
// edge-hole fragmentation). Odd seeds draw three allocations for every free,
// so their nodes fill and some allocations are refused — exactly the states
// a live machine reaches.
std::unique_ptr<RandomMachine> BuildRandomMachine(uint64_t seed) {
  Rng rng(seed);
  const int nodes = 1 + static_cast<int>(rng.NextInt(4));
  const int cpus = 1 + static_cast<int>(rng.NextInt(4));
  const int64_t frames_per_node = 8 + rng.NextInt(120);
  auto machine = std::make_unique<RandomMachine>(
      Topology::Synthetic(nodes, cpus, frames_per_node * (4ll << 20)));
  if (rng.NextBool(0.5)) {
    machine->frames.FragmentEdgeRegions(1 + static_cast<int>(rng.NextInt(4)), seed);
  }
  std::vector<Mfn> held;
  const int ops = static_cast<int>(rng.NextInt(300));
  for (int i = 0; i < ops; ++i) {
    const NodeId node = static_cast<NodeId>(rng.NextInt(nodes));
    switch (seed % 2 == 1 ? rng.NextInt(8) / 3 : rng.NextInt(4)) {
      case 0: {
        const Mfn mfn = machine->frames.AllocOnNode(node);
        if (mfn != kInvalidMfn) {
          held.push_back(mfn);
        }
        break;
      }
      case 1: {
        const int64_t count = 1 + rng.NextInt(8);
        const Mfn first = machine->frames.AllocContiguous(node, count);
        if (first != kInvalidMfn) {
          for (int64_t f = 0; f < count; ++f) {
            held.push_back(first + f);
          }
        }
        break;
      }
      default: {
        if (!held.empty()) {
          const size_t idx = static_cast<size_t>(rng.NextInt(held.size()));
          machine->frames.Free(held[idx]);
          held[idx] = held.back();
          held.pop_back();
        }
        break;
      }
    }
  }
  return machine;
}

TEST(AdmissionPropertyTest, AvailableSpaceEqualsExhaustiveRecount) {
  for (uint64_t seed = 0; seed < 60; ++seed) {
    const auto machine = BuildRandomMachine(seed);
    const FrameAllocator& frames = machine->frames;
    for (NodeId node = 0; node < frames.num_nodes(); ++node) {
      const NodeSpace fast = ComputeNodeSpace(frames, node);
      const NodeSpace slow = RecountNodeSpace(frames, node);
      ASSERT_EQ(fast.free_frames, slow.free_frames) << "seed " << seed;
      ASSERT_EQ(fast.free_extents, slow.free_extents) << "seed " << seed;
      ASSERT_EQ(fast.largest_extent, slow.largest_extent) << "seed " << seed;
      ASSERT_EQ(fast.blocks_2m, slow.blocks_2m) << "seed " << seed;
      ASSERT_EQ(fast.blocks_1g, slow.blocks_1g) << "seed " << seed;
      const NodeSpace scoring = ComputeScoringSpace(frames, node);
      ASSERT_EQ(scoring.free_frames, slow.free_frames) << "seed " << seed;
      ASSERT_EQ(scoring.blocks_2m, slow.blocks_2m) << "seed " << seed;
      ASSERT_EQ(scoring.blocks_1g, slow.blocks_1g) << "seed " << seed;
      // Three independent answers for "free frames on this node" agree:
      // cached counter, extent cursor, bitmap popcount.
      ASSERT_EQ(fast.free_frames, frames.FreeFrames(node)) << "seed " << seed;
      ASSERT_EQ(frames.RecountFreeFrames(node), frames.FreeFrames(node))
          << "seed " << seed;
      ASSERT_LE(fast.largest_extent, fast.free_frames);
    }
  }
}

TEST(AdmissionPropertyTest, AdmittedRequestsProvablyFit) {
  for (uint64_t seed = 100; seed < 160; ++seed) {
    const auto machine = BuildRandomMachine(seed);
    Rng rng(seed ^ 0xfeedface);
    std::vector<int> free_cpus(machine->topo.num_nodes());
    for (int& c : free_cpus) {
      c = static_cast<int>(rng.NextInt(machine->topo.node(0).cpus.size() + 1));
    }
    const AdmissionSolver solver(machine->topo, machine->frames);
    for (int probe = 0; probe < 10; ++probe) {
      AdmissionRequest request;
      request.num_vcpus = 1 + static_cast<int>(rng.NextInt(machine->topo.num_cpus() + 2));
      request.memory_pages = 1 + rng.NextInt(machine->frames.total_frames() + 64);
      request.preferred_order =
          rng.NextBool(0.3) ? PageOrder::k1G
                            : (rng.NextBool(0.5) ? PageOrder::k2M : PageOrder::k4K);
      const AdmissionResult result = solver.Solve(request, free_cpus);
      if (result.decision != AdmissionDecision::kAdmit) {
        continue;
      }
      ASSERT_FALSE(result.nodes.empty());
      int64_t frame_total = 0;
      int cpu_total = 0;
      NodeId prev = kInvalidNode;
      for (const NodeId node : result.nodes) {
        ASSERT_GT(node, prev) << "nodes not strictly ascending, seed " << seed;
        prev = node;
        // Fit is certified against the brute-force recount, not the state
        // the solver itself consulted.
        frame_total += RecountNodeSpace(machine->frames, node).free_frames;
        cpu_total += free_cpus[node];
      }
      ASSERT_GE(frame_total, request.memory_pages) << "seed " << seed;
      ASSERT_GE(cpu_total, request.num_vcpus) << "seed " << seed;
    }
  }
}

TEST(AdmissionPropertyTest, RejectionsAreNeverSpurious) {
  for (uint64_t seed = 200; seed < 260; ++seed) {
    const auto machine = BuildRandomMachine(seed);
    Rng rng(seed ^ 0xdeadbeef);
    const int n = machine->topo.num_nodes();
    std::vector<int> free_cpus(n);
    for (int& c : free_cpus) {
      c = static_cast<int>(rng.NextInt(machine->topo.node(0).cpus.size() + 1));
    }
    const AdmissionSolver solver(machine->topo, machine->frames);
    for (int probe = 0; probe < 10; ++probe) {
      AdmissionRequest request;
      request.num_vcpus = 1 + static_cast<int>(rng.NextInt(machine->topo.num_cpus() + 3));
      request.memory_pages = 1 + rng.NextInt(machine->frames.total_frames() + 64);
      const AdmissionResult result = solver.Solve(request, free_cpus);
      const bool exceeds_machine =
          request.memory_pages > machine->frames.total_frames() ||
          request.num_vcpus > machine->topo.num_cpus();
      // Reject if and only if even an empty machine could not hold it.
      ASSERT_EQ(result.decision == AdmissionDecision::kReject, exceeds_machine)
          << "seed " << seed << " pages " << request.memory_pages << " vcpus "
          << request.num_vcpus;
      if (result.decision == AdmissionDecision::kDefer) {
        // A defer must be backed by evidence: no node subset fits today.
        // Exhaustive check against the brute-force recounts.
        std::vector<int64_t> node_free(n);
        for (NodeId node = 0; node < n; ++node) {
          node_free[node] = RecountNodeSpace(machine->frames, node).free_frames;
        }
        for (uint32_t mask = 1; mask < (uint32_t{1} << n); ++mask) {
          int64_t frame_total = 0;
          int cpu_total = 0;
          for (int i = 0; i < n; ++i) {
            if (mask & (uint32_t{1} << i)) {
              frame_total += node_free[i];
              cpu_total += free_cpus[i];
            }
          }
          ASSERT_FALSE(frame_total >= request.memory_pages &&
                       cpu_total >= request.num_vcpus)
              << "solver deferred a feasible request, seed " << seed;
        }
      }
    }
  }
}

TEST(AdmissionPropertyTest, CursorIsExactOnDegenerateNodes) {
  // Full node, empty node, single-frame extents at both node edges.
  const Topology topo = Topology::Synthetic(2, 2, 64ll << 20);  // 16 frames/node
  FrameAllocator frames(topo, 4ll << 20);
  for (int i = 0; i < 16; ++i) {
    ASSERT_NE(frames.AllocOnNode(0), kInvalidMfn);
  }
  FreeExtent extent;
  EXPECT_FALSE(frames.FreeExtents(0).Next(&extent));
  EXPECT_EQ(ComputeNodeSpace(frames, 0).free_frames, 0);
  EXPECT_EQ(FragIndex(ComputeNodeSpace(frames, 0)), 0.0);  // nothing to fragment

  FrameAllocator::FreeExtentCursor whole = frames.FreeExtents(1);
  ASSERT_TRUE(whole.Next(&extent));
  EXPECT_EQ(extent.first, 16);
  EXPECT_EQ(extent.count, 16);
  EXPECT_FALSE(whole.Next(&extent));

  frames.Free(0);   // first frame of node 0
  frames.Free(15);  // last frame of node 0
  FrameAllocator::FreeExtentCursor edges = frames.FreeExtents(0);
  ASSERT_TRUE(edges.Next(&extent));
  EXPECT_EQ(extent.first, 0);
  EXPECT_EQ(extent.count, 1);
  ASSERT_TRUE(edges.Next(&extent));
  EXPECT_EQ(extent.first, 15);
  EXPECT_EQ(extent.count, 1);
  EXPECT_FALSE(edges.Next(&extent));
}

// Random allocator history through every mutator, spread over the nodes:
// single and bulk allocations, contiguous runs (up to a whole 1G span),
// single, bulk and contiguous frees, and now and then more edge holes.
class AllocatorChurn {
 public:
  AllocatorChurn(FrameAllocator& frames, uint64_t seed) : frames_(frames), rng_(seed) {}

  void Step() {
    const NodeId node = static_cast<NodeId>(rng_.NextInt(frames_.num_nodes()));
    const int64_t span_2m = frames_.FramesPerOrder(PageOrder::k2M);
    const int64_t span_1g = frames_.FramesPerOrder(PageOrder::k1G);
    switch (rng_.NextInt(13)) {
      case 0: {
        const Mfn mfn = frames_.AllocOnNode(node);
        if (mfn != kInvalidMfn) {
          singles_.push_back(mfn);
        }
        break;
      }
      case 1:
      case 2: {
        const int64_t count =
            std::min(frames_.FreeFrames(node), 1 + rng_.NextInt(span_1g / 2 + 64));
        const size_t at = singles_.size();
        singles_.resize(at + count);
        frames_.AllocManyOnNode(node, count, singles_.data() + at);
        break;
      }
      case 3:
      case 4: {
        const int64_t sizes[] = {1 + rng_.NextInt(8), span_2m, 3 * span_2m, span_1g / 2, span_1g};
        const int64_t count = sizes[rng_.NextInt(5)];
        const Mfn first = frames_.AllocContiguous(node, count);
        if (first != kInvalidMfn) {
          runs_.push_back({first, count});
        }
        break;
      }
      case 5:
      case 6: {
        if (!singles_.empty()) {
          const size_t idx = static_cast<size_t>(rng_.NextInt(singles_.size()));
          frames_.Free(singles_[idx]);
          singles_[idx] = singles_.back();
          singles_.pop_back();
        }
        break;
      }
      case 7:
      case 8:
      case 9: {
        // A random subset: shuffle a random tail into place, then free it.
        const int64_t count = rng_.NextInt(static_cast<int64_t>(singles_.size()) + 1);
        for (int64_t i = 0; i < count; ++i) {
          const size_t last = singles_.size() - 1 - i;
          std::swap(singles_[last], singles_[static_cast<size_t>(rng_.NextInt(last + 1))]);
        }
        frames_.FreeMany(std::span<const Mfn>(singles_.data() + singles_.size() - count, count));
        singles_.resize(singles_.size() - count);
        break;
      }
      case 10:
      case 11: {
        if (!runs_.empty()) {
          const size_t idx = static_cast<size_t>(rng_.NextInt(runs_.size()));
          frames_.FreeContiguous(runs_[idx].first, runs_[idx].second);
          runs_[idx] = runs_.back();
          runs_.pop_back();
        }
        break;
      }
      default:
        if (rng_.NextBool(0.2)) {
          frames_.FragmentEdgeRegions(1 + static_cast<int>(rng_.NextInt(3)), rng_.NextU64());
        }
        break;
    }
  }

 private:
  FrameAllocator& frames_;
  Rng rng_;
  std::vector<Mfn> singles_;
  std::vector<std::pair<Mfn, int64_t>> runs_;
};

// What the admission solver scores from, counted word by word, equals the
// per-frame recount after every kind of mutation. The frame sizes put the
// 2M span at 1, 2 and 8 frames and the 1G span at 256, 1024 and 4096, and
// no node size is a multiple of 64, so node ranges start mid-word.
TEST(AdmissionPropertyTest, ScoringSpaceEqualsExhaustiveRecount) {
  for (const int64_t bytes_per_frame : {4ll << 20, 1ll << 20, 256ll << 10}) {
    const int64_t span_1g = (1ll << 30) / bytes_per_frame;
    const int64_t frames_per_node = 2 * span_1g + 37;
    const Topology topo = Topology::Synthetic(3, 2, frames_per_node * bytes_per_frame);
    int64_t blocks_1g_seen = 0;
    for (uint64_t seed = 0; seed < 4; ++seed) {
      FrameAllocator frames(topo, bytes_per_frame);
      ASSERT_EQ(frames.frames_per_node(1), frames_per_node);
      AllocatorChurn churn(frames, seed * 31 + bytes_per_frame);
      for (int step = 0; step < 400; ++step) {
        churn.Step();
        if (step % 8 != 0) {
          continue;
        }
        for (NodeId node = 0; node < frames.num_nodes(); ++node) {
          const NodeSpace fast = ComputeScoringSpace(frames, node);
          const NodeSpace slow = RecountNodeSpace(frames, node);
          ASSERT_EQ(fast.node, node);
          ASSERT_EQ(fast.free_frames, slow.free_frames) << bytes_per_frame << " " << step;
          ASSERT_EQ(fast.blocks_2m, slow.blocks_2m) << bytes_per_frame << " " << step;
          ASSERT_EQ(fast.blocks_1g, slow.blocks_1g) << bytes_per_frame << " " << step;
          blocks_1g_seen += fast.blocks_1g;
        }
      }
    }
    EXPECT_GT(blocks_1g_seen, 0) << bytes_per_frame;  // the 1G count was exercised
  }
}

// FreeAlignedBlocks equals AlignedBlocksInExtent summed over the node's
// free extents for spans below, at and above one bitmap word, powers of
// two or not.
TEST(AdmissionPropertyTest, AlignedBlockCountEqualsExtentSum) {
  const Topology topo = Topology::Synthetic(3, 2, 1013 * (4ll << 20));
  for (uint64_t seed = 0; seed < 6; ++seed) {
    FrameAllocator frames(topo, 4ll << 20);
    AllocatorChurn churn(frames, seed);
    for (int step = 0; step < 300; ++step) {
      churn.Step();
      if (step % 6 != 0) {
        continue;
      }
      for (NodeId node = 0; node < frames.num_nodes(); ++node) {
        for (const int64_t span : {1, 2, 3, 4, 8, 16, 32, 48, 63, 64, 65, 100, 128, 192, 256, 512}) {
          int64_t expected = 0;
          FrameAllocator::FreeExtentCursor cursor = frames.FreeExtents(node);
          FreeExtent extent;
          while (cursor.Next(&extent)) {
            expected += AlignedBlocksInExtent(extent.first, extent.count, span);
          }
          ASSERT_EQ(frames.FreeAlignedBlocks(node, span), expected)
              << "seed " << seed << " step " << step << " node " << node << " span " << span;
        }
      }
    }
  }
}

}  // namespace
}  // namespace xnuma
