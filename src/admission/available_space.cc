#include "src/admission/available_space.h"

#include <algorithm>

#include "src/common/check.h"

namespace xnuma {

int64_t AlignedBlocksInExtent(Mfn first, int64_t count, int64_t span) {
  XNUMA_CHECK(span > 0);
  if (span == 1) {
    return count;
  }
  const Mfn aligned_first = ((first + span - 1) / span) * span;
  const Mfn end = first + count;
  if (aligned_first >= end) {
    return 0;
  }
  return (end - aligned_first) / span;
}

NodeSpace ComputeNodeSpace(const FrameAllocator& frames, NodeId node) {
  NodeSpace space;
  space.node = node;
  const int64_t span_2m = frames.FramesPerOrder(PageOrder::k2M);
  const int64_t span_1g = frames.FramesPerOrder(PageOrder::k1G);
  FrameAllocator::FreeExtentCursor cursor = frames.FreeExtents(node);
  FreeExtent extent;
  while (cursor.Next(&extent)) {
    ++space.free_extents;
    space.free_frames += extent.count;
    space.largest_extent = std::max(space.largest_extent, extent.count);
    space.blocks_2m += AlignedBlocksInExtent(extent.first, extent.count, span_2m);
    space.blocks_1g += AlignedBlocksInExtent(extent.first, extent.count, span_1g);
  }
  return space;
}

NodeSpace ComputeScoringSpace(const FrameAllocator& frames, NodeId node) {
  NodeSpace space;
  space.node = node;
  space.free_frames = frames.FreeFrames(node);
  space.blocks_2m = frames.FreeAlignedBlocks(node, frames.FramesPerOrder(PageOrder::k2M));
  space.blocks_1g = frames.FreeAlignedBlocks(node, frames.FramesPerOrder(PageOrder::k1G));
  return space;
}

NodeSpace RecountNodeSpace(const FrameAllocator& frames, NodeId node) {
  NodeSpace space;
  space.node = node;
  const Mfn base = frames.node_base(node);
  const Mfn end = base + frames.frames_per_node(node);
  // Free frames, extent count and largest run: one linear per-frame scan.
  int64_t run = 0;
  for (Mfn mfn = base; mfn < end; ++mfn) {
    if (frames.IsAllocated(mfn)) {
      run = 0;
      continue;
    }
    ++space.free_frames;
    if (run == 0) {
      ++space.free_extents;
    }
    ++run;
    space.largest_extent = std::max(space.largest_extent, run);
  }
  // Aligned blocks per order: probe every aligned span start independently.
  for (const PageOrder order : {PageOrder::k2M, PageOrder::k1G}) {
    const int64_t span = frames.FramesPerOrder(order);
    int64_t blocks = 0;
    if (span == 1) {
      blocks = space.free_frames;
    } else {
      for (Mfn start = ((base + span - 1) / span) * span; start + span <= end;
           start += span) {
        bool all_free = true;
        for (Mfn mfn = start; mfn < start + span; ++mfn) {
          if (frames.IsAllocated(mfn)) {
            all_free = false;
            break;
          }
        }
        if (all_free) {
          ++blocks;
        }
      }
    }
    (order == PageOrder::k2M ? space.blocks_2m : space.blocks_1g) = blocks;
  }
  return space;
}

double FragIndex(const NodeSpace& space) {
  if (space.free_frames == 0) {
    return 0.0;
  }
  return 1.0 - static_cast<double>(space.largest_extent) /
                   static_cast<double>(space.free_frames);
}

double MachineFragmentation(const FrameAllocator& frames) {
  double total = 0.0;
  for (NodeId n = 0; n < frames.num_nodes(); ++n) {
    total += FragIndex(ComputeNodeSpace(frames, n));
  }
  return total / static_cast<double>(frames.num_nodes());
}

}  // namespace xnuma
