// Fragmentation-aware available-space calculation (Gudkov et al.,
// PAPERS.md): the true admission capacity of a NUMA node is not its free
// frame count but the shape of its free extents — how many aligned 2M/1G
// blocks survive, how large the largest run is, how shattered the rest.
//
// Two implementations of the same quantity, on purpose:
//  * ComputeNodeSpace walks the allocator's free-extent cursor — O(bitmap
//    words + extents). ComputeScoringSpace computes only the fields a
//    placement score reads, without the walk; the admission solver scores
//    from it.
//  * RecountNodeSpace probes every frame through IsAllocated — O(frames),
//    an independent brute-force recount the property tests (and the
//    brute-force reference solver) compare against.
// docs/MODEL.md §17 pins that they agree exactly on every reachable
// allocator state.

#ifndef XENNUMA_SRC_ADMISSION_AVAILABLE_SPACE_H_
#define XENNUMA_SRC_ADMISSION_AVAILABLE_SPACE_H_

#include <cstdint>

#include "src/common/types.h"
#include "src/mm/frame_allocator.h"

namespace xnuma {

// Exact per-node availability summary derived from free-extent state.
struct NodeSpace {
  NodeId node = kInvalidNode;
  int64_t free_frames = 0;     // exact capacity for order-4K allocation
  int64_t free_extents = 0;    // number of maximal free runs
  int64_t largest_extent = 0;  // frames in the largest free run
  // Naturally-aligned whole blocks available at the machine's 2M/1G frame
  // spans (FrameAllocator::FramesPerOrder). A span that collapses onto one
  // frame degenerates to free_frames. This is the Gudkov available-space
  // number: what a huge-page P2M MapRange could actually take.
  int64_t blocks_2m = 0;
  int64_t blocks_1g = 0;
};

// Aligned order-blocks fully contained in the free extent [first,
// first+count): alignment is absolute (machine frame 0), matching what
// AllocContiguous at an aligned span could satisfy back-to-back.
int64_t AlignedBlocksInExtent(Mfn first, int64_t count, int64_t span);

// Fast path: one pass over the node's free-extent cursor.
NodeSpace ComputeNodeSpace(const FrameAllocator& frames, NodeId node);

// The fields ScoreCandidate reads (free_frames, blocks_2m, blocks_1g),
// equal to ComputeNodeSpace's, from the allocator's free count and its
// word-wise aligned-block count (FrameAllocator::FreeAlignedBlocks); no
// extent is walked. free_extents and largest_extent are left 0.
NodeSpace ComputeScoringSpace(const FrameAllocator& frames, NodeId node);

// Brute force: per-frame IsAllocated probes, independent of the extent
// cursor and of the allocator's cached free counts.
NodeSpace RecountNodeSpace(const FrameAllocator& frames, NodeId node);

// Fragmentation index of one node: 1 - largest_extent / free_frames, and 0
// for a node with no free memory (nothing left to fragment). 0 = one
// perfect run, ->1 = shattered into many small extents.
double FragIndex(const NodeSpace& space);

// Machine fragmentation: mean FragIndex over all nodes, walked in node
// order (the `churn.fragmentation` gauge; the churn soak test pins a
// hand-computed fixture).
double MachineFragmentation(const FrameAllocator& frames);

}  // namespace xnuma

#endif  // XENNUMA_SRC_ADMISSION_AVAILABLE_SPACE_H_
