// Machine memory frame allocator.
//
// The hardware statically partitions the machine address space into NUMA
// regions (§3 of the paper): node n owns the contiguous machine frame range
// [n * frames_per_node, (n+1) * frames_per_node). The allocator hands out
// single frames or contiguous runs (used by the round-1G policy, which
// allocates 1 GiB regions and falls back to 2 MiB then 4 KiB on
// fragmentation, §3.3).
//
// Frames are *simulated* pages: one frame stands for `bytes_per_frame` bytes
// of real memory. Placement logic is scale-invariant.

#ifndef XENNUMA_SRC_MM_FRAME_ALLOCATOR_H_
#define XENNUMA_SRC_MM_FRAME_ALLOCATOR_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/numa/topology.h"

namespace xnuma {

// One maximal run of free frames, as yielded by FrameAllocator's extent
// cursor. `first` is a machine frame number; the run is [first, first+count).
struct FreeExtent {
  Mfn first = kInvalidMfn;
  int64_t count = 0;
};

class FrameAllocator {
 public:
  // `bytes_per_frame` sets the simulation scale (default: one frame per
  // 4 MiB of real memory, so AMD48's 128 GiB becomes 32768 frames).
  FrameAllocator(const Topology& topo, int64_t bytes_per_frame = 4ll << 20);

  int64_t bytes_per_frame() const { return bytes_per_frame_; }
  int64_t frames_per_node(NodeId n) const { return node_sizes_[n]; }
  // First machine frame owned by node `n` (node ranges are contiguous).
  Mfn node_base(NodeId n) const { return node_bases_[n]; }
  int64_t total_frames() const { return total_frames_; }
  int num_nodes() const { return static_cast<int>(node_sizes_.size()); }

  // Number of frames in a region of the given order at this scale (at least
  // one: regions smaller than a frame collapse onto the frame quantum).
  int64_t FramesPerOrder(PageOrder order) const;

  NodeId NodeOf(Mfn mfn) const {
    XNUMA_CHECK(mfn >= 0 && mfn < total_frames_);
    const NodeId node = bucket_node_[mfn >> bucket_shift_];
    return mfn >= node_bases_[node + 1] ? node + 1 : node;
  }

  // Allocates one frame from `node`. Returns kInvalidMfn when the node is
  // exhausted (callers fall back per their policy, e.g. §3.1 round-robin).
  Mfn AllocOnNode(NodeId node);

  // Allocates `count` frames from `node` in one next-fit sweep and writes
  // the i-th to out[i * stride]: exactly the frames, in the same order,
  // that `count` AllocOnNode calls would return (cyclic from the rover), so
  // consecutive sweeps continue where the last one stopped. `count` must
  // not exceed FreeFrames(node).
  void AllocManyOnNode(NodeId node, int64_t count, Mfn* out, int64_t stride = 1);

  // Allocates `count` physically contiguous frames from `node`.
  Mfn AllocContiguous(NodeId node, int64_t count);

  void Free(Mfn mfn);
  void FreeContiguous(Mfn first, int64_t count);
  // Frees every frame of `mfns` (each must be allocated). The resulting
  // state does not depend on the order of `mfns`; each node whose frames
  // were freed has its generation bumped once.
  void FreeMany(std::span<const Mfn> mfns);

  bool IsAllocated(Mfn mfn) const;
  int64_t FreeFrames(NodeId node) const;
  int64_t TotalFreeFrames() const;

  // Per-node mutation generation: every Alloc*/Free*/FragmentEdgeRegions
  // call that changes a frame of `node` bumps it, and no call bumps the
  // generation of a node whose frames it left alone. State derived from one
  // node's bitmap (the admission solver's NodeSpace cache, docs/MODEL.md
  // §17) is current while the generation it was computed at still holds.
  uint64_t generation(NodeId node) const { return generation_[node]; }

  // Read-only, zero-copy iteration over the free extents of one node, in
  // ascending machine-frame order. The cursor walks the live allocation
  // bitmap word-wise (no snapshot is taken): it is exact as long as the
  // allocator is not mutated between Next() calls, which is the admission
  // solver's calling convention (docs/MODEL.md §17). Invalidated by any
  // Alloc*/Free*/FragmentEdgeRegions call.
  class FreeExtentCursor {
   public:
    // Advances to the next maximal free run. Returns false (and leaves
    // *out untouched) when the node has no further free frames.
    bool Next(FreeExtent* out);

   private:
    friend class FrameAllocator;
    FreeExtentCursor(const FrameAllocator* alloc, int64_t pos, int64_t hi)
        : alloc_(alloc), pos_(pos), hi_(hi) {}
    const FrameAllocator* alloc_;
    int64_t pos_;
    int64_t hi_;
  };
  FreeExtentCursor FreeExtents(NodeId node) const;

  // Audit: recounts the free frames of `node` from the bitmap (popcount over
  // the node's words). Must always equal FreeFrames(node); the balloon and
  // chunk-release regression tests pin that the cached per-node counter
  // never drifts from the bitmap.
  int64_t RecountFreeFrames(NodeId node) const;

  // Naturally aligned blocks of `span` frames (starting at multiples of
  // `span` counted from machine frame 0) that lie inside `node` and are
  // entirely free: what back-to-back AllocContiguous calls at that aligned
  // span could take. Counted word by word over the node's bitmap, with no
  // per-block probe when the span divides 64 or is a multiple of it; span
  // 1 is FreeFrames(node).
  int64_t FreeAlignedBlocks(NodeId node, int64_t span) const;

  // Reserves scattered frames in the first and last GiB-equivalent of every
  // node, emulating BIOS and I/O holes: "the first and last physical GiBs
  // ... are always fragmented" (§3.3). `holes_per_edge` frames are pinned at
  // deterministic pseudo-random offsets inside each edge region.
  void FragmentEdgeRegions(int holes_per_edge, uint64_t seed = 42);

 private:
  bool TestBit(int64_t i) const { return (used_[i >> 6] >> (i & 63)) & 1; }
  void SetBit(int64_t i) { used_[i >> 6] |= uint64_t{1} << (i & 63); }
  void ClearBit(int64_t i) { used_[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
  // Word-wise forms over the frames [lo, lo + count): SetRun marks them
  // used; ClearRun checks that each is used and marks it free.
  void SetRun(int64_t lo, int64_t count);
  void ClearRun(int64_t lo, int64_t count);
  // First free frame in [lo, hi), or -1. Skips fully-used words with one
  // compare each instead of probing per frame.
  int64_t FindFreeBit(int64_t lo, int64_t hi) const;
  // First *used* frame in [lo, hi), or -1. Dual of FindFreeBit; the extent
  // cursor uses it to find where a free run ends.
  int64_t FindUsedBit(int64_t lo, int64_t hi) const;
  // First frame of the leftmost free run of `count` frames in [lo, hi), or
  // -1. Counts free runs by trailing-zero/one scans over whole words, so
  // fully-used and fully-free stretches cost one compare per 64 frames.
  int64_t FindFreeRun(int64_t lo, int64_t hi, int64_t count) const;

  const Topology* topo_;
  int64_t bytes_per_frame_;
  int64_t total_frames_ = 0;
  std::vector<int64_t> node_bases_;  // one per node, then total_frames_
  std::vector<int64_t> node_sizes_;
  // NodeOf's lookup: machine frames in buckets of 2^bucket_shift_, no
  // larger than the smallest node, so a bucket holds frames of at most two
  // nodes; bucket_node_[b] is the node of bucket b's first frame.
  int bucket_shift_ = 0;
  std::vector<NodeId> bucket_node_;
  std::vector<int64_t> free_count_;
  // FreeMany's per-node tally, all zero between calls.
  std::vector<int64_t> freed_per_node_;
  std::vector<uint64_t> generation_;
  // Bitmap, bit mfn set = frame allocated (or reserved as a hole). Packed
  // 64 frames per word so the allocation scans can skip whole words.
  std::vector<uint64_t> used_;
  // Next-fit rover per node keeps single-frame allocation O(1) amortized.
  std::vector<int64_t> rover_;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_MM_FRAME_ALLOCATOR_H_
