#include "src/mm/frame_allocator.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/common/check.h"

namespace xnuma {

FrameAllocator::FrameAllocator(const Topology& topo, int64_t bytes_per_frame)
    : topo_(&topo), bytes_per_frame_(bytes_per_frame) {
  XNUMA_CHECK(bytes_per_frame_ > 0);
  node_bases_.reserve(topo.num_nodes());
  node_sizes_.reserve(topo.num_nodes());
  for (const NumaNodeDesc& node : topo.nodes()) {
    const int64_t frames = node.memory_bytes / bytes_per_frame_;
    XNUMA_CHECK(frames > 0);
    node_bases_.push_back(total_frames_);
    node_sizes_.push_back(frames);
    total_frames_ += frames;
  }
  node_bases_.push_back(total_frames_);
  bucket_shift_ = std::bit_width(static_cast<uint64_t>(
                      *std::min_element(node_sizes_.begin(), node_sizes_.end()))) -
                  1;
  for (NodeId node = 0; node < topo.num_nodes(); ++node) {
    while (static_cast<int64_t>(bucket_node_.size() << bucket_shift_) < node_bases_[node + 1]) {
      bucket_node_.push_back(node);
    }
  }
  free_count_ = node_sizes_;
  freed_per_node_.assign(topo.num_nodes(), 0);
  generation_.assign(topo.num_nodes(), 0);
  used_.assign((total_frames_ + 63) >> 6, 0);
  rover_.assign(topo.num_nodes(), 0);
}

int64_t FrameAllocator::FramesPerOrder(PageOrder order) const {
  int64_t bytes = 0;
  switch (order) {
    case PageOrder::k4K:
      bytes = 4ll << 10;
      break;
    case PageOrder::k2M:
      bytes = 2ll << 20;
      break;
    case PageOrder::k1G:
      bytes = 1ll << 30;
      break;
  }
  return std::max<int64_t>(1, bytes / bytes_per_frame_);
}

int64_t FrameAllocator::FindFreeBit(int64_t lo, int64_t hi) const {
  int64_t i = lo;
  while (i < hi) {
    const uint64_t free_bits = ~used_[i >> 6] >> (i & 63);
    const int64_t avail = std::min<int64_t>(64 - (i & 63), hi - i);
    if (free_bits != 0) {
      const int tz = std::countr_zero(free_bits);
      if (tz < avail) {
        return i + tz;
      }
    }
    i += avail;
  }
  return -1;
}

int64_t FrameAllocator::FindUsedBit(int64_t lo, int64_t hi) const {
  int64_t i = lo;
  while (i < hi) {
    const uint64_t used_bits = used_[i >> 6] >> (i & 63);
    const int64_t avail = std::min<int64_t>(64 - (i & 63), hi - i);
    if (used_bits != 0) {
      const int tz = std::countr_zero(used_bits);
      if (tz < avail) {
        return i + tz;
      }
    }
    i += avail;
  }
  return -1;
}

bool FrameAllocator::FreeExtentCursor::Next(FreeExtent* out) {
  if (pos_ >= hi_) {
    return false;
  }
  const int64_t start = alloc_->FindFreeBit(pos_, hi_);
  if (start < 0) {
    pos_ = hi_;
    return false;
  }
  const int64_t end = alloc_->FindUsedBit(start + 1, hi_);
  out->first = start;
  out->count = (end < 0 ? hi_ : end) - start;
  pos_ = start + out->count;
  return true;
}

FrameAllocator::FreeExtentCursor FrameAllocator::FreeExtents(NodeId node) const {
  XNUMA_CHECK(node >= 0 && node < topo_->num_nodes());
  const int64_t base = node_bases_[node];
  return FreeExtentCursor(this, base, base + node_sizes_[node]);
}

int64_t FrameAllocator::RecountFreeFrames(NodeId node) const {
  XNUMA_CHECK(node >= 0 && node < topo_->num_nodes());
  const int64_t lo = node_bases_[node];
  const int64_t hi = lo + node_sizes_[node];
  int64_t used = 0;
  int64_t i = lo;
  while (i < hi) {
    const int64_t avail = std::min<int64_t>(64 - (i & 63), hi - i);
    uint64_t word = used_[i >> 6] >> (i & 63);
    if (avail < 64) {
      word &= (uint64_t{1} << avail) - 1;
    }
    used += std::popcount(word);
    i += avail;
  }
  return node_sizes_[node] - used;
}

int64_t FrameAllocator::FreeAlignedBlocks(NodeId node, int64_t span) const {
  XNUMA_CHECK(node >= 0 && node < topo_->num_nodes());
  XNUMA_CHECK(span > 0);
  if (span == 1) {
    return free_count_[node];
  }
  const int64_t lo = node_bases_[node];
  const int64_t hi = lo + node_sizes_[node];
  int64_t blocks = 0;
  if (span < 64 && 64 % span == 0) {
    // Blocks tile each word. Frames outside the node count as used; the
    // AND-fold leaves bit i set when frames i .. i + span - 1 are all free,
    // and a block starts at every span-th bit.
    const uint64_t starts = ~uint64_t{0} / ((uint64_t{1} << span) - 1);
    for (int64_t first = lo & ~int64_t{63}; first < hi; first += 64) {
      uint64_t free_bits = ~used_[first >> 6];
      if (first < lo) {
        free_bits &= ~uint64_t{0} << (lo - first);
      }
      if (hi - first < 64) {
        free_bits &= (uint64_t{1} << (hi - first)) - 1;
      }
      for (int64_t shift = 1; shift < span; shift <<= 1) {
        free_bits &= free_bits >> shift;
      }
      blocks += std::popcount(free_bits & starts);
    }
    return blocks;
  }
  const int64_t first = (lo + span - 1) / span * span;
  if (span % 64 == 0) {
    // Whole words: an aligned start is word-aligned whatever the node's
    // base, and a block is free when the OR of its words is zero.
    for (int64_t start = first; start + span <= hi; start += span) {
      uint64_t used = 0;
      for (int64_t w = start >> 6; w < (start + span) >> 6; ++w) {
        used |= used_[w];
      }
      blocks += used == 0 ? 1 : 0;
    }
    return blocks;
  }
  // Other spans: probe each aligned start inside the node; a free block
  // costs one compare per 64 frames, a used one stops at its first used
  // frame.
  for (int64_t start = first; start + span <= hi; start += span) {
    blocks += FindUsedBit(start, start + span) < 0 ? 1 : 0;
  }
  return blocks;
}

int64_t FrameAllocator::FindFreeRun(int64_t lo, int64_t hi, int64_t count) const {
  int64_t run_start = 0;
  int64_t run_len = 0;
  int64_t i = lo;
  while (i < hi) {
    const uint64_t word = used_[i >> 6] >> (i & 63);
    const int64_t avail = std::min<int64_t>(64 - (i & 63), hi - i);
    if (word == 0) {
      // Every remaining bit of the word is free.
      if (run_len == 0) {
        run_start = i;
      }
      run_len += avail;
      i += avail;
    } else {
      const int free_prefix = std::countr_zero(word);
      if (free_prefix >= avail) {
        if (run_len == 0) {
          run_start = i;
        }
        run_len += avail;
        i += avail;
      } else {
        if (free_prefix > 0) {
          if (run_len == 0) {
            run_start = i;
          }
          run_len += free_prefix;
          if (run_len >= count) {
            return run_start;
          }
        }
        // The run is broken at i + free_prefix; skip the used stretch.
        const int used_len = std::countr_one(word >> free_prefix);
        i += std::min<int64_t>(free_prefix + used_len, avail);
        run_len = 0;
        continue;
      }
    }
    if (run_len >= count) {
      return run_start;
    }
  }
  return -1;
}

Mfn FrameAllocator::AllocOnNode(NodeId node) {
  XNUMA_CHECK(node >= 0 && node < topo_->num_nodes());
  if (free_count_[node] == 0) {
    return kInvalidMfn;
  }
  const int64_t size = node_sizes_[node];
  const int64_t base = node_bases_[node];
  // Cyclic next-fit from the rover, exactly as the per-frame probe loop
  // would find it, but skipping fully-used words.
  int64_t found = FindFreeBit(base + rover_[node], base + size);
  if (found < 0) {
    found = FindFreeBit(base, base + rover_[node]);
  }
  XNUMA_CHECK(found >= 0);  // free_count_ said there was a free frame.
  SetBit(found);
  --free_count_[node];
  ++generation_[node];
  rover_[node] = (found - base + 1) % size;
  return found;
}

void FrameAllocator::AllocManyOnNode(NodeId node, int64_t count, Mfn* out, int64_t stride) {
  XNUMA_CHECK(node >= 0 && node < topo_->num_nodes());
  XNUMA_CHECK(count >= 0 && count <= free_count_[node]);
  if (count == 0) {
    return;
  }
  const int64_t size = node_sizes_[node];
  const int64_t base = node_bases_[node];
  const int64_t rover = base + rover_[node];
  // Repeated AllocOnNode calls take the free frames of [rover, end) in
  // ascending order, then wrap to [base, rover): one sweep over both
  // stretches, claiming each word's taken bits with one store.
  int64_t left = count;
  Mfn last = kInvalidMfn;
  for (const auto& [lo, hi] : {std::pair{rover, base + size}, std::pair{base, rover}}) {
    for (int64_t i = lo; i < hi && left > 0;) {
      const int64_t avail = std::min<int64_t>(64 - (i & 63), hi - i);
      uint64_t free_bits = ~used_[i >> 6] >> (i & 63);
      if (avail < 64) {
        free_bits &= (uint64_t{1} << avail) - 1;
      }
      uint64_t taken = 0;
      for (; free_bits != 0 && left > 0; --left) {
        const int bit = std::countr_zero(free_bits);
        free_bits &= free_bits - 1;
        taken |= uint64_t{1} << bit;
        last = i + bit;
        *out = last;
        out += stride;
      }
      used_[i >> 6] |= taken << (i & 63);
      i += avail;
    }
  }
  XNUMA_CHECK(left == 0);  // free_count_ said there were enough free frames.
  free_count_[node] -= count;
  ++generation_[node];
  rover_[node] = (last - base + 1) % size;
}

void FrameAllocator::SetRun(int64_t lo, int64_t count) {
  for (int64_t i = lo; i < lo + count;) {
    const int64_t avail = std::min<int64_t>(64 - (i & 63), lo + count - i);
    const uint64_t mask = (avail < 64 ? (uint64_t{1} << avail) - 1 : ~uint64_t{0}) << (i & 63);
    used_[i >> 6] |= mask;
    i += avail;
  }
}

void FrameAllocator::ClearRun(int64_t lo, int64_t count) {
  for (int64_t i = lo; i < lo + count;) {
    const int64_t avail = std::min<int64_t>(64 - (i & 63), lo + count - i);
    const uint64_t mask = (avail < 64 ? (uint64_t{1} << avail) - 1 : ~uint64_t{0}) << (i & 63);
    XNUMA_CHECK((used_[i >> 6] & mask) == mask);  // every frame must be allocated
    used_[i >> 6] &= ~mask;
    i += avail;
  }
}

Mfn FrameAllocator::AllocContiguous(NodeId node, int64_t count) {
  XNUMA_CHECK(node >= 0 && node < topo_->num_nodes());
  XNUMA_CHECK(count > 0);
  if (free_count_[node] < count) {
    return kInvalidMfn;
  }
  const int64_t base = node_bases_[node];
  const int64_t first = FindFreeRun(base, base + node_sizes_[node], count);
  if (first < 0) {
    return kInvalidMfn;
  }
  SetRun(first, count);
  free_count_[node] -= count;
  ++generation_[node];
  return first;
}

void FrameAllocator::Free(Mfn mfn) {
  XNUMA_CHECK(mfn >= 0 && mfn < total_frames_);
  XNUMA_CHECK(TestBit(mfn));
  ClearBit(mfn);
  const NodeId node = NodeOf(mfn);
  ++free_count_[node];
  ++generation_[node];
}

void FrameAllocator::FreeContiguous(Mfn first, int64_t count) {
  // A run may straddle a node boundary: clear it one node's stretch at a
  // time.
  for (Mfn lo = first; lo < first + count;) {
    const NodeId node = NodeOf(lo);
    const Mfn hi = std::min<Mfn>(first + count, node_bases_[node] + node_sizes_[node]);
    ClearRun(lo, hi - lo);
    free_count_[node] += hi - lo;
    ++generation_[node];
    lo = hi;
  }
}

void FrameAllocator::FreeMany(std::span<const Mfn> mfns) {
  for (const Mfn mfn : mfns) {
    XNUMA_CHECK(mfn >= 0 && mfn < total_frames_);
    XNUMA_CHECK(TestBit(mfn));
    ClearBit(mfn);
    ++freed_per_node_[NodeOf(mfn)];
  }
  for (size_t node = 0; node < freed_per_node_.size(); ++node) {
    if (freed_per_node_[node] > 0) {
      free_count_[node] += freed_per_node_[node];
      ++generation_[node];
      freed_per_node_[node] = 0;
    }
  }
}

bool FrameAllocator::IsAllocated(Mfn mfn) const {
  XNUMA_CHECK(mfn >= 0 && mfn < total_frames_);
  return TestBit(mfn);
}

int64_t FrameAllocator::FreeFrames(NodeId node) const { return free_count_[node]; }

int64_t FrameAllocator::TotalFreeFrames() const {
  int64_t total = 0;
  for (int64_t v : free_count_) {
    total += v;
  }
  return total;
}

void FrameAllocator::FragmentEdgeRegions(int holes_per_edge, uint64_t seed) {
  Rng rng(seed);
  const int64_t edge = FramesPerOrder(PageOrder::k1G);
  for (NodeId node = 0; node < topo_->num_nodes(); ++node) {
    const int64_t size = node_sizes_[node];
    const int64_t base = node_bases_[node];
    const int64_t span = std::min(edge, size / 2);
    if (span <= 0) {
      continue;
    }
    for (int h = 0; h < holes_per_edge; ++h) {
      const int64_t low = base + rng.NextInt(span);
      const int64_t high = base + size - 1 - rng.NextInt(span);
      for (int64_t mfn : {low, high}) {
        if (!TestBit(mfn)) {
          SetBit(mfn);
          --free_count_[node];
          ++generation_[node];
        }
      }
    }
  }
}

}  // namespace xnuma
