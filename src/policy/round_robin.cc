#include "src/policy/round_robin.h"

#include <algorithm>

#include "src/common/check.h"

namespace xnuma {

namespace {

// Places the unmapped pages of [first, end) round-robin over the home
// nodes: each takes homes[*cursor % size] and advances *cursor, and a page
// whose node is full falls back through MapWithFallback(*fallback_cursor).
// The pages up to the first one that does not fit go through one bulk
// MapRoundRobin call; the per-page loop continues from there, so every
// later page sees the frames a fallback consumed. Returns the pages placed.
int64_t PlaceRoundRobin(PlacementBackend& backend, Pfn first, Pfn end, int* cursor,
                        int* fallback_cursor) {
  const auto& homes = backend.home_nodes();
  XNUMA_CHECK(!homes.empty());
  Pfn pfn = first;
  int64_t placed = backend.MapRoundRobin(first, end - first, *cursor, &pfn);
  *cursor += static_cast<int>(placed);
  for (; pfn < end; ++pfn) {
    if (backend.IsMapped(pfn)) {
      continue;
    }
    const NodeId preferred = homes[*cursor % homes.size()];
    ++*cursor;
    if (MapWithFallback(backend, pfn, preferred, fallback_cursor) != kInvalidNode) {
      ++placed;
    }
  }
  return placed;
}

}  // namespace

void Round4kPolicy::Initialize(PlacementBackend& backend) {
  PlaceRoundRobin(backend, 0, backend.num_pages(), &cursor_, &cursor_);
}

NodeId Round4kPolicy::OnFirstTouch(PlacementBackend& backend, Pfn pfn, NodeId toucher_node) {
  // Eagerly-placed pages only fault if something invalidated them
  // out-of-band; re-place round-robin, ignoring the toucher.
  (void)toucher_node;
  const auto& homes = backend.home_nodes();
  const NodeId preferred = homes[cursor_ % homes.size()];
  ++cursor_;
  return MapWithFallback(backend, pfn, preferred, &cursor_);
}

void Round1gPolicy::Initialize(PlacementBackend& backend) {
  placed_1g_ = placed_4k_ = 0;
  const int64_t total = backend.num_pages();
  for (Pfn first = 0; first < total; first += kRound1gRegionPages) {
    PlaceRegion(backend, first, std::min(kRound1gRegionPages, total - first));
  }
}

void Round1gPolicy::PlaceRegion(PlacementBackend& backend, Pfn first, int64_t count) {
  const auto& homes = backend.home_nodes();
  XNUMA_CHECK(!homes.empty());

  // A full region is placed as one contiguous unit on the next home node
  // (trying each in turn); a partial or unplaceable one falls back to
  // single pages, as Xen does on fragmentation (§3.3).
  if (count == kRound1gRegionPages) {
    for (size_t attempt = 0; attempt < homes.size(); ++attempt) {
      const NodeId node = homes[cursor_ % homes.size()];
      ++cursor_;
      if (backend.MapRangeOnNode(first, count, node)) {
        placed_1g_ += count;
        return;
      }
    }
  }

  // 4 KiB granularity: round-robin with fallback.
  placed_4k_ += PlaceRoundRobin(backend, first, first + count, &cursor_, &fallback_cursor_);
}

NodeId Round1gPolicy::OnFirstTouch(PlacementBackend& backend, Pfn pfn, NodeId toucher_node) {
  (void)toucher_node;
  const auto& homes = backend.home_nodes();
  const NodeId preferred = homes[cursor_ % homes.size()];
  ++cursor_;
  return MapWithFallback(backend, pfn, preferred, &fallback_cursor_);
}

}  // namespace xnuma
