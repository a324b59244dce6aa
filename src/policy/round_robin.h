// Round-robin placement policies.
//
// Round-4K (§3.2): eagerly backs each page, one at a time, cycling over the
// home nodes — balanced controllers, many remote accesses.
//
// Round-1G (§3.3, Xen's default): eagerly backs the address space by large
// contiguous regions cycling over the home nodes, falling back to single
// pages on fragmentation. A 2 MiB region is smaller than one simulated
// 4 MiB page, so there is no size in between. The first and last GiB of a
// VM are always fragmented (BIOS/I-O holes), which the machine allocator
// emulates via FragmentEdgeRegions().

#ifndef XENNUMA_SRC_POLICY_ROUND_ROBIN_H_
#define XENNUMA_SRC_POLICY_ROUND_ROBIN_H_

#include <cstdint>

#include "src/policy/numa_policy.h"

namespace xnuma {

class Round4kPolicy : public NumaPolicy {
 public:
  StaticPolicy kind() const override { return StaticPolicy::kRound4k; }

  void Initialize(PlacementBackend& backend) override;

  NodeId OnFirstTouch(PlacementBackend& backend, Pfn pfn, NodeId toucher_node) override;

 private:
  int cursor_ = 0;
};

// Round-1G's region in simulated pages: 1 GiB at 4 MiB per page.
inline constexpr int64_t kRound1gRegionPages = 256;

class Round1gPolicy : public NumaPolicy {
 public:
  StaticPolicy kind() const override { return StaticPolicy::kRound1g; }

  void Initialize(PlacementBackend& backend) override;

  NodeId OnFirstTouch(PlacementBackend& backend, Pfn pfn, NodeId toucher_node) override;

  // Introspection for tests: how many pages the last Initialize() call
  // placed as whole regions and one at a time.
  int64_t pages_placed_1g() const { return placed_1g_; }
  int64_t pages_placed_4k() const { return placed_4k_; }

 private:
  // Places [first, first+count) as one region on the next home node; a
  // partial or unplaceable region is placed page by page.
  void PlaceRegion(PlacementBackend& backend, Pfn first, int64_t count);

  int cursor_ = 0;
  int fallback_cursor_ = 0;
  int64_t placed_1g_ = 0;
  int64_t placed_4k_ = 0;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_POLICY_ROUND_ROBIN_H_
