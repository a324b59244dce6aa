// First-touch policy (§3.1): lazy placement on the node of the first
// toucher, with round-robin fallback when that node is full.

#ifndef XENNUMA_SRC_POLICY_FIRST_TOUCH_H_
#define XENNUMA_SRC_POLICY_FIRST_TOUCH_H_

#include "src/policy/numa_policy.h"

namespace xnuma {

class FirstTouchPolicy : public NumaPolicy {
 public:
  // With fault_map_pages > 1 (PolicyGeometry::ft_fault_map_pages), a fault
  // maps the whole aligned block around the faulting page in one contiguous
  // allocation on the toucher's node, as a superpage fault would. A block
  // that is partially mapped, out of range, or fails the contiguous
  // allocation falls back to the classic per-page path (the block stays
  // lazily faultable).
  explicit FirstTouchPolicy(int64_t fault_map_pages = 1)
      : fault_map_pages_(fault_map_pages) {}

  StaticPolicy kind() const override { return StaticPolicy::kFirstTouch; }

  // Leaves every page unmapped so the first access traps.
  void Initialize(PlacementBackend& backend) override;

  bool traps_releases() const override { return true; }

  NodeId OnFirstTouch(PlacementBackend& backend, Pfn pfn, NodeId toucher_node) override;

 private:
  int64_t fault_map_pages_ = 1;
  int fallback_cursor_ = 0;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_POLICY_FIRST_TOUCH_H_
