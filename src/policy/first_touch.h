// First-touch policy (§3.1): lazy placement on the node of the first
// toucher, with round-robin fallback when that node is full.

#ifndef XENNUMA_SRC_POLICY_FIRST_TOUCH_H_
#define XENNUMA_SRC_POLICY_FIRST_TOUCH_H_

#include "src/policy/numa_policy.h"

namespace xnuma {

class FirstTouchPolicy : public NumaPolicy {
 public:
  StaticPolicy kind() const override { return StaticPolicy::kFirstTouch; }

  // Leaves every page unmapped so the first access traps.
  void Initialize(PlacementBackend& backend) override;

  bool traps_releases() const override { return true; }

  NodeId OnFirstTouch(PlacementBackend& backend, Pfn pfn, NodeId toucher_node) override;

 private:
  int fallback_cursor_ = 0;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_POLICY_FIRST_TOUCH_H_
