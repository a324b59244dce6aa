// Static NUMA placement policies (§3 of the paper).
//
// A policy decides which NUMA node backs each physical page of an address
// space, through the internal interface (PlacementBackend). Eager policies
// (round-4K, round-1G) place everything at creation; the lazy first-touch
// policy leaves pages unmapped and resolves placement on the first access
// fault, re-arming the trap whenever the guest releases a page (external
// interface, §4.2).

#ifndef XENNUMA_SRC_POLICY_NUMA_POLICY_H_
#define XENNUMA_SRC_POLICY_NUMA_POLICY_H_

#include <memory>

#include "src/common/types.h"
#include "src/policy/placement_backend.h"

namespace xnuma {

class NumaPolicy {
 public:
  virtual ~NumaPolicy() = default;

  virtual StaticPolicy kind() const = 0;

  // Places (or arms traps for) the whole address space. Called once when the
  // address space is created or when the policy is switched.
  virtual void Initialize(PlacementBackend& backend) = 0;

  // Whether this policy needs the page-release hypercall (§4.2.3): only
  // first-touch traps releases to re-invalidate freed pages.
  virtual bool traps_releases() const { return false; }

  // Handles a page fault on an unmapped page touched from `toucher_node`.
  // Returns the node chosen (kInvalidNode only when memory is exhausted).
  // Eager policies use this for pages that were invalidated out-of-band.
  virtual NodeId OnFirstTouch(PlacementBackend& backend, Pfn pfn, NodeId toucher_node) = 0;

  // Informs the policy that `pfn` was released by the guest and its mapping
  // dropped (called after the hypervisor replays the batched queue).
  virtual void OnRelease(PlacementBackend& backend, Pfn pfn) {
    (void)backend;
    (void)pfn;
  }
};

std::unique_ptr<NumaPolicy> MakePolicy(StaticPolicy kind);

}  // namespace xnuma

#endif  // XENNUMA_SRC_POLICY_NUMA_POLICY_H_
