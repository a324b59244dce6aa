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

// Page-size geometry handed to the policies (§3.3 + docs/MODEL.md §14).
// Region sizes are in simulated pages at the machine's frame scale; the
// defaults reproduce the historical hard-coded values (1 GiB = 256 pages at
// the 4 MiB/frame scale, 2 MiB collapsed), so MakePolicy(kind) and
// MakePolicy(kind, PolicyGeometry{}) build identical policies.
struct PolicyGeometry {
  int64_t pages_per_1g = 256;
  int64_t pages_per_2m = 1;
  // First-touch fault granularity: >1 makes a fault map the whole aligned
  // superpage-sized block when the block is untouched (opt-in via
  // --ft_superpage; changes placement, so never implied).
  int64_t ft_fault_map_pages = 1;
};

std::unique_ptr<NumaPolicy> MakePolicy(StaticPolicy kind);
std::unique_ptr<NumaPolicy> MakePolicy(StaticPolicy kind, const PolicyGeometry& geom);

}  // namespace xnuma

#endif  // XENNUMA_SRC_POLICY_NUMA_POLICY_H_
