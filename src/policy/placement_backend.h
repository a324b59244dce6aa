// The paper's *internal interface* (§4.1): what a NUMA policy may ask of the
// entity that owns the machine memory mapping.
//
// Two mechanisms are required: (1) map a physical page of a virtual machine
// to a machine page of a chosen NUMA node, and (2) migrate an already-mapped
// physical page to a new node. Invalidate() supports the first-touch trap:
// an invalid entry makes the next access fault into the placement layer.
//
// HvPlacementBackend (the hypervisor page table / P2M, src/hv) implements it
// for every run, native Linux ones included, and the policy unit tests'
// FakeBackend (tests/fake_backend.h) implements it over a flat page table:
// the policies see only this interface, mirroring the paper's claim that
// the classical OS policies transplant into the hypervisor unchanged.

#ifndef XENNUMA_SRC_POLICY_PLACEMENT_BACKEND_H_
#define XENNUMA_SRC_POLICY_PLACEMENT_BACKEND_H_

#include <vector>

#include "src/common/types.h"

namespace xnuma {

class PlacementBackend {
 public:
  virtual ~PlacementBackend() = default;

  // Size of the physical address space being placed, in pages.
  virtual int64_t num_pages() const = 0;

  // Nodes this address space should prefer (Xen's home-nodes, §3.3). Never
  // empty; native backends report every node.
  virtual const std::vector<NodeId>& home_nodes() const = 0;

  virtual bool IsMapped(Pfn pfn) const = 0;

  // Node currently backing `pfn`; kInvalidNode when unmapped.
  virtual NodeId NodeOf(Pfn pfn) const = 0;

  // Backs `pfn` with a machine page of `node`. Fails (returns false) when
  // the node has no free memory or the page is already mapped.
  virtual bool MapOnNode(Pfn pfn, NodeId node) = 0;

  // Backs pages [first, first + count) with *contiguous* machine pages of
  // `node`, all-or-nothing. Used by round-1G's large-region allocation.
  virtual bool MapRangeOnNode(Pfn first, int64_t count, NodeId node) = 0;

  // Eager round-robin placement in bulk: backs the unmapped pages of
  // [first, first + count) in ascending order, the k-th of them (from 0) on
  // home_nodes()[(cursor + k) % size], and stops before the first page
  // whose node has no free frame. Returns the number of pages mapped and
  // sets *next to where a per-page continuation resumes: first + count
  // when every page was placed, else a pfn at or before the page that did
  // not fit with only mapped pages before it. The default maps page by
  // page through MapOnNode, which is the contract; a backend may override
  // it to allocate and map each node's share in one sweep.
  virtual int64_t MapRoundRobin(Pfn first, int64_t count, int cursor, Pfn* next);

  // The migration mechanism (§4.1): write-protect, copy, remap. Fails when
  // the destination node is out of memory or the page is unmapped.
  virtual bool Migrate(Pfn pfn, NodeId node) = 0;

  // Drops the mapping of `pfn` so the next access traps (first-touch, §4.2).
  virtual void Invalidate(Pfn pfn) = 0;

  // Whether the guest behind this address space has fetched its vNUMA
  // topology tables (docs/VNUMA.md): the hybrid policy honours the vNUMA
  // partition only once hints are live, and delegates to its base policy
  // untouched before that. Backends without a vNUMA-capable guest never
  // report hints.
  virtual bool guest_hints_active() const { return false; }
};

// First-touch fallback (§3.1): map on `preferred`; if that node is full,
// walk the home nodes round-robin (cursor advances across calls). Returns
// the node used, or kInvalidNode when every home node is full.
NodeId MapWithFallback(PlacementBackend& backend, Pfn pfn, NodeId preferred, int* rr_cursor);

}  // namespace xnuma

#endif  // XENNUMA_SRC_POLICY_PLACEMENT_BACKEND_H_
