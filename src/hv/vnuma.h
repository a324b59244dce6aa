// Guest-visible vNUMA topology tables (docs/VNUMA.md).
//
// Mirrors Xen's XENMEM_get_vnuma_info: the hypervisor hands the guest three
// tables — memory ranges per virtual node, a virtual SLIT distance matrix,
// and a vcpu -> vnode map — derived from the domain's *actual* placement at
// the moment of the call. The snapshot carries a generation number; the
// hypervisor bumps it whenever the physical truth behind the tables moves
// (vCPU relocation, cross-node page migration), so a guest can detect that
// its cached topology went stale (docs/MODEL.md §16 states the contract).

#ifndef XENNUMA_SRC_HV_VNUMA_H_
#define XENNUMA_SRC_HV_VNUMA_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"

namespace xnuma {

class Domain;
class Topology;

// Virtual SLIT distances: local access, and the per-hop increment.
inline constexpr int32_t kVnumaLocalDistance = 10;
inline constexpr int32_t kVnumaHopDistance = 10;

// One guest-physical memory range owned by a virtual node. Ranges are
// sorted by start, pairwise disjoint, and cover [0, memory_pages) exactly;
// start == end marks an (legal) empty vnode.
struct VnumaMemrange {
  Pfn start = 0;       // inclusive
  Pfn end = 0;         // exclusive
  int32_t vnode = 0;   // owning virtual node

  bool operator==(const VnumaMemrange&) const = default;
};

struct VnumaInfo {
  // Snapshot generation (count of topology-relevant changes since domain
  // creation). Two fetches returning the same generation saw identical
  // physical truth; a later fetch with a larger generation means any
  // locality conclusion drawn from the earlier tables may be stale.
  uint64_t generation = 0;
  int32_t nr_vnodes = 0;
  int32_t nr_vcpus = 0;
  std::vector<VnumaMemrange> memranges;   // nr_vnodes entries
  // Row-major nr_vnodes x nr_vnodes virtual SLIT: 10 on the diagonal,
  // 10 + 10*hops off it; symmetric because the hop metric is.
  std::vector<int32_t> distances;
  // vnode each vCPU is *currently* closest to: the vnode whose backing home
  // node hosts the vCPU, or the hop-nearest home node (lowest vnode wins
  // ties) when the scheduler parked it off the home set.
  std::vector<int32_t> vcpu_to_vnode;     // nr_vcpus entries

  bool operator==(const VnumaInfo&) const = default;
};

// Builds one snapshot of the domain's tables under the domain's seqlock:
// retries until a stable generation brackets the read, so the returned
// tables are never torn by a concurrent migration. Requires
// dom.vnuma_enabled().
VnumaInfo BuildVnumaInfo(const Domain& dom, const Topology& topo);

}  // namespace xnuma

#endif  // XENNUMA_SRC_HV_VNUMA_H_
