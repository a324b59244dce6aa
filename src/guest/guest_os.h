// Guest operating system model: processes with lazily-populated address
// spaces, a physical-page free list, zero-on-free, and the paravirtualized
// hook that reports allocations/releases to the hypervisor (§4.2).
//
// The same class also models the *native* kernel (no hypervisor costs, no
// PV queue): in that mode a release synchronously re-arms the first-touch
// trap, exactly like Linux unmapping a freed page.

#ifndef XENNUMA_SRC_GUEST_GUEST_OS_H_
#define XENNUMA_SRC_GUEST_GUEST_OS_H_

#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/guest/free_page_list.h"
#include "src/guest/pv_queue.h"
#include "src/hv/hypervisor.h"

namespace xnuma {

enum class KernelMode {
  kParavirt,      // domU kernel: releases go through the batched hypercall
  kNativeKernel,  // native Linux: releases handled in-kernel, synchronously
};

struct TouchResult {
  NodeId node = kInvalidNode;  // node now backing the touched page
  bool guest_alloc = false;    // guest minor fault: vpage was unmapped
  bool hv_fault = false;       // hypervisor fault: P2M entry was invalid
};

struct GuestOsStats {
  int64_t guest_minor_faults = 0;
  int64_t releases = 0;
  int64_t pages_zeroed = 0;
  // vNUMA allocator outcomes (docs/VNUMA.md): an allocation is *local* when
  // it was served from the preferred vnode's freelist, *remote* when the
  // distance-ordered fallback had to borrow from another vnode.
  int64_t vnuma_local_allocs = 0;
  int64_t vnuma_remote_allocs = 0;
};

class GuestOs {
 public:
  struct Options {
    KernelMode mode = KernelMode::kParavirt;
    int queue_partition_bits = 2;  // §4.2.4: two LSBs of the frame number
    int queue_batch_size = 64;
    // Topology-aware guest (docs/VNUMA.md): fetch the vNUMA tables at boot
    // and allocate physical pages from per-vnode freelists, local-first
    // with distance-ordered fallback. Requires the domain to have been
    // created with DomainConfig::vnuma. Off = the classical single
    // free list, byte-identical to every earlier release.
    bool vnuma = false;
  };

  GuestOs(Hypervisor& hv, DomainId domain, Options options);
  GuestOs(Hypervisor& hv, DomainId domain) : GuestOs(hv, domain, Options{}) {}

  DomainId domain_id() const { return domain_; }
  KernelMode mode() const { return options_.mode; }

  // Creates a process with `num_vpages` virtual pages; returns its pid.
  int CreateProcess(int64_t num_vpages);
  int num_processes() const { return static_cast<int>(processes_.size()); }

  // A thread on `cpu` accesses virtual page `vpn` of process `pid`:
  //  - unmapped vpage -> guest minor fault, allocate a physical page from
  //    the free list (reporting the allocation through the PV queue);
  //  - invalid P2M entry -> hypervisor fault, resolved by the NUMA policy.
  // `vcpu` is the identity of the touching vCPU (what a real kernel reads
  // via smp_processor_id); the vNUMA allocator keys vnode selection on it.
  // kInvalidVcpu falls back to the boot-time cpu->vnode snapshot — both are
  // deliberately *stale* views after a vCPU migration, which is exactly the
  // failure mode the topology-mismatch experiments reproduce. Ignored when
  // vNUMA is off.
  TouchResult TouchPage(int pid, Vpn vpn, CpuId cpu, VcpuId vcpu = kInvalidVcpu);

  // Touches the `count` virtual pages [vpn, vpn+count) in ascending order,
  // equivalent to `count` TouchPage() calls from `cpu`. The per-page
  // simulated cost is accumulated into *cost_seconds in exactly the order
  // the per-page loop would use (bit-identical floating-point sums):
  // touch_cost_s per page, plus minor_fault_s per guest minor fault and
  // hv_fault_s per hypervisor fault. A mapped page resolves its whole P2M
  // run, which answers the next pages of the run; an unmapped one reads
  // only its entry. Either is a walk by `vcpu` (P2mTable::LookupRun).
  void TouchRange(int pid, Vpn vpn, int64_t count, CpuId cpu,
                  double touch_cost_s, double minor_fault_s, double hv_fault_s,
                  double* cost_seconds, VcpuId vcpu = kInvalidVcpu);

  // The process unmaps `vpn`; its physical page is zeroed and returned to
  // the free list (reported through the PV queue, or handled synchronously
  // in native mode).
  void ReleasePage(int pid, Vpn vpn);

  // Current backing node of a virtual page, or kInvalidNode.
  NodeId NodeOfVpage(int pid, Vpn vpn) const;
  Pfn PfnOfVpage(int pid, Vpn vpn) const;

  int64_t free_pages() const;

  // Ballooning support: removes up to `count` pages from the free list (the
  // guest loses the ability to allocate them) / returns pages to it.
  std::vector<Pfn> TakeFreePages(int64_t count);
  void ReturnFreePages(const std::vector<Pfn>& pages);

  PvPageQueue& pv_queue() { return *queue_; }
  const GuestOsStats& stats() const { return stats_; }

  // ---- vNUMA topology client (docs/VNUMA.md). ----
  // Whether the guest booted with (and fetched) vNUMA tables.
  bool vnuma_active() const { return vnuma_active_; }
  // The tables as fetched.
  const VnumaInfo& vnuma_info() const { return vnuma_; }
  // Re-fetches the tables — what a guest that *could* re-read topology at
  // runtime would do. Updates the vcpu->vnode map and generation; the page
  // partition is a creation-time constant so freelists are untouched.
  // Mainstream kernels cannot do this after boot (NUMA data structures are
  // __init), which is why the migration experiments run without it.
  void RefreshVnuma();

  // ---- Incremental placement tracking (simulator hot path). ----
  // One virtual page whose vpn->pfn mapping changed since the last drain.
  struct VpageEvent {
    int pid = -1;
    Vpn vpn = 0;
  };

  // Appends every changed vpage since the last drain and clears the set.
  // Returns false when the tracker overflowed (bulk churn): the set is
  // empty in that case and the caller must rescan its address ranges.
  bool DrainDirtyVpages(std::vector<VpageEvent>* out);

  // Reverse of PfnOfVpage: the vpage currently backed by `pfn`, if any.
  // Lets a consumer holding hypervisor-side pfn events find the affected
  // virtual page without scanning address spaces.
  bool VpageOfPfn(Pfn pfn, int* pid, Vpn* vpn) const;

 private:
  struct Process {
    std::vector<Pfn> vpage_to_pfn;  // kInvalidPfn when unmapped
    std::vector<uint8_t> vpage_dirty;  // dedup bitmap for the dirty set
  };

  Pfn AllocPhysPage(int vnode_pref);
  void FetchVnuma();
  // Preferred vnode for an allocation by `vcpu` on `cpu`; -1 when vNUMA is
  // off (the legacy single-freelist path).
  int PreferredVnode(CpuId cpu, VcpuId vcpu) const;
  void MarkVpageDirty(int pid, Vpn vpn);
  int64_t DirtyLimit() const;

  Hypervisor* hv_;
  DomainId domain_;
  Options options_;
  std::vector<Process> processes_;
  FreePageList free_list_;  // LIFO: recently freed pages are reused first
  std::unique_ptr<PvPageQueue> queue_;
  GuestOsStats stats_;

  // vNUMA allocator state (empty unless Options::vnuma). The boot-time
  // free_list_ is split into vnode_free_ at fetch time, preserving the
  // per-vnode LIFO recency order.
  int VnodeOf(Pfn pfn) const;
  bool vnuma_active_ = false;
  VnumaInfo vnuma_;
  std::vector<FreePageList> vnode_free_;          // [nr_vnodes]
  std::vector<std::vector<int32_t>> vnode_order_;  // distance-sorted fallback
  std::vector<int32_t> cpu_vnode_;  // boot-time pcpu -> vnode snapshot, -1 unknown
  Counter* vnuma_local_counter_ = nullptr;
  Counter* vnuma_remote_counter_ = nullptr;

  std::vector<VpageEvent> dirty_vpages_;
  bool dirty_overflow_ = false;
  int64_t total_vpages_ = 0;
  std::vector<VpageEvent> pfn_owner_;  // [domain pages], pid < 0 when free
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_GUEST_GUEST_OS_H_
