#include "src/guest/guest_os.h"

#include <algorithm>

#include "src/common/check.h"

namespace xnuma {

GuestOs::GuestOs(Hypervisor& hv, DomainId domain, Options options)
    : hv_(&hv), domain_(domain), options_(options) {
  const int64_t pages = hv.domain(domain).memory_pages();
  free_list_ = FreePageList(0, pages);
  pfn_owner_.assign(pages, VpageEvent{});
  queue_ = std::make_unique<PvPageQueue>(
      [this](std::span<const PageQueueOp> ops) {
        return hv_->HypercallPageQueueFlush(domain_, ops);
      },
      options_.queue_partition_bits, options_.queue_batch_size);
  queue_->set_observability(hv.observability());
  if (options_.vnuma) {
    FetchVnuma();
  }
}

void GuestOs::FetchVnuma() {
  // Boot-time topology discovery (docs/VNUMA.md): the hypercall fills the
  // typed tables directly, as XENMEM_get_vnuma_info fills the guest's
  // arrays through guest handles.
  XNUMA_CHECK(hv_->HypercallGetVnumaInfo(domain_, &vnuma_) == HypercallStatus::kOk);

  // Partition the free pages into per-vnode LIFO freelists. The boot list
  // is ascending and the canonical memranges give vnode v the contiguous
  // range memranges[v] (docs/VNUMA.md §3), so vnode v's list is that range:
  // "pop_back = most recently freed / highest pfn" within every vnode.
  const int64_t pages = static_cast<int64_t>(pfn_owner_.size());
  XNUMA_CHECK(free_list_.size() == pages);
  XNUMA_CHECK(static_cast<int32_t>(vnuma_.memranges.size()) == vnuma_.nr_vnodes);
  vnode_free_.clear();
  Pfn expected_start = 0;
  for (int32_t v = 0; v < vnuma_.nr_vnodes; ++v) {
    const VnumaMemrange& mr = vnuma_.memranges[v];
    XNUMA_CHECK(mr.vnode == v && mr.start == expected_start);
    vnode_free_.emplace_back(mr.start, mr.end);
    expected_start = mr.end;
  }
  XNUMA_CHECK(expected_start == pages);
  free_list_ = FreePageList();

  // Distance-ordered fallback: for vnode v, try v first, then the others by
  // increasing virtual distance (ties to the lower vnode).
  vnode_order_.assign(vnuma_.nr_vnodes, {});
  for (int32_t v = 0; v < vnuma_.nr_vnodes; ++v) {
    std::vector<int32_t>& order = vnode_order_[v];
    for (int32_t u = 0; u < vnuma_.nr_vnodes; ++u) {
      order.push_back(u);
    }
    const int32_t nr = vnuma_.nr_vnodes;
    const std::vector<int32_t>& dist = vnuma_.distances;
    std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
      return dist[v * nr + a] < dist[v * nr + b];
    });
  }

  // Boot-time pcpu -> vnode snapshot, for touches that carry no vCPU
  // identity. Like vcpu_to_vnode itself, it is never updated when vCPUs
  // move later.
  cpu_vnode_.assign(hv_->topology().num_cpus(), -1);
  const Domain& dom = hv_->domain(domain_);
  for (VcpuId v = 0; v < vnuma_.nr_vcpus; ++v) {
    const CpuId cpu = dom.VnumaVcpuCpu(v);
    if (cpu >= 0 && cpu < static_cast<CpuId>(cpu_vnode_.size())) {
      cpu_vnode_[cpu] = vnuma_.vcpu_to_vnode[v];
    }
  }

  if (!vnuma_active_ && hv_->observability() != nullptr) {
    MetricsRegistry& m = hv_->observability()->metrics();
    vnuma_local_counter_ = m.RegisterCounter(
        "guest.vnuma.local_allocs", "pages",
        "Guest allocations served from the preferred vnode's freelist");
    vnuma_remote_counter_ = m.RegisterCounter(
        "guest.vnuma.remote_allocs", "pages",
        "Guest allocations that fell back to another vnode's freelist");
  }
  vnuma_active_ = true;
}

void GuestOs::RefreshVnuma() {
  XNUMA_CHECK(vnuma_active_);
  XNUMA_CHECK(hv_->HypercallGetVnumaInfo(domain_, &vnuma_) == HypercallStatus::kOk);
  // The partition (memranges) is a creation-time constant, so the freelists
  // stand; only the vcpu map and the snapshot generation moved.
  cpu_vnode_.assign(cpu_vnode_.size(), -1);
  const Domain& dom = hv_->domain(domain_);
  for (VcpuId v = 0; v < vnuma_.nr_vcpus; ++v) {
    const CpuId cpu = dom.VnumaVcpuCpu(v);
    if (cpu >= 0 && cpu < static_cast<CpuId>(cpu_vnode_.size())) {
      cpu_vnode_[cpu] = vnuma_.vcpu_to_vnode[v];
    }
  }
}

int GuestOs::VnodeOf(Pfn pfn) const {
  // The memranges are sorted and gap-free (FetchVnuma checked them).
  const auto it = std::upper_bound(
      vnuma_.memranges.begin(), vnuma_.memranges.end(), pfn,
      [](Pfn p, const VnumaMemrange& mr) { return p < mr.end; });
  return static_cast<int>(it - vnuma_.memranges.begin());
}

int GuestOs::PreferredVnode(CpuId cpu, VcpuId vcpu) const {
  if (!vnuma_active_) {
    return -1;
  }
  if (vcpu >= 0 && vcpu < vnuma_.nr_vcpus) {
    return vnuma_.vcpu_to_vnode[vcpu];
  }
  if (cpu >= 0 && cpu < static_cast<CpuId>(cpu_vnode_.size()) && cpu_vnode_[cpu] >= 0) {
    return cpu_vnode_[cpu];
  }
  return 0;
}

int GuestOs::CreateProcess(int64_t num_vpages) {
  XNUMA_CHECK(num_vpages > 0);
  Process p;
  p.vpage_to_pfn.assign(num_vpages, kInvalidPfn);
  p.vpage_dirty.assign(num_vpages, 0);
  processes_.push_back(std::move(p));
  total_vpages_ += num_vpages;
  return static_cast<int>(processes_.size()) - 1;
}

int64_t GuestOs::DirtyLimit() const { return std::max<int64_t>(1024, total_vpages_ / 4); }

void GuestOs::MarkVpageDirty(int pid, Vpn vpn) {
  if (dirty_overflow_) {
    return;
  }
  Process& proc = processes_[pid];
  if (proc.vpage_dirty[vpn] != 0) {
    return;
  }
  if (static_cast<int64_t>(dirty_vpages_.size()) >= DirtyLimit()) {
    // Bulk churn: a drain would cost as much as the rescan it avoids.
    for (const VpageEvent& ev : dirty_vpages_) {
      processes_[ev.pid].vpage_dirty[ev.vpn] = 0;
    }
    dirty_vpages_.clear();
    dirty_overflow_ = true;
    return;
  }
  proc.vpage_dirty[vpn] = 1;
  dirty_vpages_.push_back({pid, vpn});
}

bool GuestOs::DrainDirtyVpages(std::vector<VpageEvent>* out) {
  const bool complete = !dirty_overflow_;
  for (const VpageEvent& ev : dirty_vpages_) {
    processes_[ev.pid].vpage_dirty[ev.vpn] = 0;
    out->push_back(ev);
  }
  dirty_vpages_.clear();
  dirty_overflow_ = false;
  return complete;
}

bool GuestOs::VpageOfPfn(Pfn pfn, int* pid, Vpn* vpn) const {
  if (pfn < 0 || pfn >= static_cast<Pfn>(pfn_owner_.size())) {
    return false;
  }
  const VpageEvent& owner = pfn_owner_[pfn];
  if (owner.pid < 0) {
    return false;
  }
  *pid = owner.pid;
  *vpn = owner.vpn;
  return true;
}

Pfn GuestOs::AllocPhysPage(int vnode_pref) {
  Pfn pfn = kInvalidPfn;
  if (!vnuma_active_) {
    XNUMA_CHECK(!free_list_.empty());
    pfn = free_list_.pop_back();
  } else {
    // Local-first, then the other vnodes by increasing virtual distance.
    XNUMA_CHECK(vnode_pref >= 0 && vnode_pref < vnuma_.nr_vnodes);
    for (int32_t v : vnode_order_[vnode_pref]) {
      if (vnode_free_[v].empty()) {
        continue;
      }
      pfn = vnode_free_[v].pop_back();
      if (v == vnode_pref) {
        ++stats_.vnuma_local_allocs;
        if (vnuma_local_counter_ != nullptr) {
          vnuma_local_counter_->Increment();
        }
      } else {
        ++stats_.vnuma_remote_allocs;
        if (vnuma_remote_counter_ != nullptr) {
          vnuma_remote_counter_->Increment();
        }
      }
      break;
    }
    XNUMA_CHECK(pfn != kInvalidPfn);  // all vnode freelists exhausted
  }
  if (options_.mode == KernelMode::kParavirt) {
    queue_->PushAlloc(pfn);
  }
  return pfn;
}

TouchResult GuestOs::TouchPage(int pid, Vpn vpn, CpuId cpu, VcpuId vcpu) {
  XNUMA_CHECK(pid >= 0 && pid < num_processes());
  Process& proc = processes_[pid];
  XNUMA_CHECK(vpn >= 0 && vpn < static_cast<Vpn>(proc.vpage_to_pfn.size()));

  TouchResult result;
  Pfn pfn = proc.vpage_to_pfn[vpn];
  if (pfn == kInvalidPfn) {
    // Lazy allocation (§3.1): the guest kernel intercepts the invalid access
    // and maps the virtual page to a physical page from its free list.
    pfn = AllocPhysPage(PreferredVnode(cpu, vcpu));
    proc.vpage_to_pfn[vpn] = pfn;
    pfn_owner_[pfn] = {pid, vpn};
    result.guest_alloc = true;
    ++stats_.guest_minor_faults;
  }

  HvPlacementBackend& be = hv_->backend(domain_);
  if (!be.IsMapped(pfn)) {
    // The access traps into the hypervisor, which resolves placement
    // through the domain's NUMA policy.
    result.hv_fault = true;
    result.node = hv_->HandleGuestFault(domain_, pfn, cpu);
  } else {
    result.node = be.NodeOf(pfn);
  }
  if (result.guest_alloc || result.hv_fault) {
    MarkVpageDirty(pid, vpn);
  }
  return result;
}

void GuestOs::TouchRange(int pid, Vpn first, int64_t count, CpuId cpu,
                         double touch_cost_s, double minor_fault_s,
                         double hv_fault_s, double* cost_seconds, VcpuId vcpu) {
  XNUMA_CHECK(pid >= 0 && pid < num_processes());
  Process& proc = processes_[pid];
  XNUMA_CHECK(first >= 0 && count > 0 &&
              first + count <= static_cast<Vpn>(proc.vpage_to_pfn.size()));
  HvPlacementBackend& be = hv_->backend(domain_);
  const P2mTable& p2m = hv_->domain(domain_).p2m();
  // Run memo: consecutive touches land on contiguous pfns (the free list
  // hands them out in order), so one mapped run answers many pages. The
  // generation check drops the memo the moment a fault mutates placement.
  // A page outside the memo reads its own entry first: the free list hands
  // pfns out from the top down, so an unmapped page's run lookup would walk
  // the rest of its invalid run only for the fault to discard it.
  HvPlacementBackend::PlacementRun run;
  uint64_t run_gen = 0;
  bool run_cached = false;
  for (Vpn vpn = first; vpn < first + count; ++vpn) {
    double cost = touch_cost_s;
    Pfn pfn = proc.vpage_to_pfn[vpn];
    const bool guest_alloc = pfn == kInvalidPfn;
    if (guest_alloc) {
      pfn = AllocPhysPage(PreferredVnode(cpu, vcpu));
      proc.vpage_to_pfn[vpn] = pfn;
      pfn_owner_[pfn] = {pid, vpn};
      ++stats_.guest_minor_faults;
      cost += minor_fault_s;
    }
    bool mapped = true;
    if (!run_cached || run_gen != be.placement_generation() || pfn < run.first ||
        pfn >= run.first + run.count) {
      if (p2m.IsValid(pfn)) {
        run = be.NodeOfRange(pfn, vcpu);
        run_gen = be.placement_generation();
        run_cached = true;
      } else {
        p2m.RestampReplica(pfn, vcpu);  // the faulting walk
        mapped = false;
      }
    }
    if (!mapped) {
      // Same trap as TouchPage (the touch result's node is not needed here,
      // only the fault's placement side effects).
      cost += hv_fault_s;
      hv_->HandleGuestFault(domain_, pfn, cpu);
    }
    if (guest_alloc || !mapped) {
      MarkVpageDirty(pid, vpn);
    }
    *cost_seconds += cost;
  }
}

void GuestOs::ReleasePage(int pid, Vpn vpn) {
  XNUMA_CHECK(pid >= 0 && pid < num_processes());
  Process& proc = processes_[pid];
  XNUMA_CHECK(vpn >= 0 && vpn < static_cast<Vpn>(proc.vpage_to_pfn.size()));
  const Pfn pfn = proc.vpage_to_pfn[vpn];
  if (pfn == kInvalidPfn) {
    return;
  }
  proc.vpage_to_pfn[vpn] = kInvalidPfn;
  pfn_owner_[pfn] = VpageEvent{};
  MarkVpageDirty(pid, vpn);
  // Before releasing, Linux fills the page with zeros (§4.4.2), which is
  // what makes all free pages interchangeable for first-touch.
  ++stats_.pages_zeroed;
  if (vnuma_active_) {
    vnode_free_[VnodeOf(pfn)].push_back(pfn);
  } else {
    free_list_.push_back(pfn);
  }
  ++stats_.releases;

  if (options_.mode == KernelMode::kParavirt) {
    queue_->PushRelease(pfn);
  } else {
    // Native kernel: a freed page is unmapped synchronously, so the next
    // allocation takes a fresh first-touch fault. Only meaningful when the
    // active policy traps releases.
    Domain& dom = hv_->domain(domain_);
    if (dom.policy()->traps_releases()) {
      HvPlacementBackend& be = hv_->backend(domain_);
      if (be.IsMapped(pfn)) {
        be.Invalidate(pfn);
        dom.policy()->OnRelease(be, pfn);
      }
    }
  }
}

std::vector<Pfn> GuestOs::TakeFreePages(int64_t count) {
  std::vector<Pfn> taken;
  if (vnuma_active_) {
    // Balloon out of every vnode round-robin (cold ends), so no single
    // vnode is drained to zero while others stay full.
    bool progress = true;
    while (static_cast<int64_t>(taken.size()) < count && progress) {
      progress = false;
      for (auto& list : vnode_free_) {
        if (static_cast<int64_t>(taken.size()) >= count) {
          break;
        }
        if (list.empty()) {
          continue;
        }
        taken.push_back(list.pop_front());
        progress = true;
      }
    }
    return taken;
  }
  while (static_cast<int64_t>(taken.size()) < count && !free_list_.empty()) {
    // Take from the front (cold end): recently-freed pages at the back are
    // about to be reallocated.
    taken.push_back(free_list_.pop_front());
  }
  return taken;
}

void GuestOs::ReturnFreePages(const std::vector<Pfn>& pages) {
  for (Pfn pfn : pages) {
    if (vnuma_active_) {
      vnode_free_[VnodeOf(pfn)].push_front(pfn);
    } else {
      free_list_.push_front(pfn);
    }
  }
}

int64_t GuestOs::free_pages() const {
  if (!vnuma_active_) {
    return free_list_.size();
  }
  int64_t total = 0;
  for (const FreePageList& list : vnode_free_) {
    total += list.size();
  }
  return total;
}

NodeId GuestOs::NodeOfVpage(int pid, Vpn vpn) const {
  const Pfn pfn = PfnOfVpage(pid, vpn);
  if (pfn == kInvalidPfn) {
    return kInvalidNode;
  }
  return hv_->backend(domain_).NodeOf(pfn);
}

Pfn GuestOs::PfnOfVpage(int pid, Vpn vpn) const {
  XNUMA_CHECK(pid >= 0 && pid < num_processes());
  const Process& proc = processes_[pid];
  XNUMA_CHECK(vpn >= 0 && vpn < static_cast<Vpn>(proc.vpage_to_pfn.size()));
  return proc.vpage_to_pfn[vpn];
}

}  // namespace xnuma
