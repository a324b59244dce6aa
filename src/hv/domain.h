// A domain is a virtual machine: virtual CPUs, a physical address space
// backed through the P2M table, home NUMA nodes, and an active NUMA policy.

#ifndef XENNUMA_SRC_HV_DOMAIN_H_
#define XENNUMA_SRC_HV_DOMAIN_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/hv/p2m.h"
#include "src/policy/numa_policy.h"

namespace xnuma {

struct VcpuDesc {
  VcpuId id = -1;
  CpuId pinned_cpu = kInvalidCpu;
};

struct DomainStats {
  int64_t hv_page_faults = 0;       // first-touch traps taken
  int64_t queue_flush_hypercalls = 0;
  int64_t queue_entries_seen = 0;
  int64_t pages_invalidated = 0;    // releases honoured by the replay
  int64_t reallocated_in_queue = 0; // release superseded by a later alloc
  int64_t pages_migrated = 0;
  int64_t bytes_migrated = 0;
  int64_t pages_replicated = 0;
  int64_t replicas_collapsed = 0;
  // Simulated hypervisor time split for the queue flush path, used to
  // reproduce the §4.2.4 measurement (87.5% invalidating vs 12.5% sending).
  double queue_send_seconds = 0.0;
  double queue_invalidate_seconds = 0.0;
};

class Domain {
 public:
  Domain(DomainId id, std::string name, int64_t memory_pages);

  DomainId id() const { return id_; }
  const std::string& name() const { return name_; }

  const std::vector<VcpuDesc>& vcpus() const { return vcpus_; }
  std::vector<VcpuDesc>& mutable_vcpus() { return vcpus_; }

  int64_t memory_pages() const { return p2m_.num_pages(); }
  P2mTable& p2m() { return p2m_; }
  const P2mTable& p2m() const { return p2m_; }

  const std::vector<NodeId>& home_nodes() const { return home_nodes_; }
  void set_home_nodes(std::vector<NodeId> nodes) { home_nodes_ = std::move(nodes); }

  const PolicyConfig& policy_config() const { return policy_config_; }
  NumaPolicy* policy() { return policy_.get(); }
  void SetPolicy(PolicyConfig config, std::unique_ptr<NumaPolicy> policy) {
    policy_config_ = config;
    policy_ = std::move(policy);
  }
  void set_carrefour(bool on) { policy_config_.carrefour = on; }

  bool pci_passthrough() const { return pci_passthrough_; }
  void set_pci_passthrough(bool on) { pci_passthrough_ = on; }

  bool is_dom0() const { return is_dom0_; }
  void set_is_dom0(bool v) { is_dom0_ = v; }

  // Set once by Hypervisor::DestroyDomain after every machine frame and
  // pCPU reservation is released. The Domain object stays addressable (ids
  // are stable handles) but holds no machine resources; churn bookkeeping
  // and the scheduler skip destroyed domains.
  bool destroyed() const { return destroyed_; }
  void set_destroyed() { destroyed_ = true; }

  DomainStats& stats() { return stats_; }
  const DomainStats& stats() const { return stats_; }

  // ---- Read-only page replication (the heuristic the paper *discards* in
  // §3.4; implemented here as an optional extension, off by default).
  // A replicated physical page has one machine copy per home node; reads are
  // served locally on every node, the first write collapses the replicas
  // back to the primary copy. The registry tracks the replica frames so the
  // memory cost is charged for real.
  bool IsReplicated(Pfn pfn) const {
    // Replication is off by default; the empty() test keeps the common case
    // out of the hash table entirely (placement-rescan hot path).
    return !replicas_.empty() && replicas_.count(pfn) > 0;
  }
  const std::unordered_map<Pfn, std::vector<Mfn>>& replicas() const { return replicas_; }
  std::unordered_map<Pfn, std::vector<Mfn>>& mutable_replicas() { return replicas_; }

  // ---- vNUMA topology state (docs/VNUMA.md, docs/MODEL.md §16). ----
  // The guest-visible tables themselves are built on demand by the
  // hypercall (src/hv/vnuma.cc); the domain only keeps what can change
  // after creation: where each vCPU currently runs, and a seqlock guarding
  // snapshot consistency. Everything below is a no-op for domains created
  // without vNUMA (the common case pays one boolean test).

  // Sizes and seeds the vCPU-location table from the current pins. Must be
  // called after the vCPU set is final; vcpus must not be added afterwards.
  void ConfigureVnuma(bool enabled);
  bool vnuma_enabled() const { return vnuma_enabled_; }

  // True once a guest has fetched the topology tables; read on the
  // first-touch fault path by the hybrid policy.
  bool vnuma_hints_active() const {
    return vnuma_enabled_ && vnuma_hints_active_.load(std::memory_order_relaxed);
  }
  void set_vnuma_hints_active() {
    vnuma_hints_active_.store(true, std::memory_order_relaxed);
  }

  // Seqlock word: even = stable, odd = write in progress. The guest-visible
  // generation is vnuma_seq()/2, i.e. the count of topology-relevant changes
  // since creation.
  uint64_t vnuma_seq() const { return vnuma_seq_.load(std::memory_order_acquire); }
  uint64_t vnuma_generation() const { return vnuma_seq() / 2; }

  // Records that vCPU `vcpu` now runs on `cpu` (engine vCPU-migration
  // events, credit-scheduler rebalancing). Bumps the generation.
  void NoteVcpuLocation(VcpuId vcpu, CpuId cpu);

  // Records a topology-relevant placement change that does not move a vCPU
  // (a page migrated across nodes under the guest's feet): the tables'
  // *locality meaning* rotted, so the generation bumps without a table edit.
  void NoteVnumaPlacementDrift();

  // Where vCPU `vcpu` currently runs, per the vNUMA location table.
  CpuId VnumaVcpuCpu(VcpuId vcpu) const {
    return vnuma_vcpu_cpu_[vcpu].load(std::memory_order_relaxed);
  }

  // ---- Flush-walk scratch (hypervisor page-queue hypercall). ----
  // The latest-op-per-page walk (§4.2.4) dedups pfns against a per-page
  // generation stamp instead of building a hash set per flush; comparing to
  // a bumped generation makes "clear the visited set" free. Only
  // release-trapping domains flush, so the stamps are sized on first use.
  std::vector<uint32_t>& flush_visited() {
    if (flush_visited_.empty()) {
      flush_visited_.assign(memory_pages(), 0);
    }
    return flush_visited_;
  }
  uint32_t BumpFlushGeneration() {
    if (++flush_gen_ == 0) {  // wrapped: drop every stale stamp once
      flush_visited_.assign(flush_visited_.size(), 0);
      flush_gen_ = 1;
    }
    return flush_gen_;
  }

 private:
  DomainId id_;
  std::string name_;
  std::vector<VcpuDesc> vcpus_;
  P2mTable p2m_;
  std::vector<NodeId> home_nodes_;
  PolicyConfig policy_config_;
  std::unique_ptr<NumaPolicy> policy_;
  bool pci_passthrough_ = false;
  bool is_dom0_ = false;
  bool destroyed_ = false;
  DomainStats stats_;
  std::unordered_map<Pfn, std::vector<Mfn>> replicas_;
  std::vector<uint32_t> flush_visited_;
  uint32_t flush_gen_ = 0;

  // vNUMA state (see ConfigureVnuma). Writers serialize on the mutex and
  // publish through the seqlock; readers (the hypercall) retry until they
  // observe the same even seq before and after copying the location table.
  bool vnuma_enabled_ = false;
  std::atomic<bool> vnuma_hints_active_{false};
  std::atomic<uint64_t> vnuma_seq_{0};
  std::mutex vnuma_writer_mutex_;
  std::unique_ptr<std::atomic<CpuId>[]> vnuma_vcpu_cpu_;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_HV_DOMAIN_H_
