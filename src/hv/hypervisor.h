// The hypervisor: domain lifecycle with home-node packing, the two new
// hypercalls of the paper's external interface (§4.2), the hypervisor
// page-fault path that implements first-touch, and vCPU -> pCPU assignment.

#ifndef XENNUMA_SRC_HV_HYPERVISOR_H_
#define XENNUMA_SRC_HV_HYPERVISOR_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/admission/solver.h"
#include "src/common/types.h"
#include "src/hv/costs.h"
#include "src/hv/domain.h"
#include "src/hv/hv_backend.h"
#include "src/hv/vnuma.h"
#include "src/mm/frame_allocator.h"
#include "src/numa/topology.h"
#include "src/obs/obs.h"

namespace xnuma {

struct DomainConfig {
  std::string name = "domU";
  int num_vcpus = 1;
  int64_t memory_pages = 0;
  // Explicit pinning (one physical CPU per vCPU); empty selects automatic
  // packing on the home nodes with one reserved pCPU per vCPU (§3.3).
  std::vector<CpuId> pinned_cpus;
  // Boot-time policy. Per §4.2.1 a VM boots with round-4K unless the
  // round-1G boot option is selected; first-touch/Carrefour are switched on
  // at runtime through the policy hypercall.
  PolicyConfig policy;
  bool pci_passthrough = false;
  bool is_dom0 = false;
  // Largest superpage order the domain's memory is shaped for: the
  // admission solver's preferred order when no pinning is given
  // (docs/MODEL.md §14).
  PageOrder p2m_max_order = PageOrder::k4K;
  // Opt-in guest-visible topology (docs/VNUMA.md): the domain exposes one
  // virtual node per home node through HypercallGetVnumaInfo and tracks the
  // snapshot generation. Off (the default) keeps the paper's stance — the
  // guest sees no topology — and makes the hypercall return kVnumaDisabled.
  bool vnuma = false;
  // Real admission control (docs/MODEL.md §17): when set, TryCreateDomain
  // fails unless the admission solver admits the request onto a node-set
  // that fits it outright. Off (the default) keeps the legacy overcommit
  // behaviour — an unsatisfiable packing falls back to every node and lets
  // the policies' allocation fallbacks absorb the pressure.
  bool strict_admission = false;
  // Opt-in Mitosis-style P2M replication (docs/MODEL.md §18): every node
  // hosting one of the domain's vCPUs may hold a lazily filled replica of
  // the translation structure, so page-walks from that node stay local.
  // Off (the default) keeps walks going to the table's home node and the
  // table bit-identical to an unreplicated one.
  bool p2m_replication = false;
};

enum class HypercallStatus {
  kOk,
  kBadDomain,
  // §4.4.1: the PCI passthrough IOMMU cannot tolerate invalid P2M entries,
  // so first-touch cannot be enabled while passthrough is active.
  kPolicyConflictsWithIommu,
  // The domain was created without vNUMA (DomainConfig::vnuma unset), so it
  // has no guest-visible topology to report (docs/VNUMA.md).
  kVnumaDisabled,
};

// One entry of the batched page queue (§4.2.4).
struct PageQueueOp {
  enum class Kind { kAlloc, kRelease };
  Kind kind = Kind::kRelease;
  Pfn pfn = kInvalidPfn;
};

class Hypervisor {
 public:
  Hypervisor(const Topology& topo, int64_t bytes_per_frame = 4ll << 20);

  const Topology& topology() const { return *topo_; }
  FrameAllocator& frames() { return frames_; }
  const HvCosts& costs() const { return costs_; }

  // Attaches (or detaches, with null) the externally owned observability
  // context and propagates it to every existing backend and P2M table, and
  // all domains created afterwards. Call before creating domains so
  // instrumentation covers the whole machine lifetime. Null is the default
  // and means zero instrumentation work on every hot path.
  void set_observability(Observability* obs);
  Observability* observability() const { return obs_; }

  // Creates and places a domain. Aborts on unsatisfiable configs (tests use
  // TryCreateDomain to probe failure paths).
  DomainId CreateDomain(const DomainConfig& config);
  DomainId TryCreateDomain(const DomainConfig& config);  // kInvalidDomain on failure

  // Tears a domain down: collapses replicas, invalidates every P2M entry
  // (releasing the machine frames in one bulk pass), drops the vCPU pCPU
  // reservations and marks the domain destroyed. Ids are stable handles,
  // so domain(id) remains addressable; num_domains() never shrinks.
  // Idempotent.
  void DestroyDomain(DomainId id);
  bool DomainAlive(DomainId id) const;
  int num_live_domains() const;

  int num_domains() const { return static_cast<int>(domains_.size()); }
  Domain& domain(DomainId id);
  const Domain& domain(DomainId id) const;
  HvPlacementBackend& backend(DomainId id);

  // ---- External interface, hypercall 1 (§4.2.1): select the NUMA policy
  // of a whole virtual machine; may also toggle Carrefour.
  HypercallStatus HypercallSetPolicy(DomainId id, const PolicyConfig& config);

  // ---- External interface, hypercall 2 (§4.2.3-4.2.4): the guest flushes
  // a batch of (op, page) entries. The replay walks from the most recent
  // entry and honours only the latest op per page: a release invalidates the
  // P2M entry (re-arming the first-touch trap); an alloc means the page may
  // already be in use again, so it is left on its current node (§4.2.4).
  // Returns the simulated hypervisor time consumed by this flush.
  double HypercallPageQueueFlush(DomainId id, std::span<const PageQueueOp> ops);

  // ---- vNUMA extension (docs/VNUMA.md): XENMEM_get_vnuma_info-shaped
  // query. Fills *info with a snapshot of the domain's virtual topology
  // (memranges / distances / vcpu_to_vnode), seqlock-consistent against
  // concurrent vCPU relocation, stamped with the current generation. The
  // first successful call marks the domain's guest hints active, switching
  // the hybrid policy (PolicyConfig::vnuma) from its base behaviour to
  // partition-honouring placement.
  HypercallStatus HypercallGetVnumaInfo(DomainId id, VnumaInfo* info);

  // Records that `vcpu` of domain `id` now runs on `cpu` (called by the
  // engine's vCPU-migration events; the credit scheduler notes its own
  // moves). Bumps the domain's vNUMA generation; no-op when vNUMA is off.
  void NoteVcpuMoved(DomainId id, VcpuId vcpu, CpuId cpu);

  // Hypervisor page-fault path: a guest access touched a pfn whose P2M entry
  // is invalid. Resolves placement through the domain policy. Returns the
  // node chosen, or kInvalidNode when machine memory is exhausted.
  NodeId HandleGuestFault(DomainId id, Pfn pfn, CpuId toucher_cpu);

  // Home-node packing used when no explicit pinning is given: fewest
  // underloaded nodes that fit both the vCPUs (one reserved pCPU each) and
  // the memory. Since the admission solver landed (docs/MODEL.md §17) this
  // is a thin wrapper over it — same contract the packing tests pin, with
  // the legacy all-nodes fallback when nothing fits.
  std::vector<NodeId> PackHomeNodes(int num_vcpus, int64_t memory_pages) const;

  // ---- Admission control (src/admission, docs/MODEL.md §17). ----
  // Runs the placement solver against live free-extent state and the pCPU
  // reservation table, records admission.* metrics and the solve latency.
  // Pure decision — nothing is allocated; TryCreateDomain calls this when
  // no explicit pinning is given, and churn drivers call it directly.
  struct AdmissionVerdict {
    AdmissionResult result;
    double solve_seconds = 0.0;
  };
  const AdmissionVerdict& AdmitDomain(const AdmissionRequest& request);
  // Verdict of the most recent AdmitDomain call (e.g. the one an enclosing
  // TryCreateDomain issued); zero-initialized before the first call.
  const AdmissionVerdict& last_admission() const { return last_admission_; }
  // Unreserved pCPUs per node — the solver's CPU-side input, kept current
  // on every reservation and release.
  const std::vector<int>& FreeCpusPerNode() const { return free_cpus_per_node_; }

 private:
  const Topology* topo_;
  FrameAllocator frames_;
  AdmissionSolver admission_solver_;
  AdmissionVerdict last_admission_;
  HvCosts costs_;
  std::vector<std::unique_ptr<Domain>> domains_;
  std::vector<std::unique_ptr<HvPlacementBackend>> backends_;
  // Scratch owned once per machine, so creating and destroying a domain
  // allocates only the domain's own storage: TryCreateDomain's pin list
  // and DestroyDomain's chunk buffer for HvPlacementBackend::ReleaseAll.
  std::vector<CpuId> pin_scratch_;
  std::vector<Mfn> release_chunk_;
  // vCPUs reserved on each pCPU (for packing), and per node the pCPUs with
  // none; ReserveCpu/ReleaseCpu keep the two in step.
  void ReserveCpu(CpuId cpu);
  void ReleaseCpu(CpuId cpu);
  std::vector<int> cpu_reservations_;
  std::vector<int> free_cpus_per_node_;

  // Observability (null = disabled; handles valid only while obs_ != null).
  // Every backend and P2M table gets copies of the same registered handles.
  Observability* obs_ = nullptr;
  HvPlacementBackend::Metrics backend_metrics_;
  P2mTable::Metrics p2m_metrics_;
  Counter* set_policy_calls_ = nullptr;
  Counter* queue_flush_calls_ = nullptr;
  Counter* page_fault_count_ = nullptr;
  Counter* vnuma_info_calls_ = nullptr;
  Histogram* flush_sim_seconds_ = nullptr;
  Counter* admission_requests_ = nullptr;
  Counter* admission_admitted_ = nullptr;
  Counter* admission_rejected_ = nullptr;
  Counter* admission_deferred_ = nullptr;
  Counter* admission_candidates_ = nullptr;
  Counter* domains_destroyed_ = nullptr;
  Histogram* admission_solver_seconds_ = nullptr;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_HV_HYPERVISOR_H_
