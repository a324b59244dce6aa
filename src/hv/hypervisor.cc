#include "src/hv/hypervisor.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "src/common/check.h"
#include "src/policy/vnuma_hybrid.h"

namespace xnuma {

Hypervisor::Hypervisor(const Topology& topo, int64_t bytes_per_frame)
    : topo_(&topo), frames_(topo, bytes_per_frame), admission_solver_(topo, frames_) {
  // BIOS and I/O holes fragment the edges of every node's memory (§3.3).
  frames_.FragmentEdgeRegions(/*holes_per_edge=*/4);
  release_chunk_.reserve(P2mTable::kChunkPages);
  cpu_reservations_.assign(topo.num_cpus(), 0);
  free_cpus_per_node_.resize(topo.num_nodes());
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    free_cpus_per_node_[n] = static_cast<int>(topo.node(n).cpus.size());
  }
}

void Hypervisor::ReserveCpu(CpuId cpu) {
  if (cpu_reservations_[cpu]++ == 0) {
    --free_cpus_per_node_[topo_->node_of_cpu(cpu)];
  }
}

void Hypervisor::ReleaseCpu(CpuId cpu) {
  XNUMA_CHECK(cpu_reservations_[cpu] > 0);
  if (--cpu_reservations_[cpu] == 0) {
    ++free_cpus_per_node_[topo_->node_of_cpu(cpu)];
  }
}

void Hypervisor::set_observability(Observability* obs) {
  obs_ = obs;
  admission_solver_.set_observability(obs);
  backend_metrics_ = HvPlacementBackend::Metrics(obs);
  p2m_metrics_ = P2mTable::Metrics(obs);
  for (auto& be : backends_) {
    be->set_metrics(backend_metrics_);
  }
  for (auto& dom : domains_) {
    dom->p2m().set_metrics(p2m_metrics_);
  }
  if (obs_ == nullptr) {
    set_policy_calls_ = queue_flush_calls_ = page_fault_count_ = nullptr;
    vnuma_info_calls_ = nullptr;
    flush_sim_seconds_ = nullptr;
    admission_requests_ = admission_admitted_ = admission_rejected_ = nullptr;
    admission_deferred_ = admission_candidates_ = domains_destroyed_ = nullptr;
    admission_solver_seconds_ = nullptr;
    return;
  }
  MetricsRegistry& m = obs_->metrics();
  set_policy_calls_ = m.RegisterCounter("hv.hypercall.set_policy", "calls",
                                        "Policy-selection hypercalls (interface 1)");
  queue_flush_calls_ = m.RegisterCounter("hv.hypercall.queue_flush", "calls",
                                         "Page-queue flush hypercalls (interface 2)");
  page_fault_count_ = m.RegisterCounter("hv.page_faults", "faults",
                                        "Hypervisor first-touch page faults handled");
  vnuma_info_calls_ = m.RegisterCounter(
      "hv.hypercall.get_vnuma_info", "calls",
      "vNUMA topology queries answered (docs/VNUMA.md)");
  flush_sim_seconds_ = m.RegisterHistogram(
      "hv.hypercall.flush_sim_seconds", "s",
      "Simulated hypervisor time consumed per page-queue flush");
  admission_requests_ = m.RegisterCounter("admission.requests", "calls",
                                          "Placement-solver admission requests");
  admission_admitted_ = m.RegisterCounter("admission.admitted", "calls",
                                          "Requests admitted onto a fitting node-set");
  admission_rejected_ = m.RegisterCounter(
      "admission.rejected", "calls",
      "Requests permanently rejected (exceed the machine itself)");
  admission_deferred_ = m.RegisterCounter(
      "admission.deferred", "calls",
      "Requests deferred (no node-set fits until churn frees resources)");
  admission_candidates_ = m.RegisterCounter(
      "admission.candidates", "sets", "Candidate node-sets evaluated by the solver");
  domains_destroyed_ = m.RegisterCounter("hv.domains_destroyed", "domains",
                                         "Domains torn down by DestroyDomain");
  admission_solver_seconds_ = m.RegisterHistogram(
      "admission.solver_seconds", "s",
      "Wall-clock placement-solver latency per admission request");
}

Domain& Hypervisor::domain(DomainId id) {
  XNUMA_CHECK(id >= 0 && id < num_domains());
  return *domains_[id];
}

const Domain& Hypervisor::domain(DomainId id) const {
  XNUMA_CHECK(id >= 0 && id < num_domains());
  return *domains_[id];
}

HvPlacementBackend& Hypervisor::backend(DomainId id) {
  XNUMA_CHECK(id >= 0 && id < num_domains());
  return *backends_[id];
}

std::vector<NodeId> Hypervisor::PackHomeNodes(int num_vcpus, int64_t memory_pages) const {
  // "Pack on the minimal number of underloaded NUMA nodes" (§3.3), solved
  // exactly: the admission solver scores every minimal-cardinality fitting
  // node-set by (least loaded, tightest hop diameter, best balance, most
  // surviving superpage blocks) and returns the best. The score's leading
  // terms reproduce the legacy greedy's preference, so the packing tests'
  // pinned expectations hold byte-for-byte (docs/MODEL.md §17).
  AdmissionRequest request;
  request.num_vcpus = num_vcpus;
  request.memory_pages = memory_pages;
  const AdmissionResult& result = admission_solver_.Solve(request, free_cpus_per_node_);
  if (result.decision == AdmissionDecision::kAdmit) {
    return result.nodes;
  }
  // Legacy overcommit fallback: nothing fits, so every node becomes a home
  // and the policies' allocation fallbacks absorb the pressure — exactly
  // what the old greedy returned when it ran out of nodes to add.
  std::vector<NodeId> homes(topo_->num_nodes());
  std::iota(homes.begin(), homes.end(), 0);
  return homes;
}

const Hypervisor::AdmissionVerdict& Hypervisor::AdmitDomain(const AdmissionRequest& request) {
  const auto begin = std::chrono::steady_clock::now();
  last_admission_.result = admission_solver_.Solve(request, free_cpus_per_node_);
  last_admission_.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  if (admission_requests_ != nullptr) {
    admission_requests_->Increment();
    admission_candidates_->Increment(last_admission_.result.candidates_evaluated);
    admission_solver_seconds_->Observe(last_admission_.solve_seconds);
    switch (last_admission_.result.decision) {
      case AdmissionDecision::kAdmit:
        admission_admitted_->Increment();
        break;
      case AdmissionDecision::kReject:
        admission_rejected_->Increment();
        break;
      case AdmissionDecision::kDefer:
        admission_deferred_->Increment();
        break;
    }
  }
  return last_admission_;
}

void Hypervisor::DestroyDomain(DomainId id) {
  XNUMA_CHECK(id >= 0 && id < num_domains());
  Domain& dom = *domains_[id];
  if (dom.destroyed()) {
    return;
  }
  XNUMA_TRACE_SCOPE(obs_, "domain_destroy", "hv");
  HvPlacementBackend& be = *backends_[id];
  // Collapse every replica set first (returning the replica frames, with
  // the stats and counters of a per-page teardown), then release every
  // mapped frame in one pass over the P2M.
  while (!dom.replicas().empty()) {
    be.CollapseReplicas(dom.replicas().begin()->first);
  }
  be.ReleaseAll(&release_chunk_);
  // And drop the per-node P2M replicas with their stamp arrays.
  dom.p2m().DisableReplication();
  for (const VcpuDesc& vcpu : dom.vcpus()) {
    ReleaseCpu(vcpu.pinned_cpu);
  }
  dom.mutable_vcpus().clear();
  dom.set_destroyed();
  if (domains_destroyed_ != nullptr) {
    domains_destroyed_->Increment();
  }
}

bool Hypervisor::DomainAlive(DomainId id) const {
  return id >= 0 && id < num_domains() && !domains_[id]->destroyed();
}

int Hypervisor::num_live_domains() const {
  int live = 0;
  for (const auto& dom : domains_) {
    if (!dom->destroyed()) {
      ++live;
    }
  }
  return live;
}

DomainId Hypervisor::TryCreateDomain(const DomainConfig& config) {
  XNUMA_TRACE_SCOPE(obs_, "domain_create", "hv");
  XNUMA_CHECK(config.num_vcpus > 0);
  XNUMA_CHECK(config.memory_pages > 0);
  if (config.memory_pages > frames_.TotalFreeFrames()) {
    return kInvalidDomain;
  }
  if (!config.pinned_cpus.empty() &&
      static_cast<int>(config.pinned_cpus.size()) != config.num_vcpus) {
    return kInvalidDomain;
  }
  if (config.pci_passthrough && config.policy.placement == StaticPolicy::kFirstTouch) {
    // §4.4.1: refuse rather than let DMA fault on invalid entries.
    return kInvalidDomain;
  }

  // Pin vCPUs: explicit list, or pack onto the home nodes. The admission
  // solve and a strict refusal come before the domain is built, so a
  // deferred request allocates nothing.
  std::vector<CpuId>& pins = pin_scratch_;
  std::vector<NodeId> homes;
  if (config.pinned_cpus.empty()) {
    // Route automatic packing through the admission solver so the verdict
    // (and its latency) is recorded even on the legacy path; strict mode
    // turns a non-admit verdict into a creation failure instead of the
    // all-nodes overcommit fallback.
    AdmissionRequest request;
    request.num_vcpus = config.num_vcpus;
    request.memory_pages = config.memory_pages;
    request.preferred_order = config.p2m_max_order;
    const AdmissionVerdict& verdict = AdmitDomain(request);
    if (verdict.result.decision == AdmissionDecision::kAdmit) {
      homes = verdict.result.nodes;
    } else if (config.strict_admission) {
      return kInvalidDomain;
    } else {
      homes.resize(topo_->num_nodes());
      std::iota(homes.begin(), homes.end(), 0);
    }
    pins.clear();
    for (NodeId n : homes) {
      for (CpuId c : topo_->node(n).cpus) {
        if (cpu_reservations_[c] == 0 && static_cast<int>(pins.size()) < config.num_vcpus) {
          pins.push_back(c);
        }
      }
    }
    // Overcommitted: reuse home-node CPUs round-robin.
    while (static_cast<int>(pins.size()) < config.num_vcpus) {
      for (NodeId n : homes) {
        for (CpuId c : topo_->node(n).cpus) {
          if (static_cast<int>(pins.size()) < config.num_vcpus) {
            pins.push_back(c);
          }
        }
      }
    }
  } else {
    pins = config.pinned_cpus;
    for (CpuId c : pins) {
      XNUMA_CHECK(c >= 0 && c < topo_->num_cpus());
      homes.push_back(topo_->node_of_cpu(c));
    }
    std::sort(homes.begin(), homes.end());
    homes.erase(std::unique(homes.begin(), homes.end()), homes.end());
  }

  const DomainId id = static_cast<DomainId>(domains_.size());
  auto dom = std::make_unique<Domain>(id, config.name, config.memory_pages);
  dom->set_is_dom0(config.is_dom0);
  dom->set_pci_passthrough(config.pci_passthrough);
  dom->p2m().set_metrics(p2m_metrics_);
  dom->set_home_nodes(std::move(homes));
  dom->p2m().SetHomeNode(dom->home_nodes().empty() ? 0 : dom->home_nodes().front());
  dom->mutable_vcpus().reserve(config.num_vcpus);
  for (int v = 0; v < config.num_vcpus; ++v) {
    dom->mutable_vcpus().push_back({v, pins[v]});
    ReserveCpu(pins[v]);
  }
  if (config.p2m_replication) {
    dom->p2m().EnableReplication(topo_->num_nodes(), dom->p2m().home_node(),
                                 config.num_vcpus);
    for (int v = 0; v < config.num_vcpus; ++v) {
      dom->p2m().SetVcpuNode(v, topo_->node_of_cpu(pins[v]));
    }
  }
  dom->ConfigureVnuma(config.vnuma);
  dom->SetPolicy(config.policy, MakePolicy(config.policy));

  domains_.push_back(std::move(dom));
  backends_.push_back(std::make_unique<HvPlacementBackend>(*domains_.back(), frames_));
  backends_.back()->set_metrics(backend_metrics_);

  // Eager policies (round-4K, round-1G) allocate the machine memory of the
  // domain at creation time (§3.3).
  backends_.back()->InitializePolicy(*domains_.back()->policy());
  return id;
}

DomainId Hypervisor::CreateDomain(const DomainConfig& config) {
  const DomainId id = TryCreateDomain(config);
  XNUMA_CHECK(id != kInvalidDomain);
  return id;
}

HypercallStatus Hypervisor::HypercallSetPolicy(DomainId id, const PolicyConfig& config) {
  if (id < 0 || id >= num_domains()) {
    return HypercallStatus::kBadDomain;
  }
  Domain& dom = domain(id);
  if (set_policy_calls_ != nullptr) {
    set_policy_calls_->Increment();
    EmitEvent(obs_, "hypercall_set_policy", "hv");
  }
  if (config.placement == StaticPolicy::kFirstTouch && dom.pci_passthrough()) {
    return HypercallStatus::kPolicyConflictsWithIommu;
  }
  if (config.placement == dom.policy_config().placement &&
      config.vnuma == dom.policy_config().vnuma) {
    dom.set_carrefour(config.carrefour);
    return HypercallStatus::kOk;
  }
  dom.SetPolicy(config, MakePolicy(config));
  backend(id).InitializePolicy(*dom.policy());
  return HypercallStatus::kOk;
}

HypercallStatus Hypervisor::HypercallGetVnumaInfo(DomainId id, VnumaInfo* info) {
  XNUMA_CHECK(info != nullptr);
  if (id < 0 || id >= num_domains()) {
    return HypercallStatus::kBadDomain;
  }
  Domain& dom = domain(id);
  if (!dom.vnuma_enabled()) {
    return HypercallStatus::kVnumaDisabled;
  }
  *info = BuildVnumaInfo(dom, *topo_);
  // The guest now holds topology tables: switch the hybrid policy over to
  // honouring them. (Idempotent; never reset — a real guest keeps using its
  // boot-time tables however stale they get, which is the failure mode the
  // migration experiment reproduces.)
  dom.set_vnuma_hints_active();
  if (vnuma_info_calls_ != nullptr) {
    vnuma_info_calls_->Increment();
    EmitEvent(obs_, "hypercall_get_vnuma_info", "hv");
  }
  return HypercallStatus::kOk;
}

void Hypervisor::NoteVcpuMoved(DomainId id, VcpuId vcpu, CpuId cpu) {
  if (id < 0 || id >= num_domains()) {
    return;
  }
  Domain& dom = domain(id);
  dom.NoteVcpuLocation(vcpu, cpu);
  dom.p2m().SetVcpuNode(vcpu, topo_->node_of_cpu(cpu));
}

double Hypervisor::HypercallPageQueueFlush(DomainId id, std::span<const PageQueueOp> ops) {
  XNUMA_CHECK(id >= 0 && id < num_domains());
  XNUMA_TRACE_SCOPE(obs_, "hypercall_queue_flush", "hv");
  Domain& dom = domain(id);
  DomainStats& stats = dom.stats();
  ++stats.queue_flush_hypercalls;
  stats.queue_entries_seen += static_cast<int64_t>(ops.size());

  const double send_time = costs_.hypercall_base_s +
                           costs_.queue_entry_send_s * static_cast<double>(ops.size());
  double invalidate_time = 0.0;

  if (dom.policy()->traps_releases()) {
    // Walk from the most recent operation; only the latest op per page
    // counts (§4.2.4). Dedup against the domain's per-page generation
    // stamps — no per-flush hash set allocation.
    std::vector<uint32_t>& visited = dom.flush_visited();
    const uint32_t flush_gen = dom.BumpFlushGeneration();
    HvPlacementBackend& be = backend(id);
    for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
      if (visited[it->pfn] == flush_gen) {
        continue;
      }
      visited[it->pfn] = flush_gen;
      if (it->kind == PageQueueOp::Kind::kRelease) {
        if (be.IsMapped(it->pfn)) {
          be.Invalidate(it->pfn);
          dom.policy()->OnRelease(be, it->pfn);
          ++stats.pages_invalidated;
          invalidate_time += costs_.queue_entry_invalidate_s;
        }
      } else {
        // The page may already be reused by a process: leave it where it is
        // rather than copying its content (§4.2.4).
        ++stats.reallocated_in_queue;
      }
    }
  }

  stats.queue_send_seconds += send_time;
  stats.queue_invalidate_seconds += invalidate_time;
  if (queue_flush_calls_ != nullptr) {
    queue_flush_calls_->Increment();
    flush_sim_seconds_->Observe(send_time + invalidate_time);
  }
  return send_time + invalidate_time;
}

NodeId Hypervisor::HandleGuestFault(DomainId id, Pfn pfn, CpuId toucher_cpu) {
  XNUMA_CHECK(id >= 0 && id < num_domains());
  Domain& dom = domain(id);
  ++dom.stats().hv_page_faults;
  if (page_fault_count_ != nullptr) {
    page_fault_count_->Increment();
  }
  const NodeId toucher_node = topo_->node_of_cpu(toucher_cpu);
  return dom.policy()->OnFirstTouch(backend(id), pfn, toucher_node);
}

}  // namespace xnuma
