// Carrefour system component (§4.3).
//
// In the paper's port, the system component runs *inside Xen*: it gathers
// the low-level hardware counters, attributes access rates to hot physical
// pages, and exposes (a) the metrics and (b) a page-migration service to the
// user component, which runs as a process in dom0 and talks to the system
// component through an hypercall.
//
// Here the "hardware counters" are the PerfCounters the simulation commits
// each epoch, and IBS-style page attribution comes from a PageAccessSource
// (implemented by the simulation engine, with sampling noise).

#ifndef XENNUMA_SRC_CARREFOUR_SYSTEM_COMPONENT_H_
#define XENNUMA_SRC_CARREFOUR_SYSTEM_COMPONENT_H_

#include <vector>

#include "src/common/types.h"
#include "src/hv/hypervisor.h"
#include "src/numa/perf_counters.h"

namespace xnuma {

class CarrefourSystemComponent {
 public:
  CarrefourSystemComponent(Hypervisor& hv, const PerfCounters& counters,
                           PageAccessSource& sampler);

  // --- The "hypercall" interface consumed by the dom0 user component. ---

  // Latest machine-wide utilization snapshot.
  const TrafficSnapshot& ReadMetrics() const;

  // Hottest pages of `domain`, most accessed first, with per-source-node
  // rates (IBS attribution), written over the contents of *out.
  void ReadHotPages(DomainId domain, int max_pages, std::vector<PageAccessSample>* out);

  // Migrates one physical page of `domain` through the internal interface
  // (§4.1). Returns false when the destination node is out of memory.
  bool MigratePage(DomainId domain, Pfn pfn, NodeId node);

  // Replicates a read-only page on every home node (§3.4's discarded
  // heuristic, optional). Returns false when ineligible or out of memory.
  bool ReplicatePage(DomainId domain, Pfn pfn);

  // Refreshes the per-node P2M replica (docs/MODEL.md §18) of every node
  // hosting one of `domain`'s vCPUs. Returns the number of replicas
  // refreshed; 0 when the domain runs without p2m_replication.
  int ReplicateTranslation(DomainId domain);

  int num_nodes() const { return hv_->topology().num_nodes(); }

  int64_t migrations_performed() const { return migrations_; }
  int64_t replications_performed() const { return replications_; }
  int64_t translation_replications_performed() const {
    return translation_replications_;
  }

 private:
  Hypervisor* hv_;
  const PerfCounters* counters_;
  PageAccessSource* sampler_;
  int64_t migrations_ = 0;
  int64_t replications_ = 0;
  int64_t translation_replications_ = 0;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_CARREFOUR_SYSTEM_COMPONENT_H_
