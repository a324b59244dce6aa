#include "src/carrefour/system_component.h"

namespace xnuma {

CarrefourSystemComponent::CarrefourSystemComponent(Hypervisor& hv, const PerfCounters& counters,
                                                   PageAccessSource& sampler)
    : hv_(&hv), counters_(&counters), sampler_(&sampler) {}

const TrafficSnapshot& CarrefourSystemComponent::ReadMetrics() const {
  return counters_->last_epoch();
}

void CarrefourSystemComponent::ReadHotPages(DomainId domain, int max_pages,
                                            std::vector<PageAccessSample>* out) {
  sampler_->SampleHotPages(domain, max_pages, out);
  // Resolve each sample's current node from its P2M entry. The read stands
  // for a walk by vCPU 0, which re-stamps that vCPU's replica (§18).
  const HvPlacementBackend& be = hv_->backend(domain);
  const P2mTable& p2m = hv_->domain(domain).p2m();
  for (PageAccessSample& s : *out) {
    p2m.RestampReplica(s.pfn, /*vcpu=*/0);
    s.current_node = be.NodeOf(s.pfn);
  }
}

bool CarrefourSystemComponent::ReplicatePage(DomainId domain, Pfn pfn) {
  if (hv_->backend(domain).Replicate(pfn)) {
    ++replications_;
    return true;
  }
  return false;
}

int CarrefourSystemComponent::ReplicateTranslation(DomainId domain) {
  Domain& dom = hv_->domain(domain);
  if (dom.destroyed() || !dom.p2m().replication_enabled()) {
    return 0;
  }
  const Topology& topo = hv_->topology();
  // One refresh per node hosting a vCPU; FillReplica skips the home node
  // (the master is by definition current there).
  std::vector<char> seen(topo.num_nodes(), 0);
  int refreshed = 0;
  for (const VcpuDesc& v : dom.vcpus()) {
    if (v.pinned_cpu == kInvalidCpu) {
      continue;
    }
    const NodeId n = topo.node_of_cpu(v.pinned_cpu);
    if (seen[n] || n == dom.p2m().home_node()) {
      continue;
    }
    seen[n] = 1;
    dom.p2m().FillReplica(n);
    ++refreshed;
  }
  translation_replications_ += refreshed;
  return refreshed;
}

bool CarrefourSystemComponent::MigratePage(DomainId domain, Pfn pfn, NodeId node) {
  if (hv_->backend(domain).Migrate(pfn, node)) {
    ++migrations_;
    return true;
  }
  return false;
}

}  // namespace xnuma
