#include "src/hv/vnuma.h"

#include <limits>

#include "src/common/check.h"
#include "src/hv/domain.h"
#include "src/numa/topology.h"
#include "src/policy/vnuma_layout.h"

namespace xnuma {

namespace {

// Nearest home node by hop distance; ties break to the lowest vnode so the
// map is deterministic. `cpu`'s node is usually *in* the home set (then the
// answer is exact), but the credit scheduler may park a vCPU anywhere.
int32_t NearestVnode(const std::vector<NodeId>& homes, const Topology& topo,
                     CpuId cpu) {
  const NodeId pnode = topo.node_of_cpu(cpu);
  int32_t best = 0;
  int best_hops = std::numeric_limits<int>::max();
  for (size_t v = 0; v < homes.size(); ++v) {
    const int hops = topo.Distance(pnode, homes[v]);
    if (hops < best_hops) {
      best_hops = hops;
      best = static_cast<int32_t>(v);
    }
  }
  return best;
}

}  // namespace

VnumaInfo BuildVnumaInfo(const Domain& dom, const Topology& topo) {
  XNUMA_CHECK(dom.vnuma_enabled());
  const std::vector<NodeId>& homes = dom.home_nodes();
  const int nr_vnodes = static_cast<int>(homes.size());
  const int nr_vcpus = static_cast<int>(dom.vcpus().size());
  XNUMA_CHECK(nr_vnodes > 0);

  VnumaInfo info;
  info.nr_vnodes = nr_vnodes;
  info.nr_vcpus = nr_vcpus;

  // Memranges and distances depend only on creation-time state (home nodes,
  // memory size), so they need no seqlock protection.
  const std::vector<VnodeRange> ranges = VnumaSplit(dom.memory_pages(), nr_vnodes);
  info.memranges.reserve(nr_vnodes);
  for (int v = 0; v < nr_vnodes; ++v) {
    info.memranges.push_back({ranges[v].start, ranges[v].end, v});
  }
  info.distances.resize(static_cast<size_t>(nr_vnodes) * nr_vnodes);
  for (int a = 0; a < nr_vnodes; ++a) {
    for (int b = 0; b < nr_vnodes; ++b) {
      info.distances[static_cast<size_t>(a) * nr_vnodes + b] =
          kVnumaLocalDistance + kVnumaHopDistance * topo.Distance(homes[a], homes[b]);
    }
  }

  // The vcpu map reads the mutable location table: seqlock-bracketed copy,
  // retried until no writer interleaved, so the snapshot is never torn.
  info.vcpu_to_vnode.resize(nr_vcpus);
  for (;;) {
    const uint64_t s1 = dom.vnuma_seq();
    if ((s1 & 1) != 0) {
      continue;  // write in progress
    }
    for (VcpuId v = 0; v < nr_vcpus; ++v) {
      info.vcpu_to_vnode[v] = NearestVnode(homes, topo, dom.VnumaVcpuCpu(v));
    }
    const uint64_t s2 = dom.vnuma_seq();
    if (s1 == s2) {
      info.generation = s1 / 2;
      return info;
    }
  }
}

}  // namespace xnuma
