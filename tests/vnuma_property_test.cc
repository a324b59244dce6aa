// Property tests for the vNUMA tables (docs/VNUMA.md):
//  - randomized domains produce well-formed tables (memranges sorted,
//    disjoint, covering; distances symmetric with a 10 diagonal; vcpu map
//    in range),
//  - snapshots stay generation-consistent under a concurrent migration
//    writer (the seqlock contract; run under TSan by the vnuma preset).

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "src/hv/hypervisor.h"
#include "src/hv/vnuma.h"
#include "src/numa/topology.h"

namespace xnuma {
namespace {

// Deterministic SplitMix64 so failures reproduce exactly.
class Rand {
 public:
  explicit Rand(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  int Int(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

// A random vNUMA domain: 1..8 home nodes (one pinned CPU per node used),
// a few vCPUs scattered over them, a non-round memory size.
DomainId RandomVnumaDomain(Hypervisor& hv, Rand& rng) {
  const int num_vcpus = rng.Int(1, 12);
  DomainConfig dc;
  dc.num_vcpus = num_vcpus;
  dc.memory_pages = rng.Int(num_vcpus, 2000);
  const int nodes = rng.Int(1, 8);
  for (int v = 0; v < num_vcpus; ++v) {
    const int node = rng.Int(0, nodes - 1);
    dc.pinned_cpus.push_back(node * 6 + rng.Int(0, 5));
  }
  dc.policy.placement = StaticPolicy::kFirstTouch;
  dc.policy.vnuma = true;
  dc.vnuma = true;
  return hv.CreateDomain(dc);
}

void ExpectWellFormed(const VnumaInfo& info, const Domain& dom, const Topology& topo) {
  ASSERT_EQ(info.nr_vnodes, static_cast<int32_t>(dom.home_nodes().size()));
  ASSERT_EQ(info.nr_vcpus, static_cast<int32_t>(dom.vcpus().size()));

  // Memranges: sorted, disjoint, covering [0, memory_pages) exactly.
  ASSERT_EQ(info.memranges.size(), static_cast<size_t>(info.nr_vnodes));
  Pfn cursor = 0;
  for (int v = 0; v < info.nr_vnodes; ++v) {
    EXPECT_EQ(info.memranges[v].start, cursor);
    EXPECT_LE(info.memranges[v].start, info.memranges[v].end);
    EXPECT_EQ(info.memranges[v].vnode, v);
    cursor = info.memranges[v].end;
  }
  EXPECT_EQ(cursor, dom.memory_pages());

  // Distances: symmetric, 10 on the diagonal, >= 10 everywhere.
  ASSERT_EQ(info.distances.size(),
            static_cast<size_t>(info.nr_vnodes) * info.nr_vnodes);
  for (int a = 0; a < info.nr_vnodes; ++a) {
    EXPECT_EQ(info.distances[a * info.nr_vnodes + a], kVnumaLocalDistance);
    for (int b = 0; b < info.nr_vnodes; ++b) {
      const int32_t d = info.distances[a * info.nr_vnodes + b];
      EXPECT_GE(d, kVnumaLocalDistance);
      EXPECT_EQ(d, info.distances[b * info.nr_vnodes + a]);
      EXPECT_EQ(d, kVnumaLocalDistance +
                       kVnumaHopDistance *
                           topo.Distance(dom.home_nodes()[a], dom.home_nodes()[b]));
    }
  }

  // vCPU map: every entry names an existing vnode.
  ASSERT_EQ(info.vcpu_to_vnode.size(), static_cast<size_t>(info.nr_vcpus));
  for (const int32_t v : info.vcpu_to_vnode) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, info.nr_vnodes);
  }
}

TEST(VnumaPropertyTest, RandomDomainsProduceWellFormedTables) {
  Rand rng(0x5EED);
  for (int iter = 0; iter < 40; ++iter) {
    Topology topo = Topology::Amd48();
    Hypervisor hv(topo);
    const DomainId id = RandomVnumaDomain(hv, rng);
    VnumaInfo info;
    ASSERT_EQ(hv.HypercallGetVnumaInfo(id, &info), HypercallStatus::kOk) << "iter " << iter;
    ExpectWellFormed(info, hv.domain(id), topo);

    // ...and stays well-formed after a few random vCPU relocations.
    const int moves = rng.Int(1, 5);
    for (int m = 0; m < moves; ++m) {
      hv.NoteVcpuMoved(id, rng.Int(0, static_cast<int>(hv.domain(id).vcpus().size()) - 1),
                       rng.Int(0, topo.num_cpus() - 1));
    }
    ASSERT_EQ(hv.HypercallGetVnumaInfo(id, &info), HypercallStatus::kOk);
    EXPECT_EQ(info.generation, static_cast<uint64_t>(moves));
    ExpectWellFormed(info, hv.domain(id), topo);
  }
}

// The seqlock contract: a reader never observes a torn vcpu map. The writer
// applies a precomputed sequence of vCPU relocations (each bumping the
// generation by exactly one); every table a reader gets back must equal the
// precomputed map for its generation.
TEST(VnumaPropertyTest, SnapshotsAreGenerationConsistentUnderConcurrentMigration) {
  Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  DomainConfig dc;
  dc.num_vcpus = 4;
  dc.memory_pages = 64;
  dc.pinned_cpus = {0, 6, 12, 18};  // home nodes 0..3, vnode v <-> node v
  dc.policy.vnuma = true;
  dc.vnuma = true;
  const DomainId id = hv.CreateDomain(dc);

  // Precompute the move sequence and the expected map after each move.
  // Targets stay on the home set, so vcpu -> vnode is exact (cpu / 6).
  constexpr int kMoves = 400;
  Rand rng(0xC0FFEE);
  std::vector<VcpuId> move_vcpu(kMoves);
  std::vector<CpuId> move_cpu(kMoves);
  std::vector<std::vector<int32_t>> expected(kMoves + 1);
  expected[0] = {0, 1, 2, 3};
  for (int k = 0; k < kMoves; ++k) {
    move_vcpu[k] = rng.Int(0, 3);
    move_cpu[k] = 6 * rng.Int(0, 3);
    expected[k + 1] = expected[k];
    expected[k + 1][move_vcpu[k]] = move_cpu[k] / 6;
  }

  std::thread writer([&] {
    for (int k = 0; k < kMoves; ++k) {
      hv.NoteVcpuMoved(id, move_vcpu[k], move_cpu[k]);
    }
  });

  const Domain& dom = hv.domain(id);
  uint64_t last_generation = 0;
  int snapshots = 0;
  while (last_generation < kMoves) {
    const VnumaInfo info = BuildVnumaInfo(dom, topo);
    ASSERT_LE(info.generation, static_cast<uint64_t>(kMoves));
    ASSERT_GE(info.generation, last_generation) << "generation went backwards";
    EXPECT_EQ(info.vcpu_to_vnode, expected[info.generation])
        << "torn snapshot at generation " << info.generation;
    last_generation = info.generation;
    ++snapshots;
  }
  writer.join();
  EXPECT_GT(snapshots, 0);
  // Final state: one more read sees the last expected map exactly.
  const VnumaInfo final_info = BuildVnumaInfo(dom, topo);
  EXPECT_EQ(final_info.generation, static_cast<uint64_t>(kMoves));
  EXPECT_EQ(final_info.vcpu_to_vnode, expected[kMoves]);
}

}  // namespace
}  // namespace xnuma
