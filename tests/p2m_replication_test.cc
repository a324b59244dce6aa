// Unit and property tests for per-node P2M replication (docs/MODEL.md §18):
// generation-stamp coverage accounting, write-fault-driven copy
// invalidation, walk-driven re-stamping and vCPU id folding, the
// machine-wide replica gauge, domain teardown, and the invalidation-vs-walk
// race (run under TSan by the `repl-tsan` preset).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/hv/hv_backend.h"
#include "src/hv/hypervisor.h"
#include "src/hv/p2m.h"
#include "src/numa/topology.h"
#include "src/obs/obs.h"

namespace xnuma {
namespace {

constexpr int64_t kPages = 4096;  // 8 chunks of 512 pages
constexpr Mfn kBase = 1 << 20;
constexpr int kNodes = 4;
constexpr int kVcpus = 2;

P2mTable MakeTable() {
  P2mTable p2m(kPages);
  p2m.MapRange(0, kPages, kBase);
  return p2m;
}

TEST(P2mReplicationTest, DisabledTableIsHomeOnly) {
  P2mTable p2m = MakeTable();
  EXPECT_FALSE(p2m.replication_enabled());
  EXPECT_EQ(p2m.ReplicaCoverage(0), 1.0);  // home node: master is local
  EXPECT_EQ(p2m.ReplicaCoverage(1), 0.0);
  EXPECT_EQ(p2m.replica_count(), 0);
  EXPECT_EQ(p2m.replica_invalidations(), 0);
  p2m.AuditCounters();
}

TEST(P2mReplicationTest, FillAndCoverageAccounting) {
  P2mTable p2m = MakeTable();
  p2m.EnableReplication(kNodes, /*home_node=*/0, kVcpus);
  EXPECT_TRUE(p2m.replication_enabled());
  EXPECT_EQ(p2m.ReplicaCoverage(1), 0.0);  // not instantiated yet

  p2m.FillReplica(1);
  EXPECT_EQ(p2m.replica_count(), 1);
  EXPECT_EQ(p2m.ReplicaCoverage(1), 1.0);
  EXPECT_EQ(p2m.ReplicaCoverage(2), 0.0);
  EXPECT_EQ(p2m.ReplicaCoverage(0), 1.0);

  // A master mutation drops exactly the touched chunk's copy: 1 of the 8
  // chunks goes stale.
  p2m.Unmap(0);
  EXPECT_EQ(p2m.replica_invalidations(), 1);
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(1), 7.0 / 8.0);

  // Refill restores full coverage; the home node never needs one.
  p2m.FillReplica(1);
  EXPECT_EQ(p2m.ReplicaCoverage(1), 1.0);
  p2m.FillReplica(0);
  EXPECT_EQ(p2m.replica_count(), 1);
  p2m.AuditCounters();
}

TEST(P2mReplicationTest, InvalidationCountsOncePerValidToStaleEdge) {
  P2mTable p2m = MakeTable();
  p2m.EnableReplication(kNodes, 0, kVcpus);
  p2m.FillReplica(1);
  p2m.FillReplica(2);

  // Two mutations in the same chunk: only the first finds a current copy.
  p2m.Unmap(10);
  p2m.Unmap(11);
  EXPECT_EQ(p2m.replica_invalidations(), 2);  // one per replica, not four
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(1), 7.0 / 8.0);
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(2), 7.0 / 8.0);
  p2m.AuditCounters();
}

TEST(P2mReplicationTest, RemoteWalkLazilyRestampsItsNodesReplica) {
  P2mTable p2m = MakeTable();
  p2m.EnableReplication(kNodes, 0, kVcpus);
  // vCPU 0 walks from node 1; SetVcpuNode instantiates the (empty) replica.
  p2m.SetVcpuNode(0, 1);
  EXPECT_EQ(p2m.replica_count(), 1);
  EXPECT_EQ(p2m.ReplicaCoverage(1), 0.0);

  // The walk reads the master and re-copies the resolved chunk.
  (void)p2m.LookupRun(0, /*vcpu=*/0);
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(1), 1.0 / 8.0);
  (void)p2m.LookupRun(600, /*vcpu=*/0);  // second chunk
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(1), 2.0 / 8.0);

  // A home-node walk (vCPU 1 defaults to home) stamps nothing.
  (void)p2m.LookupRun(1200, /*vcpu=*/1);
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(1), 2.0 / 8.0);
  p2m.AuditCounters();
}

// Every walk from a non-home node re-copies the chunk it resolved, however
// recently the same vCPU walked it: a wholesale drop of one node's replica
// is repaired chunk by chunk by that node's own walks and leaves other
// nodes' replicas alone.
TEST(P2mReplicationTest, EveryRemoteWalkRestampsItsChunk) {
  P2mTable p2m = MakeTable();
  p2m.EnableReplication(kNodes, 0, kVcpus);
  p2m.SetVcpuNode(0, 1);
  p2m.SetVcpuNode(1, 2);
  p2m.FillReplica(1);
  p2m.FillReplica(2);
  (void)p2m.LookupRun(0, 0);
  (void)p2m.LookupRun(0, 1);

  p2m.InvalidateReplicas(1);
  EXPECT_EQ(p2m.ReplicaCoverage(1), 0.0);
  EXPECT_EQ(p2m.ReplicaCoverage(2), 1.0);
  (void)p2m.LookupRun(0, 0);  // the same walk as before the drop
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(1), 1.0 / 8.0);
  (void)p2m.LookupRun(1, 0);  // same chunk: already current
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(1), 1.0 / 8.0);
  (void)p2m.LookupRun(0, 1);
  EXPECT_EQ(p2m.ReplicaCoverage(2), 1.0);

  // A master mutation drops the chunk's copy; the next walk re-copies it.
  p2m.WriteProtect(3);
  EXPECT_EQ(p2m.ReplicaCoverage(1), 0.0);
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(2), 7.0 / 8.0);
  (void)p2m.LookupRun(3, 0);
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(1), 1.0 / 8.0);
  p2m.AuditCounters();
}

// The guest may pass a pCPU id where a vCPU index is expected: ids fold
// modulo the domain's vCPU count, and negative ids fold to vCPU 0.
TEST(P2mReplicationTest, VcpuIdsFoldModuloTheVcpuCount) {
  P2mTable p2m = MakeTable();
  p2m.EnableReplication(kNodes, 0, kVcpus);
  p2m.SetVcpuNode(5, 2);  // 5 % 2 == 1: vCPU 1 now walks from node 2
  EXPECT_EQ(p2m.replica_count(), 1);
  (void)p2m.LookupRun(0, /*vcpu=*/3);  // 3 % 2 == 1: stamps node 2
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(2), 1.0 / 8.0);
  (void)p2m.LookupRun(600, /*vcpu=*/-7);  // vCPU 0 walks from home
  (void)p2m.LookupRun(1200, /*vcpu=*/4);  // 4 % 2 == 0: home as well
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(2), 1.0 / 8.0);
  p2m.SetVcpuNode(-1, 3);  // negative: vCPU 0 moves to node 3
  (void)p2m.LookupRun(600, /*vcpu=*/0);
  EXPECT_DOUBLE_EQ(p2m.ReplicaCoverage(3), 1.0 / 8.0);
  p2m.AuditCounters();
}

TEST(P2mReplicationTest, DisableDropsEveryReplica) {
  P2mTable p2m = MakeTable();
  p2m.EnableReplication(kNodes, 0, kVcpus);
  p2m.FillReplica(1);
  p2m.FillReplica(2);
  EXPECT_EQ(p2m.replica_count(), 2);
  p2m.DisableReplication();
  EXPECT_EQ(p2m.replica_count(), 0);
  EXPECT_FALSE(p2m.replication_enabled());
  EXPECT_EQ(p2m.ReplicaCoverage(1), 0.0);
}

TEST(P2mReplicationTest, WalkTotalsAccumulate) {
  P2mTable p2m = MakeTable();
  p2m.NoteWalks(10, 3);
  p2m.NoteWalks(5, 0);
  EXPECT_EQ(p2m.local_walks(), 15);
  EXPECT_EQ(p2m.remote_walks(), 3);
}

// Satellite: DestroyDomain must tear down Carrefour page-replication state
// and the per-node P2M replicas — even for pages that were unmapped while
// replicated, which the mapped-run walk cannot reach.
TEST(P2mReplicationTest, DestroyDomainTearsDownReplicationState) {
  Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  const int64_t frames_baseline = hv.frames().TotalFreeFrames();

  DomainConfig cfg;
  cfg.name = "repl-teardown";
  cfg.num_vcpus = 12;
  cfg.memory_pages = 512;
  for (int i = 0; i < 12; ++i) {
    cfg.pinned_cpus.push_back(i);  // nodes 0 and 1 → two home nodes
  }
  cfg.policy.placement = StaticPolicy::kRound4k;
  cfg.p2m_replication = true;
  const DomainId dom = hv.CreateDomain(cfg);
  Domain& d = hv.domain(dom);
  ASSERT_TRUE(d.p2m().replication_enabled());
  EXPECT_GT(d.p2m().replica_count(), 0);  // vCPUs on node 1 instantiate one
  d.p2m().FillReplica(1);

  // Replicate a page, then release it behind the collapse path's back —
  // the replica frames now survive only in the domain's replica map.
  const Pfn victim = 7;
  ASSERT_TRUE(hv.backend(dom).Replicate(victim));
  ASSERT_TRUE(d.IsReplicated(victim));
  hv.frames().Free(d.p2m().Unmap(victim));
  ASSERT_TRUE(d.IsReplicated(victim));

  hv.DestroyDomain(dom);
  EXPECT_TRUE(d.replicas().empty());
  EXPECT_FALSE(d.p2m().replication_enabled());
  EXPECT_EQ(d.p2m().replica_count(), 0);
  // Every frame came back: the masters, and the orphaned replica copies.
  EXPECT_EQ(hv.frames().TotalFreeFrames(), frames_baseline);
}

// p2m.repl.replicas is machine-wide: every table adds its own replicas, so
// creating or destroying one replicated domain leaves the others counted.
TEST(P2mReplicationTest, ReplicaGaugeSumsLiveReplicasAcrossDomains) {
  Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  Observability obs;
  hv.set_observability(&obs);
  const Gauge* gauge = obs.metrics().RegisterGauge("p2m.repl.replicas", "replicas", "");

  DomainConfig cfg;
  cfg.num_vcpus = 12;
  cfg.memory_pages = 256;
  for (int i = 0; i < 12; ++i) {
    cfg.pinned_cpus.push_back(i);  // nodes 0 and 1: one replica on node 1
  }
  cfg.p2m_replication = true;
  cfg.name = "repl-a";
  const DomainId a = hv.CreateDomain(cfg);
  cfg.name = "repl-b";
  const DomainId b = hv.CreateDomain(cfg);
  ASSERT_EQ(hv.domain(a).p2m().replica_count(), 1);
  ASSERT_EQ(hv.domain(b).p2m().replica_count(), 1);
  EXPECT_EQ(gauge->value(), 2.0);

  hv.DestroyDomain(a);
  EXPECT_EQ(gauge->value(), 1.0);
  hv.DestroyDomain(b);
  EXPECT_EQ(gauge->value(), 0.0);
}

// Invalidation-vs-walk race: one thread drops and refills a node's replica
// while vCPUs walk from it. Walks must always return the correct
// translation (the master never mutates here) without tearing; run under
// TSan via the `repl-tsan` preset. No observability is attached and no
// audit runs concurrently — under this race the valid-chunk counter is a
// heuristic and may drift, which coverage clamps but an audit would flag.
TEST(P2mReplicationTest, InvalidateVsWalkRaceReturnsCorrectRuns) {
  constexpr int kReaders = 3;
  P2mTable p2m(kPages);
  p2m.MapRange(0, kPages, kBase);
  p2m.EnableReplication(kNodes, 0, kReaders);
  for (int i = 0; i < kReaders; ++i) {
    p2m.SetVcpuNode(i, 1 + i % (kNodes - 1));
    p2m.FillReplica(1 + i % (kNodes - 1));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&p2m, &stop, &bad, i] {
      uint64_t x = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(i + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const Pfn pfn = static_cast<Pfn>(x % kPages);
        const P2mTable::Run run = p2m.LookupRun(pfn, i);
        if (!run.valid || pfn < run.first || pfn >= run.first + run.count ||
            run.mfn + (pfn - run.first) != kBase + pfn) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread dropper([&p2m, &stop] {
    for (int iter = 0; iter < 2000; ++iter) {
      const int node = 1 + iter % (kNodes - 1);
      p2m.InvalidateReplicas(node);
      p2m.FillReplica(node);
    }
    stop.store(true, std::memory_order_relaxed);
  });
  dropper.join();
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(p2m.replica_invalidations(), 2000);
}

}  // namespace
}  // namespace xnuma
