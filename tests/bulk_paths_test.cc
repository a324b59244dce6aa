// The bulk paths of domain construction and teardown against their
// page-at-a-time definitions: FrameAllocator's one-sweep allocation, word-wise
// runs and batched frees; round-4K/round-1G eager placement with a fallback
// that starts mid-domain; DestroyDomain's bulk release under replication;
// the guest's range-backed free list; and which replica a first-touch walk
// re-stamps.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <string>
#include <vector>

#include "src/guest/free_page_list.h"
#include "src/guest/guest_os.h"
#include "src/hv/hypervisor.h"
#include "src/mm/frame_allocator.h"
#include "src/numa/topology.h"
#include "src/obs/obs.h"
#include "src/policy/vnuma_layout.h"

namespace xnuma {
namespace {

// Every frame's allocation bit, plus each node's counters: two allocators
// with equal fingerprints hand out the same frames from then on only if
// their rovers agree too, which the callers check by allocating.
std::vector<int64_t> Fingerprint(const FrameAllocator& frames) {
  std::vector<int64_t> out;
  for (Mfn mfn = 0; mfn < frames.total_frames(); ++mfn) {
    out.push_back(frames.IsAllocated(mfn) ? 1 : 0);
  }
  for (NodeId n = 0; n < frames.num_nodes(); ++n) {
    EXPECT_EQ(frames.RecountFreeFrames(n), frames.FreeFrames(n)) << "node " << n;
    out.push_back(frames.FreeFrames(n));
  }
  return out;
}

int64_t CounterValue(const Observability& obs, const std::string& name) {
  for (const MetricSnapshot& m : obs.metrics().Snapshot()) {
    if (m.name == name) {
      return m.count;
    }
  }
  return 0;
}

// ---- FrameAllocator ---------------------------------------------------------

TEST(BulkFrameAllocTest, AllocManyEqualsRepeatedAllocOnNode) {
  // 200 frames per node: the node boundaries fall inside 64-bit words.
  const Topology topo = Topology::Synthetic(3, 2, 200ll << 20);
  FrameAllocator bulk(topo, 1ll << 20);
  FrameAllocator single(topo, 1ll << 20);
  // Edge holes, then scattered allocations and frees that move the rovers.
  bulk.FragmentEdgeRegions(6, 9);
  single.FragmentEdgeRegions(6, 9);
  std::mt19937_64 rng(5);
  for (NodeId n = 0; n < 3; ++n) {
    for (int i = 0; i < 70; ++i) {
      ASSERT_EQ(bulk.AllocOnNode(n), single.AllocOnNode(n));
    }
    for (Mfn mfn = bulk.node_base(n) + 5; mfn < bulk.node_base(n) + 70; mfn += 3) {
      if (bulk.IsAllocated(mfn) && rng() % 2 == 0) {
        bulk.Free(mfn);
        single.Free(mfn);
      }
    }
  }
  // Random batch sizes until every node is exhausted; each batch crosses
  // the rover wrap at some point.
  for (int round = 0; round < 40; ++round) {
    for (NodeId n = 0; n < 3; ++n) {
      const int64_t free = bulk.FreeFrames(n);
      const int64_t count = round == 39 ? free : std::min<int64_t>(free, rng() % 23);
      std::vector<Mfn> got(count);
      bulk.AllocManyOnNode(n, count, got.data());
      std::vector<Mfn> want;
      for (int64_t i = 0; i < count; ++i) {
        want.push_back(single.AllocOnNode(n));
      }
      ASSERT_EQ(got, want) << "node " << n << " round " << round;
      if (round == 20 && count > 0) {
        // A strided sweep writes every third slot, in the same order.
        std::vector<Mfn> strided(3 * count, kInvalidMfn);
        bulk.AllocManyOnNode(n, 1, &strided[0], 3);
        const Mfn next = single.AllocOnNode(n);
        ASSERT_EQ(strided[0], next);
        EXPECT_EQ(strided[1], kInvalidMfn);
        bulk.Free(next);
        single.Free(next);
      }
      if (round % 7 == 3 && !got.empty()) {
        // Free part of the batch again so later sweeps find holes behind
        // the rover.
        for (size_t i = 0; i < got.size(); i += 2) {
          bulk.Free(got[i]);
          single.Free(got[i]);
        }
      }
    }
    ASSERT_EQ(Fingerprint(bulk), Fingerprint(single));
  }
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_EQ(bulk.FreeFrames(n), 0);
    EXPECT_EQ(bulk.AllocOnNode(n), kInvalidMfn);
    bulk.AllocManyOnNode(n, 0, nullptr);
  }
}

TEST(BulkFrameAllocTest, ContiguousRunsSetAndClearWholeWords) {
  const Topology topo = Topology::Synthetic(2, 1, 300ll << 20);
  // Each run starts and ends at or next to a word boundary of the bitmap.
  for (const int64_t lead : {0, 1, 63, 64, 65, 127}) {
    for (const int64_t len : {1, 63, 64, 65, 128, 129}) {
      FrameAllocator frames(topo, 1ll << 20);
      const NodeId node = 1;  // base 300: not word-aligned either
      const Mfn base = frames.node_base(node);
      if (lead > 0) {
        ASSERT_EQ(frames.AllocContiguous(node, lead), base);
      }
      const Mfn run = frames.AllocContiguous(node, len);
      ASSERT_EQ(run, base + lead);
      for (Mfn mfn = base; mfn < base + frames.frames_per_node(node); ++mfn) {
        EXPECT_EQ(frames.IsAllocated(mfn), mfn < base + lead + len) << mfn;
      }
      EXPECT_EQ(frames.FreeFrames(node), frames.frames_per_node(node) - lead - len);
      EXPECT_EQ(frames.RecountFreeFrames(node), frames.FreeFrames(node));
      frames.FreeContiguous(run, len);
      for (Mfn mfn = base; mfn < base + frames.frames_per_node(node); ++mfn) {
        EXPECT_EQ(frames.IsAllocated(mfn), mfn < base + lead) << mfn;
      }
      EXPECT_EQ(frames.RecountFreeFrames(node), frames.FreeFrames(node));
      EXPECT_EQ(frames.FreeFrames(node), frames.frames_per_node(node) - lead);
      EXPECT_EQ(frames.RecountFreeFrames(0), frames.FreeFrames(0));
    }
  }
}

TEST(BulkFrameAllocTest, FreeContiguousAcrossANodeBoundary) {
  const Topology topo = Topology::Synthetic(2, 1, 100ll << 20);
  FrameAllocator frames(topo, 1ll << 20);
  for (NodeId n = 0; n < 2; ++n) {
    ASSERT_EQ(frames.AllocContiguous(n, 100), frames.node_base(n));
  }
  const uint64_t gen0 = frames.generation(0);
  const uint64_t gen1 = frames.generation(1);
  frames.FreeContiguous(90, 20);  // frames 90..99 of node 0, 100..109 of node 1
  EXPECT_EQ(frames.FreeFrames(0), 10);
  EXPECT_EQ(frames.FreeFrames(1), 10);
  EXPECT_EQ(frames.RecountFreeFrames(0), 10);
  EXPECT_EQ(frames.RecountFreeFrames(1), 10);
  EXPECT_NE(frames.generation(0), gen0);
  EXPECT_NE(frames.generation(1), gen1);
}

TEST(BulkFrameAllocTest, FreeManyEqualsFreeInAnyOrder) {
  const Topology topo = Topology::Synthetic(4, 1, 150ll << 20);
  FrameAllocator bulk(topo, 1ll << 20);
  FrameAllocator single(topo, 1ll << 20);
  std::vector<Mfn> taken;
  for (int i = 0; i < 400; ++i) {
    const NodeId n = i % 4;
    taken.push_back(bulk.AllocOnNode(n));
    ASSERT_EQ(single.AllocOnNode(n), taken.back());
  }
  std::mt19937_64 rng(11);
  std::shuffle(taken.begin(), taken.end(), rng);
  taken.resize(300);
  const uint64_t untouched_gen = bulk.generation(3);
  std::vector<Mfn> freed;
  for (Mfn mfn : taken) {
    if (bulk.NodeOf(mfn) != 3) {
      freed.push_back(mfn);
      single.Free(mfn);
    }
  }
  bulk.FreeMany(freed);
  EXPECT_EQ(Fingerprint(bulk), Fingerprint(single));
  EXPECT_EQ(bulk.generation(3), untouched_gen);  // no frame of node 3 moved
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(bulk.AllocOnNode(n), single.AllocOnNode(n));
  }
}

// ---- Eager placement ----------------------------------------------------------

// A two-home domain on AMD48 (vCPUs on cpus 0 and 6: homes 0 and 1) whose
// home nodes were partly filled through the allocator, as other domains'
// memory would fill them.
struct Machine {
  explicit Machine(const std::vector<int64_t>& leave_free) : topo(Topology::Amd48()), hv(topo) {
    for (NodeId n = 0; n < static_cast<NodeId>(leave_free.size()); ++n) {
      while (hv.frames().FreeFrames(n) > leave_free[n]) {
        hv.frames().AllocOnNode(n);
      }
    }
  }
  DomainId Create(StaticPolicy policy, int64_t pages) {
    DomainConfig dc;
    dc.name = "dom";
    dc.num_vcpus = 2;
    dc.memory_pages = pages;
    dc.pinned_cpus = {0, 6};
    dc.policy.placement = policy;
    return hv.CreateDomain(dc);
  }
  Topology topo;
  Hypervisor hv;
};

// The round-4K placement loop as it ran before the bulk path: one
// MapWithFallback per unmapped page.
void ReferenceRound4k(PlacementBackend& be, int* cursor) {
  const auto& homes = be.home_nodes();
  for (Pfn pfn = 0; pfn < be.num_pages(); ++pfn) {
    if (be.IsMapped(pfn)) {
      continue;
    }
    const NodeId preferred = homes[*cursor % homes.size()];
    ++*cursor;
    MapWithFallback(be, pfn, preferred, cursor);
  }
}

// The round-1G placement as it ran before the bulk path (region sizes at
// the 4 MiB frame scale: 256-page 1G regions, one-page 2M regions).
struct ReferenceRound1g {
  void Place(PlacementBackend& be, Pfn first, int64_t count, int64_t region) {
    const auto& homes = be.home_nodes();
    if (count == region && region > 1) {
      for (size_t attempt = 0; attempt < homes.size(); ++attempt) {
        const NodeId node = homes[cursor % homes.size()];
        ++cursor;
        if (be.MapRangeOnNode(first, count, node)) {
          return;
        }
      }
    }
    if (region > 1 && count > 1) {
      for (Pfn sub = first; sub < first + count; ++sub) {
        Place(be, sub, 1, 1);
      }
      return;
    }
    for (Pfn pfn = first; pfn < first + count; ++pfn) {
      if (be.IsMapped(pfn)) {
        continue;
      }
      const NodeId preferred = homes[cursor % homes.size()];
      ++cursor;
      MapWithFallback(be, pfn, preferred, &fallback_cursor);
    }
  }
  void Initialize(PlacementBackend& be) {
    for (Pfn first = 0; first < be.num_pages(); first += 256) {
      Place(be, first, std::min<int64_t>(256, be.num_pages() - first), 256);
    }
  }
  int cursor = 0;
  int fallback_cursor = 0;
};

void ExpectSamePlacement(Machine& a, DomainId da, Machine& b, DomainId db) {
  const P2mTable& pa = a.hv.domain(da).p2m();
  const P2mTable& pb = b.hv.domain(db).p2m();
  ASSERT_EQ(pa.num_pages(), pb.num_pages());
  for (Pfn pfn = 0; pfn < pa.num_pages(); ++pfn) {
    ASSERT_EQ(pa.Lookup(pfn), pb.Lookup(pfn)) << "pfn " << pfn;
    ASSERT_EQ(pa.IsWritable(pfn), pb.IsWritable(pfn)) << "pfn " << pfn;
  }
  EXPECT_EQ(pa.valid_count(), pb.valid_count());
  EXPECT_EQ(Fingerprint(a.hv.frames()), Fingerprint(b.hv.frames()));
  // Equal rovers: the next frame of every node agrees.
  for (NodeId n = 0; n < a.topo.num_nodes(); ++n) {
    EXPECT_EQ(a.hv.frames().AllocOnNode(n), b.hv.frames().AllocOnNode(n)) << "node " << n;
  }
}

TEST(BulkPlacementTest, Round4kFallbackMidDomainMatchesPerPageReference) {
  // Home 0 runs dry after 700 pages, home 1 after 2,500; the rest of the
  // 4,000-page domain falls back to the other home, then past both homes.
  for (const std::vector<int64_t>& free : {std::vector<int64_t>{700, 2500},
                                          std::vector<int64_t>{1800, 350},
                                          std::vector<int64_t>{0, 5000}}) {
    Machine bulk(free);
    Machine ref(free);
    const DomainId d = bulk.Create(StaticPolicy::kRound4k, 4000);
    const DomainId r = ref.Create(StaticPolicy::kFirstTouch, 4000);
    int cursor = 0;
    ReferenceRound4k(ref.hv.backend(r), &cursor);
    ExpectSamePlacement(bulk, d, ref, r);
  }
}

TEST(BulkPlacementTest, Round4kSwitchOverMappedPagesMatchesPerPageReference) {
  // A runtime switch to round-4K places only the pages first-touch left
  // unmapped, in between mapped ones.
  Machine bulk({300, 4000});
  Machine ref({300, 4000});
  const DomainId d = bulk.Create(StaticPolicy::kFirstTouch, 1500);
  const DomainId r = ref.Create(StaticPolicy::kFirstTouch, 1500);
  for (Pfn pfn = 3; pfn < 1500; pfn += pfn % 5 + 1) {
    ASSERT_TRUE(bulk.hv.backend(d).MapOnNode(pfn, pfn % 3 == 0 ? 4 : 5));
    ASSERT_TRUE(ref.hv.backend(r).MapOnNode(pfn, pfn % 3 == 0 ? 4 : 5));
  }
  PolicyConfig round4k;
  round4k.placement = StaticPolicy::kRound4k;
  ASSERT_EQ(bulk.hv.HypercallSetPolicy(d, round4k), HypercallStatus::kOk);
  int cursor = 0;
  ReferenceRound4k(ref.hv.backend(r), &cursor);
  ExpectSamePlacement(bulk, d, ref, r);
}

TEST(BulkPlacementTest, Round1gFallbackMidDomainMatchesPerPageReference) {
  // With few free frames left, 1G regions fail on both homes part-way
  // through and the 4 KiB round-robin (and its fallback) takes over.
  for (const std::vector<int64_t>& free : {std::vector<int64_t>{600, 900},
                                          std::vector<int64_t>{2000, 300}}) {
    Machine bulk(free);
    Machine ref(free);
    const DomainId d = bulk.Create(StaticPolicy::kRound1g, 2100);
    const DomainId r = ref.Create(StaticPolicy::kFirstTouch, 2100);
    ReferenceRound1g reference;
    reference.Initialize(ref.hv.backend(r));
    ExpectSamePlacement(bulk, d, ref, r);
  }
}

// ---- Teardown -----------------------------------------------------------------

TEST(BulkTeardownTest, DestroyReplicatedDomainReturnsEveryFrame) {
  // Page replication plus per-node P2M replicas, with metrics attached; the
  // reference tears the twin domain down page by page.
  Observability obs_bulk;
  Observability obs_ref;
  Machine bulk({5000, 5000});
  Machine ref({5000, 5000});
  bulk.hv.set_observability(&obs_bulk);
  ref.hv.set_observability(&obs_ref);
  std::vector<int64_t> baseline;
  for (NodeId n = 0; n < bulk.topo.num_nodes(); ++n) {
    baseline.push_back(bulk.hv.frames().FreeFrames(n));
  }
  DomainConfig dc;
  dc.name = "dom";
  dc.num_vcpus = 3;
  dc.memory_pages = 3000;
  dc.pinned_cpus = {0, 6, 12};
  dc.p2m_replication = true;
  const DomainId d = bulk.hv.CreateDomain(dc);
  const DomainId r = ref.hv.CreateDomain(dc);
  for (Machine* m : {&bulk, &ref}) {
    const DomainId id = m == &bulk ? d : r;
    HvPlacementBackend& be = m->hv.backend(id);
    for (Pfn pfn = 0; pfn < 3000; pfn += 7) {
      ASSERT_TRUE(be.Replicate(pfn));
    }
    for (Pfn pfn = 1; pfn < 3000; pfn += 11) {
      be.Invalidate(pfn);  // some replicated, some not
    }
    for (int node = 1; node < 3; ++node) {
      m->hv.domain(id).p2m().FillReplica(node);
    }
  }
  bulk.hv.DestroyDomain(d);
  {
    HvPlacementBackend& be = ref.hv.backend(r);
    for (Pfn pfn = 0; pfn < 3000; ++pfn) {
      be.Invalidate(pfn);
    }
    Domain& dom = ref.hv.domain(r);
    while (!dom.replicas().empty()) {
      be.CollapseReplicas(dom.replicas().begin()->first);
    }
  }
  for (NodeId n = 0; n < bulk.topo.num_nodes(); ++n) {
    EXPECT_EQ(bulk.hv.frames().FreeFrames(n), baseline[n]) << "node " << n;
    EXPECT_EQ(bulk.hv.frames().RecountFreeFrames(n), baseline[n]) << "node " << n;
  }
  EXPECT_EQ(Fingerprint(bulk.hv.frames()), Fingerprint(ref.hv.frames()));
  EXPECT_EQ(bulk.hv.domain(d).p2m().valid_count(), 0);
  EXPECT_TRUE(bulk.hv.domain(d).replicas().empty());
  EXPECT_EQ(bulk.hv.domain(d).stats().replicas_collapsed,
            ref.hv.domain(r).stats().replicas_collapsed);
  for (const char* name : {"hv.backend.invalidations", "hv.backend.collapses",
                           "p2m.repl.invalidations"}) {
    EXPECT_EQ(CounterValue(obs_bulk, name), CounterValue(obs_ref, name)) << name;
  }
  EXPECT_GT(CounterValue(obs_bulk, "p2m.repl.invalidations"), 0);
  EXPECT_EQ(bulk.hv.FreeCpusPerNode(), std::vector<int>(bulk.topo.num_nodes(), 6));
}

// ---- Guest free list ----------------------------------------------------------

TEST(GuestFreeListTest, FreePageListMatchesDequeUnderRandomOps) {
  std::mt19937_64 rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const Pfn lo = static_cast<Pfn>(rng() % 50);
    const Pfn hi = lo + static_cast<Pfn>(rng() % 60);
    FreePageList list(lo, hi);
    std::deque<Pfn> model;
    for (Pfn p = lo; p < hi; ++p) {
      model.push_back(p);
    }
    Pfn next_new = 1000;
    for (int op = 0; op < 400; ++op) {
      ASSERT_EQ(list.size(), static_cast<int64_t>(model.size()));
      ASSERT_EQ(list.empty(), model.empty());
      switch (rng() % 4) {
        case 0:
          if (!model.empty()) {
            ASSERT_EQ(list.pop_back(), model.back());
            model.pop_back();
          }
          break;
        case 1:
          if (!model.empty()) {
            ASSERT_EQ(list.pop_front(), model.front());
            model.pop_front();
          }
          break;
        case 2:
          list.push_back(next_new);
          model.push_back(next_new++);
          break;
        case 3:
          list.push_front(next_new);
          model.push_front(next_new++);
          break;
      }
    }
    while (!model.empty()) {
      ASSERT_EQ(list.pop_back(), model.back());
      model.pop_back();
    }
    EXPECT_TRUE(list.empty());
  }
}

// Drives a guest with random touches, releases and balloon moves and checks
// every page it hands out against per-vnode deques built the way the
// deque-based guest built them (one list when vNUMA is off).
void RunGuestAgainstDequeModel(bool vnuma) {
  const Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  DomainConfig dc;
  dc.name = "guest";
  dc.num_vcpus = 3;
  dc.memory_pages = 301;
  dc.pinned_cpus = {0, 6, 12};
  dc.policy.placement = StaticPolicy::kFirstTouch;
  dc.vnuma = vnuma;
  const DomainId id = hv.CreateDomain(dc);
  GuestOs::Options options;
  options.vnuma = vnuma;
  GuestOs guest(hv, id, options);
  const int pid = guest.CreateProcess(400);

  const int nr = vnuma ? guest.vnuma_info().nr_vnodes : 1;
  std::vector<std::deque<Pfn>> model(nr);
  for (Pfn pfn = 0; pfn < dc.memory_pages; ++pfn) {
    model[vnuma ? VnodeOfPfn(pfn, dc.memory_pages, nr) : 0].push_back(pfn);
  }
  const auto vnode_of = [&](Pfn pfn) { return vnuma ? VnodeOfPfn(pfn, dc.memory_pages, nr) : 0; };
  // Allocation order from vnode v: v first, then by increasing distance.
  const auto order = [&](int v) {
    std::vector<int> o(nr);
    for (int u = 0; u < nr; ++u) {
      o[u] = u;
    }
    if (vnuma) {
      const std::vector<int32_t>& dist = guest.vnuma_info().distances;
      std::stable_sort(o.begin(), o.end(),
                       [&](int a, int b) { return dist[v * nr + a] < dist[v * nr + b]; });
    }
    return o;
  };

  std::mt19937_64 rng(vnuma ? 21 : 20);
  std::vector<Pfn> ballooned;
  for (int op = 0; op < 3000; ++op) {
    const Vpn vpn = static_cast<Vpn>(rng() % 400);
    switch (rng() % 4) {
      case 0: {  // touch: a new vpage pops a page from the back
        if (guest.PfnOfVpage(pid, vpn) != kInvalidPfn || guest.free_pages() == 0) {
          break;
        }
        const VcpuId vcpu = static_cast<VcpuId>(rng() % 3);
        guest.TouchPage(pid, vpn, hv.domain(id).vcpus()[vcpu].pinned_cpu, vcpu);
        const int pref = vnuma ? guest.vnuma_info().vcpu_to_vnode[vcpu] : 0;
        for (int v : order(pref)) {
          if (!model[v].empty()) {
            ASSERT_EQ(guest.PfnOfVpage(pid, vpn), model[v].back()) << "op " << op;
            model[v].pop_back();
            break;
          }
        }
        break;
      }
      case 1: {  // release: the page goes back on the back
        const Pfn pfn = guest.PfnOfVpage(pid, vpn);
        if (pfn == kInvalidPfn) {
          break;
        }
        guest.ReleasePage(pid, vpn);
        model[vnode_of(pfn)].push_back(pfn);
        break;
      }
      case 2: {  // balloon out from the front, round-robin over the vnodes
        const std::vector<Pfn> taken = guest.TakeFreePages(static_cast<int64_t>(rng() % 5));
        for (Pfn pfn : taken) {
          std::deque<Pfn>& list = model[vnode_of(pfn)];
          ASSERT_FALSE(list.empty());
          ASSERT_EQ(pfn, list.front()) << "op " << op;
          list.pop_front();
          ballooned.push_back(pfn);
        }
        break;
      }
      case 3: {  // balloon back in at the front
        const size_t n = std::min<size_t>(ballooned.size(), rng() % 4);
        const std::vector<Pfn> back(ballooned.end() - n, ballooned.end());
        ballooned.resize(ballooned.size() - n);
        guest.ReturnFreePages(back);
        for (Pfn pfn : back) {
          model[vnode_of(pfn)].push_front(pfn);
        }
        break;
      }
    }
    int64_t total = 0;
    for (const auto& list : model) {
      total += static_cast<int64_t>(list.size());
    }
    ASSERT_EQ(guest.free_pages(), total) << "op " << op;
  }
}

TEST(GuestFreeListTest, GuestMatchesDequeModelWithoutVnuma) { RunGuestAgainstDequeModel(false); }

TEST(GuestFreeListTest, GuestMatchesDequeModelWithVnuma) { RunGuestAgainstDequeModel(true); }

// ---- First-touch walks --------------------------------------------------------

TEST(TouchRangeWalkTest, TouchRangeRestampsTheTouchingVcpusReplica) {
  const Topology topo = Topology::Amd48();
  ASSERT_EQ(topo.node_of_cpu(6), 1);
  ASSERT_EQ(topo.node_of_cpu(12), 2);
  Hypervisor hv(topo);
  DomainConfig dc;
  dc.name = "repl";
  dc.num_vcpus = 2;
  dc.memory_pages = 2048;
  dc.pinned_cpus = {6, 12};  // vCPU 0 on node 1 (the home), vCPU 1 on node 2
  dc.p2m_replication = true;  // round-4K: every page is mapped at creation
  const DomainId id = hv.CreateDomain(dc);
  const P2mTable& p2m = hv.domain(id).p2m();
  ASSERT_EQ(p2m.home_node(), 1);
  ASSERT_EQ(p2m.ReplicaCoverage(2), 0.0);
  GuestOs guest(hv, id);
  const int pid = guest.CreateProcess(1024);
  double cost = 0.0;
  guest.TouchRange(pid, 0, 1024, /*cpu=*/12, 1e-9, 1e-8, 1e-7, &cost, /*vcpu=*/1);
  EXPECT_GT(p2m.ReplicaCoverage(2), 0.0);
}

}  // namespace
}  // namespace xnuma
