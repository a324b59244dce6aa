// Admission solver answers on the machines the batteries in
// admission_property_test and admission_differential_test do not reach
// (docs/MODEL.md §17):
//
//  * the paper's 8-node AMD48 under bench/extra_churn's 20k-event trace,
//    whose admission tallies and placement digest are pinned, and whose
//    solver work (the admission.candidates and admission.space_refreshes
//    totals) may not grow past the values recorded for the search;
//  * the hypervisor's long-lived solver, whose per-node NodeSpace cache
//    sees every allocator mutation of a live churn replay, against the
//    brute-force ReferenceSolve before every arrival;
//  * 13-16-node synthetic machines, where the search must still equal
//    ReferenceSolve exactly;
//  * the exact prunes: a machine that falls short defers without building
//    a node set, and the search starts at the smallest cardinality whose
//    largest nodes could fit;
//  * 31-node machines, empty and loaded, asked for every cardinality: every
//    admit fits and the search's work stays under a recorded ceiling.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "src/admission/churn_runner.h"
#include "src/admission/reference_solver.h"
#include "src/admission/solver.h"
#include "src/common/rng.h"
#include "src/core/experiment.h"
#include "src/hv/hypervisor.h"
#include "src/mm/frame_allocator.h"
#include "src/numa/topology.h"
#include "src/obs/obs.h"
#include "src/workload/churn.h"

namespace xnuma {
namespace {

// bench/extra_churn's trace: heavy-tailed tenants of up to 16 GiB on AMD48.
ChurnSpec ExtraChurnSpec() {
  ChurnSpec spec;
  spec.seed = 4817;
  spec.num_events = 20000;
  spec.target_live_domains = 40;
  spec.min_pages = 8;
  spec.max_pages = 4096;
  spec.max_vcpus = 12;
  spec.huge_page_fraction = 0.3;
  return spec;
}

int64_t CounterTotal(const Observability& obs, const std::string& name) {
  for (const MetricSnapshot& m : obs.metrics().Snapshot()) {
    if (m.name == name) {
      return m.count;
    }
  }
  ADD_FAILURE() << "no metric " << name;
  return 0;
}

TEST(AdmissionPinnedTest, ExtraChurnAnswersArePinned) {
  Observability obs;
  ChurnScenarioConfig config;
  config.amd48 = true;
  config.spec = ExtraChurnSpec();
  config.obs = &obs;
  const ChurnReport report = RunChurnScenario(config);
  EXPECT_EQ(report.events, 20000);
  EXPECT_EQ(report.admitted, 6808);
  EXPECT_EQ(report.deferred, 229);
  EXPECT_EQ(report.rejected, 0);
  EXPECT_EQ(report.placement_digest, 0xb991984c563a62ecull);
  // Exact work counters, recorded for the branch-and-bound search: the same
  // answers must not cost more node sets or more summary refreshes.
  EXPECT_LE(CounterTotal(obs, "admission.candidates"), 75315);
  EXPECT_LE(CounterTotal(obs, "admission.space_refreshes"), 18681);
}

TEST(AdmissionLiveDifferentialTest, HypervisorSolverMatchesReferenceOnAmd48Churn) {
  const Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  ChurnRunner runner(hv);
  ChurnSpec spec = ExtraChurnSpec();
  spec.num_events = 4000;
  const DomainConfig tmpl;
  int64_t arrivals = 0;
  int64_t admits = 0;
  for (const ChurnEvent& ev : GenerateChurnTrace(spec)) {
    if (ev.kind == ChurnEvent::Kind::kArrive) {
      AdmissionRequest request;
      request.num_vcpus = ev.num_vcpus;
      request.memory_pages = ev.pages;
      request.preferred_order = ev.preferred_order;
      const AdmissionResult live = hv.AdmitDomain(request).result;
      const AdmissionResult ref =
          ReferenceSolve(topo, hv.frames(), request, hv.FreeCpusPerNode());
      ASSERT_EQ(live.decision, ref.decision) << "arrival " << arrivals;
      ASSERT_EQ(live.nodes, ref.nodes) << "arrival " << arrivals;
      ASSERT_EQ(live.score, ref.score) << "arrival " << arrivals;
      ++arrivals;
      admits += live.decision == AdmissionDecision::kAdmit ? 1 : 0;
    }
    // One event at a time: live domains carry over between Run calls.
    runner.Run({ev}, tmpl);
  }
  EXPECT_GT(arrivals, 1000);
  EXPECT_GT(admits, arrivals / 2);
  EXPECT_LT(admits, arrivals);  // some arrivals were deferred
}

// A random allocator history on `topo`: single frames, contiguous runs and
// frees spread over every node.
void Churn(Rng& rng, FrameAllocator& frames, std::vector<Mfn>& held, int ops) {
  const int nodes = frames.num_nodes();
  for (int i = 0; i < ops; ++i) {
    const NodeId node = static_cast<NodeId>(rng.NextInt(nodes));
    switch (rng.NextInt(3)) {
      case 0: {
        const Mfn mfn = frames.AllocOnNode(node);
        if (mfn != kInvalidMfn) {
          held.push_back(mfn);
        }
        break;
      }
      case 1: {
        const int64_t count = 1 + rng.NextInt(16);
        const Mfn first = frames.AllocContiguous(node, count);
        if (first != kInvalidMfn) {
          for (int64_t f = 0; f < count; ++f) {
            held.push_back(first + f);
          }
        }
        break;
      }
      default: {
        if (!held.empty()) {
          const size_t idx = static_cast<size_t>(rng.NextInt(held.size()));
          frames.Free(held[idx]);
          held[idx] = held.back();
          held.pop_back();
        }
        break;
      }
    }
  }
}

TEST(AdmissionWideTest, WideMachinesAdmitFitRejectExactlyAndRepeat) {
  int decisions[3] = {0, 0, 0};  // indexed by AdmissionDecision
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    const int n = 13 + static_cast<int>(seed % 4);
    const int cpus = 1 + static_cast<int>(rng.NextInt(4));
    const int64_t frames_per_node = 32 + rng.NextInt(96);
    const Topology topo = Topology::Synthetic(n, cpus, frames_per_node * (4ll << 20));
    FrameAllocator frames(topo, 4ll << 20);
    // Lives across every mutation below, so its NodeSpace cache must follow.
    const AdmissionSolver solver(topo, frames);
    std::vector<Mfn> held;
    for (int round = 0; round < 4; ++round) {
      Churn(rng, frames, held, static_cast<int>(rng.NextInt(200)));
      std::vector<int> free_cpus(n);
      for (int& c : free_cpus) {
        c = static_cast<int>(rng.NextInt(cpus + 1));
      }
      for (int probe = 0; probe < 6; ++probe) {
        AdmissionRequest request;
        request.num_vcpus = 1 + static_cast<int>(rng.NextInt(topo.num_cpus() + 3));
        request.memory_pages = 1 + rng.NextInt(frames.total_frames() + 64);
        const int64_t order_roll = rng.NextInt(3);
        request.preferred_order = order_roll == 0   ? PageOrder::k4K
                                  : order_roll == 1 ? PageOrder::k2M
                                                    : PageOrder::k1G;
        const AdmissionResult result = solver.Solve(request, free_cpus);
        ++decisions[static_cast<int>(result.decision)];
        const AdmissionResult ref = ReferenceSolve(topo, frames, request, free_cpus);
        ASSERT_EQ(result.decision, ref.decision) << "seed " << seed << " round " << round;
        ASSERT_EQ(result.nodes, ref.nodes) << "seed " << seed << " round " << round;
        ASSERT_EQ(result.score, ref.score) << "seed " << seed << " round " << round;

        // Reject iff even the bare machine is too small.
        const bool exceeds_machine = request.memory_pages > frames.total_frames() ||
                                     request.num_vcpus > topo.num_cpus();
        ASSERT_EQ(result.decision == AdmissionDecision::kReject, exceeds_machine)
            << "seed " << seed << " round " << round;

        // An admit fits its node-set, counted frame by frame.
        if (result.decision == AdmissionDecision::kAdmit) {
          ASSERT_FALSE(result.nodes.empty());
          int64_t frame_total = 0;
          int cpu_total = 0;
          NodeId prev = kInvalidNode;
          for (const NodeId node : result.nodes) {
            ASSERT_GT(node, prev) << "nodes not strictly ascending, seed " << seed;
            prev = node;
            frame_total += RecountNodeSpace(frames, node).free_frames;
            cpu_total += free_cpus[node];
          }
          ASSERT_GE(frame_total, request.memory_pages) << "seed " << seed;
          ASSERT_GE(cpu_total, request.num_vcpus) << "seed " << seed;
        }

        // Same state, same result: asking again, and asking a solver with
        // no cached state, changes nothing.
        const AdmissionResult again = solver.Solve(request, free_cpus);
        const AdmissionResult fresh = AdmissionSolver(topo, frames).Solve(request, free_cpus);
        for (const AdmissionResult* other : {&again, &fresh}) {
          ASSERT_EQ(other->decision, result.decision) << "seed " << seed;
          ASSERT_EQ(other->nodes, result.nodes) << "seed " << seed;
          ASSERT_EQ(other->score, result.score) << "seed " << seed;
          ASSERT_EQ(other->candidates_evaluated, result.candidates_evaluated)
              << "seed " << seed;
        }
      }
    }
  }
  // The probes reached all three verdicts.
  EXPECT_GT(decisions[static_cast<int>(AdmissionDecision::kAdmit)], 0);
  EXPECT_GT(decisions[static_cast<int>(AdmissionDecision::kDefer)], 0);
  EXPECT_GT(decisions[static_cast<int>(AdmissionDecision::kReject)], 0);
}

// A request the machine cannot hold now, though an empty machine could,
// defers without building a node set, on a narrow and a wide machine; the
// brute-force reference agrees that nothing fits.
TEST(AdmissionPruneTest, ShortMachineDefersWithoutCandidates) {
  for (const int n : {8, 14}) {
    const Topology topo = Topology::Synthetic(n, 2, 64 * (4ll << 20));
    FrameAllocator frames(topo, 4ll << 20);
    for (int i = 0; i < 40; ++i) {
      ASSERT_NE(frames.AllocOnNode(static_cast<NodeId>(i % n)), kInvalidMfn);
    }
    const AdmissionSolver solver(topo, frames);
    const std::vector<int> free_cpus(n, 1);  // one of each node's two pCPUs reserved
    AdmissionRequest cpu_short;
    cpu_short.num_vcpus = n + 1;
    cpu_short.memory_pages = 1;
    AdmissionRequest frame_short;
    frame_short.num_vcpus = 1;
    frame_short.memory_pages = frames.total_frames() - 40 + 1;
    for (const AdmissionRequest& request : {cpu_short, frame_short}) {
      const AdmissionResult result = solver.Solve(request, free_cpus);
      EXPECT_EQ(result.decision, AdmissionDecision::kDefer) << n << " nodes";
      EXPECT_EQ(result.candidates_evaluated, 0) << n << " nodes";
      EXPECT_EQ(ReferenceSolve(topo, frames, request, free_cpus).decision,
                AdmissionDecision::kDefer);
    }
  }
}

// A request no two nodes can hold is searched from three-node sets on. On
// the empty machine the first set, {0, 1, 2}, already has the best score,
// and the bound cuts a branch only once its set spans the incumbent's hop
// diameter, which takes two nodes. So the search builds the six one-node
// sets {0}..{5} that can still grow to three nodes, the 21 two-node sets
// they grow into, and {0, 1, 2}: 28 node sets, and it admits the
// reference's answer.
TEST(AdmissionPruneTest, SearchStartsAtTheSmallestCardinalityThatCanFit) {
  const Topology topo = Topology::Synthetic(8, 2, 64 * (4ll << 20));
  FrameAllocator frames(topo, 4ll << 20);
  const AdmissionSolver solver(topo, frames);
  const std::vector<int> free_cpus(8, 2);
  AdmissionRequest request;
  request.num_vcpus = 5;
  request.memory_pages = 16;
  const AdmissionResult result = solver.Solve(request, free_cpus);
  const AdmissionResult ref = ReferenceSolve(topo, frames, request, free_cpus);
  ASSERT_EQ(result.decision, AdmissionDecision::kAdmit);
  EXPECT_EQ(result.nodes, ref.nodes);
  EXPECT_EQ(result.score, ref.score);
  EXPECT_EQ(result.nodes.size(), 3u);
  EXPECT_EQ(result.candidates_evaluated, 28);
}

// The widest machine the solver takes, asked at every cardinality k: an
// empty one for 4(k - 1) + 1 vCPUs, and loaded ones (random free pCPUs and
// free frames per node) for one more vCPU, or one more frame, than the k - 1
// largest nodes hold. Equally loaded nodes are what the bounds separate
// worst, so the empty machine sets the ceiling; the loaded ones build far
// fewer sets.
TEST(AdmissionWideTest, ThirtyOneNodesStayUnderTheWorkCeiling) {
  constexpr int kNodes = kMaxAdmissionNodes;
  const Topology topo = Topology::Synthetic(kNodes, 4, 256ll << 20);
  int64_t total = 0;
  int64_t worst = 0;
  int admits = 0;
  const auto solve = [&](const FrameAllocator& frames, const AdmissionSolver& solver,
                         const AdmissionRequest& request, const std::vector<int>& free_cpus) {
    const AdmissionResult result = solver.Solve(request, free_cpus);
    total += result.candidates_evaluated;
    worst = std::max(worst, result.candidates_evaluated);
    if (result.decision != AdmissionDecision::kAdmit) {
      return;
    }
    ++admits;
    int64_t frame_total = 0;
    int cpu_total = 0;
    for (const NodeId node : result.nodes) {
      frame_total += RecountNodeSpace(frames, node).free_frames;
      cpu_total += free_cpus[node];
    }
    EXPECT_GE(frame_total, request.memory_pages);
    EXPECT_GE(cpu_total, request.num_vcpus);
  };

  {
    FrameAllocator frames(topo, 4ll << 20);
    const AdmissionSolver solver(topo, frames);
    const std::vector<int> free_cpus(kNodes, 4);
    for (int k = 1; k <= kNodes; ++k) {
      AdmissionRequest request;
      request.num_vcpus = 4 * (k - 1) + 1;
      request.memory_pages = 1;
      solve(frames, solver, request, free_cpus);
    }
  }
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Rng rng(seed);
    FrameAllocator frames(topo, 4ll << 20);
    const AdmissionSolver solver(topo, frames);
    std::vector<int> free_cpus(kNodes);
    std::vector<int> cpus_desc(kNodes);
    std::vector<int64_t> frames_desc(kNodes);
    for (NodeId node = 0; node < kNodes; ++node) {
      free_cpus[node] = static_cast<int>(rng.NextInt(5));
      const int64_t used = rng.NextInt(frames.FreeFrames(node) * 9 / 10 + 1);
      for (int64_t f = 0; f < used; ++f) {
        ASSERT_NE(frames.AllocOnNode(node), kInvalidMfn);
      }
      cpus_desc[node] = free_cpus[node];
      frames_desc[node] = frames.FreeFrames(node);
    }
    std::sort(cpus_desc.begin(), cpus_desc.end(), std::greater<>());
    std::sort(frames_desc.begin(), frames_desc.end(), std::greater<>());
    int cpus_below = 0;  // held by the k - 1 largest nodes
    int64_t frames_below = 0;
    for (int k = 1; k <= kNodes; ++k) {
      AdmissionRequest cpu_bound;
      cpu_bound.num_vcpus = cpus_below + 1;
      cpu_bound.memory_pages = 1;
      AdmissionRequest frame_bound;
      frame_bound.num_vcpus = 1;
      frame_bound.memory_pages = frames_below + 1;
      frame_bound.preferred_order = k % 2 == 0 ? PageOrder::k2M : PageOrder::k4K;
      for (const AdmissionRequest& request : {cpu_bound, frame_bound}) {
        solve(frames, solver, request, free_cpus);
      }
      cpus_below += cpus_desc[k - 1];
      frames_below += frames_desc[k - 1];
    }
  }
  EXPECT_GT(admits, kNodes);
  // The recorded work: the widest solve (the empty machine at k = 16) and
  // the sum over every solve here.
  EXPECT_LE(worst, 838984);
  EXPECT_LE(total, 4914048);
}

}  // namespace
}  // namespace xnuma
