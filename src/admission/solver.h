// Multi-tenant admission & placement solver (docs/MODEL.md §17).
//
// Given a domain request (vCPUs, memory pages, preferred page order) and
// the machine's live state (free-extent shape per node via
// available_space.h, free pCPUs per node from the hypervisor's
// reservations), the solver either
//  * admits — returns the best-scoring minimal node-set that fits,
//  * defers — nothing fits *now*, but the machine could fit it after churn
//    frees resources, or
//  * rejects — the request exceeds the machine itself (never spurious: a
//    reject is provably permanent, which the property tests cross-check
//    against a brute-force subset enumeration).
//
// The placement objective is an exact lexicographic integer score
// (PlacementScore): no floating-point fuzz. One depth-first branch and
// bound finds its optimum on every machine width; its cuts only drop
// branches that cannot beat the best set so far, so it and the
// brute-force reference solver (reference_solver.h) can be required to
// agree *exactly* — the differential test battery's contract.

#ifndef XENNUMA_SRC_ADMISSION_SOLVER_H_
#define XENNUMA_SRC_ADMISSION_SOLVER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/admission/available_space.h"
#include "src/common/types.h"
#include "src/mm/frame_allocator.h"
#include "src/numa/topology.h"
#include "src/obs/obs.h"

namespace xnuma {

struct AdmissionRequest {
  int num_vcpus = 1;
  int64_t memory_pages = 0;
  // Contiguity objective: score candidates by how many naturally-aligned
  // blocks of this order their free extents still offer, so huge-page P2M
  // orders survive placement. k4K makes the contiguity term vacuous (every
  // free frame is an aligned 4K block).
  PageOrder preferred_order = PageOrder::k4K;
};

enum class AdmissionDecision { kAdmit, kDefer, kReject };

const char* ToString(AdmissionDecision decision);

// Exact placement-quality score. Compared lexicographically, field by
// field, in declaration order; higher is better throughout (penalties are
// stored negated). The first three fields reproduce the legacy
// PackHomeNodes preference the packing tests pin — fewest nodes, then the
// least loaded ones — so the solver is a byte-for-byte drop-in there; the
// remaining fields break ties the legacy greedy left to chance.
struct PlacementScore {
  int32_t neg_nodes_used = 0;      // fewer nodes better
  int32_t free_cpu_total = 0;      // more unreserved pCPUs better
  int64_t free_frame_total = 0;    // more free frames better
  int32_t neg_max_distance = 0;    // tighter hop diameter better (locality)
  int64_t neg_balance_spread = 0;  // smaller free-frame max-min spread better
  int64_t contiguity_blocks = 0;   // more aligned preferred-order blocks better
};

bool operator==(const PlacementScore& a, const PlacementScore& b);
inline bool operator!=(const PlacementScore& a, const PlacementScore& b) {
  return !(a == b);
}
// True when `a` is strictly better than `b`.
bool Better(const PlacementScore& a, const PlacementScore& b);

struct AdmissionResult {
  AdmissionDecision decision = AdmissionDecision::kReject;
  // Admitted placement, ascending node ids; empty unless kAdmit. Ties in
  // score resolve to the lexicographically smallest node list, so the
  // result is a pure function of machine state.
  std::vector<NodeId> nodes;
  PlacementScore score{};
  // Node sets the search built, partial or complete (admission.candidates).
  int64_t candidates_evaluated = 0;
};

// Scores one candidate node-set from per-node availability summaries.
// Shared verbatim by the fast solver and the brute-force reference — the
// two may only differ in *which* candidates they enumerate and how the
// NodeSpace summaries were obtained. It reads only each node's
// free_frames, blocks_2m and blocks_1g (ComputeScoringSpace's fields).
PlacementScore ScoreCandidate(const Topology& topo, const std::vector<NodeId>& nodes,
                              const std::vector<NodeSpace>& spaces,
                              const std::vector<int>& free_cpus_per_node,
                              PageOrder preferred_order);

// The search builds node sets one node at a time, so its representation
// sets no width limit; this one bounds its worst case. On an empty machine
// every node looks alike to the sum bounds, and only a set's hop diameter
// cuts it, once the set spans the incumbent's. The slowest such solve took
// 20-60 ms at 29-31 nodes on a 4-core x86 host, and about 1.6x more per
// node beyond: 0.6 s at 40 nodes and 3.6 s at 44 with the limit lifted
// (docs/MODEL.md §17).
inline constexpr int kMaxAdmissionNodes = 31;

class AdmissionSolver {
 public:
  AdmissionSolver(const Topology& topo, const FrameAllocator& frames);

  // `free_cpus_per_node[n]` = unreserved pCPUs on node n (the hypervisor's
  // reservation table; tests may synthesize it). Deterministic: same
  // machine state, same result. The result lives in the solver and holds
  // until the next call, so a solve allocates nothing once its node list
  // has grown to the largest set admitted. Not safe to call concurrently
  // on one solver: it refreshes the solver's cached per-node summaries.
  const AdmissionResult& Solve(const AdmissionRequest& request,
                               const std::vector<int>& free_cpus_per_node) const;

  // Optional metric admission.space_refreshes (per-node summaries
  // recomputed by solves). nullptr detaches.
  void set_observability(Observability* obs);

 private:
  // Free CPUs, free frames and preferred-order blocks summed over a node set.
  struct Sums {
    int64_t cpus = 0;
    int64_t frames = 0;
    int64_t blocks = 0;
  };
  // A node set the search is building (its nodes are in candidate_): its
  // sums, and the hop diameter and free-frame range that only widen as
  // nodes join it.
  struct PartialSet {
    Sums sums;
    int diameter = 0;
    int64_t min_frames = 0;
    int64_t max_frames = 0;
  };
  // One solve's inputs, shared by every level of the search.
  struct Search {
    const AdmissionRequest& request;
    const std::vector<int>& free_cpus_per_node;
  };

  // Brings spaces_ up to date: recomputes exactly the nodes whose
  // allocator generation moved since their last computation.
  void RefreshSpaces() const;
  // Fills suffix_best_ from spaces_ and the free-CPU counts.
  void BuildSuffixBounds(const AdmissionRequest& request,
                         const std::vector<int>& free_cpus_per_node) const;
  // Adds `remaining` more nodes from `next` on to `set`, in ascending id
  // order and each node included before it is skipped, and offers every
  // completed set that fits to result_.
  void Extend(const Search& search, NodeId next, int remaining, const PartialSet& set) const;

  const Topology* topo_;
  const FrameAllocator* frames_;
  // Per-node available-space cache (docs/MODEL.md §17): spaces_[n] equals
  // ComputeScoringSpace(*frames_, n), what a solve scores from, whenever
  // space_generation_[n] == frames_->generation(n). kStale marks a node
  // never computed.
  static constexpr uint64_t kStale = ~uint64_t{0};
  mutable std::vector<NodeSpace> spaces_;
  mutable std::vector<uint64_t> space_generation_;
  Counter* space_refreshes_ = nullptr;
  // Search scratch and the answer, reused across solves.
  // suffix_best_[i * (n + 1) + r] holds the sums of the r largest free-CPU,
  // free-frame and block counts among nodes i..n-1, each taken separately;
  // the three sorted_ columns keep those counts of the suffix being added,
  // largest first, while it is built.
  mutable std::vector<Sums> suffix_best_;
  mutable std::array<int64_t, kMaxAdmissionNodes> sorted_cpus_{};
  mutable std::array<int64_t, kMaxAdmissionNodes> sorted_frames_{};
  mutable std::array<int64_t, kMaxAdmissionNodes> sorted_blocks_{};
  mutable std::vector<NodeId> candidate_;
  mutable AdmissionResult result_;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_ADMISSION_SOLVER_H_
