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
// (PlacementScore): no floating-point fuzz, so the fast path and the
// brute-force reference solver (reference_solver.h) can be required to
// agree *exactly* — the differential test battery's contract.

#ifndef XENNUMA_SRC_ADMISSION_SOLVER_H_
#define XENNUMA_SRC_ADMISSION_SOLVER_H_

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

// Up to this many nodes, every subset of each cardinality is evaluated (the
// machine sizes this repo models: <= 2^12 subsets, microseconds). Beyond it
// the solver searches a beam: k-node subsets are drawn from the best
// (k + kBeamWindow) nodes by legacy load order.
inline constexpr int kMaxNodesExhaustive = 12;
inline constexpr int kBeamWindow = 4;
// Node sets are uint32_t masks, and the beam shifts 1 by up to the node
// count, so the solver takes machines of at most this many nodes.
inline constexpr int kMaxAdmissionNodes = 31;

class AdmissionSolver {
 public:
  AdmissionSolver(const Topology& topo, const FrameAllocator& frames);

  // `free_cpus_per_node[n]` = unreserved pCPUs on node n (the hypervisor's
  // reservation table; tests may synthesize it). Deterministic: same
  // machine state, same result. Not safe to call concurrently on one
  // solver: it refreshes the solver's cached per-node summaries.
  AdmissionResult Solve(const AdmissionRequest& request,
                        const std::vector<int>& free_cpus_per_node) const;

  // Every node's NodeSpace, equal to ComputeNodeSpace(frames, n), from a
  // cache that re-walks only the nodes whose frames moved since it last
  // looked (solves score from a cheaper cache of their own).
  const std::vector<NodeSpace>& NodeSpaces() const;

  // Optional metric admission.space_refreshes (NodeSpaces recomputed).
  // nullptr detaches.
  void set_observability(Observability* obs);

 private:
  // Brings `cache` up to date: re-runs `compute` for exactly the nodes
  // whose allocator generation moved since their last computation.
  void RefreshSpaces(std::vector<NodeSpace>* cache, std::vector<uint64_t>* generations,
                     NodeSpace (*compute)(const FrameAllocator&, NodeId)) const;
  // The smallest k for which the k largest free-CPU counts and the k
  // largest free-frame counts can both hold the request, or n + 1 when the
  // whole machine cannot.
  int SmallestFittingCardinality(const AdmissionRequest& request,
                                 const std::vector<int>& free_cpus_per_node) const;
  // Both search cardinalities first_k, first_k + 1, ... until one admits.
  void SolveExhaustive(const AdmissionRequest& request,
                       const std::vector<int>& free_cpus_per_node, int first_k,
                       AdmissionResult* result) const;
  void SolveBeam(const AdmissionRequest& request, const std::vector<int>& free_cpus_per_node,
                 int first_k, AdmissionResult* result) const;

  const Topology* topo_;
  const FrameAllocator* frames_;
  // Per-node available-space caches (docs/MODEL.md §17): spaces_[n]
  // equals ComputeScoringSpace(*frames_, n), what a solve scores from,
  // whenever space_generation_[n] == frames_->generation(n); full_spaces_
  // holds ComputeNodeSpace the same way, for NodeSpaces(). kStale marks a
  // node never computed.
  static constexpr uint64_t kStale = ~uint64_t{0};
  mutable std::vector<NodeSpace> spaces_;
  mutable std::vector<uint64_t> space_generation_;
  mutable std::vector<NodeSpace> full_spaces_;
  mutable std::vector<uint64_t> full_space_generation_;
  Counter* space_refreshes_ = nullptr;
  // Exhaustive-regime scratch, reused across solves: free-CPU and
  // free-frame totals per node mask, and the node list being scored.
  mutable std::vector<int> mask_cpus_;
  mutable std::vector<int64_t> mask_frames_;
  mutable std::vector<NodeId> candidate_;
  // Free-CPU and free-frame counts per node, largest first.
  mutable std::vector<int> sorted_cpus_;
  mutable std::vector<int64_t> sorted_frames_;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_ADMISSION_SOLVER_H_
