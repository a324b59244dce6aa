#include "src/admission/solver.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <numeric>

#include "src/common/check.h"

namespace xnuma {

const char* ToString(AdmissionDecision decision) {
  switch (decision) {
    case AdmissionDecision::kAdmit:
      return "admit";
    case AdmissionDecision::kDefer:
      return "defer";
    case AdmissionDecision::kReject:
      return "reject";
  }
  return "?";
}

bool operator==(const PlacementScore& a, const PlacementScore& b) {
  return a.neg_nodes_used == b.neg_nodes_used && a.free_cpu_total == b.free_cpu_total &&
         a.free_frame_total == b.free_frame_total &&
         a.neg_max_distance == b.neg_max_distance &&
         a.neg_balance_spread == b.neg_balance_spread &&
         a.contiguity_blocks == b.contiguity_blocks;
}

bool Better(const PlacementScore& a, const PlacementScore& b) {
  if (a.neg_nodes_used != b.neg_nodes_used) {
    return a.neg_nodes_used > b.neg_nodes_used;
  }
  if (a.free_cpu_total != b.free_cpu_total) {
    return a.free_cpu_total > b.free_cpu_total;
  }
  if (a.free_frame_total != b.free_frame_total) {
    return a.free_frame_total > b.free_frame_total;
  }
  if (a.neg_max_distance != b.neg_max_distance) {
    return a.neg_max_distance > b.neg_max_distance;
  }
  if (a.neg_balance_spread != b.neg_balance_spread) {
    return a.neg_balance_spread > b.neg_balance_spread;
  }
  return a.contiguity_blocks > b.contiguity_blocks;
}

PlacementScore ScoreCandidate(const Topology& topo, const std::vector<NodeId>& nodes,
                              const std::vector<NodeSpace>& spaces,
                              const std::vector<int>& free_cpus_per_node,
                              PageOrder preferred_order) {
  PlacementScore score;
  score.neg_nodes_used = -static_cast<int32_t>(nodes.size());
  int64_t min_frames = 0;
  int64_t max_frames = 0;
  int max_distance = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const NodeSpace& space = spaces[nodes[i]];
    score.free_cpu_total += free_cpus_per_node[nodes[i]];
    score.free_frame_total += space.free_frames;
    switch (preferred_order) {
      case PageOrder::k4K:
        score.contiguity_blocks += space.free_frames;
        break;
      case PageOrder::k2M:
        score.contiguity_blocks += space.blocks_2m;
        break;
      case PageOrder::k1G:
        score.contiguity_blocks += space.blocks_1g;
        break;
    }
    min_frames = i == 0 ? space.free_frames : std::min(min_frames, space.free_frames);
    max_frames = std::max(max_frames, space.free_frames);
    for (size_t j = 0; j < i; ++j) {
      max_distance = std::max(max_distance, topo.Distance(nodes[j], nodes[i]));
    }
  }
  score.neg_max_distance = -max_distance;
  score.neg_balance_spread = -(max_frames - min_frames);
  return score;
}

namespace {

// Keeps `candidate` in `result` when it is the best admit so far: a higher
// score, or an equal score with a lexicographically smaller node list.
void OfferCandidate(const std::vector<NodeId>& candidate, const PlacementScore& score,
                    AdmissionResult* result) {
  if (result->decision != AdmissionDecision::kAdmit || Better(score, result->score) ||
      (score == result->score && candidate < result->nodes)) {
    result->decision = AdmissionDecision::kAdmit;
    result->score = score;
    result->nodes = candidate;
  }
}

// The next larger mask with the same number of set bits (Gosper's hack):
// from (1 << k) - 1 it visits every k-subset in ascending mask order.
uint32_t NextCombination(uint32_t mask) {
  const uint32_t low = mask & (~mask + 1);
  const uint32_t ripple = mask + low;
  return ripple | (((mask ^ ripple) >> 2) / low);
}

}  // namespace

AdmissionSolver::AdmissionSolver(const Topology& topo, const FrameAllocator& frames)
    : topo_(&topo),
      frames_(&frames),
      spaces_(topo.num_nodes()),
      space_generation_(topo.num_nodes(), kStale),
      full_spaces_(topo.num_nodes()),
      full_space_generation_(topo.num_nodes(), kStale) {
  XNUMA_CHECK(topo.num_nodes() <= kMaxAdmissionNodes);
}

AdmissionResult AdmissionSolver::Solve(const AdmissionRequest& request,
                                       const std::vector<int>& free_cpus_per_node) const {
  const int n = topo_->num_nodes();
  XNUMA_CHECK(static_cast<int>(free_cpus_per_node.size()) == n);
  XNUMA_CHECK(request.num_vcpus > 0);
  XNUMA_CHECK(request.memory_pages >= 0);

  AdmissionResult result;
  // Permanent infeasibility: even an empty machine could not hold the
  // request. Everything else is at worst a defer — frames and pCPUs free up
  // as other domains churn away.
  if (request.memory_pages > frames_->total_frames() ||
      request.num_vcpus > topo_->num_cpus()) {
    result.decision = AdmissionDecision::kReject;
    return result;
  }

  RefreshSpaces(&spaces_, &space_generation_, &ComputeScoringSpace);
  result.decision = AdmissionDecision::kDefer;
  // A subset's free totals only grow as nodes join it, so no k-subset fits
  // below first_k, and none at all when the whole machine falls short: a
  // defer that evaluates no candidate. Otherwise the whole machine fits, so
  // both regimes admit by k = n.
  const int first_k = SmallestFittingCardinality(request, free_cpus_per_node);
  if (first_k > n) {
    return result;
  }
  if (n <= kMaxNodesExhaustive) {
    SolveExhaustive(request, free_cpus_per_node, first_k, &result);
  } else {
    SolveBeam(request, free_cpus_per_node, first_k, &result);
  }
  return result;
}

int AdmissionSolver::SmallestFittingCardinality(
    const AdmissionRequest& request, const std::vector<int>& free_cpus_per_node) const {
  const int n = topo_->num_nodes();
  int64_t cpus = 0;
  int64_t frames = 0;
  for (NodeId node = 0; node < n; ++node) {
    XNUMA_CHECK(free_cpus_per_node[node] >= 0);  // the prunes need totals that grow
    cpus += free_cpus_per_node[node];
    frames += spaces_[node].free_frames;
  }
  if (cpus < request.num_vcpus || frames < request.memory_pages) {
    return n + 1;
  }
  sorted_cpus_.assign(free_cpus_per_node.begin(), free_cpus_per_node.end());
  sorted_frames_.resize(n);
  for (NodeId node = 0; node < n; ++node) {
    sorted_frames_[node] = spaces_[node].free_frames;
  }
  std::sort(sorted_cpus_.begin(), sorted_cpus_.end(), std::greater<>());
  std::sort(sorted_frames_.begin(), sorted_frames_.end(), std::greater<>());
  int k = 0;
  cpus = 0;
  frames = 0;
  while (cpus < request.num_vcpus || frames < request.memory_pages) {
    cpus += sorted_cpus_[k];
    frames += sorted_frames_[k];
    ++k;
  }
  return std::max(k, 1);
}

const std::vector<NodeSpace>& AdmissionSolver::NodeSpaces() const {
  RefreshSpaces(&full_spaces_, &full_space_generation_, &ComputeNodeSpace);
  return full_spaces_;
}

void AdmissionSolver::RefreshSpaces(std::vector<NodeSpace>* cache,
                                    std::vector<uint64_t>* generations,
                                    NodeSpace (*compute)(const FrameAllocator&, NodeId)) const {
  // The Gudkov efficiency argument: candidates are scored from these
  // per-node summaries, never from a frame scan, and a summary is
  // recomputed only when its node's frames changed since the last solve.
  for (NodeId node = 0; node < topo_->num_nodes(); ++node) {
    const uint64_t generation = frames_->generation(node);
    if ((*generations)[node] != generation) {
      (*cache)[node] = compute(*frames_, node);
      (*generations)[node] = generation;
      if (space_refreshes_ != nullptr) {
        space_refreshes_->Increment();
      }
    }
  }
}

void AdmissionSolver::set_observability(Observability* obs) {
  space_refreshes_ =
      obs == nullptr ? nullptr
                     : obs->metrics().RegisterCounter(
                           "admission.space_refreshes", "nodes",
                           "Per-node free-extent summaries (NodeSpace) recomputed");
}

void AdmissionSolver::SolveExhaustive(const AdmissionRequest& request,
                                      const std::vector<int>& free_cpus_per_node, int first_k,
                                      AdmissionResult* result) const {
  const int n = topo_->num_nodes();
  const uint32_t end = uint32_t{1} << n;
  // Free-CPU and free-frame totals per node mask. A k-subset's totals are
  // those of the (k-1)-subset without its lowest node, which the previous
  // cardinality wrote, plus that node's; so a solve writes only the
  // entries of the cardinalities it visits, and sums the first one's
  // directly.
  mask_cpus_.resize(end);
  mask_frames_.resize(end);
  // Every visited k-subset counts as evaluated; only the ones that fit are
  // scored.
  for (int k = first_k; k <= n && result->decision != AdmissionDecision::kAdmit; ++k) {
    for (uint32_t mask = (uint32_t{1} << k) - 1; mask < end; mask = NextCombination(mask)) {
      if (k == first_k) {
        mask_cpus_[mask] = 0;
        mask_frames_[mask] = 0;
        for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
          mask_cpus_[mask] += free_cpus_per_node[std::countr_zero(bits)];
          mask_frames_[mask] += spaces_[std::countr_zero(bits)].free_frames;
        }
      } else {
        const int low = std::countr_zero(mask);
        const uint32_t rest = mask & (mask - 1);
        mask_cpus_[mask] = mask_cpus_[rest] + free_cpus_per_node[low];
        mask_frames_[mask] = mask_frames_[rest] + spaces_[low].free_frames;
      }
      ++result->candidates_evaluated;
      if (mask_cpus_[mask] < request.num_vcpus || mask_frames_[mask] < request.memory_pages) {
        continue;
      }
      candidate_.clear();
      for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
        candidate_.push_back(std::countr_zero(bits));
      }
      OfferCandidate(candidate_,
                     ScoreCandidate(*topo_, candidate_, spaces_, free_cpus_per_node,
                                    request.preferred_order),
                     result);
    }
  }
}

void AdmissionSolver::SolveBeam(const AdmissionRequest& request,
                                const std::vector<int>& free_cpus_per_node, int first_k,
                                AdmissionResult* result) const {
  const int n = topo_->num_nodes();
  // Legacy load order: most free pCPUs, then most free frames, then id.
  std::vector<NodeId> by_load(n);
  std::iota(by_load.begin(), by_load.end(), 0);
  std::sort(by_load.begin(), by_load.end(), [&](NodeId a, NodeId b) {
    if (free_cpus_per_node[a] != free_cpus_per_node[b]) {
      return free_cpus_per_node[a] > free_cpus_per_node[b];
    }
    if (spaces_[a].free_frames != spaces_[b].free_frames) {
      return spaces_[a].free_frames > spaces_[b].free_frames;
    }
    return a < b;
  });

  std::vector<NodeId> candidate;
  for (int k = first_k; k <= n && result->decision != AdmissionDecision::kAdmit; ++k) {
    // Candidate pool: the (k + kBeamWindow) least loaded nodes.
    std::vector<NodeId> pool(by_load.begin(), by_load.begin() + std::min(n, k + kBeamWindow));
    std::sort(pool.begin(), pool.end());
    const int p = static_cast<int>(pool.size());
    for (uint32_t mask = 1; mask < (uint32_t{1} << p); ++mask) {
      if (std::popcount(mask) != k) {
        continue;
      }
      candidate.clear();
      int cpu_total = 0;
      int64_t frame_total = 0;
      for (int i = 0; i < p; ++i) {
        if (mask & (uint32_t{1} << i)) {
          candidate.push_back(pool[i]);
          cpu_total += free_cpus_per_node[pool[i]];
          frame_total += spaces_[pool[i]].free_frames;
        }
      }
      ++result->candidates_evaluated;
      if (cpu_total < request.num_vcpus || frame_total < request.memory_pages) {
        continue;
      }
      OfferCandidate(candidate,
                     ScoreCandidate(*topo_, candidate, spaces_, free_cpus_per_node,
                                    request.preferred_order),
                     result);
    }
  }
}

}  // namespace xnuma
