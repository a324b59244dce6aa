#include "src/admission/solver.h"

#include <algorithm>

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

namespace {

// The aligned blocks of `order` a node's free extents still offer.
int64_t PreferredBlocks(const NodeSpace& space, PageOrder order) {
  switch (order) {
    case PageOrder::k4K:
      return space.free_frames;
    case PageOrder::k2M:
      return space.blocks_2m;
    case PageOrder::k1G:
      return space.blocks_1g;
  }
  return 0;
}

}  // namespace

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
    score.contiguity_blocks += PreferredBlocks(space, preferred_order);
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

AdmissionSolver::AdmissionSolver(const Topology& topo, const FrameAllocator& frames)
    : topo_(&topo),
      frames_(&frames),
      spaces_(topo.num_nodes()),
      space_generation_(topo.num_nodes(), kStale) {
  XNUMA_CHECK(topo.num_nodes() <= kMaxAdmissionNodes);
}

const AdmissionResult& AdmissionSolver::Solve(const AdmissionRequest& request,
                                              const std::vector<int>& free_cpus_per_node) const {
  const int n = topo_->num_nodes();
  XNUMA_CHECK(static_cast<int>(free_cpus_per_node.size()) == n);
  XNUMA_CHECK(request.num_vcpus > 0);
  XNUMA_CHECK(request.memory_pages >= 0);

  result_.nodes.clear();
  result_.score = PlacementScore{};
  result_.candidates_evaluated = 0;
  // Permanent infeasibility: even an empty machine could not hold the
  // request. Everything else is at worst a defer — frames and pCPUs free up
  // as other domains churn away.
  if (request.memory_pages > frames_->total_frames() ||
      request.num_vcpus > topo_->num_cpus()) {
    result_.decision = AdmissionDecision::kReject;
    return result_;
  }

  RefreshSpaces();
  BuildSuffixBounds(request, free_cpus_per_node);
  // Fewer nodes score better, so the first cardinality with a set that fits
  // holds the answer. A set's free totals only grow as nodes join it, so
  // the search's first cut passes over every k whose k largest free-CPU or
  // free-frame counts fall short without building a set; when the whole
  // machine falls short, that is every k: a defer. Otherwise the whole
  // machine fits, so the search admits by k = n.
  result_.decision = AdmissionDecision::kDefer;
  const Search search{request, free_cpus_per_node};
  for (int k = 1; k <= n && result_.decision != AdmissionDecision::kAdmit; ++k) {
    Extend(search, 0, k, PartialSet{});
  }
  return result_;
}

void AdmissionSolver::BuildSuffixBounds(const AdmissionRequest& request,
                                        const std::vector<int>& free_cpus_per_node) const {
  const int n = topo_->num_nodes();
  suffix_best_.resize(n * (n + 1));
  // Adds `count` to a column holding `size` counts, largest first.
  const auto insert = [](int64_t* column, int size, int64_t count) {
    int j = size;
    for (; j > 0 && column[j - 1] < count; --j) {
      column[j] = column[j - 1];
    }
    column[j] = count;
  };
  // Walking the nodes from the last, each count joins its column by
  // insertion, and row i sums the first r entries of every column.
  for (NodeId i = n - 1; i >= 0; --i) {
    XNUMA_CHECK(free_cpus_per_node[i] >= 0);  // the bounds need totals that grow
    const int size = n - 1 - i;  // entries already in each column
    insert(sorted_cpus_.data(), size, free_cpus_per_node[i]);
    insert(sorted_frames_.data(), size, spaces_[i].free_frames);
    insert(sorted_blocks_.data(), size, PreferredBlocks(spaces_[i], request.preferred_order));
    Sums sum;
    Sums* row = &suffix_best_[i * (n + 1)];
    for (int r = 1; r <= size + 1; ++r) {
      sum.cpus += sorted_cpus_[r - 1];
      sum.frames += sorted_frames_[r - 1];
      sum.blocks += sorted_blocks_[r - 1];
      row[r] = sum;
    }
  }
}

void AdmissionSolver::Extend(const Search& search, NodeId next, int remaining,
                             const PartialSet& set) const {
  const int n = topo_->num_nodes();
  const AdmissionRequest& request = search.request;
  for (NodeId node = next; node + remaining <= n; ++node) {
    // Every completion from here adds `remaining` nodes of node..n-1, so its
    // sums are at most the set's plus that suffix's largest counts, and its
    // diameter and frame spread at least the set's. The bound only falls as
    // `node` grows, so the first cut ends the loop. A completion can at best
    // tie the bound, and a tie loses to the incumbent, which came earlier
    // in lexicographic order.
    const Sums& top = suffix_best_[node * (n + 1) + remaining];
    if (set.sums.cpus + top.cpus < request.num_vcpus ||
        set.sums.frames + top.frames < request.memory_pages) {
      break;
    }
    if (result_.decision == AdmissionDecision::kAdmit) {
      PlacementScore bound = result_.score;
      bound.free_cpu_total = static_cast<int32_t>(set.sums.cpus + top.cpus);
      bound.free_frame_total = set.sums.frames + top.frames;
      bound.neg_max_distance = -set.diameter;
      bound.neg_balance_spread = -(set.max_frames - set.min_frames);
      bound.contiguity_blocks = set.sums.blocks + top.blocks;
      if (!Better(bound, result_.score)) {
        break;
      }
    }

    const NodeSpace& space = spaces_[node];
    PartialSet with = set;
    with.sums.cpus += search.free_cpus_per_node[node];
    with.sums.frames += space.free_frames;
    with.sums.blocks += PreferredBlocks(space, request.preferred_order);
    for (const NodeId member : candidate_) {
      with.diameter = std::max(with.diameter, topo_->Distance(member, node));
    }
    with.min_frames = candidate_.empty() ? space.free_frames
                                         : std::min(set.min_frames, space.free_frames);
    with.max_frames = std::max(set.max_frames, space.free_frames);
    candidate_.push_back(node);
    ++result_.candidates_evaluated;
    if (remaining > 1) {
      Extend(search, node + 1, remaining - 1, with);
    } else if (with.sums.cpus >= request.num_vcpus &&
               with.sums.frames >= request.memory_pages) {
      const PlacementScore score = ScoreCandidate(*topo_, candidate_, spaces_,
                                                  search.free_cpus_per_node,
                                                  request.preferred_order);
      if (result_.decision != AdmissionDecision::kAdmit || Better(score, result_.score)) {
        result_.decision = AdmissionDecision::kAdmit;
        result_.score = score;
        result_.nodes = candidate_;
      }
    }
    candidate_.pop_back();
  }
}

void AdmissionSolver::RefreshSpaces() const {
  // The Gudkov efficiency argument: candidates are scored from these
  // per-node summaries, never from a frame scan, and a summary is
  // recomputed only when its node's frames changed since the last solve.
  for (NodeId node = 0; node < topo_->num_nodes(); ++node) {
    const uint64_t generation = frames_->generation(node);
    if (space_generation_[node] != generation) {
      spaces_[node] = ComputeScoringSpace(*frames_, node);
      space_generation_[node] = generation;
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

}  // namespace xnuma
