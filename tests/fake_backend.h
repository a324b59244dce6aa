// In-memory PlacementBackend for policy unit tests: a flat page table over
// per-node capacities, no hypervisor involved.

#ifndef XENNUMA_TESTS_FAKE_BACKEND_H_
#define XENNUMA_TESTS_FAKE_BACKEND_H_

#include <map>
#include <vector>

#include "src/policy/placement_backend.h"

namespace xnuma {

class FakeBackend : public PlacementBackend {
 public:
  FakeBackend(int64_t pages, std::vector<NodeId> homes, int64_t frames_per_node, int num_nodes)
      : node_of_(pages, kInvalidNode),
        homes_(std::move(homes)),
        free_(num_nodes, frames_per_node) {}

  int64_t num_pages() const override { return static_cast<int64_t>(node_of_.size()); }
  const std::vector<NodeId>& home_nodes() const override { return homes_; }
  bool IsMapped(Pfn pfn) const override { return node_of_[pfn] != kInvalidNode; }
  NodeId NodeOf(Pfn pfn) const override { return node_of_[pfn]; }

  bool MapOnNode(Pfn pfn, NodeId node) override {
    if (IsMapped(pfn) || free_[node] <= 0) {
      return false;
    }
    node_of_[pfn] = node;
    --free_[node];
    return true;
  }

  bool MapRangeOnNode(Pfn first, int64_t count, NodeId node) override {
    if (free_[node] < count) {
      return false;
    }
    for (Pfn p = first; p < first + count; ++p) {
      if (IsMapped(p)) {
        return false;
      }
    }
    for (Pfn p = first; p < first + count; ++p) {
      node_of_[p] = node;
    }
    free_[node] -= count;
    ++range_maps_;
    return true;
  }

  bool Migrate(Pfn pfn, NodeId node) override {
    if (!IsMapped(pfn) || free_[node] <= 0) {
      return false;
    }
    ++free_[node_of_[pfn]];
    --free_[node];
    node_of_[pfn] = node;
    ++migrations_;
    return true;
  }

  void Invalidate(Pfn pfn) override {
    if (IsMapped(pfn)) {
      ++free_[node_of_[pfn]];
      node_of_[pfn] = kInvalidNode;
    }
  }

  std::map<NodeId, int64_t> NodeHistogram() const {
    std::map<NodeId, int64_t> hist;
    for (NodeId n : node_of_) {
      if (n != kInvalidNode) {
        ++hist[n];
      }
    }
    return hist;
  }

  int64_t migrations() const { return migrations_; }
  int64_t range_maps() const { return range_maps_; }

 private:
  std::vector<NodeId> node_of_;
  std::vector<NodeId> homes_;
  std::vector<int64_t> free_;
  int64_t migrations_ = 0;
  int64_t range_maps_ = 0;
};

}  // namespace xnuma

#endif  // XENNUMA_TESTS_FAKE_BACKEND_H_
