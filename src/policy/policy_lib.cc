#include <memory>

#include "src/common/check.h"
#include "src/policy/first_touch.h"
#include "src/policy/numa_policy.h"
#include "src/policy/round_robin.h"

namespace xnuma {

NodeId MapWithFallback(PlacementBackend& backend, Pfn pfn, NodeId preferred, int* rr_cursor) {
  XNUMA_CHECK(rr_cursor != nullptr);
  if (backend.IsMapped(pfn)) {
    return backend.NodeOf(pfn);
  }
  if (preferred != kInvalidNode && backend.MapOnNode(pfn, preferred)) {
    return preferred;
  }
  const auto& homes = backend.home_nodes();
  for (size_t attempt = 0; attempt < homes.size(); ++attempt) {
    const NodeId node = homes[*rr_cursor % static_cast<int>(homes.size())];
    *rr_cursor = (*rr_cursor + 1) % static_cast<int>(homes.size());
    if (node == preferred) {
      continue;
    }
    if (backend.MapOnNode(pfn, node)) {
      return node;
    }
  }
  return kInvalidNode;
}

int64_t PlacementBackend::MapRoundRobin(Pfn first, int64_t count, int cursor, Pfn* next) {
  const std::vector<NodeId>& homes = home_nodes();
  const int64_t num_homes = static_cast<int64_t>(homes.size());
  int64_t placed = 0;
  for (Pfn pfn = first; pfn < first + count; ++pfn) {
    if (IsMapped(pfn)) {
      continue;
    }
    if (!MapOnNode(pfn, homes[(cursor + placed) % num_homes])) {
      *next = pfn;
      return placed;
    }
    ++placed;
  }
  *next = first + count;
  return placed;
}

std::unique_ptr<NumaPolicy> MakePolicy(StaticPolicy kind) {
  switch (kind) {
    case StaticPolicy::kFirstTouch:
      return std::make_unique<FirstTouchPolicy>();
    case StaticPolicy::kRound4k:
      return std::make_unique<Round4kPolicy>();
    case StaticPolicy::kRound1g:
      return std::make_unique<Round1gPolicy>();
  }
  XNUMA_CHECK(false);
  return nullptr;
}

}  // namespace xnuma
