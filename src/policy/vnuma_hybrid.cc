#include "src/policy/vnuma_hybrid.h"

#include "src/common/check.h"
#include "src/policy/vnuma_layout.h"

namespace xnuma {

VnumaHybridPolicy::VnumaHybridPolicy(std::unique_ptr<NumaPolicy> base)
    : base_(std::move(base)) {
  XNUMA_CHECK(base_ != nullptr);
}

void VnumaHybridPolicy::Initialize(PlacementBackend& backend) {
  base_->Initialize(backend);
}

NodeId VnumaHybridPolicy::OnFirstTouch(PlacementBackend& backend, Pfn pfn,
                                       NodeId toucher_node) {
  if (!backend.guest_hints_active()) {
    return base_->OnFirstTouch(backend, pfn, toucher_node);
  }
  // Guest hint: the page belongs to the vnode owning its partition range,
  // and the guest expects it backed by that vnode's home node regardless of
  // who touches it first. Hypervisor override #1 is the fallback chain when
  // that node is out of memory; override #2 is Carrefour migrating the page
  // later if the hint turns out to be wrong.
  const auto& homes = backend.home_nodes();
  const int vnode = VnodeOfPfn(pfn, backend.num_pages(),
                               static_cast<int>(homes.size()));
  return MapWithFallback(backend, pfn, homes[vnode], &fallback_cursor_);
}

void VnumaHybridPolicy::OnRelease(PlacementBackend& backend, Pfn pfn) {
  base_->OnRelease(backend, pfn);
}

std::unique_ptr<NumaPolicy> MakePolicy(const PolicyConfig& config) {
  std::unique_ptr<NumaPolicy> base = MakePolicy(config.placement);
  if (!config.vnuma) {
    return base;
  }
  return std::make_unique<VnumaHybridPolicy>(std::move(base));
}

}  // namespace xnuma
