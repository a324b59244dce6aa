#include "src/policy/first_touch.h"

namespace xnuma {

void FirstTouchPolicy::Initialize(PlacementBackend& backend) {
  // Nothing to do: pages start unmapped, so the first access of each page
  // already traps. On a *runtime* switch to first-touch, live mappings are
  // deliberately left alone — invalidating an in-use page would discard its
  // contents. The trap re-arms page by page as the guest releases memory and
  // reports it through the page-queue hypercall (§4.2.3).
  (void)backend;
}

NodeId FirstTouchPolicy::OnFirstTouch(PlacementBackend& backend, Pfn pfn, NodeId toucher_node) {
  return MapWithFallback(backend, pfn, toucher_node, &fallback_cursor_);
}

}  // namespace xnuma
