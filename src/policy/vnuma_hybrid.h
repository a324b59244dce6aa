// Hybrid guest-hint placement (docs/VNUMA.md §5): a transparent wrapper
// around a base static policy that honours the vNUMA address-space partition
// once — and only once — the guest has fetched its topology tables.
//
// Before the guest fetches (backend.guest_hints_active() == false) every
// call delegates to the base policy byte-for-byte, so a domain configured
// with `vnuma` whose guest never asks for the topology behaves exactly like
// the paper's hypervisor-only baseline (enforced by
// tests/vnuma_differential_test.cc). Once hints are live, a first-touch
// fault maps the page on its partition vnode's home node; the hypervisor
// keeps two overrides: the fallback chain when that node is full
// (MapWithFallback), and Carrefour migrating pages away afterwards.

#ifndef XENNUMA_SRC_POLICY_VNUMA_HYBRID_H_
#define XENNUMA_SRC_POLICY_VNUMA_HYBRID_H_

#include <memory>

#include "src/policy/numa_policy.h"

namespace xnuma {

class VnumaHybridPolicy : public NumaPolicy {
 public:
  explicit VnumaHybridPolicy(std::unique_ptr<NumaPolicy> base);

  StaticPolicy kind() const override { return base_->kind(); }
  void Initialize(PlacementBackend& backend) override;
  bool traps_releases() const override { return base_->traps_releases(); }
  NodeId OnFirstTouch(PlacementBackend& backend, Pfn pfn, NodeId toucher_node) override;
  void OnRelease(PlacementBackend& backend, Pfn pfn) override;

  const NumaPolicy* base() const { return base_.get(); }

 private:
  std::unique_ptr<NumaPolicy> base_;
  int fallback_cursor_ = 0;  // round-robin state for MapWithFallback
};

// Builds the policy for `config`: the base static policy, wrapped in the
// vNUMA hybrid when config.vnuma is set.
std::unique_ptr<NumaPolicy> MakePolicy(const PolicyConfig& config);

}  // namespace xnuma

#endif  // XENNUMA_SRC_POLICY_VNUMA_HYBRID_H_
