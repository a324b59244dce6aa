// Automatic NUMA policy selection — the paper's closing open problem (§7:
// "automatically selecting the most efficient NUMA policy in an hypervisor
// ... remains an open subject").
//
// The controller operationalizes the paper's own analysis (§3.5.2) using
// only information the hypervisor can observe online:
//
//   * the fraction of sampled hot pages with a single dominant source node
//     ("partitionable share") distinguishes owner-local access patterns
//     (first-touch territory) from genuinely shared ones;
//   * memory-controller imbalance and interconnect load distinguish the
//     "high"/"moderate" classes that need balancing or dynamic migration.
//
// Decision procedure, evaluated once per window on a domain that boots with
// the default round-4K policy (§4.2.1):
//
//   1. partitionable share >= threshold  -> the pages have clear owners:
//      enable Carrefour (its migration heuristic localizes them) and switch
//      the placement policy to first-touch so reallocated pages start local
//      — unless the domain uses PCI passthrough, where first-touch is
//      impossible (§4.4.1) and round-4K/Carrefour is chosen instead;
//   2. controllers or interconnect loaded -> keep round-4K, enable
//      Carrefour (the "high" class);
//   3. machine quiet and pages localized -> disable Carrefour to save the
//      monitoring tax (the paper measures it degrading the "low" class).
//
// Decisions are damped by a dwell time so the policy does not flap.

#ifndef XENNUMA_SRC_AUTOPOLICY_AUTO_SELECTOR_H_
#define XENNUMA_SRC_AUTOPOLICY_AUTO_SELECTOR_H_

#include <map>
#include <vector>

#include "src/carrefour/system_component.h"
#include "src/common/types.h"

namespace xnuma {

// A page is "partitionable" when one node issues at least
// kDominantSourceShare of its accesses, as for Carrefour's migration
// heuristic. The selector treats a workload as owner-local when at least
// this fraction of the sampled hot pages is partitionable.
inline constexpr double kPartitionableThreshold = 0.70;
// Machine considered loaded at or above these utilizations.
inline constexpr double kSelectorMcLoadThreshold = 0.45;
inline constexpr double kSelectorLinkLoadThreshold = 0.30;
// Pages sampled per decision.
inline constexpr int kSelectorSamplePages = 192;

struct AutoSelectorConfig {
  // Minimum windows between policy changes (hysteresis).
  int dwell_windows = 3;
};

struct AutoSelectorStats {
  int decisions = 0;
  int policy_switches = 0;
  PolicyConfig current;
  double last_partitionable_share = 0.0;
};

class AutoPolicySelector {
 public:
  AutoPolicySelector(Hypervisor& hv, CarrefourSystemComponent& system,
                     AutoSelectorConfig config = AutoSelectorConfig());

  // One decision window for `domain`. May invoke the policy hypercall.
  void Tick(DomainId domain);

  const AutoSelectorStats& stats(DomainId domain);

 private:
  struct DomainState {
    AutoSelectorStats stats;
    int windows_since_switch = 0;
  };

  void Apply(DomainId domain, DomainState& state, const PolicyConfig& wanted);

  Hypervisor* hv_;
  CarrefourSystemComponent* system_;
  AutoSelectorConfig config_;
  std::map<DomainId, DomainState> domains_;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_AUTOPOLICY_AUTO_SELECTOR_H_
