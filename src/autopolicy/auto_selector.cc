#include "src/autopolicy/auto_selector.h"

#include <algorithm>

#include "src/common/check.h"

namespace xnuma {

AutoPolicySelector::AutoPolicySelector(Hypervisor& hv, CarrefourSystemComponent& system,
                                       AutoSelectorConfig config)
    : hv_(&hv), system_(&system), config_(config) {}

void AutoPolicySelector::Tick(DomainId domain) {
  DomainState& state = domains_[domain];
  if (state.stats.decisions == 0) {
    state.stats.current = hv_->domain(domain).policy_config();
  }
  ++state.stats.decisions;
  ++state.windows_since_switch;

  const TrafficSnapshot& metrics = system_->ReadMetrics();
  if (metrics.mc_utilization.empty()) {
    return;  // No epoch committed yet.
  }

  // Partitionable share of the hot pages.
  std::vector<PageAccessSample> hot;
  system_->ReadHotPages(domain, kSelectorSamplePages, &hot);
  int partitionable = 0;
  for (const PageAccessSample& page : hot) {
    double share = 0.0;
    page.DominantSource(&share);
    if (share >= kDominantSourceShare) {
      ++partitionable;
    }
  }
  const double p_share =
      hot.empty() ? 0.0 : static_cast<double>(partitionable) / static_cast<double>(hot.size());
  state.stats.last_partitionable_share = p_share;

  double max_mc = 0.0;
  for (double u : metrics.mc_utilization) {
    max_mc = std::max(max_mc, u);
  }
  const double max_link = metrics.MaxLinkUtilization();
  const bool loaded = max_mc >= kSelectorMcLoadThreshold || max_link >= kSelectorLinkLoadThreshold;

  const Domain& dom = hv_->domain(domain);
  PolicyConfig wanted = state.stats.current;
  if (p_share >= kPartitionableThreshold) {
    // Owner-local pattern. First-touch keeps future (re)allocations local;
    // Carrefour's migration heuristic pulls the already-placed pages to
    // their owners. With PCI passthrough first-touch is off the table
    // (§4.4.1), so stay on round-4K and let Carrefour do the localizing.
    wanted.placement =
        dom.pci_passthrough() ? StaticPolicy::kRound4k : StaticPolicy::kFirstTouch;
    wanted.carrefour = loaded;  // once localized and quiet, stop paying the monitor
  } else if (loaded) {
    // Shared pages and a loaded machine: balance, migrate hot spots.
    wanted.placement = StaticPolicy::kRound4k;
    wanted.carrefour = true;
  } else {
    // Quiet machine, shared pages: placement is irrelevant; drop the
    // monitoring tax.
    wanted.carrefour = false;
  }

  Apply(domain, state, wanted);
}

void AutoPolicySelector::Apply(DomainId domain, DomainState& state, const PolicyConfig& wanted) {
  if (wanted == state.stats.current) {
    return;
  }
  if (state.windows_since_switch < config_.dwell_windows) {
    return;
  }
  const HypercallStatus status = hv_->HypercallSetPolicy(domain, wanted);
  if (status == HypercallStatus::kOk) {
    state.stats.current = wanted;
    ++state.stats.policy_switches;
    state.windows_since_switch = 0;
  }
}

const AutoSelectorStats& AutoPolicySelector::stats(DomainId domain) {
  return domains_[domain].stats;
}

}  // namespace xnuma
