#include "src/admission/churn_runner.h"

#include <algorithm>
#include <string>

#include "src/admission/available_space.h"
#include "src/common/check.h"

namespace xnuma {

namespace {

// FNV-1a 64, mixed byte-by-byte so the digest depends on full values.
void Mix(uint64_t* h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    *h ^= (v >> (8 * b)) & 0xff;
    *h *= 1099511628211ull;
  }
}

double NearestRank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto n = static_cast<int64_t>(sorted.size());
  int64_t rank = static_cast<int64_t>(p * static_cast<double>(n - 1) / 100.0 + 0.5);
  rank = std::clamp<int64_t>(rank, 0, n - 1);
  return sorted[rank];
}

}  // namespace

ChurnRunner::ChurnRunner(Hypervisor& hv) : hv_(&hv) {
  Observability* obs = hv.observability();
  if (obs == nullptr) {
    return;
  }
  MetricsRegistry& m = obs->metrics();
  churn_events_ = m.RegisterCounter("churn.events", "events",
                                    "Churn-trace events replayed");
  churn_arrivals_ = m.RegisterCounter("churn.arrivals", "domains",
                                      "Churn arrivals offered to admission");
  churn_departures_ = m.RegisterCounter("churn.departures", "domains",
                                        "Churn departures (domains destroyed)");
  churn_balloon_pages_ = m.RegisterCounter(
      "churn.balloon_pages", "pages", "Pages ballooned down or up by churn events");
  churn_migrated_pages_ = m.RegisterCounter(
      "churn.migrated_pages", "pages", "Pages moved by churn migration bursts");
  churn_live_domains_ = m.RegisterGauge("churn.live_domains", "domains",
                                        "Live churn tenants after the last event");
  churn_fragmentation_ = m.RegisterGauge(
      "churn.fragmentation", "ratio",
      "Machine fragmentation (mean 1 - largest_extent/free) after the last event");
}

DomainId ChurnRunner::Victim(uint32_t slot) const {
  return live_[slot % live_.size()];
}

void ChurnRunner::OnArrive(const ChurnEvent& ev, const DomainConfig& tmpl,
                           ChurnReport* report) {
  ++report->arrivals;
  if (churn_arrivals_ != nullptr) {
    churn_arrivals_->Increment();
  }
  if (ev.pages > hv_->frames().TotalFreeFrames()) {
    // TryCreateDomain short-circuits this case before reaching the solver;
    // ask the solver directly so the verdict (reject vs defer) and the
    // latency sample are still recorded for this arrival.
    AdmissionRequest request;
    request.num_vcpus = ev.num_vcpus;
    request.memory_pages = ev.pages;
    request.preferred_order = ev.preferred_order;
    hv_->AdmitDomain(request);
  } else {
    DomainConfig cfg = tmpl;
    cfg.name = "churn-" + std::to_string(created_);
    cfg.num_vcpus = ev.num_vcpus;
    cfg.memory_pages = ev.pages;
    cfg.p2m_max_order = ev.preferred_order;
    cfg.pinned_cpus.clear();
    cfg.strict_admission = true;
    const DomainId id = hv_->TryCreateDomain(cfg);
    if (id != kInvalidDomain) {
      live_.push_back(id);
      ++created_;
    }
  }
  const Hypervisor::AdmissionVerdict& verdict = hv_->last_admission();
  solve_us_.push_back(verdict.solve_seconds * 1e6);
  switch (verdict.result.decision) {
    case AdmissionDecision::kAdmit:
      ++report->admitted;
      break;
    case AdmissionDecision::kDefer:
      ++report->deferred;
      break;
    case AdmissionDecision::kReject:
      ++report->rejected;
      break;
  }
}

void ChurnRunner::OnDepart(const ChurnEvent& ev, ChurnReport* report) {
  if (live_.empty()) {
    return;
  }
  const DomainId victim = Victim(ev.slot);
  hv_->DestroyDomain(victim);
  live_.erase(std::find(live_.begin(), live_.end(), victim));
  ++report->departures;
  if (churn_departures_ != nullptr) {
    churn_departures_->Increment();
  }
}

void ChurnRunner::OnBalloon(const ChurnEvent& ev, ChurnReport* report) {
  if (live_.empty()) {
    return;
  }
  const DomainId victim = Victim(ev.slot);
  Domain& dom = hv_->domain(victim);
  HvPlacementBackend& be = hv_->backend(victim);
  const int64_t num_pages = dom.memory_pages();
  const Pfn start = static_cast<Pfn>(ev.slot % num_pages);
  int64_t budget = ev.pages;
  const bool down = ev.kind == ChurnEvent::Kind::kBalloonDown;
  // One wrap over the address space from a trace-determined offset; the
  // run walk skips already-(un)mapped stretches in one lookup each.
  for (int64_t seen = 0; seen < num_pages && budget > 0;) {
    const Pfn pfn = (start + seen) % num_pages;
    const HvPlacementBackend::PlacementRun run = be.NodeOfRange(pfn);
    int64_t in_run = run.first + run.count - pfn;  // pages left in this run
    if (run.mapped == down) {
      for (Pfn p = pfn; p < pfn + in_run && budget > 0; ++p, --budget) {
        if (down) {
          be.Invalidate(p);
          ++report->balloon_down_pages;
        } else {
          // Balloon-up re-backs the page through the domain's policy, like
          // a first touch by vCPU 0.
          if (hv_->HandleGuestFault(victim, p, dom.vcpus()[0].pinned_cpu) ==
              kInvalidNode) {
            budget = 0;  // machine memory exhausted: stop deflating
            break;
          }
          ++report->balloon_up_pages;
        }
        if (churn_balloon_pages_ != nullptr) {
          churn_balloon_pages_->Increment();
        }
      }
    }
    seen += in_run;
  }
}

void ChurnRunner::OnMigrate(const ChurnEvent& ev, ChurnReport* report) {
  if (live_.empty()) {
    return;
  }
  const DomainId victim = Victim(ev.slot);
  Domain& dom = hv_->domain(victim);
  HvPlacementBackend& be = hv_->backend(victim);
  const std::vector<NodeId>& homes = dom.home_nodes();
  if (homes.size() < 2) {
    return;  // nowhere to move within the home set
  }
  const int64_t num_pages = dom.memory_pages();
  const Pfn start = static_cast<Pfn>(ev.slot % num_pages);
  int64_t budget = ev.pages;
  for (int64_t seen = 0; seen < num_pages && budget > 0;) {
    const Pfn pfn = (start + seen) % num_pages;
    const HvPlacementBackend::PlacementRun run = be.NodeOfRange(pfn);
    const int64_t in_run = run.first + run.count - pfn;
    if (run.mapped) {
      // Rotate each page to the next home node (deterministic target).
      const auto it = std::find(homes.begin(), homes.end(), run.node);
      const size_t idx = it == homes.end() ? 0 : (it - homes.begin());
      const NodeId target = homes[(idx + 1) % homes.size()];
      for (Pfn p = pfn; p < pfn + in_run && budget > 0; ++p, --budget) {
        if (be.Migrate(p, target)) {
          ++report->migrated_pages;
          if (churn_migrated_pages_ != nullptr) {
            churn_migrated_pages_->Increment();
          }
        }
      }
    }
    seen += in_run;
  }
}

ChurnReport ChurnRunner::Run(const std::vector<ChurnEvent>& trace,
                             const DomainConfig& tmpl) {
  ChurnReport report;
  const size_t first_sample = solve_us_.size();  // percentiles cover this run only
  for (const ChurnEvent& ev : trace) {
    ++report.events;
    switch (ev.kind) {
      case ChurnEvent::Kind::kArrive:
        OnArrive(ev, tmpl, &report);
        break;
      case ChurnEvent::Kind::kDepart:
        OnDepart(ev, &report);
        break;
      case ChurnEvent::Kind::kBalloonDown:
      case ChurnEvent::Kind::kBalloonUp:
        OnBalloon(ev, &report);
        break;
      case ChurnEvent::Kind::kMigrate:
        OnMigrate(ev, &report);
        break;
    }
    if (churn_events_ != nullptr) {
      churn_events_->Increment();
    }
  }

  report.final_live_domains = static_cast<int>(live_.size());
  report.final_fragmentation = MachineFragmentation(hv_->frames());
  if (churn_events_ != nullptr) {
    // Gauges hold the state after the last event.
    churn_live_domains_->Set(static_cast<double>(report.final_live_domains));
    churn_fragmentation_->Set(report.final_fragmentation);
  }

  std::vector<double> sorted(solve_us_.begin() + first_sample, solve_us_.end());
  std::sort(sorted.begin(), sorted.end());
  report.solve_p50_us = NearestRank(sorted, 50.0);
  report.solve_p99_us = NearestRank(sorted, 99.0);
  report.solve_max_us = sorted.empty() ? 0.0 : sorted.back();

  // Digest: admission outcomes + the full final placement of every live
  // domain, walked extent-wise. No wall-clock contribution by design.
  uint64_t digest = 1469598103934665603ull;
  Mix(&digest, static_cast<uint64_t>(report.admitted));
  Mix(&digest, static_cast<uint64_t>(report.deferred));
  Mix(&digest, static_cast<uint64_t>(report.rejected));
  Mix(&digest, static_cast<uint64_t>(report.departures));
  for (const DomainId id : live_) {
    Mix(&digest, static_cast<uint64_t>(id));
    const Domain& dom = hv_->domain(id);
    for (const NodeId home : dom.home_nodes()) {
      Mix(&digest, static_cast<uint64_t>(home));
    }
    HvPlacementBackend& be = hv_->backend(id);
    for (Pfn pfn = 0; pfn < dom.memory_pages();) {
      const HvPlacementBackend::PlacementRun run = be.NodeOfRange(pfn);
      Mix(&digest, static_cast<uint64_t>(run.first));
      Mix(&digest, static_cast<uint64_t>(run.count));
      Mix(&digest, static_cast<uint64_t>(run.mapped ? run.node : kInvalidNode));
      pfn = run.first + run.count;
    }
  }
  report.placement_digest = digest;
  return report;
}

}  // namespace xnuma
