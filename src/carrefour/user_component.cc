#include "src/carrefour/user_component.h"

#include <algorithm>

namespace xnuma {

CarrefourUserComponent::CarrefourUserComponent(CarrefourSystemComponent& system,
                                               CarrefourConfig config, uint64_t seed)
    : system_(&system), config_(config), rng_(seed) {}

void CarrefourUserComponent::set_observability(Observability* obs) {
  obs_ = obs;
  if (obs_ == nullptr) {
    tick_count_ = interleave_count_ = locality_count_ = nullptr;
    replication_count_ = translation_replication_count_ = nullptr;
    failed_migration_count_ = nullptr;
    scan_seconds_ = migrate_seconds_ = nullptr;
    return;
  }
  MetricsRegistry& m = obs_->metrics();
  tick_count_ =
      m.RegisterCounter("carrefour.ticks", "ticks", "Carrefour decision periods run");
  interleave_count_ = m.RegisterCounter("carrefour.interleave_migrations", "pages",
                                        "Hot pages moved by the interleave heuristic");
  locality_count_ = m.RegisterCounter("carrefour.locality_migrations", "pages",
                                      "Hot pages moved to their dominant source node");
  replication_count_ = m.RegisterCounter(
      "carrefour.replications", "pages",
      "Hot read-only pages replicated (opt-in §3.4 extension)");
  translation_replication_count_ = m.RegisterCounter(
      "carrefour.translation_replications", "replicas",
      "Per-node P2M replicas refreshed by the translation extension");
  failed_migration_count_ = m.RegisterCounter(
      "carrefour.failed_migrations", "pages", "Migrations the heuristics could not commit");
  scan_seconds_ = m.RegisterHistogram(
      "carrefour.scan_seconds", "s", "Wall-clock cost of one hot-page scan");
  migrate_seconds_ = m.RegisterHistogram(
      "carrefour.migrate_seconds", "s",
      "Wall-clock cost of one tick's migration/replication loops");
}

CarrefourTickStats CarrefourUserComponent::Tick(DomainId domain) {
  CarrefourTickStats stats;
  if (tick_count_ != nullptr) {
    tick_count_->Increment();
  }
  const TrafficSnapshot& metrics = system_->ReadMetrics();
  if (metrics.mc_utilization.empty()) {
    return stats;  // No epoch committed yet.
  }

  const int nodes = system_->num_nodes();
  std::vector<NodeId> overloaded;
  std::vector<NodeId> underloaded;
  for (NodeId n = 0; n < nodes; ++n) {
    if (metrics.mc_utilization[n] >= config_.mc_overload_util) {
      overloaded.push_back(n);
    } else if (metrics.mc_utilization[n] <= kCarrefourUnderloadUtil) {
      underloaded.push_back(n);
    }
  }
  stats.mc_overloaded = !overloaded.empty() && !underloaded.empty();
  stats.interconnect_saturated = metrics.MaxLinkUtilization() >= config_.link_saturation_util;

  if (!stats.mc_overloaded && !stats.interconnect_saturated) {
    RefreshTranslation(domain, &stats);
    return stats;
  }

  {
    XNUMA_TRACE_SCOPE(obs_, "carrefour_scan", "carrefour", scan_seconds_);
    system_->ReadHotPages(domain, kCarrefourHotPagesPerTick, &hot_);
  }
  const std::vector<PageAccessSample>& hot = hot_;

  XNUMA_TRACE_SCOPE(obs_, "carrefour_migrate", "carrefour", migrate_seconds_);
  int budget = config_.max_migrations_per_tick;
  // The migration (locality) heuristic runs first: a page with a single
  // dominant source has an unambiguous best home, whereas interleaving is a
  // last-resort pressure valve.
  if (stats.interconnect_saturated) {
    for (const PageAccessSample& page : hot) {
      if (budget == 0) {
        break;
      }
      double share = 0.0;
      const NodeId source = page.DominantSource(&share);
      if (source == kInvalidNode || share < kDominantSourceShare) {
        continue;
      }
      if (source == page.current_node) {
        continue;
      }
      if (system_->MigratePage(domain, page.pfn, source)) {
        ++stats.locality_migrations;
        ++total_locality_;
        --budget;
      } else {
        ++stats.failed_migrations;
      }
    }
  }

  if (config_.enable_replication && stats.interconnect_saturated) {
    for (const PageAccessSample& page : hot) {
      if (budget == 0) {
        break;
      }
      if (page.written) {
        continue;  // only read-only pages are replication candidates
      }
      double share = 0.0;
      page.DominantSource(&share);
      if (share > kReplicationMaxDominantShare) {
        continue;  // a single dominant reader: migration handles it better
      }
      if (system_->ReplicatePage(domain, page.pfn)) {
        ++stats.replications;
        ++total_replications_;
        --budget;
      }
    }
  }

  if (stats.mc_overloaded) {
    for (const PageAccessSample& page : hot) {
      if (budget == 0) {
        break;
      }
      const bool on_overloaded =
          std::find(overloaded.begin(), overloaded.end(), page.current_node) != overloaded.end();
      if (!on_overloaded) {
        continue;
      }
      const NodeId target = underloaded[rng_.NextInt(static_cast<int64_t>(underloaded.size()))];
      if (system_->MigratePage(domain, page.pfn, target)) {
        ++stats.interleave_migrations;
        ++total_interleave_;
        --budget;
      } else {
        ++stats.failed_migrations;
      }
    }
  }

  if (obs_ != nullptr) {
    interleave_count_->Increment(stats.interleave_migrations);
    locality_count_->Increment(stats.locality_migrations);
    replication_count_->Increment(stats.replications);
    failed_migration_count_->Increment(stats.failed_migrations);
  }

  // Last so the copies also mirror this tick's own migrations — a refresh
  // before them would leave every migrated chunk stale for a full period.
  RefreshTranslation(domain, &stats);
  return stats;
}

void CarrefourUserComponent::RefreshTranslation(DomainId domain,
                                                CarrefourTickStats* stats) {
  if (!config_.replicate_translation) {
    return;
  }
  // Keep the walkers' translation replicas fresh at monitoring cadence; a
  // stale replica taxes every walk from its node, so this is not gated on
  // the saturation signals the page heuristics wait for.
  stats->translation_replications = system_->ReplicateTranslation(domain);
  if (translation_replication_count_ != nullptr &&
      stats->translation_replications > 0) {
    translation_replication_count_->Increment(stats->translation_replications);
  }
}

}  // namespace xnuma
