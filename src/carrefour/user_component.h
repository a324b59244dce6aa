// Carrefour user component (§3.4, §4.3): the decision loop.
//
// Runs as a dom0 process. Each tick it reads the machine metrics from the
// system component and applies two heuristics to the hottest pages:
//
//  * interleave — when a memory controller is overloaded, randomly migrate
//    hot pages from overloaded nodes to underloaded nodes;
//  * migration  — when the interconnect saturates, migrate hot pages that
//    are (almost) exclusively accessed from a single remote node to that
//    node.
//
// The replication heuristic of the original Carrefour is deliberately
// omitted: the paper discards it for its marginal effect and its deep
// impact on the Xen memory manager (§3.4).

#ifndef XENNUMA_SRC_CARREFOUR_USER_COMPONENT_H_
#define XENNUMA_SRC_CARREFOUR_USER_COMPONENT_H_

#include <vector>

#include "src/carrefour/system_component.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/obs/obs.h"

namespace xnuma {

// A controller is "underloaded" at or below this utilization; interleaving
// moves hot pages from overloaded controllers to underloaded ones.
inline constexpr double kCarrefourUnderloadUtil = 0.35;
// Hot pages sampled per tick.
inline constexpr int kCarrefourHotPagesPerTick = 192;
// A read-only page qualifies for replication when no single node exceeds
// this share of its accesses.
inline constexpr double kReplicationMaxDominantShare = 0.60;

struct CarrefourConfig {
  // A controller is "overloaded" at or above this utilization while
  // another sits at or below kCarrefourUnderloadUtil.
  double mc_overload_util = 0.45;
  // The interconnect "saturates" when any link exceeds this utilization.
  double link_saturation_util = 0.30;
  // Pages one tick may migrate or replicate, at most.
  int max_migrations_per_tick = 96;
  // §3.4: the replication heuristic. The paper discards it ("marginal
  // effect ... radical changes in the Xen memory manager"); it is
  // implemented here as an opt-in extension. When enabled, hot *read-only*
  // pages accessed from several nodes are replicated on every home node.
  bool enable_replication = false;
  // Generalization of the replication extension to translation structures
  // (docs/MODEL.md §18): each tick, refresh the per-node P2M replicas of
  // every node hosting one of the domain's vCPUs. Requires the domain to
  // run with DomainConfig::p2m_replication; a no-op otherwise. Unlike page
  // replication this is not gated on interconnect saturation — a stale
  // translation replica taxes every walk from that node, saturated or not.
  bool replicate_translation = false;
};

struct CarrefourTickStats {
  int interleave_migrations = 0;
  int translation_replications = 0;  // per-node P2M replica refreshes
  int locality_migrations = 0;
  int replications = 0;
  int failed_migrations = 0;
  bool mc_overloaded = false;
  bool interconnect_saturated = false;
};

class CarrefourUserComponent {
 public:
  CarrefourUserComponent(CarrefourSystemComponent& system, CarrefourConfig config,
                         uint64_t seed = 1234);

  // One decision period over `domain`. The caller (simulation engine or
  // dom0 loop) invokes this on every domain with Carrefour enabled.
  CarrefourTickStats Tick(DomainId domain);

  const CarrefourConfig& config() const { return config_; }

  int64_t total_interleave_migrations() const { return total_interleave_; }
  int64_t total_locality_migrations() const { return total_locality_; }
  int64_t total_replications() const { return total_replications_; }

  // Optional metrics and scan/migrate profiling spans (carrefour.*).
  // nullptr detaches.
  void set_observability(Observability* obs);

 private:
  // Refreshes the domain's per-node P2M replicas (CarrefourConfig::
  // replicate_translation); called on every Tick exit path after any page
  // migrations so the copies mirror this tick's own mutations.
  void RefreshTranslation(DomainId domain, CarrefourTickStats* stats);

  CarrefourSystemComponent* system_;
  CarrefourConfig config_;
  Rng rng_;
  int64_t total_interleave_ = 0;
  int64_t total_locality_ = 0;
  int64_t total_replications_ = 0;
  // The last scan's hot pages; kept so every scan reuses their rate vectors.
  std::vector<PageAccessSample> hot_;

  // Observability (null = disabled).
  Observability* obs_ = nullptr;
  Counter* tick_count_ = nullptr;
  Counter* interleave_count_ = nullptr;
  Counter* locality_count_ = nullptr;
  Counter* replication_count_ = nullptr;
  Counter* translation_replication_count_ = nullptr;
  Counter* failed_migration_count_ = nullptr;
  Histogram* scan_seconds_ = nullptr;
  Histogram* migrate_seconds_ = nullptr;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_CARREFOUR_USER_COMPONENT_H_
