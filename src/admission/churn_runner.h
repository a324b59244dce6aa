// Churn replay driver: feeds a seeded arrival/departure/balloon/migration
// trace (src/workload/churn.h) into a live hypervisor through the
// admission solver, and reports placement quality, admission outcomes and
// solver latency percentiles (docs/MODEL.md §17).
//
// Replay is deterministic: the trace carries all randomness, victims are
// selected by slot-modulo over the live list, and balloon/migration walks
// use fixed offsets — so the same trace on the same machine always
// produces the same final placement. The report's placement digest (FNV-1a
// over every live domain's page->node map; no wall-clock input) is what
// the churn soak test compares across runs.

#ifndef XENNUMA_SRC_ADMISSION_CHURN_RUNNER_H_
#define XENNUMA_SRC_ADMISSION_CHURN_RUNNER_H_

#include <cstdint>
#include <vector>

#include "src/hv/hypervisor.h"
#include "src/workload/churn.h"

namespace xnuma {

struct ChurnReport {
  int64_t events = 0;
  int64_t arrivals = 0;
  int64_t admitted = 0;
  int64_t deferred = 0;
  int64_t rejected = 0;
  int64_t departures = 0;
  int64_t balloon_down_pages = 0;
  int64_t balloon_up_pages = 0;
  int64_t migrated_pages = 0;
  int final_live_domains = 0;
  double final_fragmentation = 0.0;  // MachineFragmentation at end of trace
  // Placement-solver wall-clock latency over every admission decision the
  // trace triggered, in microseconds (nearest-rank percentiles).
  double solve_p50_us = 0.0;
  double solve_p99_us = 0.0;
  double solve_max_us = 0.0;
  // FNV-1a over admission outcomes and the final page->node placement of
  // every live domain. Pure function of (machine, trace): wall-clock never
  // enters it.
  uint64_t placement_digest = 0;
};

class ChurnRunner {
 public:
  // Registers the churn.* metrics if `hv` has observability attached.
  explicit ChurnRunner(Hypervisor& hv);

  // Replays the trace. `tmpl` supplies everything an arrival's DomainConfig
  // needs beyond the event (policy, replication, ...); num_vcpus,
  // memory_pages, p2m_max_order and strict_admission are overridden per
  // event. May be called repeatedly; domains created by earlier runs that
  // are still alive keep their resources.
  ChurnReport Run(const std::vector<ChurnEvent>& trace, const DomainConfig& tmpl);

 private:
  void OnArrive(const ChurnEvent& ev, const DomainConfig& tmpl, ChurnReport* report);
  void OnDepart(const ChurnEvent& ev, ChurnReport* report);
  void OnBalloon(const ChurnEvent& ev, ChurnReport* report);
  void OnMigrate(const ChurnEvent& ev, ChurnReport* report);
  DomainId Victim(uint32_t slot) const;

  Hypervisor* hv_;
  std::vector<DomainId> live_;
  std::vector<double> solve_us_;
  int64_t created_ = 0;  // names churn domains uniquely across Run calls

  Counter* churn_events_ = nullptr;
  Counter* churn_arrivals_ = nullptr;
  Counter* churn_departures_ = nullptr;
  Counter* churn_balloon_pages_ = nullptr;
  Counter* churn_migrated_pages_ = nullptr;
  Gauge* churn_live_domains_ = nullptr;
  Gauge* churn_fragmentation_ = nullptr;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_ADMISSION_CHURN_RUNNER_H_
