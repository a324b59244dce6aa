// Epoch-based machine simulation.
//
// Applications are executed as sets of threads issuing DRAM accesses against
// their regions' pages, whose NUMA placement is whatever the policy under
// test produced through the real P2M/guest-OS machinery. Each epoch the
// engine:
//   1. derives every thread's access distribution over nodes from the
//      current page placement,
//   2. solves a damped fixed point between access rates and memory
//      controller / interconnect utilizations (congestion raises latency,
//      latency lowers rates),
//   3. advances thread progress, I/O streams, and allocator churn (which
//      exercises the real PV page queue), and
//   4. commits hardware counters and periodically runs the Carrefour user
//      component.
//
// Completion times therefore *emerge* from placement and contention; the
// engine never looks at the policy it is evaluating.

#ifndef XENNUMA_SRC_SIM_ENGINE_H_
#define XENNUMA_SRC_SIM_ENGINE_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/autopolicy/auto_selector.h"
#include "src/carrefour/system_component.h"
#include "src/carrefour/user_component.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/guest/guest_os.h"
#include "src/guest/sync_model.h"
#include "src/hv/hypervisor.h"
#include "src/hv/io_model.h"
#include "src/hv/ipi_model.h"
#include "src/hv/scheduler.h"
#include "src/numa/latency_model.h"
#include "src/numa/perf_counters.h"
#include "src/obs/obs.h"
#include "src/sim/hot_page_sampler.h"
#include "src/sim/placement_tracker.h"
#include "src/sim/trace.h"
#include "src/sim/utilization_solver.h"
#include "src/workload/app_profile.h"

namespace xnuma {

// Fixed monitoring tax while Carrefour is enabled for a domain.
inline constexpr double kCarrefourMonitorOverhead = 0.02;
// Kernel minor-fault costs (seconds).
inline constexpr double kNativeMinorFaultSeconds = 0.5e-6;
inline constexpr double kGuestMinorFaultSeconds = 0.7e-6;
// Real release/retouch operations executed per epoch to sample the
// allocator-churn cost (extrapolated to the profile's full rate).
inline constexpr int kChurnSampleOps = 96;

struct EngineConfig {
  double epoch_seconds = 0.05;
  double carrefour_period_seconds = 0.10;
  double max_sim_seconds = 600.0;
  uint64_t seed = 7;

  // Lower bound on simulated pages per region so per-thread slices remain
  // meaningful for small-footprint applications.
  int64_t min_region_pages = 96;

  // Price page-walks into epoch latency (docs/MODEL.md §18): each access
  // pays HvCosts::walk_miss_per_access walks at walk_local_cycles or
  // walk_remote_cycles, split by the walking thread's replica coverage.
  // Off by default — walks are free and results are bit-identical to a
  // build without the walk model, which is what the repl differential
  // test pins down.
  bool price_walks = false;

  CarrefourConfig carrefour;
  AutoSelectorConfig auto_selector;
};

struct JobSpec {
  const AppProfile* app = nullptr;
  DomainId domain = kInvalidDomain;
  GuestOs* guest = nullptr;
  int threads = 0;                  // uses the domain's first `threads` vCPUs
  ExecMode exec_mode = ExecMode::kGuest;
  IoPath io_path = IoPath::kPvSplitDriver;
  SyncPrimitive sync = SyncPrimitive::kBlockingFutex;
  // Run the automatic policy selector (§7 extension) on this domain.
  bool auto_policy = false;
  // Exogenous vCPU load-balancing migrations (§1: the hypervisor moves
  // vCPUs across NUMA nodes, which is what breaks guest-side NUMA
  // placement). Every period, `vcpu_migrations_per_event` random pairs of
  // this job's threads swap physical CPUs across nodes. 0 disables.
  double vcpu_migration_period_s = 0.0;
  int vcpu_migrations_per_event = 4;
  // Allocator-churn reuse distance, in simulated seconds. 0 (default)
  // keeps the legacy sampling, which releases and re-touches a page in
  // place — the re-allocation then cancels the release inside the batch
  // (§4.2.4 latest-op-wins), so churn never re-places memory. A positive
  // delay re-touches a released vpage only after the queue flush has
  // invalidated its P2M entry (real allocator reuse distances exceed one
  // flush batch), so the re-allocation takes a genuine first-touch fault
  // and placement follows the *current* allocation decision — guest-side
  // for a vNUMA domain, hypervisor-side otherwise (docs/VNUMA.md §6).
  double churn_reuse_delay_s = 0.0;
};

struct JobResult {
  std::string app;
  DomainId domain = kInvalidDomain;
  bool finished = false;
  double completion_seconds = 0.0;
  double init_seconds = 0.0;
  double compute_seconds = 0.0;

  // Table 1 metrics, measured over this job's own traffic.
  double imbalance_pct = 0.0;
  double interconnect_pct = 0.0;  // avg max-link utilization while running
  double avg_mc_util_pct = 0.0;   // avg max-MC utilization while running

  double avg_latency_cycles = 0.0;
  double observed_disk_mb_per_s = 0.0;
  double observed_ctx_switches_per_s = 0.0;
  int64_t hv_page_faults = 0;
  int64_t carrefour_migrations = 0;
  // Auto-selector outcome (when enabled): policy at completion + switches.
  PolicyConfig final_policy;
  int policy_switches = 0;
  // Modeled page-walks split by locality (both zero unless the engine ran
  // with price_walks; docs/MODEL.md §18).
  int64_t local_walks = 0;
  int64_t remote_walks = 0;
};

struct RunResult {
  std::vector<JobResult> jobs;
  double sim_seconds = 0.0;
};

class Engine : public PageAccessSource {
 public:
  Engine(Hypervisor& hv, const LatencyModel& latency, EngineConfig config);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Registers a job; the guest's domain must live in `hv`. Returns job id.
  int AddJob(const JobSpec& spec);

  RunResult Run();

  // PageAccessSource (Carrefour's IBS view): hottest pages of `domain` with
  // noisy per-source-node rates.
  void SampleHotPages(DomainId domain, int max_pages,
                      std::vector<PageAccessSample>* out) override;

  // Optional per-epoch time-series recording; the recorder must outlive the
  // run. Pass nullptr to detach.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  // Optional hook invoked at the end of every epoch with the simulated time;
  // the property tests use it to assert invariants mid-run.
  void set_epoch_hook(std::function<void(double)> hook) { epoch_hook_ = std::move(hook); }

  // Optional vCPU scheduler: every `period_s` the scheduler rebalances the
  // vCPUs of running jobs' domains and threads follow their vCPUs. Without
  // one, vCPUs stay pinned (the paper's setting).
  void set_scheduler(CreditScheduler* scheduler, double period_s) {
    scheduler_ = scheduler;
    scheduler_period_s_ = period_s;
    if (scheduler_ != nullptr) {
      scheduler_->set_observability(obs_);
    }
  }

  // Picard iterations consumed by the most recent fixed-point solve, and the
  // running total / epoch count over the whole run (convergence telemetry).
  int last_fixed_point_iterations() const { return solver_.last_iterations(); }
  int64_t fixed_point_iterations_total() const { return solver_.total_iterations(); }
  int64_t epochs_run() const { return epochs_run_; }

  // Placement-cache test hook: refreshes every unfinished job's placement
  // as the epoch loop does; true when each matches a from-scratch rescan.
  bool DebugVerifyPlacementCache() { return placement_.RefreshAndVerifyAll(); }

 private:
  struct ThreadState;
  struct JobState;

  void InitJob(JobState& job);
  void ComputeAccessDistributions(JobState& job);
  // Thread t's access distribution over destination nodes, written to
  // `p_node` (one entry per node): a pure function of the job's derived
  // masses and the thread's node; all zero once the thread is done.
  void ThreadDistribution(const JobState& job, int t, std::vector<double>* p_node) const;
  // Hands the running threads and the DMA demand to the solver and stores
  // each thread's rate and latency.
  void SolveUtilization();
  void AdvanceProgress(JobState& job, double dt, double now);
  void RunAllocatorChurn(JobState& job, double dt, double now);
  void MigrateVcpus(JobState& job, double now);
  void TickCarrefour(double now);
  double ThreadOverheadFraction(const JobState& job) const;
  void RecordTrace(double now);
  // Per-epoch metrics/trace emission: utilization gauges and counter events
  // for the Chrome trace.
  void EmitEpochObservability(double now);
  void TickScheduler(double now);

  Hypervisor* hv_;
  const LatencyModel* latency_;
  EngineConfig config_;
  Rng rng_;
  PerfCounters counters_;
  IoModel io_model_;
  IpiModel ipi_model_;
  std::unique_ptr<CarrefourSystemComponent> carrefour_system_;
  std::unique_ptr<CarrefourUserComponent> carrefour_user_;
  std::unique_ptr<AutoPolicySelector> auto_selector_;
  // The hypervisor's observability context (null = disabled), and
  // XNUMA_VERIFY_PLACEMENT_CACHE=N: every Nth refresh, distribution reuse
  // and solve-plan reuse is cross-checked against a fresh computation.
  Observability* obs_;
  int verify_cache_period_;
  PlacementTracker placement_;
  UtilizationSolver solver_;
  HotPageSampler sampler_;

  std::vector<std::unique_ptr<JobState>> jobs_;

  std::vector<double> dma_bytes_per_node_;
  std::vector<UtilizationSolver::Thread> solve_threads_;  // per-solve scratch
  std::vector<HotPageSampler::Thread> scan_threads_;      // per-scan scratch
  // Bumped whenever ComputeAccessDistributions recomputes a job's p_node
  // rows; the solver rebuilds its plan when it moves.
  uint64_t distribution_generation_ = 0;
  // The hottest controller and link utilization of the epoch's solve.
  double max_mc_util_ = 0.0;
  double max_link_util_ = 0.0;
  TrafficSnapshot epoch_snapshot_;  // each epoch's commit, filled in place
  double last_carrefour_tick_ = 0.0;
  TraceRecorder* trace_ = nullptr;
  std::function<void(double)> epoch_hook_;
  CreditScheduler* scheduler_ = nullptr;
  double scheduler_period_s_ = 0.0;
  double last_scheduler_tick_ = 0.0;
  int64_t epochs_run_ = 0;

  Counter* epoch_count_ = nullptr;
  Counter* distribution_recomputes_ = nullptr;
  Histogram* refresh_seconds_ = nullptr;
  Gauge* max_mc_util_gauge_ = nullptr;
  Gauge* max_link_util_gauge_ = nullptr;
  Gauge* sim_seconds_gauge_ = nullptr;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_SIM_ENGINE_H_
