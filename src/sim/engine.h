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
#include <map>
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
#include "src/sim/noisy_top_k.h"
#include "src/sim/trace.h"
#include "src/workload/app_profile.h"

namespace xnuma {

// The epoch's damped Picard iteration stops once the largest per-iteration
// change of any controller or link utilization is at most the tolerance.
// A damped step keeps 85% of the error where the map is flat, so a solve
// whose fixed point moved far converges too slowly to meet the tolerance
// within the cap; it stops there and keeps its last iterate (docs/MODEL.md §3).
inline constexpr double kFixedPointTolerance = 1e-7;
inline constexpr int kFixedPointMaxIterations = 24;
// Weight of each iteration's new utilization estimate. The rate/latency
// fixed point has steep negative slope in the overload region (|d'| up to
// ~8 with the default overload_slope), so the damped Picard iteration needs
// damping < 2/(1+|d'|) to contract.
inline constexpr double kUtilizationDamping = 0.15;
// IBS-emulation noise on sampled per-page rates (relative sigma). This is
// also what occasionally makes Carrefour migrate a page it should not (the
// paper's "temporary burst" degradations on low-imbalance apps).
inline constexpr double kSamplingNoise = 0.25;
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

// Simulated pages the engine lays out for one region / a whole application,
// given the machine's frame size and the engine's fallback region minimum.
int64_t RegionSimPages(const RegionSpec& region, int64_t bytes_per_frame,
                       int64_t fallback_min_pages);
int64_t AppSimPages(const AppProfile& app, int64_t bytes_per_frame, int64_t fallback_min_pages);

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

  const PerfCounters& counters() const { return counters_; }

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

  // The observability context inherited from the hypervisor at construction
  // (attach via Hypervisor::set_observability before creating the engine).
  Observability* observability() const { return obs_; }

  // Picard iterations consumed by the most recent fixed-point solve, and the
  // running total / epoch count over the whole run (convergence telemetry).
  int last_fixed_point_iterations() const { return last_fixed_point_iterations_; }
  int64_t fixed_point_iterations_total() const { return fixed_point_iterations_total_; }
  int64_t epochs_run() const { return epochs_run_; }

  // ---- Placement-cache test hooks. ----
  // Drains pending placement events and refreshes every unfinished job's
  // placement tables, exactly as the epoch loop does.
  void DebugRefreshPlacement();
  // Cross-checks every job's incremental aggregates and per-page cache
  // against a from-scratch rescan; true when they match exactly. Call after
  // DebugRefreshPlacement (pending events are not part of the contract).
  bool DebugVerifyPlacementCache();

 private:
  struct RegionState;
  struct ThreadState;
  struct JobState;
  struct PagePlacement;

  void InitJob(JobState& job);
  void DrainPlacementEvents();
  void RefreshPlacementTables(JobState& job);
  void FullRescanRegion(const JobState& job, RegionState& region);
  void ApplyPageDelta(JobState& job, Vpn vpn);
  void DeriveRegionMasses(JobState& job);
  bool VerifyPlacementCache(const JobState& job);
  // `sequential` = the caller is scanning vpns in order (rescan/verify), so
  // a placement-run memo amortizes the P2M descent; dirty-delta reads pass
  // false and take a single-entry lookup instead.
  PagePlacement ReadPagePlacement(const JobState& job, Vpn vpn,
                                  bool sequential = true) const;
  void ComputeAccessDistributions(JobState& job);
  // Thread t's access distribution over destination nodes, written to
  // `p_node` (one entry per node): a pure function of the job's derived
  // masses and the thread's node; all zero once the thread is done.
  void ThreadDistribution(const JobState& job, int t, std::vector<double>* p_node) const;
  struct SolvePlan;
  // Brings plan_ up to date with the running threads: rebuilt only when
  // the plan key moved (docs/MODEL.md §9).
  void RefreshSolvePlan();
  void BuildSolvePlan(SolvePlan* plan);
  void PriceLatencyPairs();
  // LatencyModel::CongestionFactor(util), evaluated once per distinct input
  // per iteration.
  double MemoizedCongestionFactor(double util);
  void SolveUtilizationFixedPoint();
  void AdvanceProgress(JobState& job, double dt, double now);
  void RunAllocatorChurn(JobState& job, double dt, double now);
  void MigrateVcpus(JobState& job, double now);
  void TickCarrefour(double now);
  double ThreadOverheadFraction(const JobState& job) const;
  bool ComputeDone(const JobState& job) const;
  void FinishJob(JobState& job, double now);
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

  std::vector<std::unique_ptr<JobState>> jobs_;

  // Machine-wide utilization state shared by the fixed point.
  std::vector<double> mc_util_;
  std::vector<double> link_util_;
  std::vector<double> traffic_;  // accesses/s, [src * nodes + dst]
  std::vector<double> dma_bytes_per_node_;
  TrafficSnapshot epoch_snapshot_;  // each epoch's commit, filled in place
  double last_carrefour_tick_ = 0.0;
  TraceRecorder* trace_ = nullptr;
  std::function<void(double)> epoch_hook_;
  CreditScheduler* scheduler_ = nullptr;
  double scheduler_period_s_ = 0.0;
  double last_scheduler_tick_ = 0.0;

  // ---- Fixed-point solver caches (docs/MODEL.md §9). ----
  // The solve plan: what a solve reads about the running threads, flattened.
  // Every input of a plan entry is named by the plan key, so a plan built
  // under the same key holds the same bits, and only a key change rebuilds
  // it (there are no invalidation calls). The key is each running thread's
  // (job, index, node, CPU), in job and thread order, plus
  // distribution_generation_, which ComputeAccessDistributions bumps
  // whenever it recomputes a job's p_node rows.
  struct PlanThread {
    ThreadState* state = nullptr;  // rate and latency land here after a solve
    NodeId node = kInvalidNode;
    double share_hz = 0.0;  // CPU share (1 / threads on its CPU) * cpu_hz
    double cycles_per_access = 0.0;
    double mlp = 0.0;
    bool operator==(const PlanThread&) const = default;
  };
  // A (source node, destination node) pair some running thread reads.
  struct LatencyPair {
    NodeId src = 0;
    NodeId dst = 0;
    int32_t hops = 0;
    bool operator==(const LatencyPair&) const = default;
  };
  struct PlanKey {
    int32_t job = 0;
    int32_t thread = 0;
    NodeId node = kInvalidNode;
    CpuId cpu = kInvalidCpu;
    bool operator==(const PlanKey&) const = default;
  };
  struct SolvePlan {
    std::vector<PlanKey> key;
    uint64_t distribution_generation = 0;
    std::vector<PlanThread> threads;  // running threads, in key order
    std::vector<double> p_node;       // [threads][nodes], copies of their rows
    // Every pair read, destination-major: each iteration prices them into
    // pair_cycles_ ([src * nodes + dst]) before the thread loop.
    std::vector<LatencyPair> latency_pairs;
    // The remote pairs among them (src != dst) as src * nodes + dst,
    // source-major: the only pairs whose traffic can be spread over links.
    std::vector<int32_t> remote_pairs;
    bool operator==(const SolvePlan&) const = default;
  };
  SolvePlan plan_;
  SolvePlan spare_plan_;  // the next plan's key and, when it moved, the plan
  uint64_t distribution_generation_ = 0;
  std::vector<int> cpu_sharers_;    // [cpus], plan-build scratch
  std::vector<uint8_t> pair_read_;  // [src * nodes + dst], plan-build scratch
  // Effective controller and link bandwidths (bytes/s), fixed per engine.
  std::vector<double> mc_capacity_;
  std::vector<double> link_capacity_;
  // Per-solve and per-iteration values, indexed like plan_.threads.
  std::vector<double> walk_cycles_;  // price_walks term, fixed per solve
  std::vector<double> thread_rate_;
  std::vector<double> thread_latency_;
  std::vector<double> pair_cycles_;
  std::vector<double> mc_scratch_;
  std::vector<double> link_scratch_;
  // Per-iteration CongestionFactor memo, keyed by the bits of its input and
  // open-addressed in a power-of-two table at most half full (a plan has at
  // most nodes^2 pairs, each pricing one input). A slot is live only when
  // its stamp is the current iteration's. The factor is a pure function of
  // one double, so a memo hit returns the bits a fresh call would.
  struct CongestionSlot {
    uint64_t input_bits = 0;
    uint64_t stamp = 0;
    double factor = 0.0;
  };
  std::vector<CongestionSlot> congestion_memo_;
  int congestion_shift_ = 0;  // 64 - log2(table size)
  uint64_t congestion_stamp_ = 0;

  // One-entry placement-run memo for the rescan/delta read path: node
  // resolution is computed once per run, then reused for every page the
  // run covers. Invalidated by any placement mutation (generation compare)
  // or a domain switch.
  mutable HvPlacementBackend::PlacementRun run_memo_;
  mutable uint64_t run_memo_gen_ = 0;
  mutable DomainId run_memo_domain_ = kInvalidDomain;
  mutable bool run_memo_cached_ = false;
  // Worst-link-per-path route index: route_pairs_[src * nodes + dst] names
  // the equal-cost paths of the pair; each path is a contiguous run of link
  // ids in route_links_. Replaces topology().Routes() calls (and their
  // nested vector walks) in the solver's inner loops.
  struct RoutePath {
    int32_t first_link = 0;
    int32_t num_links = 0;
  };
  struct RoutePair {
    int32_t first_path = 0;
    int32_t num_paths = 0;
  };
  std::vector<RoutePair> route_pairs_;
  std::vector<RoutePath> route_paths_;
  std::vector<LinkId> route_links_;
  int last_fixed_point_iterations_ = 0;
  // Largest utilization change of the most recent solve's last iteration.
  double last_fixed_point_residual_ = 0.0;
  int64_t fixed_point_iterations_total_ = 0;
  int64_t epochs_run_ = 0;

  // ---- Incremental placement bookkeeping. ----
  // (guest, pid) -> job index, for dispatching drained placement events.
  std::map<std::pair<const GuestOs*, int>, int> job_by_guest_pid_;
  std::vector<GuestOs::VpageEvent> vpage_event_scratch_;
  std::vector<Pfn> pfn_event_scratch_;
  // Hot-page sampling scratch, reused across SampleHotPages scans: per
  // candidate page its pfn and class (sized for every page of the largest
  // domain scanned so far); per class (region, slice, hot or cold) one row
  // of per-source-node rates and whether the region is written; and the
  // noisy top-k selection over them.
  std::vector<Pfn> sample_pfns_;
  std::vector<int> sample_classes_;
  std::vector<double> class_rows_;  // [classes][nodes]
  std::vector<char> class_written_;
  NoisyTopK top_k_;
  // XNUMA_VERIFY_PLACEMENT_CACHE=N cross-checks the incremental aggregates
  // against a full rescan every N refreshes of each job, and a skipped
  // access-distribution recomputation against a fresh one (0 = off).
  int verify_cache_period_ = 0;

  // ---- Observability (null = disabled; inherited from the hypervisor). ----
  Observability* obs_ = nullptr;
  Counter* epoch_count_ = nullptr;
  Counter* full_rescan_count_ = nullptr;
  Counter* dirty_event_count_ = nullptr;
  Counter* distribution_recomputes_ = nullptr;
  Histogram* solver_seconds_ = nullptr;
  Histogram* solver_iterations_ = nullptr;
  Histogram* solver_residual_ = nullptr;
  Counter* solver_unconverged_ = nullptr;
  Counter* solver_plan_builds_ = nullptr;
  Counter* solver_congestion_evals_ = nullptr;
  Histogram* refresh_seconds_ = nullptr;
  Gauge* max_mc_util_gauge_ = nullptr;
  Gauge* max_link_util_gauge_ = nullptr;
  Gauge* sim_seconds_gauge_ = nullptr;
  Counter* sampler_candidates_ = nullptr;
  Counter* sampler_bounded_ = nullptr;
  Counter* sampler_scored_ = nullptr;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_SIM_ENGINE_H_
