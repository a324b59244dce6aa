#include "src/sim/engine.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <numeric>

#include "src/common/check.h"

namespace xnuma {

namespace {
// Reference DRAM latency used to convert nominal runtime into a work quota;
// deliberately placement-independent so every policy runs the same work.
constexpr double kReferenceLatencyCycles = 230.0;
// Pure access cost (pipeline issue etc.) per touch during initialization.
constexpr double kTouchCostSeconds = 0.2e-6;
// Guest-side cost of appending one entry to the PV queue (lock + store).
constexpr double kQueueAppendSeconds = 0.1e-6;

int VerifyPeriodFromEnv() {
  const char* verify = getenv("XNUMA_VERIFY_PLACEMENT_CACHE");
  return verify == nullptr ? 0 : std::max(0, atoi(verify));
}

double MaxOf(const std::vector<double>& values) {
  double max = 0.0;
  for (double v : values) {
    max = std::max(max, v);
  }
  return max;
}

double MeanOf(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : std::accumulate(values.begin(), values.end(), 0.0) / values.size();
}
}  // namespace

struct Engine::ThreadState {
  CpuId cpu = kInvalidCpu;
  NodeId node = kInvalidNode;
  double work_remaining = 0.0;
  double rate = 0.0;  // accesses/s at current utilization
  bool done = false;
  std::vector<double> p_node;  // access distribution over destination nodes
  // The (node, done) p_node was last computed for; kInvalidNode before the
  // first computation.
  NodeId p_node_node = kInvalidNode;
  bool p_node_done = false;
  double latency_weighted = 0.0;
  double latency_weight = 0.0;
  double last_latency_cycles = 0.0;
  // Fraction of this thread's page-walks served by a local (replica or
  // home) P2M, refreshed once per epoch (EngineConfig::price_walks).
  double walk_coverage = 1.0;
};

struct Engine::JobState {
  JobSpec spec;
  int job_id = -1;
  int pid = -1;
  std::vector<ThreadState> threads;
  Rng rng{0};

  double init_seconds = 0.0;
  double io_bytes_remaining = 0.0;
  bool finished = false;
  double finished_at = -1.0;
  double running_seconds = 0.0;

  // Wall-time dilation from synchronization wakeups, allocator churn and
  // Carrefour monitoring. These costs sit on serial critical paths, so they
  // extend completion time instead of merely lowering memory demand (the
  // bandwidth fixed point would otherwise absorb them, which is exactly the
  // blocked-waiter-wakeup fallacy the paper's §5.3.2 works around).
  double overhead_fraction = 0.0;       // cached per epoch
  double amortized_release_cost = 0.0;  // seconds per release (EMA)
  double pending_stall_seconds = 0.0;

  std::vector<double> cum_node_accesses;
  double max_link_integral = 0.0;
  double max_mc_integral = 0.0;
  int64_t carrefour_migrations = 0;
  double last_vcpu_migration = 0.0;
  // Modeled page-walk totals under price_walks (fractional walks pending
  // the next integer report to the P2M's observability counters).
  double local_walks_acc = 0.0;
  double remote_walks_acc = 0.0;
  int64_t local_walks_reported = 0;
  int64_t remote_walks_reported = 0;

  int shared_region = 0;   // index of the DMA buffer region
  int private_region = 1;  // index of the churn target region

  // Deferred-reuse churn pipeline (JobSpec::churn_reuse_delay_s): released
  // vpages waiting out the reuse distance before their re-touch.
  struct ChurnRelease {
    double release_time;
    int thread;
    Vpn vpn;
  };
  std::deque<ChurnRelease> churn_pending;

  // The tracker's mass generation the threads' p_node were last computed
  // from.
  uint64_t p_node_mass_generation = 0;
};

Engine::Engine(Hypervisor& hv, const LatencyModel& latency, EngineConfig config)
    : hv_(&hv),
      latency_(&latency),
      config_(config),
      rng_(config.seed),
      counters_(hv.topology()),
      // Observability rides the hypervisor attachment (experiment.cc attaches
      // it before the engine exists); a null context keeps every hook free.
      obs_(hv.observability()),
      verify_cache_period_(VerifyPeriodFromEnv()),
      placement_(hv, obs_, verify_cache_period_),
      solver_(hv.topology(), latency, obs_, verify_cache_period_),
      sampler_(hv.topology().num_nodes(), obs_) {
  dma_bytes_per_node_.assign(hv.topology().num_nodes(), 0.0);
  carrefour_system_ = std::make_unique<CarrefourSystemComponent>(hv, counters_, *this);
  carrefour_user_ =
      std::make_unique<CarrefourUserComponent>(*carrefour_system_, config_.carrefour, config.seed);
  auto_selector_ =
      std::make_unique<AutoPolicySelector>(hv, *carrefour_system_, config_.auto_selector);
  carrefour_user_->set_observability(obs_);
  if (obs_ != nullptr) {
    MetricsRegistry& m = obs_->metrics();
    epoch_count_ = m.RegisterCounter("engine.epochs", "epochs", "Simulation epochs run");
    distribution_recomputes_ = m.RegisterCounter(
        "engine.placement.distribution_recomputes", "job-epochs",
        "Job-epochs whose access distributions were recomputed (the rest reused them)");
    refresh_seconds_ = m.RegisterHistogram(
        "engine.placement.refresh_seconds", "s",
        "Wall-clock cost of one epoch's placement refresh phase");
    max_mc_util_gauge_ = m.RegisterGauge(
        "engine.max_mc_util", "utilization",
        "Hottest memory-controller utilization at the last epoch (instantaneous)");
    max_link_util_gauge_ = m.RegisterGauge(
        "engine.max_link_util", "utilization",
        "Hottest interconnect-link utilization at the last epoch (instantaneous)");
    sim_seconds_gauge_ =
        m.RegisterGauge("engine.sim_seconds", "s", "Simulated time at the last epoch");
  }
}

Engine::~Engine() = default;

int Engine::AddJob(const JobSpec& spec) {
  XNUMA_CHECK(spec.app != nullptr);
  XNUMA_CHECK(spec.guest != nullptr);
  XNUMA_CHECK(spec.domain != kInvalidDomain);
  XNUMA_CHECK(spec.threads > 0);
  XNUMA_CHECK(spec.threads <= static_cast<int>(hv_->domain(spec.domain).vcpus().size()));

  auto job = std::make_unique<JobState>();
  job->spec = spec;
  job->job_id = static_cast<int>(jobs_.size());
  job->rng = rng_.Fork();
  job->pid = placement_.AddJob(*spec.app, spec.guest, spec.domain, spec.threads,
                               config_.min_region_pages);
  const std::vector<PlacementTracker::Region>& regions = placement_.regions(job->job_id);
  int64_t largest_master = -1;
  for (size_t r = 0; r < regions.size(); ++r) {
    if (regions[r].spec->init == AllocPattern::kMasterInit) {
      // The DMA buffer lives in the biggest master-initialized region (the
      // streamed bulk data).
      if (regions[r].pages > largest_master) {
        largest_master = regions[r].pages;
        job->shared_region = static_cast<int>(r);
      }
    } else {
      job->private_region = static_cast<int>(r);
    }
  }

  const Topology& topo = hv_->topology();
  const Domain& dom = hv_->domain(spec.domain);
  job->threads.resize(spec.threads);
  for (int t = 0; t < spec.threads; ++t) {
    ThreadState& th = job->threads[t];
    th.cpu = dom.vcpus()[t].pinned_cpu;
    th.node = topo.node_of_cpu(th.cpu);
    th.work_remaining =
        spec.app->nominal_seconds * topo.cpu_hz() /
        (spec.app->cpu_cycles_per_access + kReferenceLatencyCycles / spec.app->mlp);
    th.p_node.assign(topo.num_nodes(), 0.0);
  }
  job->io_bytes_remaining = spec.app->disk_read_mb * kMiB;
  job->cum_node_accesses.assign(topo.num_nodes(), 0.0);

  jobs_.push_back(std::move(job));
  return static_cast<int>(jobs_.size()) - 1;
}

void Engine::InitJob(JobState& job) {
  GuestOs& guest = *job.spec.guest;
  const bool guest_mode = job.spec.exec_mode == ExecMode::kGuest;
  const double minor_cost =
      guest_mode ? kGuestMinorFaultSeconds : kNativeMinorFaultSeconds;
  const double hv_fault_cost = guest_mode ? hv_->costs().page_fault_s : kNativeMinorFaultSeconds;

  double master_seconds = 0.0;
  std::vector<double> owner_seconds(job.spec.threads, 0.0);

  // Touch whole ranges: one TouchRange call per toucher's contiguous vpn
  // span (the whole region for master-init, one slice per owner thread),
  // letting the guest resolve placement run-at-a-time. Costs accumulate
  // per page in the same order the per-page loop used, so the simulated
  // init time is bit-identical.
  for (const PlacementTracker::Region& region : placement_.regions(job.job_id)) {
    if (region.pages <= 0) {
      continue;
    }
    if (region.spec->init == AllocPattern::kMasterInit) {
      guest.TouchRange(job.pid, region.first_vpn, region.pages,
                       job.threads[0].cpu, kTouchCostSeconds, minor_cost,
                       hv_fault_cost, &master_seconds, /*vcpu=*/0);
    } else {
      for (int t = 0; t < job.spec.threads; ++t) {
        const int64_t lo = region.SliceBegin(t, job.spec.threads);
        const int64_t hi = region.SliceEnd(t, job.spec.threads);
        if (hi > lo) {
          guest.TouchRange(job.pid, region.first_vpn + lo, hi - lo,
                           job.threads[t].cpu, kTouchCostSeconds, minor_cost,
                           hv_fault_cost, &owner_seconds[t], /*vcpu=*/t);
        }
      }
    }
  }
  job.init_seconds = master_seconds + MaxOf(owner_seconds);
}

void Engine::ComputeAccessDistributions(JobState& job) {
  if (config_.price_walks) {
    // Replica coverage moves without any change in mass, so it is refreshed
    // every epoch, then frozen for the epoch so the walk term stays constant
    // across Picard iterations of the bandwidth fixed point.
    const P2mTable& p2m = hv_->domain(job.spec.domain).p2m();
    for (ThreadState& th : job.threads) {
      if (!th.done) {
        th.walk_coverage = p2m.ReplicaCoverage(th.node);
      }
    }
  }
  // p_node depends only on the derived masses and each thread's (node,
  // done): when none of them moved since the last computation, the same
  // arithmetic would return the same bits (docs/MODEL.md §9).
  const uint64_t mass_generation = placement_.mass_generation(job.job_id);
  bool current = job.p_node_mass_generation == mass_generation;
  for (const ThreadState& th : job.threads) {
    current = current && th.p_node_node == th.node && th.p_node_done == th.done;
  }
  if (current) {
    if (verify_cache_period_ > 0 &&
        placement_.refreshes(job.job_id) % verify_cache_period_ == 0) {
      std::vector<double> fresh;
      for (int t = 0; t < job.spec.threads; ++t) {
        const std::vector<double>& kept = job.threads[t].p_node;
        fresh.resize(kept.size());
        ThreadDistribution(job, t, &fresh);
        XNUMA_CHECK(std::memcmp(fresh.data(), kept.data(), kept.size() * sizeof(double)) == 0);
      }
    }
    return;
  }
  for (int t = 0; t < job.spec.threads; ++t) {
    ThreadState& th = job.threads[t];
    ThreadDistribution(job, t, &th.p_node);
    th.p_node_node = th.node;
    th.p_node_done = th.done;
  }
  job.p_node_mass_generation = mass_generation;
  ++distribution_generation_;
  if (distribution_recomputes_ != nullptr) {
    distribution_recomputes_->Increment();
  }
}

void Engine::ThreadDistribution(const JobState& job, int t, std::vector<double>* p_node) const {
  const int nodes = hv_->topology().num_nodes();
  const ThreadState& th = job.threads[t];
  std::vector<double>& p_out = *p_node;
  std::fill(p_out.begin(), p_out.end(), 0.0);
  if (th.done) {
    return;
  }
  for (const PlacementTracker::Region& region : placement_.regions(job.job_id)) {
    const double share = region.spec->access_share;
    const double denom = region.total_mass + region.replicated_mass;
    if (share <= 0.0 || denom <= 0.0) {
      continue;
    }
    // Replicated pages are served from the accessor's own node.
    const double local_frac = region.replicated_mass / denom;
    p_out[th.node] += share * local_frac;
    if (region.total_mass <= 0.0) {
      continue;
    }
    const double rest = 1.0 - local_frac;
    const double aff = region.spec->owner_affinity;
    const bool use_slice = region.slice_total[t] > 0.0;
    for (NodeId n = 0; n < nodes; ++n) {
      double p = (1.0 - aff) * region.node_mass[n] / region.total_mass;
      if (use_slice) {
        p += aff * region.slice_mass[t][n] / region.slice_total[t];
      } else {
        p += aff * region.node_mass[n] / region.total_mass;
      }
      p_out[n] += share * rest * p;
    }
  }
  // Normalize against rounding drift.
  const double total = std::accumulate(p_out.begin(), p_out.end(), 0.0);
  if (total > 0.0) {
    for (double& p : p_out) {
      p /= total;
    }
  }
}

double Engine::ThreadOverheadFraction(const JobState& job) const {
  const AppProfile& app = *job.spec.app;
  const SyncOutcome sync =
      EvaluateSync(job.spec.sync, job.spec.exec_mode, app.blocking_rate_per_s, ipi_model_);
  double overhead = sync.overhead_fraction;
  overhead += app.release_rate_per_s * job.amortized_release_cost;
  if (hv_->domain(job.spec.domain).policy_config().carrefour) {
    overhead += kCarrefourMonitorOverhead;
  }
  return overhead;
}

void Engine::SolveUtilization() {
  const int nodes = hv_->topology().num_nodes();
  // The running threads, in job and thread order. Page-walks stall the
  // pipeline (no MLP overlap): local walks hit the node-local table or
  // replica, remote ones cross to the master (docs/MODEL.md §18).
  const HvCosts& costs = hv_->costs();
  solve_threads_.clear();
  std::fill(dma_bytes_per_node_.begin(), dma_bytes_per_node_.end(), 0.0);
  for (size_t j = 0; j < jobs_.size(); ++j) {
    JobState& job = *jobs_[j];
    if (job.finished) {
      continue;
    }
    for (int t = 0; t < job.spec.threads; ++t) {
      ThreadState& th = job.threads[t];
      if (th.done) {
        th.rate = 0.0;  // done threads of running jobs get rate 0
        continue;
      }
      const double walk_cycles =
          config_.price_walks ? costs.walk_miss_per_access *
                                    (th.walk_coverage * costs.walk_local_cycles +
                                     (1.0 - th.walk_coverage) * costs.walk_remote_cycles)
                              : 0.0;
      solve_threads_.push_back({{static_cast<int32_t>(j), t, th.node, th.cpu},
                                job.spec.app->cpu_cycles_per_access, job.spec.app->mlp,
                                walk_cycles, th.p_node.data()});
    }
    // DMA streams land in the buffer (shared) region's pages.
    const PlacementTracker::Region& buf = placement_.regions(job.job_id)[job.shared_region];
    if (job.io_bytes_remaining > 0.0 && buf.total_mass > 0.0) {
      const double bw = io_model_.StreamBandwidth(
          job.spec.io_path, job.spec.app->io_request_kb * 1024,
          /*scattered_buffers=*/job.spec.exec_mode == ExecMode::kGuest);
      for (NodeId n = 0; n < nodes; ++n) {
        dma_bytes_per_node_[n] += bw * buf.node_mass[n] / buf.total_mass;
      }
    }
  }
  solver_.Solve(solve_threads_, distribution_generation_, dma_bytes_per_node_);
  for (size_t i = 0; i < solve_threads_.size(); ++i) {
    const UtilizationSolver::Key& key = solve_threads_[i].key;
    ThreadState& th = jobs_[key.job]->threads[key.thread];
    th.rate = solver_.rate(i);
    th.last_latency_cycles = solver_.latency_cycles(i);
  }
}

void Engine::AdvanceProgress(JobState& job, double dt, double now) {
  double eff = dt;
  double stall = 0.0;
  if (job.pending_stall_seconds > 0.0) {
    stall = std::min(job.pending_stall_seconds, dt);
    job.pending_stall_seconds -= stall;
    eff -= stall;
  }
  const int nodes = hv_->topology().num_nodes();
  // Sub-epoch offset at which the last piece of work completed, for
  // completion times finer than the epoch quantum.
  double finish_offset = 0.0;
  // Serial overheads (wakeups, hypercalls, monitoring) dilate wall time:
  // only 1/(1+overhead) of the epoch advances the parallel work.
  const double dilation = 1.0 + job.overhead_fraction;
  bool compute_done = true;
  for (ThreadState& th : job.threads) {
    if (th.done) {
      continue;
    }
    const double progress_rate = th.rate / dilation;
    const double work_before = th.work_remaining;
    th.work_remaining -= progress_rate * eff;
    th.latency_weighted += th.last_latency_cycles * progress_rate * eff;
    th.latency_weight += progress_rate * eff;
    for (NodeId n = 0; n < nodes; ++n) {
      job.cum_node_accesses[n] += progress_rate * th.p_node[n] * eff;
    }
    if (config_.price_walks) {
      const double walks =
          progress_rate * eff * hv_->costs().walk_miss_per_access;
      job.local_walks_acc += walks * th.walk_coverage;
      job.remote_walks_acc += walks * (1.0 - th.walk_coverage);
    }
    if (th.work_remaining <= 0.0) {
      th.done = true;
      const double used = progress_rate > 0.0 ? work_before / progress_rate : 0.0;
      finish_offset = std::max(finish_offset, stall + std::min(used, eff));
    } else {
      finish_offset = dt;
      compute_done = false;
    }
  }
  if (job.io_bytes_remaining > 0.0) {
    const double bw = io_model_.StreamBandwidth(
        job.spec.io_path, job.spec.app->io_request_kb * 1024,
        /*scattered_buffers=*/job.spec.exec_mode == ExecMode::kGuest);
    const double io_before = job.io_bytes_remaining;
    job.io_bytes_remaining -= bw * dt;
    if (job.io_bytes_remaining <= 0.0) {
      finish_offset = std::max(finish_offset, bw > 0.0 ? io_before / bw : 0.0);
    } else {
      finish_offset = dt;
    }
  }
  job.max_link_integral += std::min(max_link_util_, 1.0) * dt;
  job.max_mc_integral += std::min(max_mc_util_, 1.0) * dt;
  job.running_seconds += dt;
  if (config_.price_walks) {
    // Report whole walks to the P2M's locality counters; the fractional
    // remainder stays in the accumulators for the next epoch.
    const int64_t lw = static_cast<int64_t>(job.local_walks_acc);
    const int64_t rw = static_cast<int64_t>(job.remote_walks_acc);
    if (lw > job.local_walks_reported || rw > job.remote_walks_reported) {
      hv_->domain(job.spec.domain)
          .p2m()
          .NoteWalks(lw - job.local_walks_reported, rw - job.remote_walks_reported);
      job.local_walks_reported = lw;
      job.remote_walks_reported = rw;
    }
  }

  if (compute_done && job.io_bytes_remaining <= 0.0) {
    job.finished = true;
    job.finished_at = now - dt + std::min(finish_offset, dt);
    placement_.Finish(job.job_id);
  }
}

void Engine::RunAllocatorChurn(JobState& job, double dt, double now) {
  const AppProfile& app = *job.spec.app;
  if (app.release_rate_per_s <= 0.0 || job.finished) {
    return;
  }
  const double total_rate = app.release_rate_per_s * job.spec.threads;
  const int expected = static_cast<int>(total_rate * dt);
  const int n_ops = std::min(kChurnSampleOps, std::max(1, expected));

  GuestOs& guest = *job.spec.guest;
  const bool guest_mode = job.spec.exec_mode == ExecMode::kGuest;
  PvPageQueue::Stats before = guest.pv_queue().GetStats();

  const PlacementTracker::Region& region = placement_.regions(job.job_id)[job.private_region];
  // A random page of a random thread's slice; false when the slice is empty.
  auto pick = [&](int* thread, Vpn* vpn) {
    const int t = static_cast<int>(job.rng.NextInt(job.spec.threads));
    const int64_t begin = region.SliceBegin(t, job.spec.threads);
    const int64_t end = region.SliceEnd(t, job.spec.threads);
    if (end <= begin) {
      return false;
    }
    const int64_t idx = begin + job.rng.NextInt(end - begin);
    *thread = t;
    *vpn = region.first_vpn + idx;
    return true;
  };
  double fault_cost = 0.0;
  auto charge = [&](const TouchResult& touch) {
    if (touch.guest_alloc) {
      fault_cost += guest_mode ? kGuestMinorFaultSeconds : kNativeMinorFaultSeconds;
    }
    if (touch.hv_fault) {
      fault_cost += guest_mode ? hv_->costs().page_fault_s : kNativeMinorFaultSeconds;
    }
  };
  int t = 0;
  Vpn vpn = 0;
  if (job.spec.churn_reuse_delay_s > 0.0) {
    // Deferred reuse: first re-touch the pipelined releases whose reuse
    // distance has elapsed — the flush has invalidated them by now, so the
    // touch faults and placement follows the current allocation decision,
    // from the thread's *current* CPU. Then feed this epoch's releases
    // into the pipeline.
    int ops = 0;
    while (ops < n_ops && !job.churn_pending.empty() &&
           job.churn_pending.front().release_time + job.spec.churn_reuse_delay_s <= now) {
      const JobState::ChurnRelease entry = job.churn_pending.front();
      job.churn_pending.pop_front();
      charge(guest.TouchPage(job.pid, entry.vpn, job.threads[entry.thread].cpu,
                             /*vcpu=*/entry.thread));
      ++ops;
    }
    for (; ops < n_ops; ++ops) {
      if (pick(&t, &vpn)) {
        guest.ReleasePage(job.pid, vpn);
        job.churn_pending.push_back({now, t, vpn});
      }
    }
  } else {
    for (int i = 0; i < n_ops; ++i) {
      if (pick(&t, &vpn)) {
        guest.ReleasePage(job.pid, vpn);
        charge(guest.TouchPage(job.pid, vpn, job.threads[t].cpu, /*vcpu=*/t));
      }
    }
  }

  PvPageQueue::Stats after = guest.pv_queue().GetStats();
  const double hv_seconds = after.hypervisor_seconds - before.hypervisor_seconds;
  const int64_t flushes = after.flushes - before.flushes;
  const int64_t pushes = after.pushes - before.pushes;

  double per_op = fault_cost / n_ops + kQueueAppendSeconds;
  if (pushes > 0) {
    per_op += hv_seconds / static_cast<double>(pushes) * 2.0;  // alloc + release entries
  }

  // Partition-lock queueing: the lock is held across the flush hypercall, so
  // concurrent releasers wait behind it (M/M/1 approximation).
  if (flushes > 0 && guest_mode) {
    const double flush_cost = hv_seconds / static_cast<double>(flushes);
    const int partitions = guest.pv_queue().num_partitions();
    const int batch = guest.pv_queue().batch_size();
    const double flush_rate_per_partition = 2.0 * total_rate / partitions / batch;
    const double rho = std::min(flush_rate_per_partition * flush_cost, 0.97);
    const double wait_per_flush = rho / (1.0 - rho) * flush_cost * 0.5;
    per_op += wait_per_flush / batch;
  }

  job.amortized_release_cost = 0.5 * job.amortized_release_cost + 0.5 * per_op;
}

void Engine::MigrateVcpus(JobState& job, double now) {
  if (job.spec.vcpu_migration_period_s <= 0.0 || job.finished) {
    return;
  }
  if (now - job.last_vcpu_migration < job.spec.vcpu_migration_period_s) {
    return;
  }
  job.last_vcpu_migration = now;
  const Topology& topo = hv_->topology();
  for (int k = 0; k < job.spec.vcpu_migrations_per_event; ++k) {
    const int a = static_cast<int>(job.rng.NextInt(job.spec.threads));
    const int b = static_cast<int>(job.rng.NextInt(job.spec.threads));
    ThreadState& ta = job.threads[a];
    ThreadState& tb = job.threads[b];
    if (ta.node == tb.node) {
      continue;
    }
    std::swap(ta.cpu, tb.cpu);
    ta.node = topo.node_of_cpu(ta.cpu);
    tb.node = topo.node_of_cpu(tb.cpu);
    // Thread t runs on vCPU t: tell the hypervisor both vCPUs relocated so
    // a vNUMA domain's topology generation reflects the move (the guest's
    // cached vcpu_to_vnode is NOT updated — that staleness is the point).
    hv_->NoteVcpuMoved(job.spec.domain, a, ta.cpu);
    hv_->NoteVcpuMoved(job.spec.domain, b, tb.cpu);
    // The migrated vCPU's architectural state moves with it; charge a small
    // stall (cache/TLB refill on the new CPU).
    job.pending_stall_seconds += 50e-6 / job.spec.threads;
  }
}

void Engine::TickCarrefour(double now) {
  if (now - last_carrefour_tick_ < config_.carrefour_period_seconds) {
    return;
  }
  last_carrefour_tick_ = now;
  const LatencyParams& lp = latency_->params();
  for (auto& jptr : jobs_) {
    JobState& job = *jptr;
    if (job.finished) {
      continue;
    }
    if (job.spec.auto_policy) {
      auto_selector_->Tick(job.spec.domain);
    }
    if (!hv_->domain(job.spec.domain).policy_config().carrefour) {
      continue;
    }
    const CarrefourTickStats stats = carrefour_user_->Tick(job.spec.domain);
    job.carrefour_migrations += stats.interleave_migrations + stats.locality_migrations;
    const auto window = hv_->backend(job.spec.domain).DrainMigrationWindow();
    if (window.migrations > 0) {
      const double copy_bw =
          hv_->topology().links().front().bandwidth_bytes_per_s * lp.link_efficiency;
      const double stall = window.migrations * hv_->costs().migration_fixed_s +
                           static_cast<double>(window.bytes) / copy_bw;
      job.pending_stall_seconds += stall / job.spec.threads;
    }
  }
}

void Engine::SampleHotPages(DomainId domain, int max_pages,
                            std::vector<PageAccessSample>* out) {
  // Carrefour samples mid-epoch, after churn/migrations may have moved
  // pages; bring the placement cache up to the live state first.
  placement_.DrainEvents();
  for (auto& jptr : jobs_) {
    JobState& job = *jptr;
    if (job.spec.domain != domain || job.finished) {
      continue;
    }
    placement_.Refresh(job.job_id);
    scan_threads_.clear();
    for (const ThreadState& th : job.threads) {
      scan_threads_.push_back({th.done ? kInvalidNode : th.node, th.rate});
    }
    sampler_.AddJob(placement_.regions(job.job_id), scan_threads_);
  }
  // The scan draws its noise from the engine's generator, which the jobs'
  // generators were forked from.
  sampler_.Select(domain, max_pages, rng_, out);
}

void Engine::TickScheduler(double now) {
  if (scheduler_ == nullptr || now - last_scheduler_tick_ < scheduler_period_s_) {
    return;
  }
  last_scheduler_tick_ = now;
  std::vector<Domain*> domains;
  for (const auto& jptr : jobs_) {
    if (!jptr->finished) {
      domains.push_back(&hv_->domain(jptr->spec.domain));
    }
  }
  if (domains.empty()) {
    return;
  }
  const int migrations = scheduler_->Rebalance(domains);
  const Topology& topo = hv_->topology();
  for (auto& jptr : jobs_) {
    JobState& job = *jptr;
    if (job.finished) {
      continue;
    }
    const Domain& dom = hv_->domain(job.spec.domain);
    bool moved = false;
    for (int t = 0; t < job.spec.threads; ++t) {
      ThreadState& th = job.threads[t];
      const CpuId cpu = dom.vcpus()[t].pinned_cpu;
      if (th.cpu != cpu) {
        th.cpu = cpu;
        th.node = topo.node_of_cpu(cpu);
        // The credit scheduler re-pins through Domain directly; forward the
        // move to the P2M so replica walks price from the right node.
        hv_->domain(job.spec.domain).p2m().SetVcpuNode(t, th.node);
        moved = true;
      }
    }
    if (moved && migrations > 0) {
      // Microarchitectural state does not follow the vCPU.
      job.pending_stall_seconds += 50e-6 * migrations / job.spec.threads;
    }
  }
}

void Engine::RecordTrace(double now) {
  if (trace_ == nullptr) {
    return;
  }
  EpochSample sample;
  sample.time_seconds = now;
  sample.max_mc_util = max_mc_util_;
  sample.avg_mc_util = MeanOf(solver_.mc_util());
  sample.max_link_util = max_link_util_;
  sample.avg_link_util = MeanOf(solver_.link_util());
  for (const auto& jptr : jobs_) {
    const JobState& job = *jptr;
    JobEpochSample js;
    js.job_id = job.job_id;
    js.app = job.spec.app->name;
    js.finished = job.finished;
    js.overhead_fraction = job.overhead_fraction;
    js.carrefour_migrations = job.carrefour_migrations;
    double weighted = 0.0;
    for (const ThreadState& th : job.threads) {
      if (!th.done) {
        js.total_rate += th.rate;
        weighted += th.last_latency_cycles * th.rate;
      }
    }
    js.avg_latency_cycles = js.total_rate > 0.0 ? weighted / js.total_rate : 0.0;
    sample.jobs.push_back(std::move(js));
  }
  trace_->Record(std::move(sample));
}

void Engine::EmitEpochObservability(double now) {
  if (obs_ == nullptr) {
    return;
  }
  EventTracer& tracer = obs_->tracer();
  tracer.set_sim_time(now);
  max_mc_util_gauge_->Set(max_mc_util_);
  max_link_util_gauge_->Set(max_link_util_);
  sim_seconds_gauge_->Set(now);
  tracer.EmitCounter("max_mc_util", "engine", max_mc_util_);
  tracer.EmitCounter("max_link_util", "engine", max_link_util_);
}

RunResult Engine::Run() {
  {
    XNUMA_TRACE_SCOPE(obs_, "init_jobs", "engine");
    for (auto& job : jobs_) {
      InitJob(*job);
    }
  }

  const double dt = config_.epoch_seconds;
  double now = 0.0;
  while (now < config_.max_sim_seconds) {
    if (std::all_of(jobs_.begin(), jobs_.end(), [](const auto& job) { return job->finished; })) {
      break;
    }

    if (obs_ != nullptr) {
      obs_->tracer().set_sim_time(now);
    }
    {
      XNUMA_TRACE_SCOPE(obs_, "placement_refresh", "engine", refresh_seconds_);
      placement_.DrainEvents();
      for (auto& job : jobs_) {
        if (job->finished) {
          continue;
        }
        placement_.Refresh(job->job_id);
        ComputeAccessDistributions(*job);
        job->overhead_fraction = ThreadOverheadFraction(*job);
      }
    }

    {
      XNUMA_TRACE_SCOPE(obs_, "solver_fixed_point", "engine", solver_.seconds_histogram());
      SolveUtilization();
    }
    ++epochs_run_;
    if (obs_ != nullptr) {
      epoch_count_->Increment();
    }
    max_mc_util_ = MaxOf(solver_.mc_util());
    max_link_util_ = MaxOf(solver_.link_util());

    // Commit the hardware counters for this epoch. The snapshot is reused,
    // so once sized neither filling nor committing it allocates.
    const std::vector<double>& traffic = solver_.traffic();
    const size_t nodes = dma_bytes_per_node_.size();
    epoch_snapshot_.epoch_seconds = dt;
    epoch_snapshot_.accesses_per_s.resize(nodes);
    for (size_t src = 0; src < nodes; ++src) {
      epoch_snapshot_.accesses_per_s[src].assign(traffic.begin() + src * nodes,
                                                 traffic.begin() + (src + 1) * nodes);
    }
    epoch_snapshot_.dma_bytes_per_s = dma_bytes_per_node_;
    epoch_snapshot_.mc_utilization = solver_.mc_util();
    epoch_snapshot_.link_utilization = solver_.link_util();
    counters_.CommitEpoch(epoch_snapshot_);

    now += dt;
    for (auto& job : jobs_) {
      if (job->finished) {
        continue;
      }
      AdvanceProgress(*job, dt, now);
      RunAllocatorChurn(*job, dt, now);
      MigrateVcpus(*job, now);
    }
    TickCarrefour(now);
    TickScheduler(now);
    RecordTrace(now);
    EmitEpochObservability(now);
    if (epoch_hook_) {
      epoch_hook_(now);
    }
  }

  RunResult result;
  result.sim_seconds = now;
  for (auto& jptr : jobs_) {
    JobState& job = *jptr;
    JobResult jr;
    jr.app = job.spec.app->name;
    jr.domain = job.spec.domain;
    jr.finished = job.finished;
    const double body = job.finished ? job.finished_at : now;
    jr.completion_seconds = job.init_seconds + body;
    jr.init_seconds = job.init_seconds;
    jr.compute_seconds = body;
    jr.imbalance_pct = RelativeStddevPercent(job.cum_node_accesses);
    if (job.running_seconds > 0.0) {
      jr.interconnect_pct = 100.0 * job.max_link_integral / job.running_seconds;
      jr.avg_mc_util_pct = 100.0 * job.max_mc_integral / job.running_seconds;
    }
    double lat_sum = 0.0;
    double lat_w = 0.0;
    for (const ThreadState& th : job.threads) {
      lat_sum += th.latency_weighted;
      lat_w += th.latency_weight;
    }
    jr.avg_latency_cycles = lat_w > 0.0 ? lat_sum / lat_w : 0.0;
    jr.observed_disk_mb_per_s =
        jr.completion_seconds > 0.0 ? job.spec.app->disk_read_mb / jr.completion_seconds : 0.0;
    const SyncOutcome sync = EvaluateSync(job.spec.sync, job.spec.exec_mode,
                                          job.spec.app->blocking_rate_per_s, ipi_model_);
    jr.observed_ctx_switches_per_s = sync.context_switches_per_s;
    jr.hv_page_faults = hv_->domain(job.spec.domain).stats().hv_page_faults;
    jr.carrefour_migrations = job.carrefour_migrations;
    jr.final_policy = hv_->domain(job.spec.domain).policy_config();
    if (job.spec.auto_policy) {
      jr.policy_switches = auto_selector_->stats(job.spec.domain).policy_switches;
    }
    jr.local_walks = job.local_walks_reported;
    jr.remote_walks = job.remote_walks_reported;
    result.jobs.push_back(std::move(jr));
  }
  return result;
}

}  // namespace xnuma
