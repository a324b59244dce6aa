#include "src/sim/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>

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
}  // namespace

// Cached placement of one simulated page, as last read from the guest
// vpn->pfn table and the hypervisor P2M. The epoch loop updates entries only
// for pages named in the drained dirty sets.
struct Engine::PagePlacement {
  Pfn pfn = kInvalidPfn;       // guest physical page backing the vpage
  NodeId node = kInvalidNode;  // node backing the pfn (unreplicated pages)
  bool mapped = false;         // P2M entry valid
  bool replicated = false;     // served locally on every node (§3.4)

  bool operator==(const PagePlacement&) const = default;
};

// Placement mass of one region: per-node and per-slice-per-node weighted
// page counts. Kept as exact integer page counts (every page of a region
// weighs either w_hot or w_cold), so incremental add/subtract updates are
// order-independent and bit-identical to a from-scratch rescan; the double
// masses the solver consumes are derived from the counts on demand.
struct Engine::RegionState {
  const RegionSpec* spec = nullptr;
  Vpn first_vpn = 0;
  int64_t pages = 0;
  int64_t hot_count = 0;
  int64_t hot_stride = 1;
  double w_hot = 0.0;
  double w_cold = 0.0;

  std::vector<double> node_mass;                // [nodes]
  double total_mass = 0.0;
  // Weight of replicated pages (optional §3.4 extension): served locally on
  // every node, so they contribute pure local accesses for every thread.
  double replicated_mass = 0.0;
  std::vector<std::vector<double>> slice_mass;  // [threads][nodes]
  std::vector<double> slice_total;              // [threads]

  // Integer page-count aggregates behind the derived masses above.
  struct Counts {
    std::vector<int64_t> hot_by_node;                // [nodes]
    std::vector<int64_t> cold_by_node;               // [nodes]
    std::vector<std::vector<int64_t>> slice_hot;     // [threads][nodes]
    std::vector<std::vector<int64_t>> slice_cold;    // [threads][nodes]
    std::vector<int64_t> slice_hot_total;            // [threads]
    std::vector<int64_t> slice_cold_total;           // [threads]
    int64_t hot_total = 0;
    int64_t cold_total = 0;
    int64_t rep_hot = 0;
    int64_t rep_cold = 0;

    bool operator==(const Counts&) const = default;

    void Init(int threads, int nodes) {
      hot_by_node.assign(nodes, 0);
      cold_by_node.assign(nodes, 0);
      slice_hot.assign(threads, std::vector<int64_t>(nodes, 0));
      slice_cold.assign(threads, std::vector<int64_t>(nodes, 0));
      slice_hot_total.assign(threads, 0);
      slice_cold_total.assign(threads, 0);
      hot_total = cold_total = rep_hot = rep_cold = 0;
    }

    void Zero() {
      std::fill(hot_by_node.begin(), hot_by_node.end(), 0);
      std::fill(cold_by_node.begin(), cold_by_node.end(), 0);
      for (auto& row : slice_hot) {
        std::fill(row.begin(), row.end(), 0);
      }
      for (auto& row : slice_cold) {
        std::fill(row.begin(), row.end(), 0);
      }
      std::fill(slice_hot_total.begin(), slice_hot_total.end(), 0);
      std::fill(slice_cold_total.begin(), slice_cold_total.end(), 0);
      hot_total = cold_total = rep_hot = rep_cold = 0;
    }

    void Apply(const PagePlacement& page, bool hot, int64_t slice, int64_t sign) {
      if (!page.mapped) {
        return;
      }
      if (page.replicated) {
        (hot ? rep_hot : rep_cold) += sign;
        return;
      }
      if (hot) {
        hot_by_node[page.node] += sign;
        hot_total += sign;
        slice_hot[slice][page.node] += sign;
        slice_hot_total[slice] += sign;
      } else {
        cold_by_node[page.node] += sign;
        cold_total += sign;
        slice_cold[slice][page.node] += sign;
        slice_cold_total[slice] += sign;
      }
    }
  };
  Counts counts;
  std::vector<PagePlacement> page_cache;  // [pages]

  bool IsHot(int64_t idx) const {
    return idx % hot_stride == 0 && idx / hot_stride < hot_count;
  }
  double Weight(int64_t idx) const { return IsHot(idx) ? w_hot : w_cold; }
  int64_t SliceOf(int64_t idx, int threads) const {
    const int64_t len = std::max<int64_t>(1, pages / threads);
    return std::min<int64_t>(idx / len, threads - 1);
  }
  int64_t SliceBegin(int64_t t, int threads) const {
    const int64_t len = std::max<int64_t>(1, pages / threads);
    return std::min(t * len, pages);
  }
  int64_t SliceEnd(int64_t t, int threads) const {
    if (t == threads - 1) {
      return pages;
    }
    const int64_t len = std::max<int64_t>(1, pages / threads);
    return std::min((t + 1) * len, pages);
  }
};

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
  std::vector<RegionState> regions;
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
  double ctx_switch_rate = 0.0;

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

  // ---- Incremental placement state. ----
  // Vpns drained from the guest/backend dirty sets, awaiting re-read.
  std::vector<Vpn> pending_dirty;
  // First refresh, or a dirty-set overflow: rescan every region page.
  bool needs_full_rescan = true;
  // Counts changed since the double masses were last derived from them.
  bool masses_stale = true;
  // Bumped by DeriveRegionMasses, the only writer of the derived masses;
  // the threads' p_node were last computed from p_node_mass_generation.
  uint64_t mass_generation = 0;
  uint64_t p_node_mass_generation = 0;
  int64_t refresh_count = 0;
};

int64_t RegionSimPages(const RegionSpec& region, int64_t bytes_per_frame,
                       int64_t fallback_min_pages) {
  const int64_t frame_mb = bytes_per_frame / (1 << 20);
  const int64_t min_pages = region.min_pages > 0 ? region.min_pages : fallback_min_pages;
  return std::max<int64_t>(min_pages,
                           static_cast<int64_t>(std::ceil(region.footprint_mb / frame_mb)));
}

int64_t AppSimPages(const AppProfile& app, int64_t bytes_per_frame, int64_t fallback_min_pages) {
  int64_t total = 0;
  for (const RegionSpec& r : app.regions) {
    total += RegionSimPages(r, bytes_per_frame, fallback_min_pages);
  }
  return total;
}

Engine::Engine(Hypervisor& hv, const LatencyModel& latency, EngineConfig config)
    : hv_(&hv),
      latency_(&latency),
      config_(config),
      rng_(config.seed),
      counters_(hv.topology()) {
  const Topology& topo = hv.topology();
  const int nodes = topo.num_nodes();
  const LatencyParams& lp = latency.params();
  mc_util_.assign(nodes, 0.0);
  link_util_.assign(topo.num_links(), 0.0);
  traffic_.assign(static_cast<size_t>(nodes) * nodes, 0.0);
  dma_bytes_per_node_.assign(nodes, 0.0);
  mc_scratch_.assign(nodes, 0.0);
  link_scratch_.assign(topo.num_links(), 0.0);
  pair_cycles_.assign(static_cast<size_t>(nodes) * nodes, 0.0);
  pair_read_.assign(static_cast<size_t>(nodes) * nodes, 0);
  cpu_sharers_.assign(topo.num_cpus(), 0);
  for (NodeId n = 0; n < nodes; ++n) {
    mc_capacity_.push_back(topo.node(n).mc_bandwidth_bytes_per_s * lp.mc_efficiency);
  }
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    link_capacity_.push_back(topo.link(l).bandwidth_bytes_per_s * lp.link_efficiency);
  }
  size_t memo_size = 2;
  congestion_shift_ = 63;
  while (memo_size < 2 * static_cast<size_t>(nodes) * nodes) {
    memo_size *= 2;
    --congestion_shift_;
  }
  congestion_memo_.resize(memo_size);
  // Flatten the all-shortest-paths table once; the solver's inner loops walk
  // this index instead of the nested Routes() vectors.
  route_pairs_.resize(static_cast<size_t>(nodes) * nodes);
  for (NodeId s = 0; s < nodes; ++s) {
    for (NodeId d = 0; d < nodes; ++d) {
      RoutePair& pair = route_pairs_[static_cast<size_t>(s) * nodes + d];
      const auto& paths = topo.Routes(s, d);
      pair.first_path = static_cast<int32_t>(route_paths_.size());
      pair.num_paths = static_cast<int32_t>(paths.size());
      for (const auto& path : paths) {
        RoutePath rp;
        rp.first_link = static_cast<int32_t>(route_links_.size());
        rp.num_links = static_cast<int32_t>(path.size());
        route_paths_.push_back(rp);
        route_links_.insert(route_links_.end(), path.begin(), path.end());
      }
    }
  }
  if (const char* verify = getenv("XNUMA_VERIFY_PLACEMENT_CACHE"); verify != nullptr) {
    verify_cache_period_ = std::max(0, atoi(verify));
  }
  carrefour_system_ = std::make_unique<CarrefourSystemComponent>(hv, counters_, *this);
  carrefour_user_ =
      std::make_unique<CarrefourUserComponent>(*carrefour_system_, config_.carrefour, config.seed);
  auto_selector_ =
      std::make_unique<AutoPolicySelector>(hv, *carrefour_system_, config_.auto_selector);

  // Observability rides the hypervisor attachment (experiment.cc attaches it
  // before the engine exists); a null context keeps every hook free.
  obs_ = hv.observability();
  carrefour_user_->set_observability(obs_);
  if (obs_ != nullptr) {
    MetricsRegistry& m = obs_->metrics();
    epoch_count_ = m.RegisterCounter("engine.epochs", "epochs", "Simulation epochs run");
    full_rescan_count_ = m.RegisterCounter(
        "engine.placement.full_rescans", "rescans",
        "Placement refreshes that fell back to a whole-region rescan");
    dirty_event_count_ = m.RegisterCounter(
        "engine.placement.dirty_events", "events",
        "Dirty-page events applied incrementally to the placement cache");
    distribution_recomputes_ = m.RegisterCounter(
        "engine.placement.distribution_recomputes", "job-epochs",
        "Job-epochs whose access distributions were recomputed (the rest reused them)");
    solver_seconds_ = m.RegisterHistogram(
        "engine.solver.seconds", "s",
        "Wall-clock cost of one utilization fixed-point solve");
    solver_iterations_ = m.RegisterHistogram(
        "engine.solver.iterations", "iterations",
        "Picard iterations per fixed-point solve",
        {1, 2, 4, 6, 8, 12, 16, 20, 24, 32, 48, 64});
    solver_residual_ = m.RegisterHistogram(
        "engine.solver.residual", "utilization",
        "Largest utilization change in the last iteration of a fixed-point solve",
        {1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1});
    solver_unconverged_ = m.RegisterCounter(
        "engine.solver.unconverged", "solves",
        "Fixed-point solves stopped by the iteration cap above the tolerance");
    solver_plan_builds_ = m.RegisterCounter(
        "engine.solver.plan_builds", "plans",
        "Solve plans built because the running threads or their distributions moved");
    solver_congestion_evals_ = m.RegisterCounter(
        "engine.solver.congestion_evals", "evaluations",
        "Congestion-factor evaluations (one per distinct input per iteration)");
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
    sampler_candidates_ = m.RegisterCounter(
        "engine.sampler.candidates", "pages", "Candidate pages considered by hot-page scans");
    sampler_bounded_ = m.RegisterCounter(
        "engine.sampler.bounded", "pages",
        "Candidate pages whose own noisy-total bound hot-page scans computed");
    sampler_scored_ = m.RegisterCounter(
        "engine.sampler.scored", "pages",
        "Candidate pages whose sampling noise a hot-page scan transformed");
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

  const Topology& topo = hv_->topology();

  // Lay the regions out in one process address space.
  Vpn next_vpn = 0;
  int64_t largest_master = -1;
  for (size_t r = 0; r < spec.app->regions.size(); ++r) {
    const RegionSpec& rs = spec.app->regions[r];
    RegionState region;
    region.spec = &rs;
    region.first_vpn = next_vpn;
    region.pages =
        RegionSimPages(rs, hv_->frames().bytes_per_frame(), config_.min_region_pages);
    next_vpn += region.pages;
    region.hot_count =
        std::clamp<int64_t>(std::llround(rs.hot_fraction * region.pages), 1, region.pages);
    region.hot_stride = std::max<int64_t>(1, region.pages / region.hot_count);
    region.w_hot = rs.hot_share / static_cast<double>(region.hot_count);
    const int64_t cold = region.pages - region.hot_count;
    region.w_cold = cold > 0 ? (1.0 - rs.hot_share) / static_cast<double>(cold) : 0.0;
    region.node_mass.assign(topo.num_nodes(), 0.0);
    region.slice_mass.assign(spec.threads, std::vector<double>(topo.num_nodes(), 0.0));
    region.slice_total.assign(spec.threads, 0.0);
    region.counts.Init(spec.threads, topo.num_nodes());
    region.page_cache.assign(region.pages, PagePlacement{});
    if (rs.init == AllocPattern::kMasterInit) {
      // The DMA buffer lives in the biggest master-initialized region (the
      // streamed bulk data).
      if (region.pages > largest_master) {
        largest_master = region.pages;
        job->shared_region = static_cast<int>(r);
      }
    } else {
      job->private_region = static_cast<int>(r);
    }
    job->regions.push_back(std::move(region));
  }
  job->pid = spec.guest->CreateProcess(next_vpn);
  job_by_guest_pid_[{spec.guest, job->pid}] = job->job_id;

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
  for (RegionState& region : job.regions) {
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
  double max_owner = 0.0;
  for (double s : owner_seconds) {
    max_owner = std::max(max_owner, s);
  }
  job.init_seconds = master_seconds + max_owner;
}

Engine::PagePlacement Engine::ReadPagePlacement(const JobState& job, Vpn vpn,
                                                bool sequential) const {
  PagePlacement page;
  page.pfn = job.spec.guest->PfnOfVpage(job.pid, vpn);
  if (page.pfn == kInvalidPfn) {
    return page;
  }
  const HvPlacementBackend& be = hv_->backend(job.spec.domain);
  const bool memo_hit = run_memo_cached_ && run_memo_domain_ == job.spec.domain &&
                        run_memo_gen_ == be.placement_generation() &&
                        page.pfn >= run_memo_.first &&
                        page.pfn < run_memo_.first + run_memo_.count;
  if (!memo_hit && !sequential) {
    // Dirty-delta pages come from allocator churn and are anti-contiguous;
    // resolving a whole run would be wasted work, so read the single entry.
    const NodeId node = be.NodeOf(page.pfn);
    if (node == kInvalidNode) {
      return page;  // Released and not yet retouched.
    }
    page.mapped = true;
    if (be.IsReplicated(page.pfn)) {
      page.replicated = true;
      return page;
    }
    page.node = node;
    return page;
  }
  if (!memo_hit) {
    run_memo_ = be.NodeOfRange(page.pfn);
    run_memo_gen_ = be.placement_generation();
    run_memo_domain_ = job.spec.domain;
    run_memo_cached_ = true;
  }
  if (!run_memo_.mapped) {
    return page;  // Released and not yet retouched.
  }
  page.mapped = true;
  if (be.IsReplicated(page.pfn)) {
    page.replicated = true;
    return page;
  }
  page.node = run_memo_.node;
  return page;
}

void Engine::FullRescanRegion(const JobState& job, RegionState& region) {
  region.counts.Zero();
  for (int64_t idx = 0; idx < region.pages; ++idx) {
    const PagePlacement page = ReadPagePlacement(job, region.first_vpn + idx);
    region.page_cache[idx] = page;
    region.counts.Apply(page, region.IsHot(idx), region.SliceOf(idx, job.spec.threads), +1);
  }
}

void Engine::ApplyPageDelta(JobState& job, Vpn vpn) {
  RegionState* region = nullptr;
  for (RegionState& r : job.regions) {
    if (vpn >= r.first_vpn && vpn < r.first_vpn + r.pages) {
      region = &r;
      break;
    }
  }
  if (region == nullptr) {
    return;  // vpn outside any simulated region
  }
  const int64_t idx = vpn - region->first_vpn;
  const PagePlacement current = ReadPagePlacement(job, vpn, /*sequential=*/false);
  PagePlacement& cached = region->page_cache[idx];
  if (cached == current) {
    return;
  }
  const bool hot = region->IsHot(idx);
  const int64_t slice = region->SliceOf(idx, job.spec.threads);
  region->counts.Apply(cached, hot, slice, -1);
  region->counts.Apply(current, hot, slice, +1);
  cached = current;
  job.masses_stale = true;
}

void Engine::DeriveRegionMasses(JobState& job) {
  const int nodes = hv_->topology().num_nodes();
  for (RegionState& region : job.regions) {
    const RegionState::Counts& c = region.counts;
    const double wh = region.w_hot;
    const double wc = region.w_cold;
    for (NodeId n = 0; n < nodes; ++n) {
      region.node_mass[n] = c.hot_by_node[n] * wh + c.cold_by_node[n] * wc;
    }
    region.total_mass = c.hot_total * wh + c.cold_total * wc;
    region.replicated_mass = c.rep_hot * wh + c.rep_cold * wc;
    for (int t = 0; t < job.spec.threads; ++t) {
      for (NodeId n = 0; n < nodes; ++n) {
        region.slice_mass[t][n] = c.slice_hot[t][n] * wh + c.slice_cold[t][n] * wc;
      }
      region.slice_total[t] = c.slice_hot_total[t] * wh + c.slice_cold_total[t] * wc;
    }
  }
  ++job.mass_generation;
}

void Engine::DrainPlacementEvents() {
  // Guest-side events name the affected vpage directly.
  for (size_t i = 0; i < jobs_.size(); ++i) {
    GuestOs* guest = jobs_[i]->spec.guest;
    bool first = true;
    for (size_t j = 0; j < i; ++j) {
      if (jobs_[j]->spec.guest == guest) {
        first = false;
        break;
      }
    }
    if (!first) {
      continue;  // this guest was already drained via an earlier job
    }
    vpage_event_scratch_.clear();
    if (!guest->DrainDirtyVpages(&vpage_event_scratch_)) {
      for (auto& jptr : jobs_) {
        if (jptr->spec.guest == guest) {
          jptr->needs_full_rescan = true;
        }
      }
      continue;
    }
    for (const GuestOs::VpageEvent& ev : vpage_event_scratch_) {
      const auto it = job_by_guest_pid_.find({guest, ev.pid});
      if (it == job_by_guest_pid_.end()) {
        continue;
      }
      JobState& job = *jobs_[it->second];
      if (job.finished || job.needs_full_rescan) {
        continue;
      }
      job.pending_dirty.push_back(ev.vpn);
    }
  }
  // Hypervisor-side events name a pfn (migration, replication, invalidation);
  // translate through the owning vpage. A pfn with no owner was released, and
  // the release already produced a guest-side event for its old vpage.
  for (size_t i = 0; i < jobs_.size(); ++i) {
    const DomainId dom = jobs_[i]->spec.domain;
    bool first = true;
    for (size_t j = 0; j < i; ++j) {
      if (jobs_[j]->spec.domain == dom) {
        first = false;
        break;
      }
    }
    if (!first) {
      continue;
    }
    pfn_event_scratch_.clear();
    if (!hv_->backend(dom).DrainDirtyPfns(&pfn_event_scratch_)) {
      for (auto& jptr : jobs_) {
        if (jptr->spec.domain == dom) {
          jptr->needs_full_rescan = true;
        }
      }
      continue;
    }
    for (size_t gi = 0; gi < jobs_.size(); ++gi) {
      if (jobs_[gi]->spec.domain != dom) {
        continue;
      }
      GuestOs* guest = jobs_[gi]->spec.guest;
      bool first_guest = true;
      for (size_t gj = 0; gj < gi; ++gj) {
        if (jobs_[gj]->spec.domain == dom && jobs_[gj]->spec.guest == guest) {
          first_guest = false;
          break;
        }
      }
      if (!first_guest) {
        continue;
      }
      int pid = -1;
      Vpn vpn = 0;
      for (Pfn pfn : pfn_event_scratch_) {
        if (!guest->VpageOfPfn(pfn, &pid, &vpn)) {
          continue;
        }
        const auto it = job_by_guest_pid_.find({guest, pid});
        if (it == job_by_guest_pid_.end()) {
          continue;
        }
        JobState& job = *jobs_[it->second];
        if (job.finished || job.needs_full_rescan) {
          continue;
        }
        job.pending_dirty.push_back(vpn);
      }
    }
  }
}

void Engine::RefreshPlacementTables(JobState& job) {
  if (job.needs_full_rescan) {
    for (RegionState& region : job.regions) {
      FullRescanRegion(job, region);
    }
    job.pending_dirty.clear();
    job.needs_full_rescan = false;
    job.masses_stale = true;
    if (full_rescan_count_ != nullptr) {
      full_rescan_count_->Increment();
    }
  } else {
    if (dirty_event_count_ != nullptr) {
      dirty_event_count_->Increment(static_cast<int64_t>(job.pending_dirty.size()));
    }
    for (Vpn vpn : job.pending_dirty) {
      ApplyPageDelta(job, vpn);
    }
    job.pending_dirty.clear();
  }
  if (job.masses_stale) {
    DeriveRegionMasses(job);
    job.masses_stale = false;
  }
  ++job.refresh_count;
  if (verify_cache_period_ > 0 && job.refresh_count % verify_cache_period_ == 0) {
    XNUMA_CHECK(VerifyPlacementCache(job));
  }
}

bool Engine::VerifyPlacementCache(const JobState& job) {
  const int nodes = hv_->topology().num_nodes();
  for (const RegionState& region : job.regions) {
    RegionState::Counts scratch;
    scratch.Init(job.spec.threads, nodes);
    for (int64_t idx = 0; idx < region.pages; ++idx) {
      const PagePlacement page = ReadPagePlacement(job, region.first_vpn + idx);
      if (!(page == region.page_cache[idx])) {
        return false;
      }
      scratch.Apply(page, region.IsHot(idx), region.SliceOf(idx, job.spec.threads), +1);
    }
    if (!(scratch == region.counts)) {
      return false;
    }
    // The derived masses must be exactly what the scratch counts produce.
    for (NodeId n = 0; n < nodes; ++n) {
      if (region.node_mass[n] != scratch.hot_by_node[n] * region.w_hot +
                                     scratch.cold_by_node[n] * region.w_cold) {
        return false;
      }
    }
    if (region.total_mass != scratch.hot_total * region.w_hot + scratch.cold_total * region.w_cold) {
      return false;
    }
    if (region.replicated_mass !=
        scratch.rep_hot * region.w_hot + scratch.rep_cold * region.w_cold) {
      return false;
    }
    for (int t = 0; t < job.spec.threads; ++t) {
      for (NodeId n = 0; n < nodes; ++n) {
        if (region.slice_mass[t][n] != scratch.slice_hot[t][n] * region.w_hot +
                                           scratch.slice_cold[t][n] * region.w_cold) {
          return false;
        }
      }
      if (region.slice_total[t] != scratch.slice_hot_total[t] * region.w_hot +
                                       scratch.slice_cold_total[t] * region.w_cold) {
        return false;
      }
    }
  }
  return true;
}

void Engine::DebugRefreshPlacement() {
  DrainPlacementEvents();
  for (auto& jptr : jobs_) {
    if (!jptr->finished) {
      RefreshPlacementTables(*jptr);
    }
  }
}

bool Engine::DebugVerifyPlacementCache() {
  for (auto& jptr : jobs_) {
    if (!jptr->finished && !VerifyPlacementCache(*jptr)) {
      return false;
    }
  }
  return true;
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
  bool current = job.p_node_mass_generation == job.mass_generation;
  for (const ThreadState& th : job.threads) {
    current = current && th.p_node_node == th.node && th.p_node_done == th.done;
  }
  if (current) {
    if (verify_cache_period_ > 0 && job.refresh_count % verify_cache_period_ == 0) {
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
  job.p_node_mass_generation = job.mass_generation;
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
  for (const RegionState& region : job.regions) {
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
  double total = 0.0;
  for (double p : p_out) {
    total += p;
  }
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

void Engine::RefreshSolvePlan() {
  // The current key goes into the spare plan; the plan in use is current
  // while its key and distribution generation match.
  SolvePlan& next = spare_plan_;
  next.key.clear();
  for (size_t j = 0; j < jobs_.size(); ++j) {
    const JobState& job = *jobs_[j];
    if (job.finished) {
      continue;
    }
    for (int t = 0; t < job.spec.threads; ++t) {
      const ThreadState& th = job.threads[t];
      if (!th.done) {
        next.key.push_back({static_cast<int32_t>(j), t, th.node, th.cpu});
      }
    }
  }
  const bool current =
      next.key == plan_.key && distribution_generation_ == plan_.distribution_generation;
  const bool verify = verify_cache_period_ > 0 && epochs_run_ % verify_cache_period_ == 0;
  if (current && !verify) {
    return;
  }
  BuildSolvePlan(&next);
  if (current) {
    XNUMA_CHECK(next == plan_);
    return;
  }
  std::swap(plan_, next);
  if (solver_plan_builds_ != nullptr) {
    solver_plan_builds_->Increment();
  }
}

void Engine::BuildSolvePlan(SolvePlan* plan) {
  const Topology& topo = hv_->topology();
  const int nodes = topo.num_nodes();
  // Running threads that share a CPU split it evenly (vCPUs consolidated on
  // one pCPU).
  std::fill(cpu_sharers_.begin(), cpu_sharers_.end(), 0);
  for (const PlanKey& k : plan->key) {
    ++cpu_sharers_[k.cpu];
  }
  std::fill(pair_read_.begin(), pair_read_.end(), 0);
  plan->distribution_generation = distribution_generation_;
  plan->threads.clear();
  plan->p_node.clear();
  for (const PlanKey& k : plan->key) {
    JobState& job = *jobs_[k.job];
    ThreadState& th = job.threads[k.thread];
    const int sharers = cpu_sharers_[k.cpu];
    const double share = sharers <= 1 ? 1.0 : 1.0 / sharers;
    plan->threads.push_back({&th, k.node, share * topo.cpu_hz(),
                             job.spec.app->cpu_cycles_per_access, job.spec.app->mlp});
    plan->p_node.insert(plan->p_node.end(), th.p_node.begin(), th.p_node.end());
    for (NodeId n = 0; n < nodes; ++n) {
      if (th.p_node[n] > 0.0) {
        pair_read_[static_cast<size_t>(k.node) * nodes + n] = 1;
      }
    }
  }
  plan->latency_pairs.clear();
  for (NodeId dst = 0; dst < nodes; ++dst) {
    for (NodeId src = 0; src < nodes; ++src) {
      if (pair_read_[static_cast<size_t>(src) * nodes + dst] != 0) {
        plan->latency_pairs.push_back({src, dst, topo.Distance(src, dst)});
      }
    }
  }
  // A pair no running thread reads carries exactly zero traffic, which the
  // link spread skips anyway.
  plan->remote_pairs.clear();
  for (NodeId src = 0; src < nodes; ++src) {
    for (NodeId dst = 0; dst < nodes; ++dst) {
      const int32_t index = src * nodes + dst;
      if (src != dst && pair_read_[index] != 0) {
        plan->remote_pairs.push_back(index);
      }
    }
  }
}

double Engine::MemoizedCongestionFactor(double util) {
  uint64_t bits = 0;
  std::memcpy(&bits, &util, sizeof(bits));
  const size_t mask = congestion_memo_.size() - 1;
  size_t slot = (bits * 0x9e3779b97f4a7c15ull) >> congestion_shift_;
  while (congestion_memo_[slot].stamp == congestion_stamp_) {
    if (congestion_memo_[slot].input_bits == bits) {
      return congestion_memo_[slot].factor;
    }
    slot = (slot + 1) & mask;
  }
  if (solver_congestion_evals_ != nullptr) {
    solver_congestion_evals_->Increment();
  }
  congestion_memo_[slot] = {bits, congestion_stamp_, latency_->CongestionFactor(util)};
  return congestion_memo_[slot].factor;
}

void Engine::PriceLatencyPairs() {
  // The congestion factor follows the bottleneck, std::max(mc, link): the
  // destination controller unless its utilization is below the path's link
  // utilization. Traffic splits evenly over equal-cost paths, so a pair's
  // link utilization is the average over its paths of each path's hottest
  // link. Controllers and links shared by many pairs hand the memo the
  // same input, which it prices once.
  const int nodes = hv_->topology().num_nodes();
  ++congestion_stamp_;
  for (const LatencyPair& pair : plan_.latency_pairs) {
    const size_t index = static_cast<size_t>(pair.src) * nodes + pair.dst;
    const RoutePair& route = route_pairs_[index];
    double total = 0.0;
    for (int32_t p = 0; p < route.num_paths; ++p) {
      const RoutePath& path = route_paths_[route.first_path + p];
      double worst = 0.0;
      for (int32_t k = 0; k < path.num_links; ++k) {
        worst = std::max(worst, link_util_[route_links_[path.first_link + k]]);
      }
      total += worst;
    }
    const double link = total / static_cast<double>(route.num_paths);
    const double mc = mc_util_[pair.dst];
    pair_cycles_[index] =
        latency_->CyclesAt(pair.hops, MemoizedCongestionFactor(mc < link ? link : mc));
  }
}

void Engine::SolveUtilizationFixedPoint() {
  const Topology& topo = hv_->topology();
  const int nodes = topo.num_nodes();
  const int links = topo.num_links();

  RefreshSolvePlan();
  const std::vector<PlanThread>& threads = plan_.threads;
  const size_t num_threads = threads.size();
  thread_rate_.resize(num_threads);
  thread_latency_.resize(num_threads);
  // Inputs that hold for the whole solve. Page-walks stall the pipeline (no
  // MLP overlap): local walks hit the node-local table or replica, remote
  // ones cross to the master (docs/MODEL.md §18).
  if (config_.price_walks) {
    const HvCosts& costs = hv_->costs();
    walk_cycles_.resize(num_threads);
    for (size_t i = 0; i < num_threads; ++i) {
      const double coverage = threads[i].state->walk_coverage;
      walk_cycles_[i] = costs.walk_miss_per_access *
                        (coverage * costs.walk_local_cycles +
                         (1.0 - coverage) * costs.walk_remote_cycles);
    }
  }
  // DMA streams land in the buffer (shared) region's pages.
  std::fill(dma_bytes_per_node_.begin(), dma_bytes_per_node_.end(), 0.0);
  for (const auto& jptr : jobs_) {
    const JobState& job = *jptr;
    if (job.finished || job.io_bytes_remaining <= 0.0) {
      continue;
    }
    const RegionState& buf = job.regions[job.shared_region];
    if (buf.total_mass > 0.0) {
      const double bw = io_model_.StreamBandwidth(
          job.spec.io_path, job.spec.app->io_request_kb * 1024,
          /*scattered_buffers=*/job.spec.exec_mode == ExecMode::kGuest);
      for (NodeId n = 0; n < nodes; ++n) {
        dma_bytes_per_node_[n] += bw * buf.node_mass[n] / buf.total_mass;
      }
    }
  }
  const NodeId disk_node = 6 < nodes ? 6 : nodes - 1;  // benchmark-data disk bus (§5.1)

  int iterations = 0;
  double max_delta = 0.0;
  do {
    PriceLatencyPairs();
    // Rates from current utilizations: each thread's latency is a dot
    // product of its distribution with its node's row of the latency table.
    // Its demands follow from its rate.
    std::fill(traffic_.begin(), traffic_.end(), 0.0);
    for (size_t i = 0; i < num_threads; ++i) {
      const PlanThread& th = threads[i];
      const double* p = &plan_.p_node[i * nodes];
      const double* cycles = &pair_cycles_[static_cast<size_t>(th.node) * nodes];
      double lat = 0.0;
      for (NodeId n = 0; n < nodes; ++n) {
        if (p[n] <= 0.0) {
          continue;
        }
        lat += p[n] * cycles[n];
      }
      // Memory-level parallelism overlaps part of the DRAM latency with
      // other outstanding accesses; the visible stall per access shrinks.
      double service_cycles = th.cycles_per_access + lat / th.mlp;
      if (config_.price_walks) {
        service_cycles += walk_cycles_[i];
      }
      const double rate = th.share_hz / service_cycles;
      thread_latency_[i] = lat;
      thread_rate_[i] = rate;
      double* row = &traffic_[static_cast<size_t>(th.node) * nodes];
      for (NodeId n = 0; n < nodes; ++n) {
        row[n] += rate * p[n];
      }
    }

    std::vector<double>& mc_new = mc_scratch_;
    for (NodeId n = 0; n < nodes; ++n) {
      double demand_bytes = dma_bytes_per_node_[n];
      for (NodeId src = 0; src < nodes; ++src) {
        demand_bytes += traffic_[static_cast<size_t>(src) * nodes + n] * kCacheLineBytes;
      }
      mc_new[n] = demand_bytes / mc_capacity_[n];
    }

    std::vector<double>& link_new = link_scratch_;
    std::fill(link_new.begin(), link_new.end(), 0.0);
    auto spread = [&](size_t index, double bytes) {
      const RoutePair& pair = route_pairs_[index];
      const double share = bytes / static_cast<double>(pair.num_paths);
      for (int32_t p = 0; p < pair.num_paths; ++p) {
        const RoutePath& path = route_paths_[pair.first_path + p];
        for (int32_t k = 0; k < path.num_links; ++k) {
          link_new[route_links_[path.first_link + k]] += share;
        }
      }
    };
    for (const int32_t index : plan_.remote_pairs) {
      const double bytes = traffic_[index] * kCacheLineBytes;
      if (bytes > 0.0) {
        spread(index, bytes);
      }
    }
    for (NodeId n = 0; n < nodes; ++n) {
      if (n == disk_node || dma_bytes_per_node_[n] <= 0.0) {
        continue;
      }
      spread(static_cast<size_t>(disk_node) * nodes + n, dma_bytes_per_node_[n]);
    }
    for (LinkId l = 0; l < links; ++l) {
      link_new[l] /= link_capacity_[l];
    }

    const double damp = kUtilizationDamping;
    max_delta = 0.0;
    for (NodeId n = 0; n < nodes; ++n) {
      const double updated = (1.0 - damp) * mc_util_[n] + damp * mc_new[n];
      max_delta = std::max(max_delta, std::fabs(updated - mc_util_[n]));
      mc_util_[n] = updated;
    }
    for (LinkId l = 0; l < links; ++l) {
      const double updated = (1.0 - damp) * link_util_[l] + damp * link_new[l];
      max_delta = std::max(max_delta, std::fabs(updated - link_util_[l]));
      link_util_[l] = updated;
    }
    ++iterations;
  } while (max_delta > kFixedPointTolerance && iterations < kFixedPointMaxIterations);

  for (size_t i = 0; i < num_threads; ++i) {
    threads[i].state->rate = thread_rate_[i];
    threads[i].state->last_latency_cycles = thread_latency_[i];
  }
  for (auto& jptr : jobs_) {
    if (jptr->finished) {
      continue;
    }
    for (ThreadState& th : jptr->threads) {
      if (th.done) {
        th.rate = 0.0;
      }
    }
  }
  last_fixed_point_iterations_ = iterations;
  last_fixed_point_residual_ = max_delta;
  fixed_point_iterations_total_ += iterations;
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
  double max_link = 0.0;
  for (double u : link_util_) {
    max_link = std::max(max_link, u);
  }
  double max_mc = 0.0;
  for (double u : mc_util_) {
    max_mc = std::max(max_mc, u);
  }
  job.max_link_integral += std::min(max_link, 1.0) * dt;
  job.max_mc_integral += std::min(max_mc, 1.0) * dt;
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

  if (ComputeDone(job) && job.io_bytes_remaining <= 0.0) {
    FinishJob(job, now - dt + std::min(finish_offset, dt));
  }
}

bool Engine::ComputeDone(const JobState& job) const {
  for (const ThreadState& th : job.threads) {
    if (!th.done) {
      return false;
    }
  }
  return true;
}

void Engine::FinishJob(JobState& job, double now) {
  job.finished = true;
  job.finished_at = now;
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

  RegionState& region = job.regions[job.private_region];
  double fault_cost = 0.0;
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
      const TouchResult touch = guest.TouchPage(job.pid, entry.vpn,
                                                job.threads[entry.thread].cpu,
                                                /*vcpu=*/entry.thread);
      if (touch.guest_alloc) {
        fault_cost += guest_mode ? kGuestMinorFaultSeconds : kNativeMinorFaultSeconds;
      }
      if (touch.hv_fault) {
        fault_cost += guest_mode ? hv_->costs().page_fault_s : kNativeMinorFaultSeconds;
      }
      ++ops;
    }
    for (; ops < n_ops; ++ops) {
      const int t = static_cast<int>(job.rng.NextInt(job.spec.threads));
      const int64_t begin = region.SliceBegin(t, job.spec.threads);
      const int64_t end = region.SliceEnd(t, job.spec.threads);
      if (end <= begin) {
        continue;
      }
      const int64_t idx = begin + job.rng.NextInt(end - begin);
      const Vpn vpn = region.first_vpn + idx;
      guest.ReleasePage(job.pid, vpn);
      job.churn_pending.push_back({now, t, vpn});
    }
  } else {
    for (int i = 0; i < n_ops; ++i) {
      const int t = static_cast<int>(job.rng.NextInt(job.spec.threads));
      const int64_t begin = region.SliceBegin(t, job.spec.threads);
      const int64_t end = region.SliceEnd(t, job.spec.threads);
      if (end <= begin) {
        continue;
      }
      const int64_t idx = begin + job.rng.NextInt(end - begin);
      const Vpn vpn = region.first_vpn + idx;
      guest.ReleasePage(job.pid, vpn);
      const TouchResult touch =
          guest.TouchPage(job.pid, vpn, job.threads[t].cpu, /*vcpu=*/t);
      if (touch.guest_alloc) {
        fault_cost += guest_mode ? kGuestMinorFaultSeconds : kNativeMinorFaultSeconds;
      }
      if (touch.hv_fault) {
        fault_cost += guest_mode ? hv_->costs().page_fault_s : kNativeMinorFaultSeconds;
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
  DrainPlacementEvents();
  const int nodes = hv_->topology().num_nodes();
  // Room for every page, written by index: the buffers only grow, so a
  // scan neither reallocates nor checks capacity per page.
  size_t max_candidates = 0;
  for (const auto& jptr : jobs_) {
    if (jptr->spec.domain == domain && !jptr->finished) {
      for (const RegionState& region : jptr->regions) {
        max_candidates += static_cast<size_t>(region.pages);
      }
    }
  }
  if (sample_pfns_.size() < max_candidates) {
    sample_pfns_.resize(max_candidates);
    sample_classes_.resize(max_candidates);
  }
  Pfn* pfns = sample_pfns_.data();
  int* classes = sample_classes_.data();
  int candidates = 0;
  class_rows_.clear();
  class_written_.clear();
  std::vector<double> uniform_by_node;
  std::vector<double> hot_rates;
  std::vector<double> cold_rates;
  std::vector<double> slice_rate;
  std::vector<NodeId> slice_node;
  for (auto& jptr : jobs_) {
    JobState& job = *jptr;
    if (job.spec.domain != domain || job.finished) {
      continue;
    }
    RefreshPlacementTables(job);
    for (const RegionState& region : job.regions) {
      const double share = region.spec->access_share;
      if (share <= 0.0 || region.total_mass <= 0.0) {
        continue;
      }
      const double aff = region.spec->owner_affinity;
      // Uniform component: per source node, the total rate into this region.
      uniform_by_node.assign(nodes, 0.0);
      // Affinity component per slice (attributed to the owner thread's node).
      slice_rate.assign(job.spec.threads, 0.0);
      slice_node.assign(job.spec.threads, kInvalidNode);
      for (int t = 0; t < job.spec.threads; ++t) {
        const ThreadState& th = job.threads[t];
        if (th.done) {
          continue;
        }
        uniform_by_node[th.node] += th.rate * share * (1.0 - aff);
        slice_rate[t] = th.rate * share * aff;
        slice_node[t] = th.node;
      }
      const bool written = region.spec->write_fraction > 0.0;
      // A page weighs w_hot or w_cold, so its rates are one of two rows per
      // slice: the uniform rates of its weight plus, on the slice owner's
      // node, the owner's affinity rate. Class 2 * slice + hot of this
      // region holds that row.
      hot_rates.resize(nodes);
      cold_rates.resize(nodes);
      for (NodeId n = 0; n < nodes; ++n) {
        hot_rates[n] = uniform_by_node[n] * region.w_hot / region.total_mass;
        cold_rates[n] = uniform_by_node[n] * region.w_cold / region.total_mass;
      }
      const int first_class = static_cast<int>(class_written_.size());
      for (int slice = 0; slice < job.spec.threads; ++slice) {
        const bool owned = region.slice_total[slice] > 0.0 && slice_node[slice] != kInvalidNode;
        for (const bool hot : {false, true}) {
          const std::vector<double>& uniform = hot ? hot_rates : cold_rates;
          class_rows_.insert(class_rows_.end(), uniform.begin(), uniform.end());
          if (owned) {
            const double w = hot ? region.w_hot : region.w_cold;
            class_rows_[class_rows_.size() - nodes + slice_node[slice]] +=
                slice_rate[slice] * w / region.slice_total[slice];
          }
          class_written_.push_back(written);
        }
        const int cold_class = first_class + 2 * slice;
        // IsHot(idx) without a division per page: hot pages are the
        // multiples of hot_stride below hot_end.
        const int64_t stride = region.hot_stride;
        const int64_t hot_end = region.hot_count * stride;
        const int64_t begin = region.SliceBegin(slice, job.spec.threads);
        const int64_t end = region.SliceEnd(slice, job.spec.threads);
        int64_t next_multiple = (begin + stride - 1) / stride * stride;
        for (int64_t idx = begin; idx < end; ++idx) {
          const bool hot = idx == next_multiple && idx < hot_end;
          next_multiple += idx == next_multiple ? stride : 0;
          const PagePlacement& page = region.page_cache[idx];
          if (page.pfn == kInvalidPfn || page.replicated) {
            continue;  // replicated pages are already local everywhere
          }
          pfns[candidates] = page.pfn;
          classes[candidates] = cold_class + (hot ? 1 : 0);
          ++candidates;
        }
      }
    }
  }
  // IBS-style sampling noise; the noisy totals rank the pages.
  const int keep = top_k_.Select(class_rows_, std::span<const int>(classes, candidates), nodes,
                                 max_pages, kSamplingNoise, rng_);
  // Kept pages overwrite the caller's samples in place, reusing their rate
  // vectors.
  out->resize(keep);
  for (int k = 0; k < keep; ++k) {
    const int i = top_k_.kept(k);
    const double* rates = top_k_.kept_rates(k);
    PageAccessSample& sample = (*out)[k];
    sample.domain = domain;
    sample.pfn = pfns[i];
    sample.current_node = kInvalidNode;
    sample.rate_by_node.assign(rates, rates + nodes);
    sample.written = class_written_[classes[i]];
  }
  if (obs_ != nullptr) {
    sampler_candidates_->Increment(candidates);
    sampler_bounded_->Increment(top_k_.bounded());
    sampler_scored_->Increment(top_k_.scored());
  }
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
  double mc_sum = 0.0;
  for (double u : mc_util_) {
    sample.max_mc_util = std::max(sample.max_mc_util, u);
    mc_sum += u;
  }
  sample.avg_mc_util = mc_util_.empty() ? 0.0 : mc_sum / mc_util_.size();
  double link_sum = 0.0;
  for (double u : link_util_) {
    sample.max_link_util = std::max(sample.max_link_util, u);
    link_sum += u;
  }
  sample.avg_link_util = link_util_.empty() ? 0.0 : link_sum / link_util_.size();
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
  double max_mc = 0.0;
  for (double u : mc_util_) {
    max_mc = std::max(max_mc, u);
  }
  double max_link = 0.0;
  for (double u : link_util_) {
    max_link = std::max(max_link, u);
  }
  max_mc_util_gauge_->Set(max_mc);
  max_link_util_gauge_->Set(max_link);
  sim_seconds_gauge_->Set(now);
  tracer.EmitCounter("max_mc_util", "engine", max_mc);
  tracer.EmitCounter("max_link_util", "engine", max_link);
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
    bool all_done = true;
    for (auto& job : jobs_) {
      if (!job->finished) {
        all_done = false;
      }
    }
    if (all_done) {
      break;
    }

    if (obs_ != nullptr) {
      obs_->tracer().set_sim_time(now);
    }
    {
      XNUMA_TRACE_SCOPE(obs_, "placement_refresh", "engine", refresh_seconds_);
      DrainPlacementEvents();
      for (auto& job : jobs_) {
        if (job->finished) {
          continue;
        }
        RefreshPlacementTables(*job);
        ComputeAccessDistributions(*job);
        job->overhead_fraction = ThreadOverheadFraction(*job);
      }
    }

    {
      XNUMA_TRACE_SCOPE(obs_, "solver_fixed_point", "engine", solver_seconds_);
      SolveUtilizationFixedPoint();
    }
    ++epochs_run_;
    if (obs_ != nullptr) {
      epoch_count_->Increment();
      solver_iterations_->Observe(static_cast<double>(last_fixed_point_iterations_));
      solver_residual_->Observe(last_fixed_point_residual_);
      if (last_fixed_point_residual_ > kFixedPointTolerance) {
        solver_unconverged_->Increment();
      }
    }

    // Commit the hardware counters for this epoch. The snapshot is reused,
    // so once sized neither filling nor committing it allocates.
    const size_t nodes = mc_util_.size();
    epoch_snapshot_.epoch_seconds = dt;
    epoch_snapshot_.accesses_per_s.resize(nodes);
    for (size_t src = 0; src < nodes; ++src) {
      epoch_snapshot_.accesses_per_s[src].assign(traffic_.begin() + src * nodes,
                                                 traffic_.begin() + (src + 1) * nodes);
    }
    epoch_snapshot_.dma_bytes_per_s = dma_bytes_per_node_;
    epoch_snapshot_.mc_utilization = mc_util_;
    epoch_snapshot_.link_utilization = link_util_;
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
