// Pinned results of whole simulations along the engine paths that move
// threads, share CPUs, price page-walks or overload the solver.
//
// The epoch loop reuses a job's access distributions while its derived
// masses and every thread's (node, done) stay put, reuses the solve plan
// while its key (every running thread's job, index, node and CPU, and the
// distribution generation) stays put, and prices each distinct congestion
// input once per iteration. None of it may alter a single bit of any
// result. P2mPinnedTest covers one pinned 12-thread domain; these cells
// reach what it does not: a 48-thread run whose solves hit the iteration
// cap, two consolidated jobs sharing every CPU, the credit scheduler
// moving vCPUs, priced walks with replication, and a native Linux run with
// MCS locks. The digests were recorded before any of these reuses existed
// (and rehashed without the fault counters, zero in every cell, when the
// fault layer was deleted). The replicated cell's digest was recorded with
// a walk-affinity orchestrator ticking too, which never re-pinned a vCPU
// because the replicas already covered every node; it outlived the
// orchestrator's deletion unchanged. Each cell also
// runs under XNUMA_VERIFY_PLACEMENT_CACHE=1, which recomputes every
// skipped distribution and rebuilds every reused solve plan, and aborts
// unless each matches the reused one bit for bit.
//
// WorkCounterRatchetTest holds what those reuses save: the exact work
// counters of fixed-seed runs shaped like perfbench's paper_matrix and
// carrefour_churn workloads may not rise above their recorded values.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/guest/guest_os.h"
#include "src/hv/hypervisor.h"
#include "src/hv/scheduler.h"
#include "src/numa/latency_model.h"
#include "src/numa/topology.h"
#include "src/obs/obs.h"
#include "src/sim/engine.h"
#include "src/workload/app_profile.h"

namespace xnuma {
namespace {

uint64_t Mix(uint64_t digest, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xFF;
    digest *= 0x100000001b3ull;  // FNV-1a prime
  }
  return digest;
}

uint64_t MixDouble(uint64_t digest, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return Mix(digest, bits);
}

// FNV-1a over every field of every job's result, in job order.
uint64_t ResultsDigest(const std::vector<JobResult>& jobs) {
  uint64_t d = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  for (const JobResult& job : jobs) {
    d = Mix(d, job.app.size());
    for (const char c : job.app) {
      d = Mix(d, static_cast<uint8_t>(c));
    }
    d = Mix(d, static_cast<uint64_t>(job.domain));
    d = Mix(d, job.finished ? 1 : 0);
    d = MixDouble(d, job.completion_seconds);
    d = MixDouble(d, job.init_seconds);
    d = MixDouble(d, job.compute_seconds);
    d = MixDouble(d, job.imbalance_pct);
    d = MixDouble(d, job.interconnect_pct);
    d = MixDouble(d, job.avg_mc_util_pct);
    d = MixDouble(d, job.avg_latency_cycles);
    d = MixDouble(d, job.observed_disk_mb_per_s);
    d = MixDouble(d, job.observed_ctx_switches_per_s);
    d = Mix(d, static_cast<uint64_t>(job.hv_page_faults));
    d = Mix(d, static_cast<uint64_t>(job.carrefour_migrations));
    d = Mix(d, static_cast<uint64_t>(job.final_policy.placement));
    d = Mix(d, job.final_policy.carrefour ? 1 : 0);
    d = Mix(d, job.final_policy.vnuma ? 1 : 0);
    d = Mix(d, static_cast<uint64_t>(job.policy_switches));
    d = Mix(d, static_cast<uint64_t>(job.local_walks));
    d = Mix(d, static_cast<uint64_t>(job.remote_walks));
  }
  return d;
}

// A catalog app with its nominal runtime (and disk stream) scaled down.
AppProfile ShrunkApp(const char* name, double seconds) {
  const AppProfile* app = FindApp(name);
  EXPECT_NE(app, nullptr);
  AppProfile copy = *app;
  copy.disk_read_mb *= seconds / copy.nominal_seconds;
  copy.nominal_seconds = seconds;
  return copy;
}

// A shared master-init region plus an owner-partitioned private one.
AppProfile TwoRegionApp(double cycles_per_access) {
  AppProfile app;
  app.name = "engine-pinned";
  app.cpu_cycles_per_access = cycles_per_access;
  app.nominal_seconds = 0.5;
  RegionSpec shared;
  shared.name = "shared";
  shared.footprint_mb = 512;
  shared.init = AllocPattern::kMasterInit;
  shared.access_share = 0.7;
  shared.hot_fraction = 0.25;
  shared.hot_share = 0.8;
  app.regions.push_back(shared);
  RegionSpec priv;
  priv.name = "private";
  priv.footprint_mb = 256;
  priv.init = AllocPattern::kOwnerPartitioned;
  priv.access_share = 0.3;
  priv.owner_affinity = 0.9;
  app.regions.push_back(priv);
  return app;
}

DomainConfig PinnedDomain(const AppProfile& app, Hypervisor& hv, const EngineConfig& ec,
                          int vcpus, StaticPolicy placement, bool carrefour) {
  DomainConfig dc;
  dc.name = app.name;
  dc.num_vcpus = vcpus;
  dc.memory_pages = AppSimPages(app, hv.frames().bytes_per_frame(), ec.min_region_pages) + 64;
  for (int i = 0; i < vcpus; ++i) {
    dc.pinned_cpus.push_back(i);
  }
  dc.policy.placement = placement;
  dc.policy.carrefour = carrefour;
  return dc;
}

// 48 threads with few cycles per access, a hot quarter of the shared region
// taking 80% of its accesses. Despite the label nothing saturates: the
// controllers peak near 0.82 utilization and the links near 0.86. Solves
// stop at the cap only where the fixed point jumps (7 of 21: climbing
// from idle and after threads finish), since a damped step keeps 85% of
// the error.
std::vector<JobResult> RunOverloaded() {
  const AppProfile app = TwoRegionApp(/*cycles_per_access=*/20.0);
  EngineConfig ec;
  ec.seed = 5;
  ec.max_sim_seconds = 30.0;
  Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  LatencyModel latency;
  const DomainId dom =
      hv.CreateDomain(PinnedDomain(app, hv, ec, 48, StaticPolicy::kRound4k, false));
  GuestOs guest(hv, dom);
  Engine engine(hv, latency, ec);
  int capped = 0;
  engine.set_epoch_hook([&](double) {
    capped += engine.last_fixed_point_iterations() == kFixedPointMaxIterations ? 1 : 0;
  });
  JobSpec spec;
  spec.app = &app;
  spec.domain = dom;
  spec.guest = &guest;
  spec.threads = 48;
  engine.AddJob(spec);
  const RunResult r = engine.Run();
  EXPECT_GT(capped, 0);
  return r.jobs;
}

// Figure 9's setting: two 48-vCPU VMs, every pCPU running one vCPU of each,
// so both jobs' threads share CPUs.
std::vector<JobResult> RunConsolidatedPair() {
  const AppProfile a = ShrunkApp("streamcluster", 2.0);
  const AppProfile b = ShrunkApp("wc", 2.0);
  RunOptions opts;
  opts.engine.max_sim_seconds = 240.0;
  const PairResult pair =
      RunAppPair(a, XenPlusStack({StaticPolicy::kFirstTouch, true}), b,
                 XenPlusStack({StaticPolicy::kRound4k, false}), PairMode::kConsolidated, opts);
  return {pair.first, pair.second};
}

// The credit scheduler without NUMA affinity re-pins vCPUs every 250 ms and
// the threads follow them.
std::vector<JobResult> RunCreditScheduler() {
  const AppProfile app = ShrunkApp("cg.C", 2.0);
  EngineConfig ec;
  ec.seed = 3;
  ec.max_sim_seconds = 120.0;
  Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  LatencyModel latency;
  Engine engine(hv, latency, ec);
  SchedulerConfig sc;
  sc.numa_soft_affinity = false;
  sc.seed = 3;
  CreditScheduler scheduler(topo, sc);
  engine.set_scheduler(&scheduler, /*period_s=*/0.25);
  const DomainId dom =
      hv.CreateDomain(PinnedDomain(app, hv, ec, 48, StaticPolicy::kFirstTouch, false));
  GuestOs guest(hv, dom);
  JobSpec spec;
  spec.app = &app;
  spec.domain = dom;
  spec.guest = &guest;
  spec.threads = 48;
  engine.AddJob(spec);
  const RunResult r = engine.Run();
  EXPECT_GT(scheduler.total_migrations(), 0);
  return r.jobs;
}

// Priced page-walks with per-node P2M replicas, Carrefour's page and
// translation replication, and vCPU churn. The shared region is read-only and
// busy enough to saturate links, so Carrefour replicates its pages and a
// thread's distribution depends on its node. vCPU churn (every 0.3 s) and
// Carrefour (every 0.25 s) mostly land on different epochs, so placement
// moves without thread moves and the other way round.
std::vector<JobResult> RunReplicatedPricedWalks() {
  AppProfile app = TwoRegionApp(/*cycles_per_access=*/40.0);
  app.regions[0].write_fraction = 0.0;
  EngineConfig ec;
  ec.seed = 1042;
  ec.max_sim_seconds = 60.0;
  ec.price_walks = true;
  ec.carrefour_period_seconds = 0.25;
  ec.carrefour.enable_replication = true;
  ec.carrefour.replicate_translation = true;
  Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  LatencyModel latency;
  DomainConfig dc = PinnedDomain(app, hv, ec, 24, StaticPolicy::kFirstTouch, true);
  dc.p2m_replication = true;
  const DomainId dom = hv.CreateDomain(dc);
  GuestOs guest(hv, dom);
  Engine engine(hv, latency, ec);
  JobSpec spec;
  spec.app = &app;
  spec.domain = dom;
  spec.guest = &guest;
  spec.threads = 24;
  spec.vcpu_migration_period_s = 0.3;
  engine.AddJob(spec);
  const RunResult r = engine.Run();
  EXPECT_GT(r.jobs.back().local_walks + r.jobs.back().remote_walks, 0);
  return r.jobs;
}

// Native Linux first-touch; streamcluster is lock-bound, so the stack gives
// it MCS locks.
std::vector<JobResult> RunLinuxNativeMcs() {
  const AppProfile app = ShrunkApp("streamcluster", 2.0);
  EXPECT_TRUE(app.mcs_eligible);
  RunOptions opts;
  opts.engine.max_sim_seconds = 240.0;
  return {RunSingleApp(app, LinuxStack(), opts)};
}

struct EngineCase {
  const char* label;
  std::vector<JobResult> (*run)();
  uint64_t digest;
};

// Prints the label, so test names stay stable across runs.
void PrintTo(const EngineCase& ec, std::ostream* os) { *os << ec.label; }

class EnginePinnedTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EnginePinnedTest, DigestIsPinned) {
  const EngineCase ec = GetParam();
  const std::vector<JobResult> jobs = ec.run();
  for (const JobResult& job : jobs) {
    EXPECT_TRUE(job.finished) << job.app;
  }
  const uint64_t digest = ResultsDigest(jobs);
  EXPECT_EQ(digest, ec.digest) << std::hex << "0x" << digest;
}

// Every refresh cross-checks the placement cache against a full rescan, and
// every skipped distribution recomputation against a fresh one (both
// XNUMA_CHECK, so finishing is the assertion); the results stay pinned.
TEST_P(EnginePinnedTest, VerifyModeReproducesDigest) {
  const EngineCase ec = GetParam();
  setenv("XNUMA_VERIFY_PLACEMENT_CACHE", "1", /*overwrite=*/1);
  const std::vector<JobResult> jobs = ec.run();
  unsetenv("XNUMA_VERIFY_PLACEMENT_CACHE");
  const uint64_t digest = ResultsDigest(jobs);
  EXPECT_EQ(digest, ec.digest) << std::hex << "0x" << digest;
}

INSTANTIATE_TEST_SUITE_P(
    Paths, EnginePinnedTest,
    ::testing::Values(
        EngineCase{"overloaded_48", &RunOverloaded, 0xe38f9d985640384eull},
        EngineCase{"consolidated_pair", &RunConsolidatedPair, 0x03be04c652838386ull},
        EngineCase{"credit_scheduler", &RunCreditScheduler, 0x078cd8fe25c42cc8ull},
        EngineCase{"replicated_priced_walks", &RunReplicatedPricedWalks,
                   0xbc6acefe38c52710ull},
        EngineCase{"linux_native_mcs", &RunLinuxNativeMcs, 0x8633dc88faadbd3dull}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return std::string(info.param.label);
    });

// Two vCPUs pinned on CPU 0 split it until the credit scheduler's first
// rebalance moves one to another CPU of node 0. The threads keep their
// node, so no distribution is recomputed: only the CPUs in the plan key
// tell the solve plan that each thread now has a CPU to itself.
struct RepinRun {
  std::vector<JobResult> jobs;
  std::vector<CpuId> cpus;  // each vCPU's pCPU at the end of the run
};

RepinRun RunWithinNodeRepin(bool with_scheduler) {
  const AppProfile app = TwoRegionApp(/*cycles_per_access=*/40.0);
  EngineConfig ec;
  ec.seed = 11;
  ec.max_sim_seconds = 30.0;
  Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  LatencyModel latency;
  DomainConfig dc = PinnedDomain(app, hv, ec, 2, StaticPolicy::kRound4k, false);
  dc.pinned_cpus = {0, 0};
  const DomainId dom = hv.CreateDomain(dc);
  GuestOs guest(hv, dom);
  Engine engine(hv, latency, ec);
  SchedulerConfig sc;
  sc.idle_steal_probability = 0.0;
  CreditScheduler scheduler(topo, sc);
  if (with_scheduler) {
    engine.set_scheduler(&scheduler, /*period_s=*/0.25);
  }
  JobSpec spec;
  spec.app = &app;
  spec.domain = dom;
  spec.guest = &guest;
  spec.threads = 2;
  engine.AddJob(spec);
  RepinRun run;
  run.jobs = engine.Run().jobs;
  for (const VcpuDesc& v : hv.domain(dom).vcpus()) {
    run.cpus.push_back(v.pinned_cpu);
  }
  return run;
}

TEST(SolvePlanTest, WithinNodeRepinReachesTheSolve) {
  const RepinRun shared = RunWithinNodeRepin(/*with_scheduler=*/false);
  const RepinRun repinned = RunWithinNodeRepin(/*with_scheduler=*/true);
  setenv("XNUMA_VERIFY_PLACEMENT_CACHE", "1", /*overwrite=*/1);
  const RepinRun verified = RunWithinNodeRepin(/*with_scheduler=*/true);
  unsetenv("XNUMA_VERIFY_PLACEMENT_CACHE");

  // vCPU 0 moved to another CPU of node 0; vCPU 1 stayed on CPU 0.
  const Topology topo = Topology::Amd48();
  ASSERT_EQ(repinned.cpus.size(), 2u);
  EXPECT_NE(repinned.cpus[0], 0);
  EXPECT_EQ(topo.node_of_cpu(repinned.cpus[0]), 0);
  EXPECT_EQ(repinned.cpus[1], 0);
  ASSERT_TRUE(shared.jobs[0].finished);
  ASSERT_TRUE(repinned.jobs[0].finished);
  // A thread with a CPU to itself issues accesses twice as fast, so the
  // job computes for well under the time of one whose threads share CPU 0
  // throughout.
  EXPECT_LT(repinned.jobs[0].compute_seconds, 0.8 * shared.jobs[0].compute_seconds);
  // Every reuse of the plan matched its rebuild, and moved no bit.
  EXPECT_EQ(ResultsDigest(verified.jobs), ResultsDigest(repinned.jobs));
}

// Exact work counters are deterministic and independent of the host, so
// unlike a wall clock they can gate in tier-1. The inputs (epochs run and
// hot-page candidates) are pinned; every work counter fails on any rise.
// A change that lowers a counter lowers its recorded value here.
struct WorkCount {
  const char* metric;  // a counter, or a histogram's sum
  int64_t recorded;
  bool pinned;  // an input: must equal `recorded`
};

int64_t MetricTotal(const Observability& obs, const std::string& name) {
  for (const MetricSnapshot& m : obs.metrics().Snapshot()) {
    if (m.name == name) {
      return m.kind == MetricKind::kHistogram ? static_cast<int64_t>(m.value) : m.count;
    }
  }
  ADD_FAILURE() << "no metric " << name;
  return -1;
}

// Prints every counter when any one fails.
void ExpectNoMoreWork(const Observability& obs, const std::vector<WorkCount>& counts) {
  bool ok = true;
  std::ostringstream table;
  for (const WorkCount& w : counts) {
    const int64_t now = MetricTotal(obs, w.metric);
    const bool pass = w.pinned ? now == w.recorded : now <= w.recorded;
    ok = ok && pass;
    table << "  " << w.metric << ": " << now << (w.pinned ? ", pinned at " : ", at most ")
          << w.recorded << (pass ? "" : "  <- FAILS") << "\n";
  }
  EXPECT_TRUE(ok) << "work counters:\n" << table.str();
}

// A paper_matrix slice: four apps of different classes under all ten
// stacks of the figure binaries, with their options (5 s apps, a 300 s cap,
// seed 7).
TEST(WorkCounterRatchetTest, PaperMatrixSlice) {
  std::vector<StackConfig> stacks;
  for (const PolicyConfig& p : LinuxPolicyCandidates()) {
    stacks.push_back(LinuxStack(p));
  }
  stacks.push_back(XenStack());
  for (const PolicyConfig& p : XenPolicyCandidates()) {
    stacks.push_back(XenPlusStack(p));
  }
  ASSERT_EQ(stacks.size(), 10u);
  Observability obs;
  RunOptions opts;
  opts.engine.max_sim_seconds = 300.0;
  opts.obs = &obs;
  for (const char* name : {"bt.C", "cg.C", "streamcluster", "wc"}) {
    const AppProfile app = ShrunkApp(name, 5.0);
    for (const StackConfig& stack : stacks) {
      EXPECT_TRUE(RunSingleApp(app, stack, opts).finished) << name << " " << stack.label;
    }
  }
  ExpectNoMoreWork(obs, {
      {"engine.epochs", 6714, true},
      {"engine.sampler.candidates", 757018, true},
      {"engine.solver.iterations", 30884, false},
      {"engine.solver.unconverged", 978, false},
      {"engine.solver.plan_builds", 543, false},
      {"engine.solver.congestion_evals", 527106, false},
      {"engine.placement.distribution_recomputes", 543, false},
      {"engine.placement.full_rescans", 40, false},
      {"engine.placement.dirty_events", 153908, false},
      {"engine.sampler.bounded", 490782, false},
      {"engine.sampler.scored", 87519, false},
  });
}

// One carrefour_churn machine: four 4-vCPU first-touch + Carrefour domains
// of 2 GiB at 1 MiB frames, each spread over four nodes, under allocator
// churn for 40 epochs.
TEST(WorkCounterRatchetTest, CarrefourChurnMachine) {
  constexpr int64_t kBytesPerFrame = 1ll << 20;
  constexpr int kDomains = 4;
  constexpr int kVcpus = 4;
  constexpr int kEpochs = 40;
  AppProfile app = TwoRegionApp(/*cycles_per_access=*/40.0);
  app.name = "carrefour-churn";
  app.mlp = 4.0;
  app.nominal_seconds = 1e6;  // never finishes inside the window
  app.release_rate_per_s = 20000.0;
  app.regions[0].footprint_mb = 1536;
  app.regions[0].hot_fraction = 0.1;
  app.regions[1].footprint_mb = 512;

  const Topology topo = Topology::Amd48();
  Hypervisor hv(topo, kBytesPerFrame);
  Observability obs;
  hv.set_observability(&obs);
  const LatencyModel latency;
  EngineConfig ec;
  ec.seed = 7;
  // Half an epoch short, so float accumulation of `now` cannot add one.
  ec.max_sim_seconds = (kEpochs - 0.5) * ec.epoch_seconds;
  Engine engine(hv, latency, ec);
  const int64_t pages = AppSimPages(app, kBytesPerFrame, ec.min_region_pages);
  std::vector<int> used_per_node(topo.num_nodes(), 0);
  std::vector<std::unique_ptr<GuestOs>> guests;
  for (int d = 0; d < kDomains; ++d) {
    DomainConfig dc;
    dc.name = "churn" + std::to_string(d);
    dc.num_vcpus = kVcpus;
    dc.memory_pages = pages + 64;
    for (int v = 0; v < kVcpus; ++v) {
      const NodeId node = (d + 2 * v) % topo.num_nodes();
      dc.pinned_cpus.push_back(topo.node(node).cpus[used_per_node[node]++]);
    }
    dc.policy = {StaticPolicy::kFirstTouch, true};
    const DomainId dom = hv.CreateDomain(dc);
    guests.push_back(std::make_unique<GuestOs>(hv, dom));
    JobSpec job;
    job.app = &app;
    job.domain = dom;
    job.guest = guests.back().get();
    job.threads = kVcpus;
    job.churn_reuse_delay_s = 0.1;
    engine.AddJob(job);
  }
  engine.Run();
  ExpectNoMoreWork(obs, {
      {"engine.epochs", kEpochs, true},
      {"engine.sampler.candidates", 7553, true},
      {"engine.solver.iterations", 960, false},
      {"engine.solver.unconverged", 40, false},
      {"engine.solver.plan_builds", 40, false},
      {"engine.solver.congestion_evals", 12370, false},
      {"engine.placement.distribution_recomputes", 160, false},
      {"engine.placement.full_rescans", 4, false},
      {"engine.placement.dirty_events", 16134, false},
      {"engine.sampler.bounded", 2025, false},
      {"engine.sampler.scored", 801, false},
  });
}

}  // namespace
}  // namespace xnuma
