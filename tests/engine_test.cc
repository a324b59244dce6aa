#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <cstring>

#include "src/core/experiment.h"
#include "src/numa/topology.h"

namespace xnuma {
namespace {

// A small, fast, strongly master-slave app: 80% of accesses hit a
// master-initialized shared region.
AppProfile MasterSlaveApp(double shared_affinity = 0.0) {
  AppProfile app;
  app.name = "synthetic-ms";
  app.cpu_cycles_per_access = 150;
  app.nominal_seconds = 1.0;
  RegionSpec shared;
  shared.name = "shared";
  shared.footprint_mb = 512;
  shared.init = AllocPattern::kMasterInit;
  shared.access_share = 0.8;
  shared.owner_affinity = shared_affinity;
  app.regions.push_back(shared);
  RegionSpec priv;
  priv.name = "private";
  priv.footprint_mb = 256;
  priv.init = AllocPattern::kOwnerPartitioned;
  priv.access_share = 0.2;
  priv.owner_affinity = 0.95;
  app.regions.push_back(priv);
  return app;
}

AppProfile ThreadLocalApp() {
  AppProfile app = MasterSlaveApp();
  app.name = "synthetic-local";
  app.regions[0].access_share = 0.05;
  app.regions[1].access_share = 0.95;
  return app;
}

struct TestMachine {
  Topology topo = Topology::Amd48();
  Hypervisor hv{topo};
  LatencyModel latency;
  std::unique_ptr<Engine> engine;
  std::vector<std::unique_ptr<GuestOs>> guests;

  explicit TestMachine(uint64_t seed = 7) {
    EngineConfig ec;
    ec.seed = seed;
    engine = std::make_unique<Engine>(hv, latency, ec);
  }

  JobResult RunApp(const AppProfile& app, PolicyConfig policy, int threads = 48,
                   ExecMode mode = ExecMode::kGuest) {
    DomainConfig dc;
    dc.name = app.name;
    dc.num_vcpus = threads;
    dc.memory_pages = AppSimPages(app, hv.frames().bytes_per_frame(), 96) + 64;
    for (int i = 0; i < threads; ++i) {
      dc.pinned_cpus.push_back(i);
    }
    dc.policy = policy;
    const DomainId dom = hv.CreateDomain(dc);
    GuestOs::Options go;
    go.mode = mode == ExecMode::kGuest ? KernelMode::kParavirt : KernelMode::kNativeKernel;
    guests.push_back(std::make_unique<GuestOs>(hv, dom, go));
    JobSpec spec;
    spec.app = &app;
    spec.domain = dom;
    spec.guest = guests.back().get();
    spec.threads = threads;
    spec.exec_mode = mode;
    spec.io_path = mode == ExecMode::kNative ? IoPath::kNative : IoPath::kPciPassthrough;
    spec.sync = SyncPrimitive::kBlockingFutex;
    engine->AddJob(spec);
    RunResult r = engine->Run();
    return r.jobs.back();
  }
};

TEST(EngineTest, JobsFinish) {
  TestMachine m;
  const AppProfile app = ThreadLocalApp();
  const JobResult r = m.RunApp(app, {StaticPolicy::kFirstTouch, false});
  EXPECT_TRUE(r.finished);
  EXPECT_GT(r.completion_seconds, 0.1);
  EXPECT_LT(r.completion_seconds, 60.0);
}

TEST(EngineTest, FirstTouchImbalanceMatchesMasterShare) {
  TestMachine m;
  const AppProfile app = MasterSlaveApp();
  const JobResult r = m.RunApp(app, {StaticPolicy::kFirstTouch, false});
  // 80% of accesses on one node -> imbalance ~ 264.6% * 0.8 ~ 212%.
  EXPECT_GT(r.imbalance_pct, 150.0);
  EXPECT_LT(r.imbalance_pct, 260.0);
}

TEST(EngineTest, Round4kBalancesAccesses) {
  TestMachine m;
  const AppProfile app = MasterSlaveApp();
  const JobResult r = m.RunApp(app, {StaticPolicy::kRound4k, false});
  EXPECT_LT(r.imbalance_pct, 60.0);
}

TEST(EngineTest, Round4kBeatsFirstTouchForMasterSlave) {
  const AppProfile app = MasterSlaveApp();
  TestMachine m1;
  const JobResult ft = m1.RunApp(app, {StaticPolicy::kFirstTouch, false});
  TestMachine m2;
  const JobResult r4k = m2.RunApp(app, {StaticPolicy::kRound4k, false});
  EXPECT_LT(r4k.completion_seconds, 0.8 * ft.completion_seconds);
}

TEST(EngineTest, FirstTouchBeatsRound4kForThreadLocal) {
  const AppProfile app = ThreadLocalApp();
  TestMachine m1;
  const JobResult ft = m1.RunApp(app, {StaticPolicy::kFirstTouch, false});
  TestMachine m2;
  const JobResult r4k = m2.RunApp(app, {StaticPolicy::kRound4k, false});
  EXPECT_LT(ft.completion_seconds, r4k.completion_seconds);
}

TEST(EngineTest, Round4kRaisesInterconnectLoadForThreadLocal) {
  const AppProfile app = ThreadLocalApp();
  TestMachine m1;
  const JobResult ft = m1.RunApp(app, {StaticPolicy::kFirstTouch, false});
  TestMachine m2;
  const JobResult r4k = m2.RunApp(app, {StaticPolicy::kRound4k, false});
  EXPECT_GT(r4k.interconnect_pct, 1.5 * ft.interconnect_pct);
}

TEST(EngineTest, CarrefourRescuesFirstTouchOnPartitionedSharedRegion) {
  // Shared region with a dominant accessor per page: the migration
  // heuristic should recover most of the first-touch penalty.
  const AppProfile app = MasterSlaveApp(/*shared_affinity=*/0.9);
  TestMachine m1;
  const JobResult ft = m1.RunApp(app, {StaticPolicy::kFirstTouch, false});
  TestMachine m2;
  const JobResult ftc = m2.RunApp(app, {StaticPolicy::kFirstTouch, true});
  EXPECT_LT(ftc.completion_seconds, ft.completion_seconds);
  EXPECT_GT(ftc.carrefour_migrations, 0);
}

TEST(EngineTest, FirstTouchTakesHvFaults) {
  TestMachine m;
  const AppProfile app = ThreadLocalApp();
  const JobResult r = m.RunApp(app, {StaticPolicy::kFirstTouch, false});
  EXPECT_GT(r.hv_page_faults, 0);
}

TEST(EngineTest, EagerPolicyTakesNoHvFaults) {
  TestMachine m;
  const AppProfile app = ThreadLocalApp();
  const JobResult r = m.RunApp(app, {StaticPolicy::kRound4k, false});
  EXPECT_EQ(r.hv_page_faults, 0);
}

TEST(EngineTest, DeterministicAcrossRuns) {
  const AppProfile app = MasterSlaveApp();
  TestMachine m1(123);
  TestMachine m2(123);
  const JobResult a = m1.RunApp(app, {StaticPolicy::kRound4k, true});
  const JobResult b = m2.RunApp(app, {StaticPolicy::kRound4k, true});
  EXPECT_DOUBLE_EQ(a.completion_seconds, b.completion_seconds);
  EXPECT_EQ(a.carrefour_migrations, b.carrefour_migrations);
}

TEST(EngineTest, SamplerReturnsHottestFirst) {
  TestMachine m;
  // Keep the job unfinished: the sampler attributes rates of running jobs.
  m.engine = nullptr;
  EngineConfig ec;
  ec.seed = 7;
  ec.max_sim_seconds = 0.3;
  m.engine = std::make_unique<Engine>(m.hv, m.latency, ec);
  AppProfile app = ThreadLocalApp();
  app.nominal_seconds = 30.0;
  DomainConfig dc;
  dc.num_vcpus = 8;
  dc.memory_pages = AppSimPages(app, m.hv.frames().bytes_per_frame(), 96) + 64;
  for (int i = 0; i < 8; ++i) {
    dc.pinned_cpus.push_back(i * 6);
  }
  dc.policy = {StaticPolicy::kRound4k, false};
  const DomainId dom = m.hv.CreateDomain(dc);
  m.guests.push_back(std::make_unique<GuestOs>(m.hv, dom));
  JobSpec spec;
  spec.app = &app;
  spec.domain = dom;
  spec.guest = m.guests.back().get();
  spec.threads = 8;
  m.engine->AddJob(spec);
  m.engine->Run();

  std::vector<PageAccessSample> samples;
  m.engine->SampleHotPages(dom, 16, &samples);
  ASSERT_GT(samples.size(), 1u);
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i - 1].TotalRate(), samples[i].TotalRate());
  }
}

uint64_t MixDigest(uint64_t digest, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xFF;
    digest *= 0x100000001b3ull;  // FNV-1a prime
  }
  return digest;
}

// A master-slave job still running after half a simulated second on the
// 48-core machine, with Carrefour scanning and replicating pages: the state
// the sampler tests below scan.
struct SamplerMachine {
  Topology topo = Topology::Amd48();
  Hypervisor hv{topo};
  LatencyModel latency;
  std::unique_ptr<Engine> engine;
  AppProfile app = MasterSlaveApp(/*shared_affinity=*/0.3);
  std::unique_ptr<GuestOs> guest;
  DomainId dom = kInvalidDomain;
  RunResult run;

  SamplerMachine() {
    EngineConfig ec;
    ec.seed = 11;
    ec.max_sim_seconds = 0.5;
    ec.carrefour.enable_replication = true;
    engine = std::make_unique<Engine>(hv, latency, ec);

    app.nominal_seconds = 30.0;  // still running when the scans sample it
    app.regions[0].footprint_mb = 2048;
    app.regions[0].write_fraction = 0.0;
    app.regions[1].footprint_mb = 1024;
    DomainConfig dc;
    dc.num_vcpus = 24;
    dc.memory_pages = AppSimPages(app, hv.frames().bytes_per_frame(), 96) + 64;
    for (int i = 0; i < dc.num_vcpus; ++i) {
      dc.pinned_cpus.push_back(i);
    }
    dc.policy = {StaticPolicy::kFirstTouch, true};
    dom = hv.CreateDomain(dc);
    guest = std::make_unique<GuestOs>(hv, dom);
    JobSpec spec;
    spec.app = &app;
    spec.domain = dom;
    spec.guest = guest.get();
    spec.threads = dc.num_vcpus;
    engine->AddJob(spec);
    run = engine->Run();
  }
};

// Pins the hot-page sampler bit for bit: which pages consecutive scans
// return, in which order, with which noisy rates. The scans share the
// engine's sampling rng, and Carrefour scans and replicates pages during the
// simulated half second, so the draw order is pinned along with the per-page
// rates, the skipped replicated pages and the top-k selection.
TEST(EngineTest, SamplerOutputIsPinnedBitForBit) {
  SamplerMachine m;
  ASSERT_FALSE(m.run.jobs.back().finished);
  // Every solve of this short run still stops at the iteration cap, so the
  // sampled state does not depend on how early the solver converges.
  ASSERT_EQ(m.engine->fixed_point_iterations_total(),
            m.engine->epochs_run() * kFixedPointMaxIterations);

  uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  size_t sampled = 0;
  for (const int max_pages : {64, 1, 64, 1 << 20}) {
    std::vector<PageAccessSample> samples;
    m.engine->SampleHotPages(m.dom, max_pages, &samples);
    sampled += samples.size();
    digest = MixDigest(digest, samples.size());
    for (const PageAccessSample& s : samples) {
      EXPECT_EQ(s.domain, m.dom);
      EXPECT_EQ(s.current_node, kInvalidNode);
      digest = MixDigest(digest, s.pfn);
      digest = MixDigest(digest, s.written ? 1 : 0);
      digest = MixDigest(digest, s.rate_by_node.size());
      for (double r : s.rate_by_node) {
        uint64_t bits = 0;
        std::memcpy(&bits, &r, sizeof(bits));
        digest = MixDigest(digest, bits);
      }
    }
  }
  EXPECT_GT(sampled, 64u + 1 + 64 + 64);
  EXPECT_EQ(digest, 0xd49997250f11657dull) << std::hex << digest;
}

// A negative page budget returns no samples and draws the scan's noise just
// as a budget of 0 does, so the next scan sees the same random stream.
TEST(EngineTest, SamplerTreatsNegativeBudgetAsZero) {
  SamplerMachine negative;
  SamplerMachine zero;
  std::vector<PageAccessSample> none;
  negative.engine->SampleHotPages(negative.dom, -1, &none);
  zero.engine->SampleHotPages(zero.dom, 0, &none);
  EXPECT_TRUE(none.empty());

  std::vector<PageAccessSample> after_negative;
  std::vector<PageAccessSample> after_zero;
  negative.engine->SampleHotPages(negative.dom, 64, &after_negative);
  zero.engine->SampleHotPages(zero.dom, 64, &after_zero);
  ASSERT_EQ(after_negative.size(), 64u);
  ASSERT_EQ(after_zero.size(), after_negative.size());
  for (size_t i = 0; i < after_zero.size(); ++i) {
    EXPECT_EQ(after_negative[i].pfn, after_zero[i].pfn);
    ASSERT_EQ(after_negative[i].rate_by_node.size(), after_zero[i].rate_by_node.size());
    EXPECT_EQ(std::memcmp(after_negative[i].rate_by_node.data(), after_zero[i].rate_by_node.data(),
                          sizeof(double) * after_zero[i].rate_by_node.size()),
              0);
  }
}

TEST(EngineTest, ReleaseChurnExercisesPvQueue) {
  TestMachine m;
  AppProfile app = ThreadLocalApp();
  app.release_rate_per_s = 50000;
  app.nominal_seconds = 0.5;
  m.RunApp(app, {StaticPolicy::kFirstTouch, false});
  const auto stats = m.guests.back()->pv_queue().GetStats();
  EXPECT_GT(stats.flushes, 0);
  EXPECT_GT(stats.hypervisor_seconds, 0.0);
}

TEST(EngineTest, ChurnOverheadSlowsJobDown) {
  AppProfile base = ThreadLocalApp();
  base.nominal_seconds = 0.5;
  AppProfile churny = base;
  churny.release_rate_per_s = 66700;
  TestMachine m1;
  const JobResult calm = m1.RunApp(base, {StaticPolicy::kFirstTouch, false});
  TestMachine m2;
  const JobResult noisy = m2.RunApp(churny, {StaticPolicy::kFirstTouch, false});
  EXPECT_GT(noisy.completion_seconds, calm.completion_seconds);
}

}  // namespace
}  // namespace xnuma
