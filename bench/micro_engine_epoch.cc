// Engine epoch-loop microbenchmark: epochs/second of the incremental
// placement cache, without and with observability attached.
//
// A multi-job mix (4 domains x 12 threads on Amd48) runs at several
// footprints with allocator churn active, so dirty events flow every epoch.
// The machine uses 1 MiB frames to reach page counts where a per-epoch
// rescan would dominate, exactly the regime the cache is for. Jobs never
// finish within the measured window; every epoch exercises the full
// refresh + distributions + fixed-point pipeline.
//
// Timing protocol: each (config, mode) pair runs twice — a 1-epoch run and
// an N-epoch run on identically-seeded machines — and reports
//   (epochs_N - epochs_1) / (wall_N - wall_1),
// which cancels the one-time init (page touching) cost out of the rate.
//
// Output: one JSON document on stdout (tools/run_bench.sh tees it into
// BENCH_engine.json at the repo root).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/exec/experiment_runner.h"
#include "src/guest/guest_os.h"
#include "src/hv/hypervisor.h"
#include "src/numa/latency_model.h"
#include "src/numa/topology.h"
#include "src/obs/obs.h"
#include "src/sim/engine.h"
#include "src/workload/app_profile.h"

namespace xnuma {
namespace {

constexpr int64_t kBytesPerFrame = 1ll << 20;  // 1 MiB frames
constexpr int kJobs = 4;
constexpr int kThreads = 12;
constexpr int kEpochs = 1000;  // long enough that epoch cost, not init or timer jitter, dominates

struct BenchConfig {
  const char* name;
  double footprint_mb;  // per job
};

AppProfile BenchApp(double footprint_mb) {
  AppProfile app;
  app.name = "epoch-bench";
  app.cpu_cycles_per_access = 150;
  app.nominal_seconds = 1e6;  // never finishes inside the measured window
  app.release_rate_per_s = 20000.0;  // allocator churn feeds the dirty sets
  RegionSpec shared;
  shared.name = "shared";
  shared.footprint_mb = footprint_mb * 0.75;
  shared.init = AllocPattern::kMasterInit;
  shared.access_share = 0.6;
  shared.hot_fraction = 0.1;
  shared.hot_share = 0.8;
  app.regions.push_back(shared);
  RegionSpec priv;
  priv.name = "private";
  priv.footprint_mb = footprint_mb * 0.25;
  priv.init = AllocPattern::kOwnerPartitioned;
  priv.access_share = 0.4;
  priv.owner_affinity = 0.9;
  app.regions.push_back(priv);
  return app;
}

struct RunStats {
  double wall_s = 0.0;
  int64_t epochs = 0;
};

RunStats RunOnce(const AppProfile& app, int epochs, bool with_obs) {
  Topology topo = Topology::Amd48();
  Hypervisor hv(topo, kBytesPerFrame);
  // Full observability (metrics + tracing) attached before domains exist,
  // exactly how the CLI wires it. run_bench.sh asserts the rate cost of
  // carrying it through every hot path stays under 3%.
  Observability obs;
  if (with_obs) {
    hv.set_observability(&obs);
  }
  LatencyModel latency;
  EngineConfig ec;
  ec.seed = 7;
  ec.max_sim_seconds = epochs * ec.epoch_seconds;

  std::vector<std::unique_ptr<GuestOs>> guests;
  Engine engine(hv, latency, ec);
  const int64_t pages = AppSimPages(app, kBytesPerFrame, ec.min_region_pages);
  for (int j = 0; j < kJobs; ++j) {
    DomainConfig dc;
    dc.name = "dom" + std::to_string(j);
    dc.num_vcpus = kThreads;
    dc.memory_pages = pages + 64;
    for (int t = 0; t < kThreads; ++t) {
      dc.pinned_cpus.push_back(j * kThreads + t);
    }
    dc.policy.placement = StaticPolicy::kFirstTouch;
    const DomainId dom = hv.CreateDomain(dc);
    guests.push_back(std::make_unique<GuestOs>(hv, dom));
    JobSpec spec;
    spec.app = &app;
    spec.domain = dom;
    spec.guest = guests.back().get();
    spec.threads = kThreads;
    engine.AddJob(spec);
  }

  const auto start = std::chrono::steady_clock::now();
  engine.Run();
  const auto end = std::chrono::steady_clock::now();
  RunStats stats;
  stats.wall_s = std::chrono::duration<double>(end - start).count();
  stats.epochs = engine.epochs_run();
  return stats;
}

// Steady-state epochs/second: a long run minus a 1-epoch run cancels init.
// Best of 5 trials — the max rate is the least-interference estimate of the
// true speed, and it keeps the obs overhead gate in tools/run_bench.sh
// from tripping on scheduler noise.
double EpochsPerSecond(const AppProfile& app, bool with_obs) {
  double best = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    const RunStats one = RunOnce(app, 1, with_obs);
    const RunStats many = RunOnce(app, kEpochs, with_obs);
    const double dt = many.wall_s - one.wall_s;
    const int64_t de = many.epochs - one.epochs;
    const double rate = dt > 0.0 ? de / dt : 0.0;
    if (rate > best) {
      best = rate;
    }
  }
  return best;
}

// --- Parallel experiment matrix (src/exec/ParallelRunner) -----------------
//
// A RunSpec matrix (app x stack x seed) is driven through the runner at
// jobs=1 (the exact serial loop) and jobs=4, timing each. Results must be
// bit-identical; the throughput ratio is archived as "parallel_matrix" in
// BENCH_engine.json and gated by tools/run_bench.sh on hosts with >= 4
// cores.

std::vector<RunSpec> MatrixSpecs() {
  std::vector<RunSpec> specs;
  const char* apps[] = {"cg.C", "ft.C", "sp.C", "kmeans"};
  const uint64_t seeds[] = {7, 11, 13};
  for (const char* name : apps) {
    AppProfile app = *FindApp(name);
    const double scale = 2.0 / app.nominal_seconds;
    app.nominal_seconds = 2.0;
    app.disk_read_mb *= scale;
    for (int xen : {0, 1}) {
      for (uint64_t seed : seeds) {
        RunSpec spec;
        spec.app = app;
        spec.stack = xen ? XenPlusStack() : LinuxStack();
        spec.options.seed = seed;
        spec.options.engine.max_sim_seconds = 60.0;
        spec.label = std::string(name) + "/" + spec.stack.label + "/s" + std::to_string(seed);
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

struct MatrixStats {
  double wall_s = 0.0;
  std::vector<RunOutcome> outcomes;
};

MatrixStats RunMatrix(const std::vector<RunSpec>& specs, int jobs) {
  ParallelRunner::Options opt;
  opt.jobs = jobs;
  const ParallelRunner runner(opt);
  const auto start = std::chrono::steady_clock::now();
  MatrixStats stats;
  stats.outcomes = runner.RunAll(specs);
  const auto end = std::chrono::steady_clock::now();
  stats.wall_s = std::chrono::duration<double>(end - start).count();
  return stats;
}

bool SameOutcomes(const std::vector<RunOutcome>& a, const std::vector<RunOutcome>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].ok != b[i].ok ||
        a[i].result.completion_seconds != b[i].result.completion_seconds ||
        a[i].result.avg_latency_cycles != b[i].result.avg_latency_cycles ||
        a[i].result.imbalance_pct != b[i].result.imbalance_pct ||
        a[i].result.hv_page_faults != b[i].result.hv_page_faults) {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace xnuma

int main() {
  using namespace xnuma;
  const BenchConfig configs[] = {
      {"1gb_per_job", 1024.0},
      {"4gb_per_job", 4096.0},
      {"16gb_per_job", 16384.0},
  };

  std::printf("{\n  \"bench\": \"micro_engine_epoch\",\n");
  std::printf("  \"machine\": \"amd48\",\n  \"frame_mb\": %lld,\n",
              static_cast<long long>(kBytesPerFrame >> 20));
  std::printf("  \"jobs\": %d,\n  \"threads_per_job\": %d,\n  \"epochs\": %d,\n", kJobs,
              kThreads, kEpochs);
  std::printf("  \"configs\": [\n");
  bool first = true;
  double obs_overhead_sum_pct = 0.0;
  int overhead_samples = 0;
  for (const BenchConfig& cfg : configs) {
    const AppProfile app = BenchApp(cfg.footprint_mb);
    const int64_t pages = AppSimPages(app, kBytesPerFrame, EngineConfig{}.min_region_pages);
    const double incr = EpochsPerSecond(app, /*with_obs=*/false);
    const double obs_on = EpochsPerSecond(app, /*with_obs=*/true);
    const double obs_overhead_pct = incr > 0.0 ? (1.0 - obs_on / incr) * 100.0 : 0.0;
    obs_overhead_sum_pct += obs_overhead_pct;
    ++overhead_samples;
    if (!first) {
      std::printf(",\n");
    }
    first = false;
    std::printf("    {\"name\": \"%s\", \"pages_per_job\": %lld,\n", cfg.name,
                static_cast<long long>(pages));
    std::printf("     \"incremental_epochs_per_s\": %.2f,\n", incr);
    std::printf("     \"obs_epochs_per_s\": %.2f,\n", obs_on);
    std::printf("     \"obs_overhead_pct\": %.2f}", obs_overhead_pct);
    std::fflush(stdout);
  }
  std::printf("\n  ],\n");

  std::printf("  \"obs_mean_overhead_pct\": %.2f,\n",
              overhead_samples > 0 ? obs_overhead_sum_pct / overhead_samples : 0.0);

  // Parallel matrix throughput: best of 3 trials per jobs value, serial
  // first so the two timings see the same cache state.
  const std::vector<RunSpec> specs = MatrixSpecs();
  double serial_s = 1e18;
  double jobs4_s = 1e18;
  std::vector<RunOutcome> serial_out;
  std::vector<RunOutcome> jobs4_out;
  for (int trial = 0; trial < 3; ++trial) {
    MatrixStats one = RunMatrix(specs, 1);
    MatrixStats four = RunMatrix(specs, 4);
    if (one.wall_s < serial_s) {
      serial_s = one.wall_s;
      serial_out = std::move(one.outcomes);
    }
    if (four.wall_s < jobs4_s) {
      jobs4_s = four.wall_s;
      jobs4_out = std::move(four.outcomes);
    }
  }
  const bool identical = SameOutcomes(serial_out, jobs4_out);
  std::printf("  \"parallel_matrix\": {\n");
  std::printf("    \"specs\": %d,\n", static_cast<int>(specs.size()));
  std::printf("    \"host_cores\": %u,\n", std::thread::hardware_concurrency());
  std::printf("    \"serial_s\": %.3f,\n", serial_s);
  std::printf("    \"jobs4_s\": %.3f,\n", jobs4_s);
  std::printf("    \"speedup_jobs4\": %.2f,\n", jobs4_s > 0.0 ? serial_s / jobs4_s : 0.0);
  std::printf("    \"results_identical\": %s\n  }\n}\n", identical ? "true" : "false");
  return identical ? 0 : 1;
}
