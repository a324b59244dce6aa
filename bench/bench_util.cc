#include "bench/bench_util.h"

#include <cstdint>
#include <cstdio>
#include <cstring>

#include "src/common/flags.h"
#include "src/exec/parallel_for.h"

namespace xnuma {

namespace {

// Written once by InitBench before any worker thread exists, read-only
// afterwards.
int g_bench_jobs = 1;

}  // namespace

void InitBench(int argc, char** argv) {
  const Flags flags(argc, argv);
  // Refusals name the binary, as the CLI's name their command.
  const char* slash = std::strrchr(argv[0], '/');
  const char* name = slash == nullptr ? argv[0] : slash + 1;
  g_bench_jobs = static_cast<int>(ReadInt<int64_t>(flags, name, "jobs", 1, 1, kMaxParallelJobs));
  for (const std::string& key : flags.UnusedKeys()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", key.c_str());
  }
}

int BenchJobs() { return g_bench_jobs; }

void BenchFor(int count, const std::function<void(int)>& body) {
  ParallelFor(count, body, g_bench_jobs);
}

void PrintBanner(const std::string& id, const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("(simulated AMD48; shapes comparable to the paper, not absolute"
              " values — see EXPERIMENTS.md)\n");
  std::printf("==============================================================\n");
}

std::vector<AppProfile> ScaledApps(double seconds_per_app) {
  std::vector<AppProfile> apps = AllApps();
  for (AppProfile& app : apps) {
    const double scale = seconds_per_app / app.nominal_seconds;
    app.nominal_seconds = seconds_per_app;
    app.disk_read_mb *= scale;
  }
  return apps;
}

double ImprovementPct(double baseline_seconds, double candidate_seconds) {
  return 100.0 * (baseline_seconds / candidate_seconds - 1.0);
}

double OverheadPct(double baseline_seconds, double candidate_seconds) {
  return 100.0 * (candidate_seconds / baseline_seconds - 1.0);
}

RunOptions BenchOptions() {
  RunOptions opts;
  opts.engine.max_sim_seconds = 300.0;
  return opts;
}

}  // namespace xnuma
