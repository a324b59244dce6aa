// Watching Carrefour converge, epoch by epoch: runs a master-slave workload
// under round-4K/Carrefour with a TraceRecorder attached and renders the
// recorded average DRAM latency and hottest-link utilization as ASCII
// timelines.
//
//   ./build/examples/carrefour_timeline [app-name]

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/core/experiment.h"
#include "src/sim/trace.h"
#include "src/workload/app_profile.h"

namespace {

void Sparkline(const char* label, const std::vector<double>& values, double lo, double hi) {
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  std::printf("%-22s |", label);
  for (double v : values) {
    const double t = std::clamp((v - lo) / (hi - lo + 1e-12), 0.0, 0.999);
    std::printf("%s", kLevels[static_cast<int>(t * 8)]);
  }
  std::printf("|  %.0f..%.0f\n", lo, hi);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xnuma;
  AppProfile app;
  if (argc > 1) {
    const AppProfile* found = FindApp(argv[1]);
    if (found == nullptr) {
      std::fprintf(stderr, "unknown application '%s'\n", argv[1]);
      return 1;
    }
    app = *found;
    app.nominal_seconds = 4.0;
  } else {
    // Master-slave: one thread initializes a shared region that takes 70%
    // of the accesses; it is partitioned among the threads, so the
    // migration heuristic applies.
    const double shared_share = 0.7;
    app.name = "synthetic-master-slave";
    app.cpu_cycles_per_access = 130;
    app.mlp = 3;
    app.nominal_seconds = 4.0;
    RegionSpec shared;
    shared.name = "shared";
    shared.footprint_mb = 512;
    shared.init = AllocPattern::kMasterInit;
    shared.access_share = shared_share;
    shared.owner_affinity = 0.85;
    app.regions.push_back(shared);
    RegionSpec priv;
    priv.name = "private";
    priv.footprint_mb = 256;
    priv.access_share = 1.0 - shared_share;
    priv.owner_affinity = 0.95;
    app.regions.push_back(priv);
  }

  TraceRecorder trace;
  RunOptions opts;
  opts.trace = &trace;
  const JobResult r =
      RunSingleApp(app, XenPlusStack({StaticPolicy::kRound4k, true}), opts);

  std::printf("%s under Xen+ round-4K/Carrefour: %.2f s, %lld page migrations\n\n",
              app.name.c_str(), r.completion_seconds,
              static_cast<long long>(r.carrefour_migrations));

  // Downsample the trace to at most 72 columns.
  const auto& samples = trace.samples();
  const size_t stride = std::max<size_t>(1, samples.size() / 72);
  std::vector<double> latency;
  std::vector<double> link;
  std::vector<double> migrations;
  for (size_t i = 0; i < samples.size(); i += stride) {
    latency.push_back(samples[i].jobs[0].avg_latency_cycles);
    link.push_back(samples[i].max_link_util * 100.0);
    migrations.push_back(static_cast<double>(samples[i].jobs[0].carrefour_migrations));
  }
  const auto [lat_min, lat_max] = std::minmax_element(latency.begin(), latency.end());
  Sparkline("DRAM latency (cycles)", latency, *lat_min, *lat_max);
  const auto [l_min, l_max] = std::minmax_element(link.begin(), link.end());
  Sparkline("hottest link (%)", link, *l_min, *l_max);
  const auto [m_min, m_max] = std::minmax_element(migrations.begin(), migrations.end());
  Sparkline("migrations (cum.)", migrations, *m_min, *m_max);

  std::printf("\nThe latency and interconnect load drop as the migration heuristic pulls\n"
              "each page to its dominant accessor; migrations flatten once converged.\n");
  return 0;
}
