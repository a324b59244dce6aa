// Multi-tenant admission soak on the paper's AMD48 machine (docs/MODEL.md
// §17): a long seeded churn trace — heavy-tailed arrivals, departures,
// balloon cycles, migration bursts — replayed through the admission
// solver, reporting solver latency percentiles, admission outcomes and
// final fragmentation as JSON. Everything but the latencies and the wall
// time is deterministic: AdmissionPinnedTest
// (tests/admission_solver_test.cc) pins the placement digest printed here
// and the admitted/deferred/rejected tally, and ratchets the solver's node
// sets and summary refreshes.

#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/experiment.h"

namespace {

using namespace xnuma;

}  // namespace

int main(int argc, char** argv) {
  InitBench(argc, argv);

  ChurnScenarioConfig config;
  config.amd48 = true;
  config.spec.seed = 4817;
  config.spec.num_events = 20000;
  config.spec.target_live_domains = 40;
  config.spec.min_pages = 8;
  config.spec.max_pages = 4096;  // up to 16 GiB at the 4 MiB frame scale
  config.spec.max_vcpus = 12;
  config.spec.huge_page_fraction = 0.3;

  const auto t0 = std::chrono::steady_clock::now();
  const ChurnReport r = RunChurnScenario(config);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::printf("{\n");
  std::printf("  \"bench\": \"extra_churn\",\n");
  std::printf("  \"machine\": \"amd48\",\n");
  std::printf("  \"seed\": %llu,\n",
              static_cast<unsigned long long>(config.spec.seed));
  std::printf("  \"events\": %lld,\n", static_cast<long long>(r.events));
  std::printf("  \"arrivals\": %lld,\n", static_cast<long long>(r.arrivals));
  std::printf("  \"admitted\": %lld,\n", static_cast<long long>(r.admitted));
  std::printf("  \"deferred\": %lld,\n", static_cast<long long>(r.deferred));
  std::printf("  \"rejected\": %lld,\n", static_cast<long long>(r.rejected));
  std::printf("  \"departures\": %lld,\n", static_cast<long long>(r.departures));
  std::printf("  \"final_live_domains\": %lld,\n",
              static_cast<long long>(r.final_live_domains));
  std::printf("  \"final_fragmentation\": %.4f,\n", r.final_fragmentation);
  std::printf("  \"placement_digest\": \"%016llx\",\n",
              static_cast<unsigned long long>(r.placement_digest));
  std::printf("  \"churn_solver_p50_us\": %.3f,\n", r.solve_p50_us);
  std::printf("  \"churn_solver_p99_us\": %.3f,\n", r.solve_p99_us);
  std::printf("  \"churn_solver_max_us\": %.3f,\n", r.solve_max_us);
  std::printf("  \"wall_s\": %.3f\n", wall_s);
  std::printf("}\n");
  return 0;
}
