// xnuma — command-line driver for the simulated AMD48 testbed.
//
//   xnuma list                                 # known applications
//   xnuma run --app cg.C --stack xen+ --policy first-touch [--carrefour]
//   xnuma sweep --app kmeans --stack linux
//   xnuma pair --a cg.C --b sp.C --mode split|consolidated
//   xnuma auto --app kmeans                    # §7 automatic selector
//
// Common options: --seconds N (nominal runtime scale), --threads N,
// --seed N, --csv (machine-readable single-line output). A run that hits
// the simulation cap prints `unfinished` in place of its time and exits 1.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "src/admission/solver.h"
#include "src/common/flags.h"
#include "src/core/experiment.h"
#include "src/exec/parallel_for.h"
#include "src/obs/obs.h"
#include "src/sim/trace.h"
#include "src/workload/app_profile.h"

namespace {

using namespace xnuma;

int Usage() {
  std::fprintf(stderr,
               "usage: xnuma <list|run|sweep|pair|auto|churn> [options]\n"
               "  run   --app NAME --stack linux|xen|xen+ [--policy P] [--carrefour]\n"
               "  sweep --app NAME --stack linux|xen+\n"
               "  pair  --a NAME --b NAME [--mode split|consolidated]\n"
               "  auto  --app NAME\n"
               "  churn --events N --seed N [--tenants N] [--min_pages N]\n"
               "        [--max_pages N] [--vcpus N] [--nodes N --cpus N\n"
               "        --node_mb N]  (multi-tenant admission/churn replay,\n"
               "        docs/MODEL.md §17; AMD48 machine unless --nodes given)\n"
               "  options: --seconds N (above 0) --threads N (1-48; not pair)\n"
               "           --seed N --csv --trace FILE.csv\n"
               "           --jobs N   (sweep: fan the policy matrix across N worker\n"
               "            threads, 1-256; results are bit-identical to --jobs 1)\n"
               "           --p2m_replication  (per-node P2M replicas,\n"
               "            docs/MODEL.md §18; placement is unchanged)\n"
               "           --price_walks  (charge local/remote page-walk\n"
               "            cycles in the latency model)\n"
               "           --vnuma off|guest|hybrid  (guest-visible topology,\n"
               "            docs/VNUMA.md; guest boots a NUMA-aware allocator\n"
               "            over the vNUMA tables, hybrid adds the Carrefour\n"
               "            override on top; guest-mode stacks only)\n"
               "           --metrics (print metrics: summary) --metrics-json FILE\n"
               "           --trace-json FILE  (Chrome trace_event JSON; open in\n"
               "            chrome://tracing or https://ui.perfetto.dev)\n"
               "  policies: first-touch, round-4k, round-1g\n");
  return 2;
}

bool ParsePolicy(const std::string& name, StaticPolicy* out) {
  if (name == "first-touch" || name == "ft") {
    *out = StaticPolicy::kFirstTouch;
  } else if (name == "round-4k" || name == "r4k") {
    *out = StaticPolicy::kRound4k;
  } else if (name == "round-1g" || name == "r1g") {
    *out = StaticPolicy::kRound1g;
  } else {
    return false;
  }
  return true;
}

// The numeric flags of run, sweep, pair and auto, read and checked in one
// place.
struct RunFlags {
  double seconds = 0.0;  // 0 keeps each app's nominal runtime
  int threads = 48;
  int jobs = 1;
  uint64_t seed = 7;
};

RunFlags ReadRunFlags(const Flags& flags, const char* cmd) {
  RunFlags out;
  if (flags.Has("seconds")) {
    const std::string text = flags.GetString("seconds");
    char* end = nullptr;
    const double seconds = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !std::isfinite(seconds) || seconds <= 0.0) {
      RefuseFlag(cmd, "seconds", text, "is not a finite number above 0");
    }
    out.seconds = seconds;
  }
  // One vCPU per CPU of the 48-CPU machine. pair runs fixed 24- and 48-vCPU
  // VMs, so it leaves --threads unread and passing it warns; only sweep
  // fans out over worker threads.
  const std::string command = cmd;
  if (command != "pair") {
    out.threads = static_cast<int>(ReadInt<int64_t>(flags, cmd, "threads", 48, 1, 48));
  }
  if (command == "sweep") {
    out.jobs = static_cast<int>(ReadInt<int64_t>(flags, cmd, "jobs", 1, 1, kMaxParallelJobs));
  }
  out.seed = ReadInt<uint64_t>(flags, cmd, "seed", 7, 0, UINT64_MAX);
  return out;
}

AppProfile LoadApp(const Flags& flags, const std::string& key, const RunFlags& run) {
  const std::string name = flags.GetString(key);
  const AppProfile* app = FindApp(name);
  if (app == nullptr) {
    std::fprintf(stderr, "unknown application '%s' (try `xnuma list`)\n", name.c_str());
    std::exit(2);
  }
  AppProfile copy = *app;
  const double seconds = run.seconds > 0.0 ? run.seconds : copy.nominal_seconds;
  const double scale = seconds / copy.nominal_seconds;
  copy.nominal_seconds = seconds;
  copy.disk_read_mb *= scale;
  return copy;
}

RunOptions LoadOptions(const Flags& flags, const RunFlags& run) {
  RunOptions opts;
  opts.threads = run.threads;
  opts.jobs = run.jobs;
  opts.seed = run.seed;
  opts.engine.price_walks = flags.GetBool("price_walks", false);
  return opts;
}

StackConfig WithP2mOptions(StackConfig stack, const Flags& flags) {
  stack.p2m_replication = flags.GetBool("p2m_replication", false);
  return stack;
}

StackConfig WithVnumaOptions(StackConfig stack, const Flags& flags) {
  const std::string mode = flags.GetString("vnuma", "off");
  if (mode == "off") {
    return stack;
  }
  if (mode == "guest") {
    stack.vnuma = VnumaMode::kGuest;
  } else if (mode == "hybrid") {
    stack.vnuma = VnumaMode::kHybrid;
  } else {
    std::fprintf(stderr, "unknown vnuma mode '%s' (want off, guest or hybrid)\n", mode.c_str());
    std::exit(2);
  }
  if (stack.mode != ExecMode::kGuest) {
    std::fprintf(stderr, "--vnuma needs a guest-mode stack (native Linux has the real topology)\n");
    std::exit(2);
  }
  stack.label += stack.vnuma == VnumaMode::kHybrid ? "/vNUMA-hybrid" : "/vNUMA";
  return stack;
}

StackConfig LoadStack(const Flags& flags) {
  const std::string stack = flags.GetString("stack", "xen+");
  StaticPolicy placement = StaticPolicy::kRound1g;
  const std::string policy = flags.GetString("policy", "");
  if (!policy.empty() && !ParsePolicy(policy, &placement)) {
    std::fprintf(stderr, "unknown policy '%s'\n", policy.c_str());
    std::exit(2);
  }
  const bool carrefour = flags.GetBool("carrefour", false);
  if (stack == "linux") {
    return WithVnumaOptions(
        WithP2mOptions(
            LinuxStack({policy.empty() ? StaticPolicy::kFirstTouch : placement, carrefour}),
            flags),
        flags);
  }
  if (stack == "xen") {
    // Plain Xen has one fixed placement and no Carrefour; choosing either
    // is what Xen+ adds.
    if (!policy.empty() || carrefour) {
      std::fprintf(stderr, "--policy and --carrefour need --stack xen+ (plain xen ignores them)\n");
      std::exit(2);
    }
    return WithVnumaOptions(WithP2mOptions(XenStack(), flags), flags);
  }
  if (stack == "xen+") {
    return WithVnumaOptions(WithP2mOptions(XenPlusStack({placement, carrefour}), flags), flags);
  }
  std::fprintf(stderr, "unknown stack '%s'\n", stack.c_str());
  std::exit(2);
}

// Prints one result row. A job that hit the simulation cap has no
// completion time, so its row reads `unfinished` instead; returns whether
// the job finished.
bool PrintResult(const Flags& flags, const std::string& label, const JobResult& r) {
  char time[32];
  if (flags.GetBool("csv", false)) {
    std::snprintf(time, sizeof(time), "%.4f", r.completion_seconds);
    std::printf("%s,%s,%s,%.1f,%.1f,%.0f,%lld,%lld\n", label.c_str(), r.app.c_str(),
                r.finished ? time : "unfinished", r.imbalance_pct, r.interconnect_pct,
                r.avg_latency_cycles, static_cast<long long>(r.hv_page_faults),
                static_cast<long long>(r.carrefour_migrations));
  } else {
    std::snprintf(time, sizeof(time), "%8.2f s", r.completion_seconds);
    std::printf("%-36s %10s  imbalance %5.0f%%  interconnect %5.1f%%  latency %4.0f cyc\n",
                label.c_str(), r.finished ? time : "unfinished", r.imbalance_pct,
                r.interconnect_pct, r.avg_latency_cycles);
  }
  return r.finished;
}

int CmdList() {
  std::printf("%-14s %-9s %12s %10s %10s %8s\n", "app", "suite", "footprint MB", "ctx k/s",
              "disk MB/s", "releases");
  for (const AppProfile& app : AllApps()) {
    std::printf("%-14s %-9s %12.0f %10.1f %10.0f %8.0f\n", app.name.c_str(),
                ToString(app.suite), app.TotalFootprintMb(), app.blocking_rate_per_s / 1000.0,
                app.disk_read_mb / app.nominal_seconds, app.release_rate_per_s);
  }
  return 0;
}

int CmdRun(const Flags& flags) {
  const RunFlags run = ReadRunFlags(flags, "run");
  const AppProfile app = LoadApp(flags, "app", run);
  const StackConfig stack = LoadStack(flags);
  RunOptions opts = LoadOptions(flags, run);
  TraceRecorder trace;
  const std::string trace_path = flags.GetString("trace", "");
  if (!trace_path.empty()) {
    opts.trace = &trace;
  }
  const std::string trace_json_path = flags.GetString("trace-json", "");
  const std::string metrics_json_path = flags.GetString("metrics-json", "");
  const bool print_metrics = flags.GetBool("metrics", false);
  Observability obs;
  if (!trace_json_path.empty() || !metrics_json_path.empty() || print_metrics) {
    opts.obs = &obs;
  }
  const JobResult r = RunSingleApp(app, stack, opts);
  const bool finished = PrintResult(flags, stack.label, r);
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    out << trace.ToCsv();
    std::fprintf(stderr, "trace: %zu epochs -> %s\n", trace.samples().size(),
                 trace_path.c_str());
  }
  if (print_metrics) {
    std::printf("metrics:\n%s", obs.metrics().SummaryText().c_str());
  }
  if (!metrics_json_path.empty()) {
    std::ofstream out(metrics_json_path);
    out << obs.metrics().ToJson();
    std::fprintf(stderr, "metrics: %zu instruments -> %s\n", obs.metrics().Names().size(),
                 metrics_json_path.c_str());
  }
  if (!trace_json_path.empty()) {
    std::ofstream out(trace_json_path);
    out << obs.tracer().ToChromeJson();
    std::fprintf(stderr, "trace-json: %zu events (%lld dropped) -> %s\n",
                 obs.tracer().Events().size(),
                 static_cast<long long>(obs.tracer().dropped()), trace_json_path.c_str());
  }
  return finished ? 0 : 1;
}

int CmdSweep(const Flags& flags) {
  const RunFlags run = ReadRunFlags(flags, "sweep");
  const AppProfile app = LoadApp(flags, "app", run);
  const std::string stack_name = flags.GetString("stack", "xen+");
  if (stack_name != "linux" && stack_name != "xen+") {
    std::fprintf(stderr, "unknown sweep stack '%s' (want linux or xen+)\n", stack_name.c_str());
    std::exit(2);
  }
  const bool is_linux = stack_name == "linux";
  const StackConfig base =
      WithVnumaOptions(WithP2mOptions(is_linux ? LinuxStack() : XenPlusStack(), flags), flags);
  const auto candidates = is_linux ? LinuxPolicyCandidates() : XenPolicyCandidates();
  const auto sweep = SweepPolicies(app, base, candidates, LoadOptions(flags, run));
  bool finished = true;
  for (const auto& entry : sweep) {
    finished &= PrintResult(flags, ToString(entry.policy), entry.result);
  }
  const auto& best = BestEntry(sweep);
  if (!flags.GetBool("csv", false)) {
    std::printf("best: %s\n", ToString(best.policy));
  }
  return finished ? 0 : 1;
}

int CmdPair(const Flags& flags) {
  const RunFlags run = ReadRunFlags(flags, "pair");
  const AppProfile a = LoadApp(flags, "a", run);
  const AppProfile b = LoadApp(flags, "b", run);
  const std::string mode_name = flags.GetString("mode", "split");
  if (mode_name != "split" && mode_name != "consolidated") {
    std::fprintf(stderr, "unknown pair mode '%s' (want split or consolidated)\n",
                 mode_name.c_str());
    std::exit(2);
  }
  const PairMode mode =
      mode_name == "consolidated" ? PairMode::kConsolidated : PairMode::kSplitHalves;
  const StackConfig stack = LoadStack(flags);
  const PairResult pair = RunAppPair(a, stack, b, stack, mode, LoadOptions(flags, run));
  const bool first = PrintResult(flags, a.name + " (vm1)", pair.first);
  const bool second = PrintResult(flags, b.name + " (vm2)", pair.second);
  return first && second ? 0 : 1;
}

int CmdChurn(const Flags& flags) {
  // A refused number exits at once. The width check below comes after
  // every flag is read, so its refusal warns about no flag left unread.
  const bool csv = flags.GetBool("csv", false);
  const std::string metrics_json_path = flags.GetString("metrics-json", "");
  const bool print_metrics = flags.GetBool("metrics", false);
  const bool synthetic = flags.Has("nodes");
  const uint64_t seed = ReadInt<uint64_t>(flags, "churn", "seed", 1, 0, UINT64_MAX);
  const int64_t events = ReadInt<int64_t>(flags, "churn", "events", 2000, 0, INT32_MAX);
  const int64_t tenants =
      ReadInt<int64_t>(flags, "churn", "tenants", 24, INT32_MIN, INT32_MAX);
  const int64_t vcpus = ReadInt<int64_t>(flags, "churn", "vcpus", 6, 1, INT32_MAX);
  const int64_t min_pages = ReadInt<int64_t>(flags, "churn", "min_pages", 8, 1, INT64_MAX);
  const int64_t max_pages =
      ReadInt<int64_t>(flags, "churn", "max_pages", 2048, min_pages, INT64_MAX);
  const int64_t nodes = synthetic ? ReadInt<int64_t>(flags, "churn", "nodes", 0, 1, INT32_MAX) : 0;
  // AMD48 leaves --cpus and --node_mb unread, so passing them warns. The
  // churn machine's frames are 4 MiB (the Hypervisor default), and a node
  // needs at least one.
  const int64_t cpus = synthetic ? ReadInt<int64_t>(flags, "churn", "cpus", 4, 1, INT32_MAX) : 4;
  const int64_t node_mb =
      synthetic ? ReadInt<int64_t>(flags, "churn", "node_mb", 256, 4, INT64_MAX >> 20) : 256;
  if (nodes > kMaxAdmissionNodes) {
    std::fprintf(stderr, "churn: --nodes %lld exceeds the admission solver's %d-node limit\n",
                 static_cast<long long>(nodes), kMaxAdmissionNodes);
    return 2;
  }

  ChurnScenarioConfig config;
  config.spec.seed = seed;
  config.spec.num_events = static_cast<int>(events);
  config.spec.target_live_domains = static_cast<int>(tenants);
  config.spec.min_pages = min_pages;
  config.spec.max_pages = max_pages;
  config.spec.max_vcpus = static_cast<int>(vcpus);
  if (synthetic) {
    config.amd48 = false;
    config.nodes = static_cast<int>(nodes);
    config.cpus_per_node = static_cast<int>(cpus);
    config.bytes_per_node = node_mb << 20;
  }
  Observability obs;
  if (!metrics_json_path.empty() || print_metrics) {
    config.obs = &obs;
  }
  const ChurnReport r = RunChurnScenario(config);
  if (csv) {
    std::printf("churn,%lld,%lld,%lld,%lld,%lld,%lld,%.3f,%.3f,%.3f,%.4f,%016llx\n",
                static_cast<long long>(r.events), static_cast<long long>(r.arrivals),
                static_cast<long long>(r.admitted), static_cast<long long>(r.deferred),
                static_cast<long long>(r.rejected), static_cast<long long>(r.departures),
                r.solve_p50_us, r.solve_p99_us, r.solve_max_us, r.final_fragmentation,
                static_cast<unsigned long long>(r.placement_digest));
  } else {
    std::printf("churn: %lld events (seed %llu)\n", static_cast<long long>(r.events),
                static_cast<unsigned long long>(config.spec.seed));
    std::printf("  arrivals %lld  admitted %lld  deferred %lld  rejected %lld\n",
                static_cast<long long>(r.arrivals), static_cast<long long>(r.admitted),
                static_cast<long long>(r.deferred), static_cast<long long>(r.rejected));
    std::printf("  departures %lld  balloon -%lld/+%lld pages  migrated %lld pages\n",
                static_cast<long long>(r.departures),
                static_cast<long long>(r.balloon_down_pages),
                static_cast<long long>(r.balloon_up_pages),
                static_cast<long long>(r.migrated_pages));
    std::printf("  solver latency us: p50 %.3f  p99 %.3f  max %.3f\n", r.solve_p50_us,
                r.solve_p99_us, r.solve_max_us);
    std::printf("  final: %lld live domains, fragmentation %.4f\n",
                static_cast<long long>(r.final_live_domains), r.final_fragmentation);
    std::printf("  placement digest: %016llx\n",
                static_cast<unsigned long long>(r.placement_digest));
  }
  if (print_metrics) {
    std::printf("metrics:\n%s", obs.metrics().SummaryText().c_str());
  }
  if (!metrics_json_path.empty()) {
    std::ofstream out(metrics_json_path);
    out << obs.metrics().ToJson();
    std::fprintf(stderr, "metrics: %zu instruments -> %s\n", obs.metrics().Names().size(),
                 metrics_json_path.c_str());
  }
  return 0;
}

int CmdAuto(const Flags& flags) {
  const RunFlags run = ReadRunFlags(flags, "auto");
  const AppProfile app = LoadApp(flags, "app", run);
  const JobResult r = RunSingleApp(app, WithVnumaOptions(WithP2mOptions(XenAutoStack(), flags), flags),
                                   LoadOptions(flags, run));
  const bool finished = PrintResult(flags, "Xen+/auto", r);
  if (!flags.GetBool("csv", false)) {
    std::printf("final policy: %s after %d switches\n", ToString(r.final_policy),
                r.policy_switches);
  }
  return finished ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string cmd = argv[1];
  xnuma::Flags flags(argc - 1, argv + 1);

  int status;
  if (cmd == "list") {
    status = CmdList();
  } else if (cmd == "run") {
    status = CmdRun(flags);
  } else if (cmd == "sweep") {
    status = CmdSweep(flags);
  } else if (cmd == "pair") {
    status = CmdPair(flags);
  } else if (cmd == "auto") {
    status = CmdAuto(flags);
  } else if (cmd == "churn") {
    status = CmdChurn(flags);
  } else {
    return Usage();
  }
  for (const std::string& key : flags.UnusedKeys()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", key.c_str());
  }
  return status;
}
