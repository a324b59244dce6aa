// xnuma_perfbench: times one workload of the end-to-end benchmark and prints
// its metrics, with a JSON object as the last line of stdout (README.md).
//
//   xnuma_perfbench --workload paper_matrix --seed 7 --seconds 20 --trace 0
//       --golden-dir perfbench/golden [--report-dir DIR] [--record-golden]
//
// The run is a closed loop on this one thread: each op starts when the
// previous one has returned. Set-up (input generation, golden loading, the
// untimed warm-up ops) is repeated kSetups times and reported as its median.
// The fixed batch of ops is then run in rounds until --seconds have passed;
// wall_s is the median round. --trace 1 alternates untraced rounds with
// traced ones and reports the per-layer metrics instead (layers.h).

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetups = 5;
constexpr int kWarmupOps = 8;
// Golden tolerance on modelled quantities, relative to the golden value,
// with an absolute floor for values that are zero up to rounding; counts
// must match exactly. README.md ("Result checks") gives the evidence: a
// solver converged to 1e-7 moves no field by more than 6.7e-7, a 5% change
// to one model constant moves 113 of paper_matrix's 290 runs by 1e-3 to 1e-1.
constexpr double kGoldenRtol = 1e-5;
constexpr double kGoldenAtol = 1e-9;
constexpr int kMaxMessages = 5;

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Moves the calling thread to the next CPU of the process's affinity mask
// before every op. A single thread left where the scheduler put it takes on
// that one core's share of host interference for a whole run; rotating
// spreads every round over all cores, at the price of a cold L1/L2 per op.
class CoreRotation {
 public:
  CoreRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }

  void Next() {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[next_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
  }

  size_t cpus() const { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

struct Args {
  Workload workload = Workload::kPaperMatrix;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string golden_dir;
  std::string report_dir;
  bool record_golden = false;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* err) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record-golden") {
      args->record_golden = true;
      continue;
    }
    if (i + 1 >= argc) {
      *err = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) {
        *err = "unknown workload " + value;
        return false;
      }
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0.0)) {
        *err = "--seconds must be positive";
        return false;
      }
    } else if (flag == "--trace") {
      args->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (flag == "--golden-dir") {
      args->golden_dir = value;
    } else if (flag == "--report-dir") {
      args->report_dir = value;
    } else {
      *err = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *err = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (!have_workload || args->golden_dir.empty()) {
    *err = "--workload and --golden-dir are required";
    return false;
  }
  return true;
}

// Timings of a sanitizer build, a reference-P2M build or an audited run
// describe a different program; refuse them rather than report them.
bool RefuseConfiguration(std::string* why) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "built with a sanitizer";
  return true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  *why = "built with a sanitizer";
  return true;
#endif
#endif
#ifdef XNUMA_P2M_REFERENCE
  *why = "built with XNUMA_P2M_REFERENCE";
  return true;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "RelWithDebInfo") {
    *why = std::string("build type is ") + PERFBENCH_BUILD_TYPE + ", not RelWithDebInfo";
    return true;
  }
  for (const char* var :
       {"XNUMA_VERIFY_PLACEMENT_CACHE", "XNUMA_P2M_AUDIT", "XNUMA_DEBUG_EPOCH"}) {
    if (std::getenv(var) != nullptr) {
      *why = std::string(var) + " is set";
      return true;
    }
  }
  return false;
}

std::string GoldenPath(const std::string& dir, Workload w) {
  return dir + "/" + WorkloadName(w) + ".tsv";
}

bool WriteGoldens(const std::string& path, Workload w, const std::vector<OpResult>& ops) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "# perfbench golden: %s, seed %llu\n# key", WorkloadName(w),
               static_cast<unsigned long long>(kDefaultSeed));
  for (const std::string& n : RealNames(w)) {
    std::fprintf(f, "\t%s", n.c_str());
  }
  for (const std::string& n : CountNames(w)) {
    std::fprintf(f, "\t%s", n.c_str());
  }
  std::fprintf(f, "\n");
  for (const OpResult& r : ops) {
    std::fprintf(f, "%s", r.key.c_str());
    for (double v : r.reals) {
      std::fprintf(f, "\t%.17g", v);
    }
    for (int64_t v : r.counts) {
      std::fprintf(f, "\t%lld", static_cast<long long>(v));
    }
    std::fprintf(f, "\n");
  }
  return std::fclose(f) == 0;
}

bool LoadGoldens(const std::string& path, Workload w, std::vector<OpResult>* out,
                 std::string* err) {
  std::ifstream in(path);
  if (!in) {
    *err = "cannot read " + path;
    return false;
  }
  const size_t reals = RealNames(w).size();
  const size_t counts = CountNames(w).size();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    OpResult r;
    std::string field;
    std::getline(fields, r.key, '\t');
    while (std::getline(fields, field, '\t')) {
      if (r.reals.size() < reals) {
        r.reals.push_back(std::strtod(field.c_str(), nullptr));
      } else {
        r.counts.push_back(std::strtoll(field.c_str(), nullptr, 10));
      }
    }
    if (r.reals.size() != reals || r.counts.size() != counts) {
      *err = path + ": malformed line: " + line;
      return false;
    }
    out->push_back(std::move(r));
  }
  return true;
}

// Checks every op: against its golden (default seed) or the seed-independent
// invariants, and against the first result this run saw for the same op.
class Checker {
 public:
  Checker(const Batch& batch, std::vector<OpResult> goldens)
      : batch_(&batch), goldens_(std::move(goldens)), seen_(batch.size()) {}

  bool Check(int i, const OpResult& r) {
    ++attempted_;
    std::string why;
    bool ok = goldens_.empty() ? batch_->CheckInvariants(i, r, &why) : MatchesGolden(i, r, &why);
    if (ok && seen_[i].has_value() && !SameOutcome(*seen_[i], r)) {
      ok = false;
      why = "differs from an earlier run of the same op";
    }
    if (!seen_[i].has_value()) {
      seen_[i] = r;
    }
    if (!ok) {
      ++failed_;
      if (static_cast<int>(messages_.size()) < kMaxMessages) {
        messages_.push_back("op " + std::to_string(i) + " (" + r.key + "): " + why);
      }
    }
    return ok;
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  bool MatchesGolden(int i, const OpResult& r, std::string* why) const {
    const OpResult& g = goldens_[i];
    if (r.key != g.key) {
      *why = "golden is for " + g.key;
      return false;
    }
    const Workload w = batch_->workload();
    for (size_t k = 0; k < g.counts.size(); ++k) {
      if (r.counts[k] != g.counts[k]) {
        *why = CountNames(w)[k] + " = " + std::to_string(r.counts[k]) + ", golden " +
               std::to_string(g.counts[k]);
        return false;
      }
    }
    for (size_t k = 0; k < g.reals.size(); ++k) {
      if (std::abs(r.reals[k] - g.reals[k]) > kGoldenRtol * std::abs(g.reals[k]) + kGoldenAtol) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), " = %.17g, golden %.17g", r.reals[k], g.reals[k]);
        *why = RealNames(w)[k] + buf;
        return false;
      }
    }
    return true;
  }

  const Batch* batch_;
  std::vector<OpResult> goldens_;
  std::vector<std::optional<OpResult>> seen_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> messages_;
};

// Check outcomes summed over every checker a run used.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> messages;

  void Add(const Checker& c) {
    attempted += c.attempted();
    failed += c.failed();
    for (const std::string& m : c.messages()) {
      if (static_cast<int>(messages.size()) < kMaxMessages) {
        messages.push_back(m);
      }
    }
  }
};

// The state one set-up produces.
struct Prepared {
  std::unique_ptr<Batch> batch;
  std::unique_ptr<Checker> checker;  // refers to *batch
};

// One set-up: generate the batch from the seed, load its goldens (default
// seed) into a checker, and run and check the untimed warm-up ops, spread
// evenly over the batch.
bool SetUp(const Args& args, CoreRotation& rotation, Prepared* out, std::string* err) {
  out->batch = std::make_unique<Batch>(args.workload, args.seed);
  std::vector<OpResult> goldens;
  if (args.seed == kDefaultSeed) {
    if (!LoadGoldens(GoldenPath(args.golden_dir, args.workload), args.workload, &goldens,
                     err)) {
      return false;
    }
    if (static_cast<int>(goldens.size()) != out->batch->size()) {
      *err = std::to_string(goldens.size()) + " goldens for " +
             std::to_string(out->batch->size()) + " ops";
      return false;
    }
  }
  out->checker = std::make_unique<Checker>(*out->batch, std::move(goldens));
  for (int k = 0; k < kWarmupOps; ++k) {
    const int i = k * out->batch->size() / kWarmupOps;
    rotation.Next();
    out->checker->Check(i, out->batch->Run(i, nullptr));
  }
  return true;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of an ascending vector.
double Percentile(const std::vector<double>& sorted, double p) {
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t k = 0; k < metrics.size(); ++k) {
    const double v = std::isfinite(metrics[k].value) ? metrics[k].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", k == 0 ? "" : ", ",
                metrics[k].name.c_str(), v, metrics[k].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

bool WriteReport(const std::string& path, const Args& args, const LayerAccounts& accounts,
                 const std::vector<Metric>& layer_metrics,
                 const SpanLog& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"traced_ops\": %d,\n",
               WorkloadName(args.workload), static_cast<unsigned long long>(args.seed),
               accounts.ops());
  std::fprintf(f, "  \"per_layer\": {");
  for (size_t k = 0; k < layer_metrics.size(); ++k) {
    std::fprintf(f, "%s\n    \"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", k == 0 ? "" : ",",
                 layer_metrics[k].name.c_str(), layer_metrics[k].value,
                 layer_metrics[k].unit.c_str());
  }
  std::fprintf(f, "\n  },\n  \"library_metrics\": {");
  bool first = true;
  for (const auto& [name, t] : accounts.op_totals().by_name) {
    std::fprintf(f, "%s\n    \"%s\": {\"count\": %lld, \"sum\": %.9g}", first ? "" : ",",
                 name.c_str(), static_cast<long long>(t.count), t.sum);
    first = false;
  }
  std::fprintf(f, "\n  },\n  \"spans\": [");
  for (size_t k = 0; k < spans.spans().size(); ++k) {
    const SpanLog::Span& s = spans.spans()[k];
    std::fprintf(f,
                 "%s\n    {\"name\": \"%s\", \"op\": %d, \"parent\": %d, \"start_us\": %.3f, "
                 "\"dur_us\": %.3f}",
                 k == 0 ? "" : ",", s.name, s.op, s.parent, s.start_us, s.end_us - s.start_us);
  }
  std::fprintf(f, "\n  ]\n}\n");
  return std::fclose(f) == 0;
}

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args args;
  std::string err;
  if (!ParseArgs(argc, argv, &args, &err)) {
    std::fprintf(stderr, "xnuma_perfbench: %s\n", err.c_str());
    return 2;
  }
  if (RefuseConfiguration(&err)) {
    std::fprintf(stderr, "xnuma_perfbench: refusing to time this run: %s\n", err.c_str());
    return 2;
  }
  const bool default_seed = args.seed == kDefaultSeed;
#ifdef __clang__
  const char* compiler = "clang";
#else
  const char* compiler = "gcc";
#endif
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              WorkloadName(args.workload), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  CoreRotation rotation;
  std::printf("build compiler=\"%s %s\" build_type=%s flags=\"%s\" nproc=%ld\n", compiler,
              __VERSION__, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
              sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("one thread, rotated over %zu cpu(s) one op at a time\n", rotation.cpus());

  if (args.record_golden) {
    if (!default_seed) {
      std::fprintf(stderr, "xnuma_perfbench: goldens are recorded with seed %llu\n",
                   static_cast<unsigned long long>(kDefaultSeed));
      return 2;
    }
    const Batch batch(args.workload, args.seed);
    std::vector<OpResult> ops;
    for (int i = 0; i < batch.size(); ++i) {
      ops.push_back(batch.Run(i, nullptr));
      std::string why;
      if (!batch.CheckInvariants(i, ops.back(), &why)) {
        std::fprintf(stderr, "xnuma_perfbench: op %d breaks an invariant: %s\n", i,
                     why.c_str());
        return 1;
      }
    }
    const std::string path = GoldenPath(args.golden_dir, args.workload);
    if (!WriteGoldens(path, args.workload, ops)) {
      std::fprintf(stderr, "xnuma_perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %zu goldens to %s\n", ops.size(), path.c_str());
    return 0;
  }

  // ---- Set-up. The first one prepares the timed batch; the others, needed
  // only for setup_s, run between the rounds so that their median samples the
  // same stretch of host time as the rounds do. ----
  Prepared live;
  if (!SetUp(args, rotation, &live, &err)) {
    std::fprintf(stderr, "xnuma_perfbench: %s\n", err.c_str());
    return 2;
  }
  std::vector<double> setup_s = {Since(process_start)};
  Tally tally;
  const auto extra_setup = [&]() {
    Prepared extra;
    const Clock::time_point t0 = Clock::now();
    const bool ok = SetUp(args, rotation, &extra, &err);
    setup_s.push_back(Since(t0));
    if (ok) {
      tally.Add(*extra.checker);
    }
  };
  const int setups = args.trace ? 1 : kSetups;

  // ---- Timed rounds of the fixed batch. ----
  const Batch& batch = *live.batch;
  Checker& checker = *live.checker;
  const int n = batch.size();
  std::vector<double> round_s;
  std::vector<double> traced_round_s;
  std::vector<double> op_s;
  LayerAccounts accounts;
  SpanLog spans;
  const Clock::time_point phase_start = Clock::now();
  for (;;) {
    const Clock::time_point round_start = Clock::now();
    double sum = 0.0;
    for (int i = 0; i < n; ++i) {
      rotation.Next();
      const Clock::time_point t0 = Clock::now();
      const OpResult r = batch.Run(i, nullptr);
      const double dt = Since(t0);
      op_s.push_back(dt);
      sum += dt;
      checker.Check(i, r);
    }
    round_s.push_back(sum);
    if (args.trace) {
      double traced = 0.0;
      for (int i = 0; i < n; ++i) {
        xnuma::Observability init_obs;
        rotation.Next();
        Clock::time_point t0 = Clock::now();
        {
          const BenchSpan span(&spans, "machine_init_rerun", i);
          batch.RunMachineInit(i, &init_obs);
        }
        const double init_dt = Since(t0);
        xnuma::Observability obs;
        rotation.Next();
        t0 = Clock::now();
        OpResult r;
        {
          const BenchSpan span(&spans, "op", i);
          r = batch.Run(i, &obs, &spans);
        }
        const double dt = Since(t0);
        traced += dt;
        accounts.AddOp(obs, dt, init_obs, init_dt, r);
        checker.Check(i, r);
      }
      traced_round_s.push_back(traced);
    }
    if (static_cast<int>(setup_s.size()) < setups) {
      extra_setup();
    }
    if (Since(phase_start) + Since(round_start) > args.seconds) {
      break;
    }
  }
  while (static_cast<int>(setup_s.size()) < setups) {
    extra_setup();
  }
  tally.Add(checker);

  bool anchor_ok = true;
  // Read before the anchor replay below, whose 20,000-event history would
  // otherwise set this workload's peak.
  const double peak_rss_mb = PeakRssMb();
  if (args.workload == Workload::kAdmissionChurn && ExtraChurnDigest() != kExtraChurnDigest) {
    anchor_ok = false;
    std::fprintf(stderr,
                 "xnuma_perfbench: extra_churn trace (seed 4817, 20000 events) no longer "
                 "reproduces placement digest %016llx\n",
                 static_cast<unsigned long long>(kExtraChurnDigest));
  }
  for (const std::string& m : tally.messages) {
    std::fprintf(stderr, "check failed: %s\n", m.c_str());
  }
  const bool correct = tally.failed == 0 && anchor_ok;
  std::printf("round_s:");
  for (double r : round_s) {
    std::printf(" %.4f", r);
  }
  std::printf("\n");
  std::printf("ops: %d per batch, %zu timed rounds%s; %lld ops checked (%s), %lld failed\n", n,
              round_s.size(), args.trace ? " each untraced and traced" : "",
              static_cast<long long>(tally.attempted),
              default_seed ? "goldens" : "invariants", static_cast<long long>(tally.failed));

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = accounts.Metrics(Median(round_s), Median(traced_round_s));
    if (!args.report_dir.empty()) {
      const std::string path =
          args.report_dir + "/" + WorkloadName(args.workload) + ".json";
      if (!WriteReport(path, args, accounts, metrics, spans)) {
        std::fprintf(stderr, "xnuma_perfbench: cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("per-layer report: %s\n", path.c_str());
    }
  } else {
    std::sort(op_s.begin(), op_s.end());
    const double wall = Median(round_s);
    metrics = {
        {"setup_s", "s", Median(setup_s)},
        {"wall_s", "s", wall},
        {"ops_per_s", "1/s", n / wall},
        {"op_p50_ms", "ms", Percentile(op_s, 50.0) * 1e3},
        {"op_p90_ms", "ms", Percentile(op_s, 90.0) * 1e3},
        {"peak_rss_mb", "MiB", peak_rss_mb},
    };
    std::printf("latency samples: %zu ops (%zu beyond p90)\n", op_s.size(),
                op_s.size() - static_cast<size_t>(std::ceil(0.9 * op_s.size())));
  }
  PrintResult(correct, tally.attempted, tally.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
