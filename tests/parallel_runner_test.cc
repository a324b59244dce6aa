// ParallelRunner / ParallelFor isolation and determinism tests: the same
// experiment matrix must produce byte-identical outcomes for every jobs
// value, failures must degrade into error outcomes (runner) or rethrow
// deterministically (ParallelFor), and the exec.* metrics must add up.

#include "src/exec/experiment_runner.h"

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/parallel_for.h"
#include "src/obs/obs.h"
#include "tests/outcome_matchers.h"

namespace xnuma {
namespace {

// The 8-run matrix: 2 apps x 2 stacks x 2 seeds, one cell with Carrefour
// enabled, short nominal runtimes so the whole matrix stays fast.
std::vector<RunSpec> TestMatrix() {
  std::vector<RunSpec> specs;
  for (const char* name : {"cg.C", "kmeans"}) {
    AppProfile app = *FindApp(name);
    const double scale = 1.0 / app.nominal_seconds;
    app.nominal_seconds = 1.0;
    app.disk_read_mb *= scale;
    for (int xen : {0, 1}) {
      for (uint64_t seed : {7ull, 11ull}) {
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
  // One Carrefour cell: its hot-page sampler draws from per-run state, so
  // enabling it in one spec must not perturb any other cell of the matrix.
  specs[3].stack = XenPlusStack({StaticPolicy::kRound1g, true});
  specs[3].label += "/carrefour";
  return specs;
}

// Hostile run bodies for the degrade-to-outcome regression below. Plain
// functions because ParallelRunner::Options::run is a function pointer.
JobResult ThrowNonStdOnKmeans(const AppProfile& app, const StackConfig& stack,
                              const RunOptions& options) {
  if (app.name == "kmeans") {
    throw 42;  // not a std::exception — used to escape the runner entirely
  }
  return RunSingleApp(app, stack, options);
}

TEST(ParallelRunnerTest, BitIdenticalAcrossJobs1_4_16) {
  const std::vector<RunSpec> specs = TestMatrix();

  ParallelRunner::Options serial_opt;
  serial_opt.jobs = 1;
  const std::vector<RunOutcome> serial = ParallelRunner(serial_opt).RunAll(specs);

  ASSERT_EQ(serial.size(), 8u);
  for (const RunOutcome& out : serial) {
    EXPECT_TRUE(out.ok) << out.label << ": " << out.error;
    EXPECT_TRUE(out.result.finished) << out.label;
    EXPECT_GT(out.result.completion_seconds, 0.0) << out.label;
  }
  // The Carrefour cell actually sampled and migrated pages.
  EXPECT_GT(serial[3].result.carrefour_migrations, 0) << serial[3].label;
  EXPECT_EQ(serial[0].result.carrefour_migrations, 0) << serial[0].label;

  for (int jobs : {4, 16}) {
    ParallelRunner::Options opt;
    opt.jobs = jobs;
    const std::vector<RunOutcome> parallel = ParallelRunner(opt).RunAll(specs);
    ExpectSameOutcomes(serial, parallel, "jobs=" + std::to_string(jobs));
  }
}

TEST(ParallelRunnerTest, InvalidSpecFailsWithoutTearingDownMatrix) {
  std::vector<RunSpec> specs = TestMatrix();
  specs.resize(3);
  specs[1].options.threads = 1000;  // rejected by validation, never runs
  specs[1].label = "invalid-threads";

  for (int jobs : {1, 4}) {
    ParallelRunner::Options opt;
    opt.jobs = jobs;
    const std::vector<RunOutcome> outcomes = ParallelRunner(opt).RunAll(specs);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_NE(outcomes[1].error.find("threads"), std::string::npos) << outcomes[1].error;
    EXPECT_TRUE(outcomes[2].ok) << outcomes[2].error;
  }
}

TEST(ParallelRunnerTest, SharedObsOrTraceSpecIsRejected) {
  Observability shared;
  TraceRecorder trace;
  std::vector<RunSpec> specs = TestMatrix();
  specs.resize(2);
  specs[0].options.obs = &shared;
  specs[1].options.trace = &trace;

  const std::vector<RunOutcome> outcomes = ParallelRunner().RunAll(specs);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_NE(outcomes[0].error.find("isolation contract"), std::string::npos)
      << outcomes[0].error;
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_NE(outcomes[1].error.find("isolation contract"), std::string::npos)
      << outcomes[1].error;
}

// Regression: a cell throwing a value that is not a std::exception used to
// escape the runner's catch, reach ParallelFor's lowest-index rethrow, and
// discard the entire drained matrix. The runner's per-spec executor
// (src/exec/experiment_runner.cc) degrades it into an error outcome and
// every other slot survives — for every jobs value.
TEST(ParallelRunnerTest, NonStdThrowDegradesToErrorOutcomeAndMatrixDrains) {
  const std::vector<RunSpec> specs = TestMatrix();  // kmeans cells: [4..7]

  for (int jobs : {1, 4}) {
    ParallelRunner::Options opt;
    opt.jobs = jobs;
    opt.run = &ThrowNonStdOnKmeans;
    std::vector<RunOutcome> outcomes;
    ASSERT_NO_THROW(outcomes = ParallelRunner(opt).RunAll(specs)) << "jobs=" << jobs;
    ASSERT_EQ(outcomes.size(), 8u);
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (i < 4) {
        EXPECT_TRUE(outcomes[i].ok) << outcomes[i].label << ": " << outcomes[i].error;
        EXPECT_TRUE(outcomes[i].result.finished) << outcomes[i].label;
      } else {
        EXPECT_FALSE(outcomes[i].ok) << outcomes[i].label;
        EXPECT_EQ(outcomes[i].error, "run threw a non-std::exception value")
            << outcomes[i].label;
      }
    }
  }
}

TEST(ParallelRunnerTest, EmptyMatrix) {
  for (int jobs : {1, 4}) {
    ParallelRunner::Options opt;
    opt.jobs = jobs;
    EXPECT_TRUE(ParallelRunner(opt).RunAll({}).empty());
  }
}

TEST(ParallelRunnerTest, ExecMetricsAddUp) {
  Observability obs;
  std::vector<RunSpec> specs = TestMatrix();
  specs[5].options.threads = 1000;  // one failed cell

  ParallelRunner::Options opt;
  opt.jobs = 4;
  opt.obs = &obs;
  const std::vector<RunOutcome> outcomes = ParallelRunner(opt).RunAll(specs);
  ASSERT_EQ(outcomes.size(), 8u);

  MetricsRegistry& m = obs.metrics();
  EXPECT_EQ(m.RegisterCounter("exec.runs_started", "runs", "")->value(), 8);
  EXPECT_EQ(m.RegisterCounter("exec.runs_failed", "runs", "")->value(), 1);
  EXPECT_EQ(m.RegisterGauge("exec.jobs", "threads", "")->value(), 4.0);
  // One busy-time observation per worker.
  EXPECT_EQ(m.RegisterHistogram("exec.worker_busy_seconds", "s", "")->count(), 4);
}

TEST(ParallelForTest, AllIndicesRunAndLowestExceptionWins) {
  for (int jobs : {1, 4, 16}) {
    ParallelForOptions opt;
    opt.jobs = jobs;
    std::atomic<int> ran{0};
    std::string what;
    try {
      ParallelFor(64,
                  [&](int i) {
                    ran.fetch_add(1, std::memory_order_relaxed);
                    if (i == 9 || i == 41) {
                      throw std::runtime_error("boom " + std::to_string(i));
                    }
                  },
                  opt);
      FAIL() << "expected rethrow (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    // Every index executed even though two threw, and the *lowest* failing
    // index's exception surfaced — scheduling cannot change what callers see.
    EXPECT_EQ(ran.load(), 64) << "jobs=" << jobs;
    EXPECT_EQ(what, "boom 9") << "jobs=" << jobs;
  }
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  int calls = 0;
  ParallelFor(0, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, JobsClampedToCount) {
  Observability obs;
  ParallelForOptions opt;
  opt.jobs = 16;
  opt.obs = &obs;
  std::atomic<int> ran{0};
  ParallelFor(3, [&](int) { ran.fetch_add(1, std::memory_order_relaxed); }, opt);
  EXPECT_EQ(ran.load(), 3);
  // Only 3 workers exist for 3 indices, and each reports one busy sample.
  EXPECT_EQ(obs.metrics().RegisterGauge("exec.jobs", "threads", "")->value(), 3.0);
  EXPECT_EQ(obs.metrics().RegisterHistogram("exec.worker_busy_seconds", "s", "")->count(), 3);
}

}  // namespace
}  // namespace xnuma
