// ParallelFor isolation and determinism tests: the same experiment matrix
// must produce bit-identical results for every jobs value, every index
// must run, and the lowest failing index's exception must surface.

#include "src/exec/parallel_for.h"

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/experiment.h"

namespace xnuma {
namespace {

// Field-by-field equality over everything JobResult carries. Exact
// compares are the point: every jobs value promises results bit-identical
// to the serial loop, not approximately equal ones (docs/MODEL.md §12).
void ExpectSameResult(const JobResult& a, const JobResult& b, const std::string& where) {
  EXPECT_EQ(a.app, b.app) << where;
  EXPECT_EQ(a.domain, b.domain) << where;
  EXPECT_EQ(a.finished, b.finished) << where;
  EXPECT_EQ(a.completion_seconds, b.completion_seconds) << where;
  EXPECT_EQ(a.init_seconds, b.init_seconds) << where;
  EXPECT_EQ(a.compute_seconds, b.compute_seconds) << where;
  EXPECT_EQ(a.imbalance_pct, b.imbalance_pct) << where;
  EXPECT_EQ(a.interconnect_pct, b.interconnect_pct) << where;
  EXPECT_EQ(a.avg_mc_util_pct, b.avg_mc_util_pct) << where;
  EXPECT_EQ(a.avg_latency_cycles, b.avg_latency_cycles) << where;
  EXPECT_EQ(a.observed_disk_mb_per_s, b.observed_disk_mb_per_s) << where;
  EXPECT_EQ(a.observed_ctx_switches_per_s, b.observed_ctx_switches_per_s) << where;
  EXPECT_EQ(a.hv_page_faults, b.hv_page_faults) << where;
  EXPECT_EQ(a.carrefour_migrations, b.carrefour_migrations) << where;
  EXPECT_EQ(a.final_policy, b.final_policy) << where;
  EXPECT_EQ(a.policy_switches, b.policy_switches) << where;
  EXPECT_EQ(a.local_walks, b.local_walks) << where;
  EXPECT_EQ(a.remote_walks, b.remote_walks) << where;
}

struct Cell {
  std::string label;
  AppProfile app;
  StackConfig stack;
  uint64_t seed = 0;
};

// The 8-run matrix: 2 apps x 2 stacks x 2 seeds, one cell with Carrefour
// enabled, short nominal runtimes so the whole matrix stays fast.
std::vector<Cell> TestMatrix() {
  std::vector<Cell> cells;
  for (const char* name : {"cg.C", "kmeans"}) {
    AppProfile app = *FindApp(name);
    const double scale = 1.0 / app.nominal_seconds;
    app.nominal_seconds = 1.0;
    app.disk_read_mb *= scale;
    for (int xen : {0, 1}) {
      for (uint64_t seed : {7ull, 11ull}) {
        Cell cell;
        cell.app = app;
        cell.stack = xen ? XenPlusStack() : LinuxStack();
        cell.seed = seed;
        cell.label = std::string(name) + "/" + cell.stack.label + "/s" + std::to_string(seed);
        cells.push_back(cell);
      }
    }
  }
  // One Carrefour cell: its hot-page sampler draws from per-run state, so
  // enabling it in one cell must not perturb any other cell of the matrix.
  cells[3].stack = XenPlusStack({StaticPolicy::kRound1g, true});
  cells[3].label += "/carrefour";
  return cells;
}

std::vector<JobResult> RunMatrix(const std::vector<Cell>& cells, int jobs) {
  std::vector<JobResult> results(cells.size());
  ParallelFor(static_cast<int>(cells.size()),
              [&](int i) {
                const Cell& cell = cells[static_cast<size_t>(i)];
                RunOptions options;
                options.seed = cell.seed;
                options.engine.max_sim_seconds = 60.0;
                results[static_cast<size_t>(i)] = RunSingleApp(cell.app, cell.stack, options);
              },
              jobs);
  return results;
}

TEST(ParallelForTest, BitIdenticalAcrossJobs1_4_16) {
  const std::vector<Cell> cells = TestMatrix();
  const std::vector<JobResult> serial = RunMatrix(cells, 1);

  ASSERT_EQ(serial.size(), 8u);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].finished) << cells[i].label;
    EXPECT_GT(serial[i].completion_seconds, 0.0) << cells[i].label;
  }
  // The Carrefour cell actually sampled and migrated pages.
  EXPECT_GT(serial[3].carrefour_migrations, 0) << cells[3].label;
  EXPECT_EQ(serial[0].carrefour_migrations, 0) << cells[0].label;

  for (int jobs : {4, 16}) {
    const std::vector<JobResult> parallel = RunMatrix(cells, jobs);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ExpectSameResult(serial[i], parallel[i],
                       "jobs=" + std::to_string(jobs) + " " + cells[i].label);
    }
  }
}

TEST(ParallelForTest, AllIndicesRunAndLowestExceptionWins) {
  for (int jobs : {1, 4, 16}) {
    std::atomic<int> ran{0};
    std::string what;
    try {
      ParallelFor(64,
                  [&](int i) {
                    ran.fetch_add(1, std::memory_order_relaxed);
                    if (i == 9 || i == 41) {
                      throw std::runtime_error("boom " + std::to_string(i));
                    }
                    if (i == 23) {
                      throw 23;  // not a std::exception
                    }
                  },
                  jobs);
      FAIL() << "expected rethrow (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    // Every index executed even though three threw, and the *lowest* failing
    // index's exception surfaced — scheduling cannot change what callers see.
    EXPECT_EQ(ran.load(), 64) << "jobs=" << jobs;
    EXPECT_EQ(what, "boom 9") << "jobs=" << jobs;

    // The same holds when the lowest failing index throws a value that is
    // not a std::exception: it is rethrown as it was thrown.
    ran = 0;
    int thrown = -1;
    try {
      ParallelFor(64,
                  [&](int i) {
                    ran.fetch_add(1, std::memory_order_relaxed);
                    if (i == 5) {
                      throw 5;
                    }
                    if (i == 30) {
                      throw std::runtime_error("boom 30");
                    }
                  },
                  jobs);
      FAIL() << "expected rethrow (jobs=" << jobs << ")";
    } catch (int value) {
      thrown = value;
    }
    EXPECT_EQ(ran.load(), 64) << "jobs=" << jobs;
    EXPECT_EQ(thrown, 5) << "jobs=" << jobs;
  }
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  int calls = 0;
  ParallelFor(0, [&](int) { ++calls; }, 4);
  EXPECT_EQ(calls, 0);
}

// 16 jobs over 3 indices start 3 workers. Each body waits (up to a bound)
// until all three indices have started, so each runs on its own worker.
TEST(ParallelForTest, JobsClampedToCount) {
  std::atomic<int> started{0};
  std::vector<std::thread::id> ids(3);
  ParallelFor(3,
              [&](int i) {
                ids[static_cast<size_t>(i)] = std::this_thread::get_id();
                started.fetch_add(1);
                const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
                while (started.load() < 3 && std::chrono::steady_clock::now() < deadline) {
                  std::this_thread::yield();
                }
              },
              16);
  EXPECT_EQ(started.load(), 3);
  const std::set<std::thread::id> workers(ids.begin(), ids.end());
  EXPECT_EQ(workers.size(), 3u);
  EXPECT_EQ(workers.count(std::this_thread::get_id()), 0u);

  // jobs == 1 is the serial loop on the calling thread.
  ParallelFor(3, [&](int i) { ids[static_cast<size_t>(i)] = std::this_thread::get_id(); }, 1);
  EXPECT_EQ(std::set<std::thread::id>(ids.begin(), ids.end()),
            std::set<std::thread::id>{std::this_thread::get_id()});
}

}  // namespace
}  // namespace xnuma
