// Golden-shape regression suite: freezes the *shape claims* EXPERIMENTS.md
// makes about the reproduced figures/tables — not raw completion times,
// which drift with any calibration change, but the counts and winners the
// document argues from:
//   * Figure 1 — how many apps Xen degrades > 50% / > 100%, and which app
//     is hit worst;
//   * Table 1 — the low/moderate/high imbalance class split;
//   * Table 4 — the best Linux and best Xen+ policy per application.
//
// All runs fan out through ParallelFor at hardware-concurrency jobs, so
// this test is also an end-to-end determinism check: the fixture was
// generated from the serial loop, and any scheduling leak would show up as
// a diff. A run that throws fails the test. Regenerate after an
// intentional model change with
//   XNUMA_REGEN_GOLDEN=1 ./tests/golden_shape_test
// and re-read EXPERIMENTS.md — if the shapes moved, its claims must too.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/exec/parallel_for.h"

#ifndef XNUMA_GOLDEN_DIR
#error "XNUMA_GOLDEN_DIR must be defined (tests/CMakeLists.txt sets it)"
#endif

namespace xnuma {
namespace {

// Mirrors bench/bench_util.cc: the 29 apps at 5 simulated seconds each, the
// bounded-run options — the exact configuration EXPERIMENTS.md's numbers
// were produced with.
std::vector<AppProfile> GoldenApps() {
  std::vector<AppProfile> apps = AllApps();
  for (AppProfile& app : apps) {
    const double scale = 5.0 / app.nominal_seconds;
    app.nominal_seconds = 5.0;
    app.disk_read_mb *= scale;
  }
  return apps;
}

RunOptions GoldenOptions() {
  RunOptions opts;
  opts.engine.max_sim_seconds = 300.0;
  return opts;
}

// §3.5.2 thresholds, as in bench/table1_static_metrics.cc.
const char* Classify(double ft_imbalance) {
  if (ft_imbalance < 85.0) {
    return "low";
  }
  if (ft_imbalance <= 130.0) {
    return "moderate";
  }
  return "high";
}

// First strictly-minimal completion time, like BestEntry().
int BestIndex(const std::vector<const JobResult*>& results) {
  int best = 0;
  for (int i = 1; i < static_cast<int>(results.size()); ++i) {
    if (results[i]->completion_seconds < results[best]->completion_seconds) {
      best = i;
    }
  }
  return best;
}

std::string ComputeShapeClaims() {
  const std::vector<AppProfile> apps = GoldenApps();
  const std::vector<PolicyConfig> linux_candidates = LinuxPolicyCandidates();
  const std::vector<PolicyConfig> xen_candidates = XenPolicyCandidates();

  // One flat matrix: per app, the Figure 1 pair, the Table 1 pair, and every
  // sweep candidate for Table 4. Cell i runs app i / stride under stack
  // i % stride.
  StackConfig stock_linux = LinuxStack();
  stock_linux.mcs_for_eligible = false;
  std::vector<StackConfig> stacks = {stock_linux, XenStack(),
                                     LinuxStack({StaticPolicy::kFirstTouch, false}),
                                     LinuxStack({StaticPolicy::kRound4k, false})};
  for (const PolicyConfig& policy : linux_candidates) {
    stacks.push_back(LinuxStack());
    stacks.back().policy = policy;
  }
  for (const PolicyConfig& policy : xen_candidates) {
    stacks.push_back(XenPlusStack());
    stacks.back().policy = policy;
  }
  const size_t stride = stacks.size();

  std::vector<JobResult> results(apps.size() * stride);
  ParallelFor(static_cast<int>(results.size()),
              [&](int i) {
                const size_t cell = static_cast<size_t>(i);
                results[cell] =
                    RunSingleApp(apps[cell / stride], stacks[cell % stride], GoldenOptions());
              },
              static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));

  // Fixture content.
  std::ostringstream claims;
  int over50 = 0;
  int over100 = 0;
  double worst = 0.0;
  std::string worst_app;
  int low = 0;
  int moderate = 0;
  int high = 0;
  std::ostringstream table4;
  for (size_t a = 0; a < apps.size(); ++a) {
    const JobResult* row = &results[a * stride];
    const double overhead =
        100.0 * (row[1].completion_seconds / row[0].completion_seconds - 1.0);
    if (overhead > 50.0) {
      ++over50;
    }
    if (overhead > 100.0) {
      ++over100;
    }
    if (overhead > worst) {
      worst = overhead;
      worst_app = apps[a].name;
    }

    const char* cls = Classify(row[2].imbalance_pct);
    if (cls[0] == 'l') {
      ++low;
    } else if (cls[0] == 'm') {
      ++moderate;
    } else {
      ++high;
    }

    std::vector<const JobResult*> linux_sweep;
    for (size_t i = 0; i < linux_candidates.size(); ++i) {
      linux_sweep.push_back(&row[4 + i]);
    }
    std::vector<const JobResult*> xen_sweep;
    for (size_t i = 0; i < xen_candidates.size(); ++i) {
      xen_sweep.push_back(&row[4 + linux_candidates.size() + i]);
    }
    table4 << "table4." << apps[a].name
           << " linux=" << ToString(linux_candidates[static_cast<size_t>(BestIndex(linux_sweep))])
           << " xen=" << ToString(xen_candidates[static_cast<size_t>(BestIndex(xen_sweep))])
           << "\n";
  }

  claims << "fig1.over50 " << over50 << "\n";
  claims << "fig1.over100 " << over100 << "\n";
  claims << "fig1.worst_app " << worst_app << "\n";
  claims << "table1.class_split " << low << "/" << moderate << "/" << high << "\n";
  claims << table4.str();
  return claims.str();
}

TEST(GoldenShapeTest, ShapeClaimsMatchFixture) {
  const std::string fixture_path = std::string(XNUMA_GOLDEN_DIR) + "/shape_claims.txt";
  const std::string actual = ComputeShapeClaims();

  if (std::getenv("XNUMA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(fixture_path);
    ASSERT_TRUE(out.good()) << "cannot write " << fixture_path;
    out << actual;
    GTEST_SKIP() << "regenerated " << fixture_path;
  }

  std::ifstream in(fixture_path);
  ASSERT_TRUE(in.good()) << "missing fixture " << fixture_path
                         << " — run once with XNUMA_REGEN_GOLDEN=1";
  std::stringstream expected;
  expected << in.rdbuf();

  EXPECT_EQ(expected.str(), actual)
      << "shape claims drifted from tests/golden/shape_claims.txt; if the "
         "model change is intentional, regenerate with XNUMA_REGEN_GOLDEN=1 "
         "and update EXPERIMENTS.md";
}

}  // namespace
}  // namespace xnuma
