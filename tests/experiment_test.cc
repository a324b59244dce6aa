#include "src/core/experiment.h"

#include <gtest/gtest.h>

namespace xnuma {
namespace {

RunOptions FastOptions() {
  RunOptions opts;
  opts.engine.max_sim_seconds = 240.0;
  return opts;
}

AppProfile ShrinkApp(const char* name, double seconds = 1.5) {
  const AppProfile* app = FindApp(name);
  EXPECT_NE(app, nullptr);
  AppProfile copy = *app;
  const double scale = seconds / copy.nominal_seconds;
  copy.nominal_seconds = seconds;
  copy.disk_read_mb *= scale;
  return copy;
}

TEST(StackConfigTest, Presets) {
  const StackConfig linux_stack = LinuxStack();
  EXPECT_EQ(linux_stack.mode, ExecMode::kNative);
  EXPECT_EQ(linux_stack.policy.placement, StaticPolicy::kFirstTouch);

  const StackConfig xen = XenStack();
  EXPECT_EQ(xen.mode, ExecMode::kGuest);
  EXPECT_EQ(xen.policy.placement, StaticPolicy::kRound1g);
  EXPECT_FALSE(xen.pci_passthrough);
  EXPECT_FALSE(xen.mcs_for_eligible);

  const StackConfig xenplus = XenPlusStack();
  EXPECT_TRUE(xenplus.pci_passthrough);
  EXPECT_TRUE(xenplus.mcs_for_eligible);
}

TEST(PolicyCandidatesTest, MatchPaperSets) {
  EXPECT_EQ(LinuxPolicyCandidates().size(), 4u);   // Fig. 2
  EXPECT_EQ(XenPolicyCandidates().size(), 5u);     // Fig. 7 (incl. round-1G)
  EXPECT_EQ(XenPolicyCandidates()[0].placement, StaticPolicy::kRound1g);
}

TEST(ExperimentTest, SingleAppRunsToCompletion) {
  const AppProfile app = ShrinkApp("cg.C");
  const JobResult r = RunSingleApp(app, LinuxStack(), FastOptions());
  EXPECT_TRUE(r.finished);
  EXPECT_GT(r.completion_seconds, 0.0);
}

TEST(ExperimentTest, XenOverheadExistsForNumaSensitiveApp) {
  // Figure 1's core claim: plain Xen (round-1G) is much slower than native
  // Linux (first-touch) for NUMA-sensitive applications.
  const AppProfile app = ShrinkApp("cg.C");
  const JobResult linux_run = RunSingleApp(app, LinuxStack(), FastOptions());
  const JobResult xen_run = RunSingleApp(app, XenStack(), FastOptions());
  EXPECT_GT(xen_run.completion_seconds, 1.5 * linux_run.completion_seconds);
}

TEST(ExperimentTest, GoodXenPolicyClosesTheGap) {
  // Figure 10's core claim: Xen+ with the right policy approaches Linux.
  const AppProfile app = ShrinkApp("cg.C");
  const JobResult linux_run = RunSingleApp(app, LinuxStack(), FastOptions());
  const JobResult xen_r1g = RunSingleApp(app, XenPlusStack(), FastOptions());
  const JobResult xen_ft =
      RunSingleApp(app, XenPlusStack({StaticPolicy::kFirstTouch, false}), FastOptions());
  EXPECT_LT(xen_ft.completion_seconds, xen_r1g.completion_seconds);
  EXPECT_LT(xen_ft.completion_seconds, 1.6 * linux_run.completion_seconds);
}

TEST(ExperimentTest, FirstTouchDisablesPassthrough) {
  // §5.3.1: a disk-heavy app under first-touch falls back to the PV driver
  // and pays for it.
  const AppProfile app = ShrinkApp("dc.B");
  const JobResult ft =
      RunSingleApp(app, XenPlusStack({StaticPolicy::kFirstTouch, false}), FastOptions());
  const JobResult r1g = RunSingleApp(app, XenPlusStack(), FastOptions());
  EXPECT_GT(ft.observed_disk_mb_per_s, 0.0);
  EXPECT_LT(ft.observed_disk_mb_per_s, r1g.observed_disk_mb_per_s);
}

TEST(ExperimentTest, SweepCoversAllCandidates) {
  const AppProfile app = ShrinkApp("kmeans", 0.8);
  const auto sweep = SweepPolicies(app, XenPlusStack(), XenPolicyCandidates(), FastOptions());
  ASSERT_EQ(sweep.size(), 5u);
  const PolicySweepEntry& best = BestEntry(sweep);
  // kmeans is a "high-imbalance" app: round-robin placement must beat the
  // default round-1G.
  EXPECT_NE(best.policy.placement, StaticPolicy::kRound1g);
  for (const auto& entry : sweep) {
    EXPECT_TRUE(entry.result.finished) << ToString(entry.policy);
  }
}

TEST(ExperimentTest, SplitHalvesPairRuns) {
  const AppProfile a = ShrinkApp("cg.C", 1.0);
  const AppProfile b = ShrinkApp("ep.D", 1.0);
  const StackConfig stack = XenPlusStack();
  const PairResult pair = RunAppPair(a, stack, b, stack, PairMode::kSplitHalves, FastOptions());
  EXPECT_TRUE(pair.first.finished);
  EXPECT_TRUE(pair.second.finished);
  EXPECT_GT(pair.first.completion_seconds, 0.0);
  EXPECT_GT(pair.second.completion_seconds, 0.0);
}

TEST(ExperimentTest, ConsolidationRoughlyHalvesCpuBoundThroughput) {
  // Sharing every pCPU between two vCPUs halves a CPU-bound app's speed
  // (memory-bound apps are bottlenecked elsewhere and lose less).
  const AppProfile app = ShrinkApp("swaptions", 1.0);
  const StackConfig stack = XenPlusStack();
  const JobResult solo = RunSingleApp(app, stack, FastOptions());
  const PairResult pair = RunAppPair(app, stack, app, stack, PairMode::kConsolidated, FastOptions());
  EXPECT_GT(pair.first.completion_seconds, 1.6 * solo.completion_seconds);
  EXPECT_LT(pair.first.completion_seconds, 2.6 * solo.completion_seconds);
}

TEST(ExperimentTest, SimPagesScalesWithFootprint) {
  const int64_t frame = 4ll << 20;
  EXPECT_EQ(AppSimPages(*FindApp("swaptions"), frame, 96), 176);  // clamped minima
  EXPECT_GT(AppSimPages(*FindApp("dc.B"), frame, 96), 9000);
}

TEST(ExperimentTest, McsAppliedOnlyToEligibleApps) {
  // streamcluster blocks heavily; under Xen+ (MCS) it must beat plain Xen
  // even with the same placement policy.
  AppProfile app = ShrinkApp("streamcluster", 1.0);
  StackConfig xen = XenStack();
  StackConfig xenplus = XenPlusStack();  // round-1G too, but MCS enabled
  const JobResult without = RunSingleApp(app, xen, FastOptions());
  const JobResult with = RunSingleApp(app, xenplus, FastOptions());
  EXPECT_LT(with.completion_seconds, 0.9 * without.completion_seconds);
  EXPECT_DOUBLE_EQ(with.observed_ctx_switches_per_s, 0.0);
  EXPECT_GT(without.observed_ctx_switches_per_s, 0.0);
}

}  // namespace
}  // namespace xnuma
