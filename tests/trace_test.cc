#include "src/sim/trace.h"

#include <gtest/gtest.h>

#include "src/core/experiment.h"

namespace xnuma {
namespace {

TEST(TraceRecorderTest, RecordsAndClears) {
  TraceRecorder trace;
  EXPECT_TRUE(trace.empty());
  EpochSample s;
  s.time_seconds = 0.05;
  s.max_mc_util = 0.4;
  trace.Record(s);
  EXPECT_EQ(trace.samples().size(), 1u);
  trace.Clear();
  EXPECT_TRUE(trace.empty());
}

TEST(TraceRecorderTest, PeaksOverSamples) {
  TraceRecorder trace;
  for (double u : {0.2, 0.9, 0.5}) {
    EpochSample s;
    s.max_mc_util = u;
    s.max_link_util = u / 2;
    trace.Record(s);
  }
  EXPECT_DOUBLE_EQ(trace.PeakMcUtil(), 0.9);
  EXPECT_DOUBLE_EQ(trace.PeakLinkUtil(), 0.45);
}

TEST(TraceRecorderTest, CsvHasHeaderAndRows) {
  TraceRecorder trace;
  EpochSample s;
  s.time_seconds = 0.05;
  JobEpochSample j;
  j.app = "demo";
  j.avg_latency_cycles = 123.4;
  j.total_rate = 1e6;
  s.jobs.push_back(j);
  trace.Record(s);
  const std::string csv = trace.ToCsv();
  const std::string header =
      "# migrations: cumulative total; max_mc,max_link,latency,rate,overhead: "
      "instantaneous per-epoch values\n"
      "time,app,latency_cycles,rate_per_s,overhead,migrations,max_mc,max_link\n";
  EXPECT_EQ(csv.substr(0, header.size()), header);
  EXPECT_EQ(csv.substr(header.size()), "0.050,demo,123.4,1000000,0.0000,0,0.0000,0.0000\n");
}

TEST(TraceEngineTest, EngineFillsTrace) {
  AppProfile app = *FindApp("cg.C");
  app.nominal_seconds = 0.5;
  TraceRecorder trace;
  RunOptions opts;
  opts.trace = &trace;
  const JobResult r = RunSingleApp(app, XenPlusStack(), opts);
  ASSERT_TRUE(r.finished);
  ASSERT_FALSE(trace.empty());
  // One sample per epoch, monotone time, sane utilizations.
  double prev = 0.0;
  for (const EpochSample& e : trace.samples()) {
    EXPECT_GT(e.time_seconds, prev);
    prev = e.time_seconds;
    EXPECT_GE(e.max_mc_util, e.avg_mc_util);
    EXPECT_GE(e.max_link_util, e.avg_link_util);
    ASSERT_EQ(e.jobs.size(), 1u);
    EXPECT_EQ(e.jobs[0].app, "cg.C");
  }
  // The run saturated something (round-1G on cg.C).
  EXPECT_GT(trace.PeakMcUtil(), 0.8);
}

TEST(TraceEngineTest, TraceShowsCarrefourConvergence) {
  // Under round-4K/Carrefour on a partitioned workload, the recorded
  // latency must drop after the first Carrefour ticks.
  AppProfile app = *FindApp("sp.C");
  app.nominal_seconds = 1.0;
  TraceRecorder trace;
  RunOptions opts;
  opts.trace = &trace;
  RunSingleApp(app, XenPlusStack({StaticPolicy::kRound4k, true}), opts);
  ASSERT_GE(trace.samples().size(), 6u);
  const double early = trace.samples()[0].jobs[0].avg_latency_cycles;
  const double late = trace.samples()[trace.samples().size() / 2].jobs[0].avg_latency_cycles;
  EXPECT_LT(late, 0.8 * early);
  // Migration counter is cumulative and monotone.
  int64_t prev = 0;
  for (const EpochSample& e : trace.samples()) {
    EXPECT_GE(e.jobs[0].carrefour_migrations, prev);
    prev = e.jobs[0].carrefour_migrations;
  }
  EXPECT_GT(prev, 0);
}

}  // namespace
}  // namespace xnuma
