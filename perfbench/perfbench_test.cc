// The benchmark's own determinism self-test: two batches made from one seed
// give identical simulated counts and results, and attaching an
// Observability (the traced run) changes no op's result.
//
//   cmake -S perfbench -B build-perfbench && cmake --build build-perfbench
//   ctest --test-dir build-perfbench

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/obs.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Simulated counts that a host-speed change must leave untouched.
const char* const kSimulatedCounts[] = {
    "engine.epochs",          "engine.solver.iterations",    "hv.page_faults",
    "carrefour.interleave_migrations", "carrefour.locality_migrations",
    "admission.admitted",     "admission.deferred",          "admission.rejected",
    "pv.queue.flushes",       "churn.events",
};

// A few ops spread over the batch (every stack of paper_matrix is hit).
std::vector<int> SampleOps(const Batch& batch, int count) {
  std::vector<int> ops;
  for (int k = 0; k < count; ++k) {
    ops.push_back(k * batch.size() / count + k % 29);
  }
  return ops;
}

struct Observed {
  OpResult result;
  std::vector<xnuma::MetricSnapshot> metrics;
};

Observed RunObserved(const Batch& batch, int op) {
  xnuma::Observability obs;
  Observed out;
  out.result = batch.Run(op, &obs);
  out.metrics = obs.metrics().Snapshot();
  return out;
}

// Counter value or histogram count/sum of `name` (zero when absent).
std::pair<int64_t, double> Read(const std::vector<xnuma::MetricSnapshot>& metrics,
                                const std::string& name) {
  for (const xnuma::MetricSnapshot& m : metrics) {
    if (m.name == name) {
      return {m.count, m.kind == xnuma::MetricKind::kHistogram ? m.value : 0.0};
    }
  }
  return {0, 0.0};
}

class DeterminismTest : public ::testing::TestWithParam<Workload> {};

TEST_P(DeterminismTest, SameSeedGivesIdenticalCountsAndResults) {
  const uint64_t seed = 1234;
  const Batch first(GetParam(), seed);
  const Batch second(GetParam(), seed);
  ASSERT_EQ(first.size(), second.size());
  for (int op : SampleOps(first, 10)) {
    SCOPED_TRACE("op " + std::to_string(op));
    const Observed a = RunObserved(first, op);
    const Observed b = RunObserved(second, op);
    EXPECT_TRUE(SameOutcome(a.result, b.result));
    for (const char* name : kSimulatedCounts) {
      EXPECT_EQ(Read(a.metrics, name), Read(b.metrics, name)) << name;
    }
    std::string why;
    EXPECT_TRUE(first.CheckInvariants(op, a.result, &why)) << why;
  }
}

TEST_P(DeterminismTest, TracedRunGivesTheUntracedResults) {
  const Batch batch(GetParam(), kDefaultSeed);
  for (int op : SampleOps(batch, 10)) {
    SCOPED_TRACE("op " + std::to_string(op));
    const OpResult untraced = batch.Run(op, nullptr);
    const Observed traced = RunObserved(batch, op);
    EXPECT_TRUE(SameOutcome(untraced, traced.result));
    SpanLog spans;
    EXPECT_TRUE(SameOutcome(untraced, batch.Run(op, nullptr, &spans)));
    EXPECT_FALSE(spans.spans().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, DeterminismTest,
                         ::testing::Values(Workload::kPaperMatrix, Workload::kCarrefourChurn,
                                           Workload::kAdmissionChurn),
                         [](const ::testing::TestParamInfo<Workload>& info) {
                           return std::string(WorkloadName(info.param));
                         });

TEST(AnchorTest, ExtraChurnTraceReproducesItsRecordedDigest) {
  EXPECT_EQ(ExtraChurnDigest(), kExtraChurnDigest);
}

}  // namespace
}  // namespace perfbench
