// Shared matchers for the execution-layer test battery: field-by-field
// equality over RunOutcome matrices, exact double compares included.
//
// Exact compares are the point — the parallel runner at every jobs value
// and the serial loop promise *bit-identical* outcomes, not
// approximately-equal ones (docs/MODEL.md §12).

#ifndef XENNUMA_TESTS_OUTCOME_MATCHERS_H_
#define XENNUMA_TESTS_OUTCOME_MATCHERS_H_

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/exec/experiment_runner.h"

namespace xnuma {

// Field-by-field equality over everything JobResult carries.
inline void ExpectSameResult(const JobResult& a, const JobResult& b,
                             const std::string& where) {
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
}

inline void ExpectSameOutcomes(const std::vector<RunOutcome>& a,
                               const std::vector<RunOutcome>& b,
                               const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string at = where + " [" + a[i].label + "]";
    EXPECT_EQ(a[i].label, b[i].label) << at;
    EXPECT_EQ(a[i].ok, b[i].ok) << at;
    EXPECT_EQ(a[i].error, b[i].error) << at;
    ExpectSameResult(a[i].result, b[i].result, at);
  }
}

}  // namespace xnuma

#endif  // XENNUMA_TESTS_OUTCOME_MATCHERS_H_
