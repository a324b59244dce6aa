// The §3.5.2 taxonomy on the two textbook access patterns: round-4K wins
// master-slave, first-touch wins thread-local.

#include <gtest/gtest.h>

#include "src/core/experiment.h"

namespace xnuma {
namespace {

// A master-initialized shared region taking `shared_share` of the accesses
// beside an owner-partitioned private region.
AppProfile PatternApp(const char* name, double shared_share) {
  AppProfile app;
  app.name = name;
  app.cpu_cycles_per_access = 200;
  app.mlp = 2.0;
  app.nominal_seconds = 0.8;
  RegionSpec shared;
  shared.name = "shared";
  shared.footprint_mb = 512;
  shared.init = AllocPattern::kMasterInit;
  shared.access_share = shared_share;
  app.regions.push_back(shared);
  RegionSpec priv;
  priv.name = "private";
  priv.footprint_mb = 256;
  priv.init = AllocPattern::kOwnerPartitioned;
  priv.access_share = 1.0 - shared_share;
  priv.owner_affinity = 0.95;
  app.regions.push_back(priv);
  return app;
}

TEST(SyntheticTest, PatternsReproduceTextbookPolicyRanking) {
  {
    const AppProfile app = PatternApp("synthetic-master-slave", 0.7);
    const auto sweep = SweepPolicies(app, LinuxStack(), LinuxPolicyCandidates());
    EXPECT_EQ(BestEntry(sweep).policy.placement, StaticPolicy::kRound4k) << "master-slave";
  }
  {
    const AppProfile app = PatternApp("synthetic-thread-local", 0.05);
    const auto sweep = SweepPolicies(app, LinuxStack(), LinuxPolicyCandidates());
    EXPECT_EQ(BestEntry(sweep).policy.placement, StaticPolicy::kFirstTouch) << "thread-local";
  }
}

}  // namespace
}  // namespace xnuma
