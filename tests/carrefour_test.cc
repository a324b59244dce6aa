#include <gtest/gtest.h>

#include "src/carrefour/system_component.h"
#include "src/carrefour/user_component.h"
#include "src/numa/topology.h"

namespace xnuma {
namespace {

// Hand-scripted IBS source: returns a fixed set of hot pages.
class FakeSampler : public PageAccessSource {
 public:
  void SampleHotPages(DomainId domain, int max_pages,
                      std::vector<PageAccessSample>* out) override {
    (void)domain;
    out->clear();
    for (int i = 0; i < std::min<int>(max_pages, static_cast<int>(samples.size())); ++i) {
      out->push_back(samples[i]);
    }
  }
  std::vector<PageAccessSample> samples;
};

class CarrefourTest : public ::testing::Test {
 protected:
  CarrefourTest() : topo_(Topology::Amd48()), hv_(topo_), counters_(topo_) {
    DomainConfig dc;
    dc.num_vcpus = 8;
    dc.memory_pages = 256;
    dc.policy = {StaticPolicy::kFirstTouch, true};
    dc.pinned_cpus = {0, 6, 12, 18, 24, 30, 36, 42};  // one per node
    dom_ = hv_.CreateDomain(dc);
    system_ = std::make_unique<CarrefourSystemComponent>(hv_, counters_, sampler_);
  }

  // Places `count` pages on `node` through the fault path.
  void PlacePages(Pfn first, int count, NodeId node) {
    for (Pfn p = first; p < first + count; ++p) {
      ASSERT_TRUE(hv_.backend(dom_).MapOnNode(p, node));
    }
  }

  void CommitUtilization(std::vector<double> mc, double max_link) {
    TrafficSnapshot s;
    s.epoch_seconds = 0.05;
    s.accesses_per_s.assign(topo_.num_nodes(), std::vector<double>(topo_.num_nodes(), 0.0));
    s.dma_bytes_per_s.assign(topo_.num_nodes(), 0.0);
    s.mc_utilization = std::move(mc);
    s.link_utilization.assign(topo_.num_links(), 0.0);
    s.link_utilization[0] = max_link;
    counters_.CommitEpoch(s);
  }

  PageAccessSample MakeSample(Pfn pfn, NodeId dominant, double share) {
    PageAccessSample s;
    s.domain = dom_;
    s.pfn = pfn;
    s.rate_by_node.assign(topo_.num_nodes(), 0.0);
    const double rest = (1.0 - share) / (topo_.num_nodes() - 1);
    for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
      s.rate_by_node[n] = (n == dominant) ? 1e6 * share : 1e6 * rest;
    }
    return s;
  }

  Topology topo_;
  Hypervisor hv_;
  PerfCounters counters_;
  FakeSampler sampler_;
  std::unique_ptr<CarrefourSystemComponent> system_;
  DomainId dom_ = kInvalidDomain;
};

TEST_F(CarrefourTest, NoMetricsNoAction) {
  CarrefourUserComponent user(*system_, CarrefourConfig{});
  const CarrefourTickStats stats = user.Tick(dom_);
  EXPECT_EQ(stats.interleave_migrations, 0);
  EXPECT_EQ(stats.locality_migrations, 0);
}

TEST_F(CarrefourTest, QuietMachineNoMigrations) {
  PlacePages(0, 16, 0);
  sampler_.samples.push_back(MakeSample(0, /*dominant=*/3, /*share=*/0.95));
  CommitUtilization(std::vector<double>(8, 0.10), /*max_link=*/0.05);
  CarrefourUserComponent user(*system_, CarrefourConfig{});
  const CarrefourTickStats stats = user.Tick(dom_);
  EXPECT_FALSE(stats.mc_overloaded);
  EXPECT_FALSE(stats.interconnect_saturated);
  EXPECT_EQ(system_->migrations_performed(), 0);
}

TEST_F(CarrefourTest, InterleaveHeuristicMovesHotPagesOffOverloadedNode) {
  PlacePages(0, 16, 0);
  for (Pfn p = 0; p < 8; ++p) {
    sampler_.samples.push_back(MakeSample(p, /*dominant=*/0, /*share=*/0.2));
  }
  std::vector<double> mc(8, 0.05);
  mc[0] = 0.9;  // node 0 overloaded, everyone else idle
  CommitUtilization(mc, /*max_link=*/0.1);

  CarrefourUserComponent user(*system_, CarrefourConfig{});
  const CarrefourTickStats stats = user.Tick(dom_);
  EXPECT_TRUE(stats.mc_overloaded);
  EXPECT_EQ(stats.interleave_migrations, 8);
  for (Pfn p = 0; p < 8; ++p) {
    EXPECT_NE(hv_.backend(dom_).NodeOf(p), 0);
  }
  // Cold pages not in the sample stay put.
  EXPECT_EQ(hv_.backend(dom_).NodeOf(12), 0);
}

TEST_F(CarrefourTest, MigrationHeuristicMovesPageToDominantSource) {
  PlacePages(0, 4, 0);
  sampler_.samples.push_back(MakeSample(0, /*dominant=*/5, /*share=*/0.95));
  CommitUtilization(std::vector<double>(8, 0.2), /*max_link=*/0.8);

  CarrefourUserComponent user(*system_, CarrefourConfig{});
  const CarrefourTickStats stats = user.Tick(dom_);
  EXPECT_TRUE(stats.interconnect_saturated);
  EXPECT_EQ(stats.locality_migrations, 1);
  EXPECT_EQ(hv_.backend(dom_).NodeOf(0), 5);
}

TEST_F(CarrefourTest, MigrationHeuristicSkipsSharedPages) {
  PlacePages(0, 4, 0);
  // 40% dominant share: no single source, interleaving would be the only fix.
  sampler_.samples.push_back(MakeSample(1, /*dominant=*/5, /*share=*/0.40));
  CommitUtilization(std::vector<double>(8, 0.2), /*max_link=*/0.8);
  CarrefourUserComponent user(*system_, CarrefourConfig{});
  const CarrefourTickStats stats = user.Tick(dom_);
  EXPECT_EQ(stats.locality_migrations, 0);
  EXPECT_EQ(hv_.backend(dom_).NodeOf(1), 0);
}

TEST_F(CarrefourTest, MigrationHeuristicSkipsAlreadyLocalPages) {
  PlacePages(0, 4, 5);
  sampler_.samples.push_back(MakeSample(0, /*dominant=*/5, /*share=*/0.97));
  CommitUtilization(std::vector<double>(8, 0.2), /*max_link=*/0.8);
  CarrefourUserComponent user(*system_, CarrefourConfig{});
  user.Tick(dom_);
  EXPECT_EQ(system_->migrations_performed(), 0);
}

TEST_F(CarrefourTest, MigrationBudgetIsRespected) {
  PlacePages(0, 64, 0);
  for (Pfn p = 0; p < 64; ++p) {
    sampler_.samples.push_back(MakeSample(p, /*dominant=*/2, /*share=*/0.95));
  }
  CommitUtilization(std::vector<double>(8, 0.2), /*max_link=*/0.9);
  CarrefourConfig config;
  config.max_migrations_per_tick = 10;
  CarrefourUserComponent user(*system_, config);
  const CarrefourTickStats stats = user.Tick(dom_);
  EXPECT_EQ(stats.locality_migrations + stats.interleave_migrations, 10);
}

TEST_F(CarrefourTest, SystemComponentFillsCurrentNode) {
  PlacePages(0, 2, 4);
  sampler_.samples.push_back(MakeSample(0, 1, 0.9));
  std::vector<PageAccessSample> hot;
  system_->ReadHotPages(dom_, 8, &hot);
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0].current_node, 4);
}

TEST_F(CarrefourTest, TotalsAccumulateAcrossTicks) {
  PlacePages(0, 8, 0);
  for (Pfn p = 0; p < 4; ++p) {
    sampler_.samples.push_back(MakeSample(p, /*dominant=*/3, /*share=*/0.95));
  }
  CommitUtilization(std::vector<double>(8, 0.2), /*max_link=*/0.8);
  CarrefourUserComponent user(*system_, CarrefourConfig{});
  user.Tick(dom_);
  // Pages now live on node 3; second tick finds them local, no new moves.
  sampler_.samples.clear();
  for (Pfn p = 0; p < 4; ++p) {
    sampler_.samples.push_back(MakeSample(p, 3, 0.95));
    sampler_.samples.back().current_node = kInvalidNode;  // overwritten by system component
  }
  user.Tick(dom_);
  EXPECT_EQ(user.total_locality_migrations(), 4);
}

}  // namespace
}  // namespace xnuma
