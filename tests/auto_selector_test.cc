#include "src/autopolicy/auto_selector.h"

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/numa/topology.h"

namespace xnuma {
namespace {

// Scripted IBS source for unit-level selector tests.
class ScriptedSampler : public PageAccessSource {
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

class AutoSelectorTest : public ::testing::Test {
 protected:
  AutoSelectorTest() : topo_(Topology::Amd48()), hv_(topo_), counters_(topo_) {
    system_ = std::make_unique<CarrefourSystemComponent>(hv_, counters_, sampler_);
  }

  DomainId MakeDomain(bool passthrough) {
    DomainConfig dc;
    dc.num_vcpus = 8;
    dc.memory_pages = 128;
    dc.policy = {StaticPolicy::kRound4k, false};
    dc.pci_passthrough = passthrough;
    dc.pinned_cpus = {0, 6, 12, 18, 24, 30, 36, 42};
    return hv_.CreateDomain(dc);
  }

  void CommitMetrics(double mc_max, double link_max) {
    TrafficSnapshot s;
    s.epoch_seconds = 0.05;
    s.accesses_per_s.assign(topo_.num_nodes(), std::vector<double>(topo_.num_nodes(), 0.0));
    s.dma_bytes_per_s.assign(topo_.num_nodes(), 0.0);
    s.mc_utilization.assign(topo_.num_nodes(), 0.1);
    s.mc_utilization[0] = mc_max;
    s.link_utilization.assign(topo_.num_links(), 0.05);
    s.link_utilization[0] = link_max;
    counters_.CommitEpoch(s);
  }

  void FillSamples(int count, double dominant_share) {
    sampler_.samples.clear();
    for (int i = 0; i < count; ++i) {
      PageAccessSample s;
      s.domain = 0;
      s.pfn = i;
      s.rate_by_node.assign(topo_.num_nodes(), 0.0);
      const double rest = (1.0 - dominant_share) / (topo_.num_nodes() - 1);
      for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
        s.rate_by_node[n] = (n == static_cast<NodeId>(i % 8)) ? dominant_share : rest;
      }
      sampler_.samples.push_back(std::move(s));
    }
  }

  AutoSelectorConfig NoDwell() {
    AutoSelectorConfig c;
    c.dwell_windows = 0;
    return c;
  }

  Topology topo_;
  Hypervisor hv_;
  PerfCounters counters_;
  ScriptedSampler sampler_;
  std::unique_ptr<CarrefourSystemComponent> system_;
};

TEST_F(AutoSelectorTest, NoMetricsNoDecision) {
  const DomainId dom = MakeDomain(false);
  AutoPolicySelector sel(hv_, *system_, NoDwell());
  sel.Tick(dom);
  EXPECT_EQ(hv_.domain(dom).policy_config().placement, StaticPolicy::kRound4k);
  EXPECT_EQ(sel.stats(dom).policy_switches, 0);
}

TEST_F(AutoSelectorTest, OwnerLocalPatternSwitchesToFirstTouch) {
  const DomainId dom = MakeDomain(false);
  FillSamples(64, /*dominant_share=*/0.95);
  CommitMetrics(/*mc_max=*/0.7, /*link_max=*/0.5);
  AutoPolicySelector sel(hv_, *system_, NoDwell());
  sel.Tick(dom);
  EXPECT_EQ(hv_.domain(dom).policy_config().placement, StaticPolicy::kFirstTouch);
  EXPECT_TRUE(hv_.domain(dom).policy_config().carrefour);
  EXPECT_GT(sel.stats(dom).last_partitionable_share, 0.9);
}

TEST_F(AutoSelectorTest, PassthroughDomainNeverGetsFirstTouch) {
  const DomainId dom = MakeDomain(true);
  FillSamples(64, 0.95);
  CommitMetrics(0.7, 0.5);
  AutoPolicySelector sel(hv_, *system_, NoDwell());
  sel.Tick(dom);
  // §4.4.1: FT + IOMMU is impossible; the selector falls back to
  // round-4K/Carrefour.
  EXPECT_EQ(hv_.domain(dom).policy_config().placement, StaticPolicy::kRound4k);
  EXPECT_TRUE(hv_.domain(dom).policy_config().carrefour);
}

TEST_F(AutoSelectorTest, SharedPagesUnderLoadEnableCarrefour) {
  const DomainId dom = MakeDomain(false);
  FillSamples(64, /*dominant_share=*/0.3);  // genuinely shared
  CommitMetrics(0.8, 0.2);
  AutoPolicySelector sel(hv_, *system_, NoDwell());
  sel.Tick(dom);
  EXPECT_EQ(hv_.domain(dom).policy_config().placement, StaticPolicy::kRound4k);
  EXPECT_TRUE(hv_.domain(dom).policy_config().carrefour);
}

TEST_F(AutoSelectorTest, QuietMachineDisablesCarrefour) {
  const DomainId dom = MakeDomain(false);
  ASSERT_EQ(hv_.HypercallSetPolicy(dom, {StaticPolicy::kRound4k, true}), HypercallStatus::kOk);
  FillSamples(64, 0.3);
  CommitMetrics(0.1, 0.05);
  AutoPolicySelector sel(hv_, *system_, NoDwell());
  sel.Tick(dom);
  EXPECT_FALSE(hv_.domain(dom).policy_config().carrefour);
}

TEST_F(AutoSelectorTest, DwellPreventsFlapping) {
  const DomainId dom = MakeDomain(false);
  AutoSelectorConfig cfg;
  cfg.dwell_windows = 3;
  AutoPolicySelector sel(hv_, *system_, cfg);
  FillSamples(64, 0.95);
  CommitMetrics(0.7, 0.5);
  sel.Tick(dom);  // windows_since_switch = 1 < 3: no switch yet
  EXPECT_EQ(hv_.domain(dom).policy_config().placement, StaticPolicy::kRound4k);
  sel.Tick(dom);
  EXPECT_EQ(hv_.domain(dom).policy_config().placement, StaticPolicy::kRound4k);
  sel.Tick(dom);  // third window: allowed
  EXPECT_EQ(hv_.domain(dom).policy_config().placement, StaticPolicy::kFirstTouch);
  EXPECT_EQ(sel.stats(dom).policy_switches, 1);
}

TEST_F(AutoSelectorTest, StableWorkloadCausesNoRepeatedSwitches) {
  const DomainId dom = MakeDomain(false);
  AutoPolicySelector sel(hv_, *system_, NoDwell());
  FillSamples(64, 0.95);
  CommitMetrics(0.7, 0.5);
  for (int i = 0; i < 10; ++i) {
    sel.Tick(dom);
  }
  EXPECT_LE(sel.stats(dom).policy_switches, 2);
  EXPECT_EQ(sel.stats(dom).decisions, 10);
}

TEST(AutoSelectorEndToEndTest, BeatsDefaultOnHighImbalanceApp) {
  AppProfile app = *FindApp("kmeans");
  app.nominal_seconds = 1.5;
  const JobResult default_run = RunSingleApp(app, XenPlusStack());
  const JobResult auto_run = RunSingleApp(app, XenAutoStack());
  EXPECT_LT(auto_run.completion_seconds, 0.85 * default_run.completion_seconds);
  EXPECT_TRUE(auto_run.finished);
}

TEST(AutoSelectorEndToEndTest, CloseToBestStaticOnLowImbalanceApp) {
  AppProfile app = *FindApp("mg.D");
  app.nominal_seconds = 1.0;
  const auto sweep = SweepPolicies(app, XenPlusStack(), XenPolicyCandidates());
  const auto& oracle = BestEntry(sweep);
  const JobResult auto_run = RunSingleApp(app, XenAutoStack());
  EXPECT_LT(auto_run.completion_seconds, 1.35 * oracle.result.completion_seconds);
}

}  // namespace
}  // namespace xnuma
