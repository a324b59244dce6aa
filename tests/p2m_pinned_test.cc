// Pinned results of whole simulations over the per-page P2M, for every
// placement policy.
//
// How the P2M stores its translations must never alter which frame a page
// maps to, which faults fire, or the order in which floating-point costs
// accumulate. These cells once ran each policy under an extent-compressed
// table, a 2M/1G superpage hierarchy with a promotion daemon, and a
// per-page reference, and required all three to agree. The digests below
// were recorded with those representations in place (and rehashed without
// the fault counters, zero in every cell, when the fault layer was
// deleted); the per-page table that replaced them must reproduce every
// field bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>

#include "src/guest/guest_os.h"
#include "src/hv/hypervisor.h"
#include "src/numa/latency_model.h"
#include "src/numa/topology.h"
#include "src/sim/engine.h"
#include "src/workload/app_profile.h"

namespace xnuma {
namespace {

// A shared master-init region (remapped by Carrefour) plus an
// owner-partitioned private region, with a release rate high enough to
// unmap and remap pages every epoch.
AppProfile ChurnApp() {
  AppProfile app;
  app.name = "p2m-pinned";
  app.cpu_cycles_per_access = 150;
  app.nominal_seconds = 0.5;
  app.release_rate_per_s = 20000.0;
  app.disk_read_mb = 64.0;
  RegionSpec shared;
  shared.name = "shared";
  shared.footprint_mb = 512;
  shared.init = AllocPattern::kMasterInit;
  shared.access_share = 0.6;
  shared.hot_fraction = 0.25;
  shared.hot_share = 0.8;
  app.regions.push_back(shared);
  RegionSpec priv;
  priv.name = "private";
  priv.footprint_mb = 256;
  priv.init = AllocPattern::kOwnerPartitioned;
  priv.access_share = 0.4;
  priv.owner_affinity = 0.9;
  app.regions.push_back(priv);
  return app;
}

struct PinnedCase {
  const char* label;
  StaticPolicy placement;
  bool carrefour;
  uint64_t digest;
};

// Prints the label, so test names stay stable across runs.
void PrintTo(const PinnedCase& pc, std::ostream* os) { *os << pc.label; }

class P2mPinnedTest : public ::testing::TestWithParam<PinnedCase> {};

uint64_t Mix(uint64_t digest, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xFF;
    digest *= 0x100000001b3ull;  // FNV-1a prime
  }
  return digest;
}

uint64_t MixDouble(uint64_t digest, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return Mix(digest, bits);
}

uint64_t MixString(uint64_t digest, const std::string& s) {
  digest = Mix(digest, s.size());
  for (const char c : s) {
    digest = Mix(digest, static_cast<uint8_t>(c));
  }
  return digest;
}

// FNV-1a over every JobResult field and every guest statistic.
uint64_t RunDigest(const PinnedCase& pc) {
  const AppProfile app = ChurnApp();
  EngineConfig ec;
  ec.seed = 21;
  ec.max_sim_seconds = 20.0;

  Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  LatencyModel latency;
  DomainConfig cfg;
  cfg.name = "dom";
  cfg.num_vcpus = 12;
  cfg.memory_pages = 4096;
  for (int i = 0; i < 12; ++i) {
    cfg.pinned_cpus.push_back(i);
  }
  cfg.policy.placement = pc.placement;
  cfg.policy.carrefour = pc.carrefour;
  const DomainId dom = hv.CreateDomain(cfg);
  GuestOs guest(hv, dom);
  Engine engine(hv, latency, ec);
  JobSpec spec;
  spec.app = &app;
  spec.domain = dom;
  spec.guest = &guest;
  spec.threads = 12;
  spec.vcpu_migration_period_s = 0.2;
  engine.AddJob(spec);
  const RunResult r = engine.Run();

  const JobResult& job = r.jobs.back();
  EXPECT_TRUE(job.finished);

  uint64_t d = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  d = MixString(d, job.app);
  d = Mix(d, static_cast<uint64_t>(job.domain));
  d = Mix(d, job.finished ? 1 : 0);
  d = MixDouble(d, job.completion_seconds);
  d = MixDouble(d, job.init_seconds);
  d = MixDouble(d, job.compute_seconds);
  d = MixDouble(d, job.imbalance_pct);
  d = MixDouble(d, job.interconnect_pct);
  d = MixDouble(d, job.avg_mc_util_pct);
  d = MixDouble(d, job.avg_latency_cycles);
  d = MixDouble(d, job.observed_disk_mb_per_s);
  d = MixDouble(d, job.observed_ctx_switches_per_s);
  d = Mix(d, static_cast<uint64_t>(job.hv_page_faults));
  d = Mix(d, static_cast<uint64_t>(job.carrefour_migrations));
  d = Mix(d, static_cast<uint64_t>(job.final_policy.placement));
  d = Mix(d, job.final_policy.carrefour ? 1 : 0);
  d = Mix(d, job.final_policy.vnuma ? 1 : 0);
  d = Mix(d, static_cast<uint64_t>(job.policy_switches));
  d = Mix(d, static_cast<uint64_t>(job.local_walks));
  d = Mix(d, static_cast<uint64_t>(job.remote_walks));
  const GuestOsStats& gs = guest.stats();
  d = Mix(d, static_cast<uint64_t>(gs.guest_minor_faults));
  d = Mix(d, static_cast<uint64_t>(gs.releases));
  d = Mix(d, static_cast<uint64_t>(gs.pages_zeroed));
  d = Mix(d, static_cast<uint64_t>(gs.vnuma_local_allocs));
  d = Mix(d, static_cast<uint64_t>(gs.vnuma_remote_allocs));
  return d;
}

TEST_P(P2mPinnedTest, DigestIsPinned) {
  const PinnedCase pc = GetParam();
  const uint64_t digest = RunDigest(pc);
  EXPECT_EQ(digest, pc.digest) << std::hex << "0x" << digest;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, P2mPinnedTest,
    ::testing::Values(
        PinnedCase{"first_touch", StaticPolicy::kFirstTouch, false, 0x37b443e05687037aull},
        PinnedCase{"round_4k", StaticPolicy::kRound4k, false, 0x5f2db3510ecc5c25ull},
        PinnedCase{"round_1g", StaticPolicy::kRound1g, false, 0x101aa2c8ded10516ull},
        PinnedCase{"first_touch_carrefour", StaticPolicy::kFirstTouch, true,
                   0x1cc9097ec934dd8eull}),
    [](const ::testing::TestParamInfo<PinnedCase>& info) {
      return std::string(info.param.label);
    });

}  // namespace
}  // namespace xnuma
