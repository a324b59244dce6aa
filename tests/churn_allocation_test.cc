// Heap allocations on the churn path (docs/MODEL.md §17). A replay
// allocates only the created domains' own storage: the Domain, its P2M
// entries and chunk generations, its policy, backend, vCPU list and
// home-node list. Teardown and a strict-admission defer allocate nothing
// once the machine's scratch has been sized. The global operator new is
// replaced by a counting one for the whole program, so this suite is its
// own binary.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/admission/churn_runner.h"
#include "src/admission/solver.h"
#include "src/hv/hypervisor.h"
#include "src/numa/topology.h"
#include "src/workload/churn.h"

namespace {

std::atomic<int64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xnuma {
namespace {

int64_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

// The replay's answers, pinned beside its allocation count so that a moved
// answer does not read as an allocation change.
constexpr int64_t kAdmitted = 327;
constexpr int64_t kDeferred = 45;
constexpr int64_t kDepartures = 326;
constexpr uint64_t kDigest = 0x2ff3480c7a52062eull;
// Allocations Run made when this was recorded: seven per admitted domain
// (2,289) and 53 for the growth of the machine's and the runner's lists.
// Lower it when a change allocates less; a rise fails.
constexpr int64_t kRecordedAllocations = 2342;

// perfbench's admission_churn shape: 1,000 events, tenants of 8 to 4,096
// pages and up to 12 vCPUs, a generator target of 40 live tenants.
ChurnSpec AdmissionChurnSpec() {
  ChurnSpec spec;
  spec.seed = 7;
  spec.num_events = 1000;
  spec.target_live_domains = 40;
  spec.min_pages = 8;
  spec.max_pages = 4096;
  spec.max_vcpus = 12;
  spec.huge_page_fraction = 0.3;
  return spec;
}

TEST(ChurnAllocationTest, ReplayAllocatesOnlyDomainStorage) {
  const std::vector<ChurnEvent> trace = GenerateChurnTrace(AdmissionChurnSpec());
  const Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  ChurnRunner runner(hv);
  const int64_t before = Allocations();
  const ChurnReport report = runner.Run(trace, DomainConfig{});
  const int64_t allocations = Allocations() - before;

  ASSERT_EQ(report.admitted, kAdmitted);
  ASSERT_EQ(report.deferred, kDeferred);
  ASSERT_EQ(report.departures, kDepartures);
  ASSERT_EQ(report.placement_digest, kDigest);
  EXPECT_LE(allocations, kRecordedAllocations)
      << allocations << " allocations for " << report.admitted << " admitted domains";
}

TEST(ChurnAllocationTest, TeardownAndStrictDeferAllocateNothing) {
  const Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  DomainConfig config;
  config.num_vcpus = 8;
  config.memory_pages = 3000;
  config.strict_admission = true;
  // One create and destroy size the machine's scratch.
  hv.DestroyDomain(hv.CreateDomain(config));

  const DomainId dom = hv.CreateDomain(config);
  int64_t before = Allocations();
  hv.DestroyDomain(dom);
  EXPECT_EQ(Allocations() - before, 0) << "DestroyDomain";
  EXPECT_FALSE(hv.DomainAlive(dom));

  // A tenant on 40 of the 48 pCPUs leaves too few for a 12-vCPU request,
  // which fits the bare machine: a defer.
  config.num_vcpus = 40;
  hv.CreateDomain(config);
  config.num_vcpus = 12;
  config.memory_pages = 8;
  const int domains = hv.num_domains();
  before = Allocations();
  const DomainId deferred = hv.TryCreateDomain(config);
  EXPECT_EQ(Allocations() - before, 0) << "strict-admission defer";
  EXPECT_EQ(deferred, kInvalidDomain);
  EXPECT_EQ(hv.last_admission().result.decision, AdmissionDecision::kDefer);
  EXPECT_EQ(hv.num_domains(), domains);
}

}  // namespace
}  // namespace xnuma
