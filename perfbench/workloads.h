// The benchmark's three workloads, each a fixed batch of independent ops.
//
// An op is one closed-loop call into the simulator's public API on the
// calling thread: no worker threads, no dispatcher. Everything an op needs
// (app profiles, stacks, per-op seeds, churn traces) is generated from the
// workload seed when the batch is made, before any op is timed.
//
//   paper_matrix     one RunSingleApp per (stack, app) of the paper's figure
//                    and table binaries: 10 stacks x 29 ScaledApps(5.0) apps.
//   carrefour_churn  a fresh AMD48 with consolidated first-touch + Carrefour
//                    domains under allocator churn, run for a fixed number of
//                    simulated epochs through Hypervisor/GuestOs/Engine.
//   admission_churn  one seeded churn trace replayed through ChurnRunner on
//                    a fresh AMD48 Hypervisor.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/obs/obs.h"
#include "src/workload/churn.h"
#include "spans.h"

namespace perfbench {

enum class Workload { kPaperMatrix, kCarrefourChurn, kAdmissionChurn };

// The workload seed that reproduces the figure binaries' runs (their
// RunOptions seed) and that the committed goldens were recorded with.
inline constexpr uint64_t kDefaultSeed = 7;

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

// What one op produced. `key` names the op; `reals` are modelled quantities
// compared within a tolerance, `counts` are exact event counts.
struct OpResult {
  std::string key;
  std::vector<double> reals;
  std::vector<int64_t> counts;
  // admission_churn's solver latencies (host time, so never compared).
  double solve_p50_us = 0.0;
  double solve_p99_us = 0.0;
};

// Bit-identical simulated outcome (host-time fields ignored).
bool SameOutcome(const OpResult& a, const OpResult& b);

// Column names of OpResult::reals and ::counts for a workload (golden
// headers and failure messages).
std::vector<std::string> RealNames(Workload w);
std::vector<std::string> CountNames(Workload w);

// A workload's inputs, generated from its seed.
class Batch {
 public:
  Batch(Workload w, uint64_t seed);

  Workload workload() const { return workload_; }
  int size() const { return size_; }

  // Runs op `i`. `obs` (may be null) is attached to the op's hypervisor
  // before anything is created on it; `spans` (may be null) records the
  // public calls the op makes.
  OpResult Run(int i, xnuma::Observability* obs, SpanLog* spans = nullptr) const;

  // The same op with zero simulated time: machine, domains, guest boot and
  // initial placement for the engine workloads; the hypervisor and an empty
  // replay for admission_churn.
  void RunMachineInit(int i, xnuma::Observability* obs) const;

  // Checks the properties of op `i`'s result that hold for every seed;
  // on failure `why` says which.
  bool CheckInvariants(int i, const OpResult& r, std::string* why) const;

 private:
  OpResult RunPaperMatrix(int i, xnuma::Observability* obs, SpanLog* spans,
                          bool init_only) const;
  OpResult RunCarrefourChurn(int i, xnuma::Observability* obs, SpanLog* spans,
                             bool init_only) const;
  OpResult RunAdmissionChurn(int i, xnuma::Observability* obs, SpanLog* spans,
                             bool init_only) const;

  Workload workload_;
  uint64_t seed_;
  int size_ = 0;
  // paper_matrix
  std::vector<xnuma::AppProfile> apps_;
  std::vector<xnuma::StackConfig> stacks_;
  // carrefour_churn
  xnuma::AppProfile churn_app_;
  // carrefour_churn and admission_churn
  std::vector<uint64_t> op_seeds_;
  // admission_churn
  std::vector<std::vector<xnuma::ChurnEvent>> traces_;
  std::vector<int64_t> trace_arrivals_;
};

// Replays bench/extra_churn's trace (seed 4817, 20,000 events on AMD48) and
// returns its placement digest; BENCH_engine.json records b991984c563a62ec.
uint64_t ExtraChurnDigest();
inline constexpr uint64_t kExtraChurnDigest = 0xb991984c563a62ecull;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
