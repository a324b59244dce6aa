// Experiment harness: assembles a fresh machine (AMD48 topology, hypervisor,
// guest OS, simulation engine) for one of the paper's software stacks and
// runs one or two applications on it.
//
// Stacks (§5):
//   Linux      — native execution, a chosen Linux NUMA policy.
//   Xen        — Xen 4.5 defaults: round-1G placement, PV split-driver I/O,
//                blocking pthread primitives.
//   Xen+       — Xen plus the paper's virtualization-cost mitigations:
//                PCI passthrough I/O (disabled when first-touch is active,
//                §4.4.1) and MCS locks for the lock-bound applications.
//   Xen+<p>    — Xen+ with one of the policies implemented through the
//                paper's interface (first-touch, round-4K, Carrefour on top).
// "LinuxNUMA" and "Xen+NUMA" are the per-application best-policy variants,
// obtained with SweepPolicies/BestPolicy.

#ifndef XENNUMA_SRC_CORE_EXPERIMENT_H_
#define XENNUMA_SRC_CORE_EXPERIMENT_H_

#include <string>
#include <vector>

#include "src/admission/churn_runner.h"
#include "src/common/types.h"
#include "src/sim/engine.h"
#include "src/workload/app_profile.h"
#include "src/workload/churn.h"

namespace xnuma {

// Guest-visible topology mode for a stack (docs/VNUMA.md). kGuest exposes
// the vNUMA tables and boots a topology-aware guest allocator; kHybrid adds
// Carrefour on top as the hypervisor's dynamic override (guest hints +
// hypervisor correction). kOff is the paper's stance: no topology leaks.
enum class VnumaMode {
  kOff,
  kGuest,
  kHybrid,
};

struct StackConfig {
  std::string label;
  ExecMode mode = ExecMode::kGuest;
  PolicyConfig policy;
  bool pci_passthrough = false;
  bool mcs_for_eligible = false;
  // Ablation knobs for the page-queue hypercall (§4.2.3-4.2.4).
  int queue_batch = 64;
  int queue_partition_bits = 2;
  // Enable the automatic policy selector (§7 extension): the domain boots
  // with `policy` (round-4K by default) and the selector takes over.
  bool auto_numa_policy = false;
  // Guest-visible topology (CLI --vnuma). Only meaningful for guest-mode
  // stacks; AddAppVm enables the domain's vNUMA tables, the hybrid policy
  // wrapper, and the guest's NUMA-aware allocator when != kOff.
  VnumaMode vnuma = VnumaMode::kOff;
  // Mitosis-style per-node P2M replication (CLI --p2m_replication;
  // docs/MODEL.md §18). Off keeps the table bit-identical to today.
  bool p2m_replication = false;
};

// Xen+ with the automatic policy selector driving the NUMA policy.
StackConfig XenAutoStack();

// Native Linux with the given policy (defaults to Linux's first-touch).
StackConfig LinuxStack(PolicyConfig policy = {StaticPolicy::kFirstTouch, false});
// Plain Xen: round-1G, PV I/O, blocking locks.
StackConfig XenStack();
// Xen+ with the given placement (defaults to Xen's round-1G).
StackConfig XenPlusStack(PolicyConfig policy = {StaticPolicy::kRound1g, false});

struct RunOptions {
  int threads = 48;
  uint64_t seed = 7;
  EngineConfig engine;
  // Optional per-epoch time-series recording (must outlive the run).
  TraceRecorder* trace = nullptr;
  // Optional metrics + event tracing (must outlive the run). Attached to the
  // hypervisor before any domain exists so every layer registers its
  // instruments; nullptr (the default) keeps the run bit-identical to a
  // build without the observability layer.
  Observability* obs = nullptr;
  // Worker threads for the *independent-run matrices* built on top of this
  // run (SweepPolicies; the CLI and bench binaries feed it from --jobs).
  // Results are bit-identical for every value (docs/MODEL.md §12); 1 is the
  // serial loop on the calling thread. Ignored by RunSingleApp/RunAppPair,
  // which are single runs. When > 1, `trace` and `obs` must stay null —
  // they attach per-machine state that cannot be shared across concurrent
  // runs.
  int jobs = 1;
};

// Runs `app` alone on a 48-core machine (threads pinned 1:1 to vCPUs to
// pCPUs, as in §5.4.1).
JobResult RunSingleApp(const AppProfile& app, const StackConfig& stack,
                       const RunOptions& options = RunOptions{});

enum class PairMode {
  // Figure 8: two 24-vCPU VMs on disjoint node halves; each configuration is
  // run twice with the halves swapped and completion times averaged.
  kSplitHalves,
  // Figure 9: two 48-vCPU VMs, every pCPU running one vCPU of each.
  kConsolidated,
};

struct PairResult {
  JobResult first;
  JobResult second;
};

PairResult RunAppPair(const AppProfile& app_a, const StackConfig& stack_a,
                      const AppProfile& app_b, const StackConfig& stack_b, PairMode mode,
                      const RunOptions& options = RunOptions{});

// Policy sets evaluated in the paper.
std::vector<PolicyConfig> LinuxPolicyCandidates();  // FT, FT/C, R4K, R4K/C (Fig. 2)
std::vector<PolicyConfig> XenPolicyCandidates();    // R1G, FT, FT/C, R4K, R4K/C (Fig. 7)

struct PolicySweepEntry {
  PolicyConfig policy;
  JobResult result;
};

// Runs `app` under every candidate policy on the given base stack.
// `base.policy` is ignored; everything else (mode, passthrough, MCS) is kept.
// Candidates run fanned across options.jobs worker threads (each run on its
// own private machine); the returned entries are bit-identical to the
// serial options.jobs == 1 loop in both order and content.
std::vector<PolicySweepEntry> SweepPolicies(const AppProfile& app, const StackConfig& base,
                                            const std::vector<PolicyConfig>& candidates,
                                            const RunOptions& options = RunOptions{});

// Fastest entry of a sweep.
const PolicySweepEntry& BestEntry(const std::vector<PolicySweepEntry>& sweep);

// ---- Multi-tenant churn scenario (docs/MODEL.md §17). ----
// Assembles a fresh machine and replays a seeded churn trace through the
// admission solver. Deterministic for a fixed config; what the CLI `churn`
// subcommand and bench/extra_churn drive.
struct ChurnScenarioConfig {
  ChurnSpec spec;
  // Machine shape: the paper's AMD48 when true, else Synthetic(nodes,
  // cpus_per_node, bytes_per_node).
  bool amd48 = true;
  int nodes = 4;
  int cpus_per_node = 4;
  int64_t bytes_per_node = 256ll << 20;
  // Per-arrival DomainConfig template (policy, replication, ...); sizes
  // and admission mode come from the trace.
  DomainConfig domain_template;
  // Optional metrics + event tracing (must outlive the call).
  Observability* obs = nullptr;
};

ChurnReport RunChurnScenario(const ChurnScenarioConfig& config);

}  // namespace xnuma

#endif  // XENNUMA_SRC_CORE_EXPERIMENT_H_
