#include "src/core/experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/common/check.h"
#include "src/exec/parallel_for.h"
#include "src/numa/latency_model.h"
#include "src/numa/topology.h"

namespace xnuma {

namespace {

constexpr int64_t kDomainSlackPages = 64;  // guest kernel + page tables

// Virtual machines get far more physical memory than one application needs
// (the paper's single VM spans the whole 128 GiB machine). This matters for
// round-1G: the guest allocator hands the application a *contiguous*
// guest-physical range out of a large address space, so a small application
// lands inside one or two 1 GiB regions — i.e., on one or two NUMA nodes.
constexpr int64_t kSingleVmPages = 25600;  // 100 GiB: 100 aligned 1 GiB regions
constexpr int64_t kPairVmPages = 14336;    // 56 aligned regions; two VMs share the machine

// One assembled machine stack, kept alive for the duration of a run.
struct Machine {
  Topology topo = Topology::Amd48();
  std::unique_ptr<Hypervisor> hv;
  LatencyModel latency;
  std::unique_ptr<Engine> engine;
  std::vector<std::unique_ptr<GuestOs>> guests;

  explicit Machine(const RunOptions& options) {
    hv = std::make_unique<Hypervisor>(topo);
    // Before any domain or the engine: creation-time wiring (per-domain p2m,
    // backends, guest queues, engine) reads hv->observability().
    hv->set_observability(options.obs);
    EngineConfig ec = options.engine;
    ec.seed = options.seed;
    engine = std::make_unique<Engine>(*hv, latency, ec);
    engine->set_trace(options.trace);

    // dom0: pinned to the CPUs of node 0 with its memory there, as in §5.2.
    // It is idle during the experiments (the engine only schedules job
    // threads) but its eager allocation consumes node-0 frames, exactly like
    // the real management domain.
    DomainConfig dom0;
    dom0.name = "dom0";
    dom0.is_dom0 = true;
    dom0.num_vcpus = 6;
    dom0.pinned_cpus = {0, 1, 2, 3, 4, 5};
    dom0.memory_pages = 512;  // 2 GiB
    dom0.policy = {StaticPolicy::kRound4k, false};
    hv->CreateDomain(dom0);
  }

  // Creates a domain, its guest OS, and registers the job. `vm_pages` is the
  // VM memory size (grown if the application needs more).
  void AddAppVm(const AppProfile& app, const StackConfig& stack, std::vector<CpuId> pins,
                const RunOptions& options, int64_t vm_pages) {
    const int threads = static_cast<int>(pins.size());
    // §4.4.1 / §5.3.1: the passthrough IOMMU cannot coexist with
    // first-touch, so the PCI passthrough driver is disabled for FT runs.
    const bool passthrough = stack.pci_passthrough &&
                             stack.policy.placement != StaticPolicy::kFirstTouch &&
                             stack.mode == ExecMode::kGuest;

    DomainConfig dc;
    dc.name = app.name;
    dc.num_vcpus = threads;
    dc.memory_pages = std::max(
        AppSimPages(app, hv->frames().bytes_per_frame(), options.engine.min_region_pages) +
            kDomainSlackPages,
        vm_pages);
    dc.pinned_cpus = std::move(pins);
    dc.policy = stack.policy;
    dc.pci_passthrough = passthrough;
    dc.p2m_replication = stack.p2m_replication;
    const bool vnuma = stack.vnuma != VnumaMode::kOff && stack.mode == ExecMode::kGuest;
    if (vnuma) {
      dc.vnuma = true;
      dc.policy.vnuma = true;  // hybrid wrapper around the base placement
      if (stack.vnuma == VnumaMode::kHybrid) {
        dc.policy.carrefour = true;  // the hypervisor's dynamic override
      }
    }
    const DomainId dom = hv->CreateDomain(dc);

    GuestOs::Options go;
    go.mode = stack.mode == ExecMode::kGuest ? KernelMode::kParavirt : KernelMode::kNativeKernel;
    go.queue_batch_size = stack.queue_batch;
    go.queue_partition_bits = stack.queue_partition_bits;
    go.vnuma = vnuma;  // the guest fetches its tables at boot
    guests.push_back(std::make_unique<GuestOs>(*hv, dom, go));

    JobSpec job;
    job.app = &app;
    job.domain = dom;
    job.guest = guests.back().get();
    job.threads = threads;
    job.exec_mode = stack.mode;
    if (stack.mode == ExecMode::kNative) {
      job.io_path = IoPath::kNative;
    } else {
      job.io_path = passthrough ? IoPath::kPciPassthrough : IoPath::kPvSplitDriver;
    }
    job.sync = (stack.mcs_for_eligible && app.mcs_eligible) ? SyncPrimitive::kMcsSpin
                                                            : SyncPrimitive::kBlockingFutex;
    job.auto_policy = stack.auto_numa_policy;
    engine->AddJob(job);
  }
};

std::vector<CpuId> CpuRange(int first, int count) {
  std::vector<CpuId> cpus(count);
  for (int i = 0; i < count; ++i) {
    cpus[i] = first + i;
  }
  return cpus;
}

}  // namespace

StackConfig LinuxStack(PolicyConfig policy) {
  StackConfig s;
  s.label = std::string("Linux/") + ToString(policy);
  s.mode = ExecMode::kNative;
  s.policy = policy;
  s.pci_passthrough = false;
  // LinuxNUMA uses MCS locks for facesim/streamcluster to keep the Xen+
  // comparison fair (§5.3.2); harmless for the others since the engine only
  // applies it to mcs_eligible apps when requested.
  s.mcs_for_eligible = true;
  return s;
}

StackConfig XenStack() {
  StackConfig s;
  s.label = "Xen";
  s.mode = ExecMode::kGuest;
  s.policy = {StaticPolicy::kRound1g, false};
  s.pci_passthrough = false;
  s.mcs_for_eligible = false;
  return s;
}

StackConfig XenPlusStack(PolicyConfig policy) {
  StackConfig s;
  s.label = std::string("Xen+/") + ToString(policy);
  s.mode = ExecMode::kGuest;
  s.policy = policy;
  s.pci_passthrough = true;
  s.mcs_for_eligible = true;
  return s;
}

StackConfig XenAutoStack() {
  StackConfig s = XenPlusStack({StaticPolicy::kRound4k, false});
  s.label = "Xen+/auto";
  s.auto_numa_policy = true;
  return s;
}

JobResult RunSingleApp(const AppProfile& app, const StackConfig& stack,
                       const RunOptions& options) {
  Machine machine(options);
  XNUMA_CHECK(options.threads <= machine.topo.num_cpus());
  machine.AddAppVm(app, stack, CpuRange(0, options.threads), options, kSingleVmPages);
  RunResult run = machine.engine->Run();
  XNUMA_CHECK(run.jobs.size() == 1);
  return run.jobs[0];
}

PairResult RunAppPair(const AppProfile& app_a, const StackConfig& stack_a,
                      const AppProfile& app_b, const StackConfig& stack_b, PairMode mode,
                      const RunOptions& options) {
  const int half = 24;
  auto run_once = [&](bool swapped) {
    Machine machine(options);
    const AppProfile& first = swapped ? app_b : app_a;
    const AppProfile& second = swapped ? app_a : app_b;
    const StackConfig& first_stack = swapped ? stack_b : stack_a;
    const StackConfig& second_stack = swapped ? stack_a : stack_b;
    if (mode == PairMode::kSplitHalves) {
      machine.AddAppVm(first, first_stack, CpuRange(0, half), options, kPairVmPages);
      machine.AddAppVm(second, second_stack, CpuRange(half, half), options, kPairVmPages);
    } else {
      machine.AddAppVm(first, first_stack, CpuRange(0, 48), options, kPairVmPages);
      machine.AddAppVm(second, second_stack, CpuRange(0, 48), options, kPairVmPages);
    }
    RunResult run = machine.engine->Run();
    XNUMA_CHECK(run.jobs.size() == 2);
    if (swapped) {
      std::swap(run.jobs[0], run.jobs[1]);
    }
    return run;
  };

  RunResult forward = run_once(false);
  PairResult result{forward.jobs[0], forward.jobs[1]};
  if (mode == PairMode::kSplitHalves) {
    // §5.4.2: node choice matters; run with swapped halves and average.
    // The average is a completion time only when both runs finished.
    RunResult swapped = run_once(true);
    result.first.completion_seconds =
        0.5 * (result.first.completion_seconds + swapped.jobs[0].completion_seconds);
    result.second.completion_seconds =
        0.5 * (result.second.completion_seconds + swapped.jobs[1].completion_seconds);
    result.first.finished = result.first.finished && swapped.jobs[0].finished;
    result.second.finished = result.second.finished && swapped.jobs[1].finished;
  }
  return result;
}

std::vector<PolicyConfig> LinuxPolicyCandidates() {
  return {
      {StaticPolicy::kFirstTouch, false},
      {StaticPolicy::kFirstTouch, true},
      {StaticPolicy::kRound4k, false},
      {StaticPolicy::kRound4k, true},
  };
}

std::vector<PolicyConfig> XenPolicyCandidates() {
  return {
      {StaticPolicy::kRound1g, false},
      {StaticPolicy::kFirstTouch, false},
      {StaticPolicy::kFirstTouch, true},
      {StaticPolicy::kRound4k, false},
      {StaticPolicy::kRound4k, true},
  };
}

std::vector<PolicySweepEntry> SweepPolicies(const AppProfile& app, const StackConfig& base,
                                            const std::vector<PolicyConfig>& candidates,
                                            const RunOptions& options) {
  // Candidates are independent runs, so the sweep is a (tiny) matrix: fan it
  // across options.jobs workers, each run assembling its own machine, with
  // results committed into per-candidate slots. jobs == 1 executes inline on
  // this thread — the exact serial loop.
  XNUMA_CHECK(options.jobs == 1 || (options.trace == nullptr && options.obs == nullptr));
  std::vector<PolicySweepEntry> sweep(candidates.size());
  ParallelFor(static_cast<int>(candidates.size()),
              [&](int i) {
                StackConfig stack = base;
                stack.policy = candidates[i];
                stack.label = base.label + "/" + ToString(candidates[i]);
                sweep[i] = {candidates[i], RunSingleApp(app, stack, options)};
              },
              options.jobs);
  return sweep;
}

const PolicySweepEntry& BestEntry(const std::vector<PolicySweepEntry>& sweep) {
  XNUMA_CHECK(!sweep.empty());
  const PolicySweepEntry* best = &sweep[0];
  for (const PolicySweepEntry& entry : sweep) {
    if (entry.result.completion_seconds < best->result.completion_seconds) {
      best = &entry;
    }
  }
  return *best;
}

ChurnReport RunChurnScenario(const ChurnScenarioConfig& config) {
  const Topology topo =
      config.amd48 ? Topology::Amd48()
                   : Topology::Synthetic(config.nodes, config.cpus_per_node,
                                         config.bytes_per_node);
  Hypervisor hv(topo);
  // Before the runner exists, so its instruments register (same ordering
  // contract as Machine above).
  hv.set_observability(config.obs);
  ChurnRunner runner(hv);
  return runner.Run(GenerateChurnTrace(config.spec), config.domain_template);
}

}  // namespace xnuma
