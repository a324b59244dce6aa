#include "workloads.h"

#include <cmath>
#include <memory>
#include <optional>

#include "src/admission/churn_runner.h"
#include "src/guest/guest_os.h"
#include "src/hv/hypervisor.h"
#include "src/numa/latency_model.h"
#include "src/numa/topology.h"
#include "src/sim/engine.h"

namespace perfbench {

using namespace xnuma;

namespace {

// paper_matrix: the figure binaries' ScaledApps(5.0) under BenchOptions().
constexpr double kPaperSecondsPerApp = 5.0;
constexpr double kPaperMaxSimSeconds = 300.0;

// carrefour_churn: four 4-vCPU domains of 2 GiB each at 1 MiB frames, every
// domain spread over four nodes so its master-initialized data sits behind
// one memory controller that the other three nodes' vCPUs hammer.
constexpr int64_t kChurnBytesPerFrame = 1ll << 20;
constexpr int kChurnDomains = 4;
constexpr int kChurnVcpus = 4;
constexpr double kChurnFootprintMb = 2048.0;
constexpr int kChurnEpochs = 40;
constexpr double kChurnReuseDelayS = 0.1;
constexpr int kChurnOps = 100;

// admission_churn: extra_churn's trace shape, cut into short replays.
constexpr int kAdmissionEvents = 1000;
constexpr int kAdmissionOps = 200;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::vector<AppProfile> ScaledApps(double seconds_per_app) {
  std::vector<AppProfile> apps = AllApps();
  for (AppProfile& app : apps) {
    const double scale = seconds_per_app / app.nominal_seconds;
    app.nominal_seconds = seconds_per_app;
    app.disk_read_mb *= scale;
  }
  return apps;
}

AppProfile CarrefourChurnApp() {
  AppProfile app;
  app.name = "carrefour-churn";
  app.cpu_cycles_per_access = 40;
  app.mlp = 4.0;
  app.nominal_seconds = 1e6;  // never finishes inside the simulated window
  app.release_rate_per_s = 20000.0;
  RegionSpec shared;
  shared.name = "shared";
  shared.footprint_mb = kChurnFootprintMb * 0.75;
  shared.init = AllocPattern::kMasterInit;
  shared.access_share = 0.7;
  shared.hot_fraction = 0.1;
  shared.hot_share = 0.8;
  app.regions.push_back(shared);
  RegionSpec priv;
  priv.name = "private";
  priv.footprint_mb = kChurnFootprintMb * 0.25;
  priv.init = AllocPattern::kOwnerPartitioned;
  priv.access_share = 0.3;
  priv.owner_affinity = 0.9;
  app.regions.push_back(priv);
  return app;
}

ChurnSpec AdmissionSpec(uint64_t seed, int events) {
  ChurnSpec spec;
  spec.seed = seed;
  spec.num_events = events;
  spec.target_live_domains = 40;
  spec.min_pages = 8;
  spec.max_pages = 4096;
  spec.max_vcpus = 12;
  spec.huge_page_fraction = 0.3;
  return spec;
}

bool FiniteNonNegative(const std::vector<double>& v) {
  for (double x : v) {
    if (!std::isfinite(x) || x < 0.0) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool SameOutcome(const OpResult& a, const OpResult& b) {
  return a.key == b.key && a.reals == b.reals && a.counts == b.counts;
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kPaperMatrix, Workload::kCarrefourChurn,
                     Workload::kAdmissionChurn}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kPaperMatrix:
      return "paper_matrix";
    case Workload::kCarrefourChurn:
      return "carrefour_churn";
    case Workload::kAdmissionChurn:
      return "admission_churn";
  }
  return "?";
}

std::vector<std::string> RealNames(Workload w) {
  switch (w) {
    case Workload::kPaperMatrix:
      return {"completion_s", "init_s",         "compute_s",
              "imbalance_pct", "interconnect_pct", "avg_mc_util_pct",
              "avg_latency_cycles", "disk_mb_per_s", "ctx_switches_per_s"};
    case Workload::kCarrefourChurn: {
      std::vector<std::string> names;
      for (int d = 0; d < kChurnDomains; ++d) {
        const std::string p = "dom" + std::to_string(d) + ".";
        for (const char* f : {"avg_latency_cycles", "imbalance_pct", "interconnect_pct",
                              "avg_mc_util_pct"}) {
          names.push_back(p + f);
        }
      }
      return names;
    }
    case Workload::kAdmissionChurn:
      return {"final_fragmentation"};
  }
  return {};
}

std::vector<std::string> CountNames(Workload w) {
  switch (w) {
    case Workload::kPaperMatrix:
      return {"finished", "hv_page_faults", "carrefour_migrations"};
    case Workload::kCarrefourChurn: {
      std::vector<std::string> names = {"epochs"};
      for (int d = 0; d < kChurnDomains; ++d) {
        const std::string p = "dom" + std::to_string(d) + ".";
        names.push_back(p + "hv_page_faults");
        names.push_back(p + "carrefour_migrations");
      }
      return names;
    }
    case Workload::kAdmissionChurn:
      return {"events",     "arrivals",        "admitted",       "deferred",
              "rejected",   "departures",      "balloon_down",   "balloon_up",
              "migrated_pages", "final_live_domains", "placement_digest"};
  }
  return {};
}

Batch::Batch(Workload w, uint64_t seed) : workload_(w), seed_(seed) {
  switch (w) {
    case Workload::kPaperMatrix:
      apps_ = ScaledApps(kPaperSecondsPerApp);
      for (const PolicyConfig& p : LinuxPolicyCandidates()) {
        stacks_.push_back(LinuxStack(p));
      }
      stacks_.push_back(XenStack());
      for (const PolicyConfig& p : XenPolicyCandidates()) {
        stacks_.push_back(XenPlusStack(p));
      }
      size_ = static_cast<int>(apps_.size() * stacks_.size());
      break;
    case Workload::kCarrefourChurn:
      churn_app_ = CarrefourChurnApp();
      size_ = kChurnOps;
      break;
    case Workload::kAdmissionChurn:
      size_ = kAdmissionOps;
      break;
  }
  if (w != Workload::kPaperMatrix) {
    for (int i = 0; i < size_; ++i) {
      op_seeds_.push_back(SplitMix64(seed ^ SplitMix64(static_cast<uint64_t>(i))));
    }
  }
  if (w == Workload::kAdmissionChurn) {
    for (int i = 0; i < size_; ++i) {
      traces_.push_back(GenerateChurnTrace(AdmissionSpec(op_seeds_[i], kAdmissionEvents)));
      int64_t arrivals = 0;
      for (const ChurnEvent& ev : traces_.back()) {
        arrivals += ev.kind == ChurnEvent::Kind::kArrive ? 1 : 0;
      }
      trace_arrivals_.push_back(arrivals);
    }
  }
}

OpResult Batch::Run(int i, Observability* obs, SpanLog* spans) const {
  switch (workload_) {
    case Workload::kPaperMatrix:
      return RunPaperMatrix(i, obs, spans, false);
    case Workload::kCarrefourChurn:
      return RunCarrefourChurn(i, obs, spans, false);
    case Workload::kAdmissionChurn:
      return RunAdmissionChurn(i, obs, spans, false);
  }
  return {};
}

void Batch::RunMachineInit(int i, Observability* obs) const {
  switch (workload_) {
    case Workload::kPaperMatrix:
      RunPaperMatrix(i, obs, nullptr, true);
      break;
    case Workload::kCarrefourChurn:
      RunCarrefourChurn(i, obs, nullptr, true);
      break;
    case Workload::kAdmissionChurn:
      RunAdmissionChurn(i, obs, nullptr, true);
      break;
  }
}

OpResult Batch::RunPaperMatrix(int i, Observability* obs, SpanLog* spans,
                               bool init_only) const {
  const AppProfile& app = apps_[i % apps_.size()];
  const StackConfig& stack = stacks_[i / apps_.size()];
  RunOptions options;
  options.seed = seed_;
  options.engine.max_sim_seconds = init_only ? 0.0 : kPaperMaxSimSeconds;
  options.obs = obs;
  JobResult r;
  {
    const BenchSpan span(spans, "RunSingleApp", i);
    r = RunSingleApp(app, stack, options);
  }
  OpResult out;
  out.key = stack.label + "|" + app.name;
  out.reals = {r.completion_seconds, r.init_seconds,       r.compute_seconds,
               r.imbalance_pct,      r.interconnect_pct,   r.avg_mc_util_pct,
               r.avg_latency_cycles, r.observed_disk_mb_per_s,
               r.observed_ctx_switches_per_s};
  out.counts = {r.finished ? 1 : 0, r.hv_page_faults, r.carrefour_migrations};
  return out;
}

OpResult Batch::RunCarrefourChurn(int i, Observability* obs, SpanLog* spans,
                                  bool init_only) const {
  std::optional<BenchSpan> assemble(std::in_place, spans, "assemble_machine", i);
  const Topology topo = Topology::Amd48();
  Hypervisor hv(topo, kChurnBytesPerFrame);
  hv.set_observability(obs);
  const LatencyModel latency;
  EngineConfig ec;
  ec.seed = op_seeds_[i];
  // Half an epoch short of the window, so float accumulation of `now`
  // cannot add an epoch.
  ec.max_sim_seconds = init_only ? 0.0 : (kChurnEpochs - 0.5) * ec.epoch_seconds;
  Engine engine(hv, latency, ec);

  const int64_t pages = AppSimPages(churn_app_, kChurnBytesPerFrame, ec.min_region_pages);
  std::vector<int> used_per_node(topo.num_nodes(), 0);
  std::vector<std::unique_ptr<GuestOs>> guests;
  for (int d = 0; d < kChurnDomains; ++d) {
    DomainConfig dc;
    dc.name = "churn" + std::to_string(d);
    dc.num_vcpus = kChurnVcpus;
    dc.memory_pages = pages + 64;
    for (int v = 0; v < kChurnVcpus; ++v) {
      const NodeId node = (d + 2 * v) % topo.num_nodes();
      dc.pinned_cpus.push_back(topo.node(node).cpus[used_per_node[node]++]);
    }
    dc.policy = {StaticPolicy::kFirstTouch, true};
    const DomainId dom = hv.CreateDomain(dc);
    guests.push_back(std::make_unique<GuestOs>(hv, dom));
    JobSpec job;
    job.app = &churn_app_;
    job.domain = dom;
    job.guest = guests.back().get();
    job.threads = kChurnVcpus;
    job.churn_reuse_delay_s = kChurnReuseDelayS;
    engine.AddJob(job);
  }
  assemble.reset();
  RunResult run;
  {
    const BenchSpan span(spans, "Engine::Run", i);
    run = engine.Run();
  }

  OpResult out;
  out.key = "seed" + std::to_string(op_seeds_[i]);
  out.counts = {engine.epochs_run()};
  for (const JobResult& r : run.jobs) {
    out.reals.insert(out.reals.end(), {r.avg_latency_cycles, r.imbalance_pct,
                                       r.interconnect_pct, r.avg_mc_util_pct});
    out.counts.insert(out.counts.end(), {r.hv_page_faults, r.carrefour_migrations});
  }
  return out;
}

OpResult Batch::RunAdmissionChurn(int i, Observability* obs, SpanLog* spans,
                                  bool init_only) const {
  std::optional<BenchSpan> assemble(std::in_place, spans, "assemble_hypervisor", i);
  const Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  hv.set_observability(obs);
  ChurnRunner runner(hv);
  assemble.reset();
  ChurnReport r;
  {
    const BenchSpan span(spans, "ChurnRunner::Run", i);
    r = runner.Run(init_only ? std::vector<ChurnEvent>{} : traces_[i], DomainConfig{});
  }
  OpResult out;
  out.key = "seed" + std::to_string(op_seeds_[i]);
  out.reals = {r.final_fragmentation};
  out.counts = {r.events,         r.arrivals,          r.admitted,
                r.deferred,       r.rejected,          r.departures,
                r.balloon_down_pages, r.balloon_up_pages, r.migrated_pages,
                r.final_live_domains, static_cast<int64_t>(r.placement_digest)};
  out.solve_p50_us = r.solve_p50_us;
  out.solve_p99_us = r.solve_p99_us;
  return out;
}

bool Batch::CheckInvariants(int i, const OpResult& r, std::string* why) const {
  const std::vector<int64_t>& c = r.counts;
  if (!FiniteNonNegative(r.reals)) {
    *why = "a result field is negative or not finite";
    return false;
  }
  switch (workload_) {
    case Workload::kPaperMatrix: {
      const StackConfig& stack = stacks_[i / apps_.size()];
      if (c[0] != 1) {
        *why = "run hit its simulated-time cap before finishing";
        return false;
      }
      if (std::abs(r.reals[0] - (r.reals[1] + r.reals[2])) > 1e-9 * r.reals[0]) {
        *why = "completion != init + compute";
        return false;
      }
      if (!stack.policy.carrefour && c[2] != 0) {
        *why = "Carrefour migrated pages with Carrefour off";
        return false;
      }
      return true;
    }
    case Workload::kCarrefourChurn: {
      if (c[0] != kChurnEpochs) {
        *why = "engine ran " + std::to_string(c[0]) + " epochs, expected " +
               std::to_string(kChurnEpochs);
        return false;
      }
      int64_t migrations = 0;
      for (int d = 0; d < kChurnDomains; ++d) {
        if (c[1 + 2 * d] <= 0) {
          *why = "a domain took no hypervisor page faults";
          return false;
        }
        migrations += c[2 + 2 * d];
      }
      if (migrations <= 0) {
        *why = "Carrefour never migrated a page";
        return false;
      }
      return true;
    }
    case Workload::kAdmissionChurn: {
      if (c[0] != static_cast<int64_t>(traces_[i].size()) || c[1] != trace_arrivals_[i]) {
        *why = "replayed events or arrivals differ from the trace";
        return false;
      }
      if (c[2] + c[3] + c[4] != c[1]) {
        *why = "admitted + deferred + rejected != arrivals";
        return false;
      }
      if (c[5] > c[2] || c[9] > c[2]) {
        *why = "more departures or live domains than admissions";
        return false;
      }
      return true;
    }
  }
  return true;
}

uint64_t ExtraChurnDigest() {
  ChurnScenarioConfig config;
  config.amd48 = true;
  config.spec = AdmissionSpec(4817, 20000);
  return RunChurnScenario(config).placement_digest;
}

}  // namespace perfbench
