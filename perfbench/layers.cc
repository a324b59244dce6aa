#include "layers.h"

#include <algorithm>

namespace perfbench {

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

void MetricTotals::Add(const xnuma::Observability& obs) {
  for (const xnuma::MetricSnapshot& m : obs.metrics().Snapshot()) {
    if (m.kind == xnuma::MetricKind::kGauge) {
      continue;  // instantaneous values do not add up across ops
    }
    Total& t = by_name[m.name];
    t.count += m.count;
    if (m.kind == xnuma::MetricKind::kHistogram) {
      t.sum += m.value;
    }
  }
}

void MetricTotals::Add(const MetricTotals& other) {
  for (const auto& [name, t] : other.by_name) {
    Total& mine = by_name[name];
    mine.count += t.count;
    mine.sum += t.sum;
  }
}

void MetricTotals::Subtract(const MetricTotals& other) {
  for (const auto& [name, t] : other.by_name) {
    Total& mine = by_name[name];
    mine.count -= t.count;
    mine.sum -= t.sum;
  }
}

int64_t MetricTotals::Count(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0 : it->second.count;
}

double MetricTotals::Sum(const std::string& name) const {
  const auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : it->second.sum;
}

void LayerAccounts::AddOp(const xnuma::Observability& op_obs, double op_s,
                          const xnuma::Observability& init_obs, double init_s,
                          const OpResult& result) {
  MetricTotals op;
  op.Add(op_obs);
  MetricTotals init;
  init.Add(init_obs);
  // Migration happens only after the machine is built; every hv migrate
  // in an engine run is issued from Carrefour's migrate loop.
  const double carrefour_migrate =
      op.Sum("carrefour.migrate_seconds") - init.Sum("carrefour.migrate_seconds");
  const double hv_migrate =
      op.Sum("hv.backend.migrate_seconds") - init.Sum("hv.backend.migrate_seconds");
  carrefour_migrate_self_s_ += carrefour_migrate - std::min(carrefour_migrate, hv_migrate);
  hv_migrate_self_s_ += hv_migrate;

  ++ops_;
  op_s_ += op_s;
  init_s_ += init_s;
  op_totals_.Add(op);
  init_totals_.Add(init);
  if (op.Count("admission.requests") > 0) {
    solve_p50_us_.push_back(result.solve_p50_us);
    solve_p99_us_.push_back(result.solve_p99_us);
  }
}

std::vector<Metric> LayerAccounts::Metrics(double untraced_wall_s,
                                           double traced_wall_s) const {
  // Work done after the machine was built: full op minus its init rerun.
  MetricTotals run = op_totals_;
  run.Subtract(init_totals_);
  const double ops = ops_;
  const double epochs = static_cast<double>(run.Count("engine.epochs"));

  const double init_share = Ratio(init_s_, op_s_);
  const double solver_share = Ratio(run.Sum("engine.solver.seconds"), op_s_);
  const double refresh_share = Ratio(run.Sum("engine.placement.refresh_seconds"), op_s_);
  const double scan_share = Ratio(run.Sum("carrefour.scan_seconds"), op_s_);
  const double migrate_self_share = Ratio(carrefour_migrate_self_s_, op_s_);
  const double hv_migrate_share = Ratio(hv_migrate_self_s_, op_s_);
  const double pv_flush_share = Ratio(run.Sum("pv.queue.flush_wall_seconds"), op_s_);
  const double admission_share = Ratio(run.Sum("admission.solver_seconds"), op_s_);
  const double attributed = init_share + solver_share + refresh_share + scan_share +
                            migrate_self_share + hv_migrate_share + pv_flush_share +
                            admission_share;

  const double ticks = static_cast<double>(run.Count("carrefour.ticks"));
  const double moved = static_cast<double>(run.Count("carrefour.interleave_migrations") +
                                           run.Count("carrefour.locality_migrations"));
  const double failed = static_cast<double>(run.Count("carrefour.failed_migrations"));
  const double tlb_hits = static_cast<double>(op_totals_.Count("tlb.hits"));
  const double tlb_lookups = tlb_hits + static_cast<double>(op_totals_.Count("tlb.misses"));

  return {
      {"core.machine_init_ms", "ms", Ratio(init_s_, ops) * 1e3},
      {"core.machine_init_share", "ratio", init_share},
      {"sim.epoch_us", "us", Ratio(op_s_ - init_s_, epochs) * 1e6},
      {"sim.epochs_per_op", "count", Ratio(epochs, ops)},
      {"sim.solver_share", "ratio", solver_share},
      {"sim.solver_iters_per_solve", "count",
       Ratio(run.Sum("engine.solver.iterations"),
             static_cast<double>(run.Count("engine.solver.iterations")))},
      {"sim.refresh_share", "ratio", refresh_share},
      {"sim.dirty_events_per_epoch", "count",
       Ratio(static_cast<double>(run.Count("engine.placement.dirty_events")), epochs)},
      {"carrefour.scan_share", "ratio", scan_share},
      {"carrefour.scans_per_tick", "count",
       Ratio(static_cast<double>(run.Count("carrefour.scan_seconds")), ticks)},
      {"carrefour.migrate_self_share", "ratio", migrate_self_share},
      {"carrefour.migrations_per_tick", "count", Ratio(moved, ticks)},
      {"carrefour.failed_migration_ratio", "ratio", Ratio(failed, moved + failed)},
      {"hv.migrate_us", "us",
       Ratio(run.Sum("hv.backend.migrate_seconds"),
             static_cast<double>(run.Count("hv.backend.migrate_seconds"))) *
           1e6},
      {"hv.migrate_share", "ratio", hv_migrate_share},
      {"hv.p2m_tlb_hit_ratio", "ratio", Ratio(tlb_hits, tlb_lookups)},
      {"hv.p2m_splits_per_op", "count",
       Ratio(static_cast<double>(op_totals_.Count("p2m.splits")), ops)},
      {"hv.page_faults_per_op", "count",
       Ratio(static_cast<double>(op_totals_.Count("hv.page_faults")), ops)},
      {"guest.pv_flush_share", "ratio", pv_flush_share},
      {"guest.pv_ops_per_flush", "count",
       Ratio(static_cast<double>(op_totals_.Count("pv.queue.pushes")),
             static_cast<double>(op_totals_.Count("pv.queue.flushes")))},
      {"admission.event_us", "us",
       Ratio(op_s_, static_cast<double>(run.Count("churn.events"))) * 1e6},
      {"admission.solve_p50_us", "us", Median(solve_p50_us_)},
      {"admission.solve_p99_us", "us", Median(solve_p99_us_)},
      {"admission.solver_share", "ratio", admission_share},
      {"admission.candidates_per_solve", "count",
       Ratio(static_cast<double>(run.Count("admission.candidates")),
             static_cast<double>(run.Count("admission.requests")))},
      {"admission.defer_ratio", "ratio",
       Ratio(static_cast<double>(run.Count("admission.deferred")),
             static_cast<double>(run.Count("churn.arrivals")))},
      {"sim.unattributed_share", "ratio", 1.0 - attributed},
      {"obs.overhead_pct", "%", (Ratio(traced_wall_s, untraced_wall_s) - 1.0) * 100.0},
  };
}

}  // namespace perfbench
