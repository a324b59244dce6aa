// Per-layer accounting for the traced run.
//
// Each traced op runs twice on fresh machines, each with its own
// Observability: once with zero simulated time (the machine-init rerun) and
// once in full. A layer's self time is what its histogram accumulated in the
// full op minus what it accumulated in the rerun, so time spent while the
// machine was being built is counted once, under core.machine_init_share.
// Nested intervals are counted once too: hv page migrations run inside
// Carrefour's migrate loop, so carrefour.migrate_self_share excludes them.
// With that rule the shares of a workload sum to 1, and
// sim.unattributed_share is the residual.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/obs.h"
#include "workloads.h"

namespace perfbench {

// One reported benchmark metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// Sums of library metrics over many ops, by metric name: counter values and
// histogram observation counts in `count`, histogram sums in `sum`.
struct MetricTotals {
  struct Total {
    int64_t count = 0;
    double sum = 0.0;
  };
  std::map<std::string, Total> by_name;

  void Add(const xnuma::Observability& obs);
  void Add(const MetricTotals& other);
  void Subtract(const MetricTotals& other);
  int64_t Count(const std::string& name) const;
  double Sum(const std::string& name) const;
};

// Everything the traced run accumulates for one workload.
class LayerAccounts {
 public:
  // One traced op: its library metrics, those of its machine-init rerun,
  // and the host time of each, measured around the public calls.
  void AddOp(const xnuma::Observability& op_obs, double op_s,
             const xnuma::Observability& init_obs, double init_s, const OpResult& result);

  // The per-layer metrics, in BENCHMARK.json order. `untraced_wall_s` and
  // `traced_wall_s` are the median batch times of the two modes.
  std::vector<Metric> Metrics(double untraced_wall_s, double traced_wall_s) const;

  const MetricTotals& op_totals() const { return op_totals_; }
  int ops() const { return ops_; }

 private:
  int ops_ = 0;
  double op_s_ = 0.0;
  double init_s_ = 0.0;
  double carrefour_migrate_self_s_ = 0.0;
  double hv_migrate_self_s_ = 0.0;
  MetricTotals op_totals_;    // full ops
  MetricTotals init_totals_;  // their machine-init reruns
  std::vector<double> solve_p50_us_;
  std::vector<double> solve_p99_us_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
