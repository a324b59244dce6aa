#include "src/numa/perf_counters.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace xnuma {

double TrafficSnapshot::TotalAccessesTo(NodeId dst) const {
  double total = 0.0;
  for (const auto& row : accesses_per_s) {
    total += row[dst];
  }
  return total;
}

double TrafficSnapshot::TotalAccessesFrom(NodeId src) const {
  double total = 0.0;
  for (double v : accesses_per_s[src]) {
    total += v;
  }
  return total;
}

double TrafficSnapshot::MaxLinkUtilization() const {
  double best = 0.0;
  for (double u : link_utilization) {
    best = std::max(best, u);
  }
  return best;
}

PerfCounters::PerfCounters(const Topology& topo) : topo_(&topo) { Reset(); }

void PerfCounters::Reset() {
  last_ = TrafficSnapshot();
  cumulative_node_accesses_.assign(topo_->num_nodes(), 0.0);
  weighted_max_link_util_ = 0.0;
  total_seconds_ = 0.0;
  committed_epochs_ = 0;
}

void PerfCounters::CommitEpoch(const TrafficSnapshot& snapshot) {
  XNUMA_CHECK(snapshot.epoch_seconds > 0.0);
  XNUMA_CHECK(static_cast<int>(snapshot.accesses_per_s.size()) == topo_->num_nodes());
  last_ = snapshot;
  for (NodeId dst = 0; dst < topo_->num_nodes(); ++dst) {
    cumulative_node_accesses_[dst] += snapshot.TotalAccessesTo(dst) * snapshot.epoch_seconds;
  }
  weighted_max_link_util_ += snapshot.MaxLinkUtilization() * snapshot.epoch_seconds;
  total_seconds_ += snapshot.epoch_seconds;
  ++committed_epochs_;
}

double RelativeStddevPercent(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  const double n = static_cast<double>(values.size());
  double mean = 0.0;
  for (double v : values) {
    mean += v;
  }
  mean /= n;
  if (mean <= 0.0) {
    return 0.0;
  }
  double var = 0.0;
  for (double v : values) {
    var += (v - mean) * (v - mean);
  }
  var /= n;
  return 100.0 * std::sqrt(var) / mean;
}

double PerfCounters::ImbalancePercent() const {
  return RelativeStddevPercent(cumulative_node_accesses_);
}

double PerfCounters::AvgMaxLinkUtilizationPercent() const {
  if (total_seconds_ <= 0.0) {
    return 0.0;
  }
  return 100.0 * weighted_max_link_util_ / total_seconds_;
}

double PageAccessSample::TotalRate() const {
  double total = 0.0;
  for (double r : rate_by_node) {
    total += r;
  }
  return total;
}

NodeId PageAccessSample::DominantSource(double* share) const {
  NodeId best = kInvalidNode;
  double best_rate = -1.0;
  double total = 0.0;
  for (NodeId n = 0; n < static_cast<NodeId>(rate_by_node.size()); ++n) {
    total += rate_by_node[n];
    if (rate_by_node[n] > best_rate) {
      best_rate = rate_by_node[n];
      best = n;
    }
  }
  if (share != nullptr) {
    *share = total > 0.0 ? best_rate / total : 0.0;
  }
  return best;
}

}  // namespace xnuma
