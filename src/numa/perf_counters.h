// Emulated hardware performance counters.
//
// The paper's Carrefour port consumes three kinds of hardware feedback:
//   1. per-node memory controller load,
//   2. per-link interconnect load,
//   3. IBS-style samples attributing accesses to (page, source node) pairs.
// The simulator records ground-truth traffic here each epoch; consumers see
// the same aggregates a real PMU would expose. Page-level attribution is
// provided through the PageAccessSource interface (implemented by the
// simulation engine) because on real hardware it comes from statistical
// sampling, which we emulate with bounded noise.

#ifndef XENNUMA_SRC_NUMA_PERF_COUNTERS_H_
#define XENNUMA_SRC_NUMA_PERF_COUNTERS_H_

#include <vector>

#include "src/common/types.h"
#include "src/numa/topology.h"

namespace xnuma {

// One epoch's observed machine state. Rates are accesses (cache lines) per
// second; utilizations are fractions of effective bandwidth in [0, 1+).
struct TrafficSnapshot {
  double epoch_seconds = 0.0;
  // accesses_per_s[src][dst]: CPU-issued accesses from node src to memory of
  // node dst.
  std::vector<std::vector<double>> accesses_per_s;
  // DMA write rate into each node's memory (bytes/s), from I/O devices.
  std::vector<double> dma_bytes_per_s;
  std::vector<double> mc_utilization;    // per node
  std::vector<double> link_utilization;  // per link

  double TotalAccessesTo(NodeId dst) const;
  double TotalAccessesFrom(NodeId src) const;
  double MaxLinkUtilization() const;
};

// Cumulative counters over a run plus the most recent epoch snapshot.
class PerfCounters {
 public:
  explicit PerfCounters(const Topology& topo);

  void Reset();

  // Called by the simulation engine at the end of each epoch.
  void CommitEpoch(const TrafficSnapshot& snapshot);

  const TrafficSnapshot& last_epoch() const { return last_; }
  bool has_epoch() const { return committed_epochs_ > 0; }

  // Table 1 "imbalance": relative standard deviation (in %) around the
  // average number of accesses per node, cumulative since Reset().
  double ImbalancePercent() const;

  // Table 1 "interconnect load": time-average of the utilization of the most
  // loaded link in each epoch, in %.
  double AvgMaxLinkUtilizationPercent() const;

 private:
  const Topology* topo_;
  TrafficSnapshot last_;
  std::vector<double> cumulative_node_accesses_;
  double weighted_max_link_util_ = 0.0;  // integral of max link util dt
  double total_seconds_ = 0.0;
  int committed_epochs_ = 0;
};

// IBS-emulation: attribution of accesses to hot pages. `rate_by_node[n]` is
// the sampled access rate to this page from CPUs of node n.
struct PageAccessSample {
  DomainId domain = kInvalidDomain;
  Pfn pfn = kInvalidPfn;
  NodeId current_node = kInvalidNode;
  std::vector<double> rate_by_node;
  bool written = false;  // page sees stores (disables read-only tricks)

  double TotalRate() const;
  // Node issuing the largest share of accesses, and that share in [0, 1].
  NodeId DominantSource(double* share) const;
};

// A page has a dominant source when one node issues at least this share of
// its accesses: Carrefour's migration candidates and the policy selector's
// partitionable pages.
inline constexpr double kDominantSourceShare = 0.85;

// Relative standard deviation (in %) around the mean of `values`; the
// paper's imbalance metric (Table 1). Returns 0 for an all-zero vector.
double RelativeStddevPercent(const std::vector<double>& values);

class PageAccessSource {
 public:
  virtual ~PageAccessSource() = default;
  // Replaces the contents of *out with up to `max_pages` of the hottest
  // pages of `domain`, most accessed first; an implementation may reuse
  // the storage of *out's elements. Sampling noise is
  // implementation-defined.
  virtual void SampleHotPages(DomainId domain, int max_pages,
                              std::vector<PageAccessSample>* out) = 0;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_NUMA_PERF_COUNTERS_H_
