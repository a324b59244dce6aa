// Lock-cheap metrics registry: named counters, gauges, and fixed-bucket
// histograms, registered once at subsystem attach time and sampled per
// epoch or at end of run.
//
// Design constraints (docs/OBSERVABILITY.md):
//  * Registration returns a stable handle (pointer valid for the registry's
//    lifetime); the hot path touches only that handle — an integer add or a
//    bucket increment, no map lookup, no lock (the simulation drives all
//    instrumentation sites from the single-threaded epoch loop; the PV
//    queue, the one genuinely concurrent component, serializes its metric
//    updates behind the partition/stats locks it already holds).
//  * Registering the same name twice returns the same handle, so subsystems
//    attach idempotently and shared sites need no coordination.
//  * Every registered name must be documented in docs/OBSERVABILITY.md —
//    tools/check_obs_docs.sh (ctest: obs_doc_lint) enforces this, which is
//    why names are string literals at the registration site.

#ifndef XENNUMA_SRC_OBS_METRICS_H_
#define XENNUMA_SRC_OBS_METRICS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace xnuma {

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* ToString(MetricKind kind);

// Monotonically increasing event count.
class Counter {
 public:
  void Increment(int64_t delta = 1) { value_ += delta; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Instantaneous value: the last Set wins; Add adjusts it by a delta.
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Fixed-bucket histogram: `bounds` are ascending bucket upper bounds; one
// extra overflow bucket catches everything above the last bound. Percentiles
// are estimated by linear interpolation inside the bucket holding the rank
// (exact min/max are tracked, so p0/p100 and the overflow bucket report
// observed extremes rather than bound artifacts).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }

  // `p` in [0, 100]. Returns 0 for an empty histogram.
  double Percentile(double p) const;

  const std::vector<double>& bounds() const { return bounds_; }
  // bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<int64_t>& bucket_counts() const { return buckets_; }

  // Default bounds for wall-clock timings: 20 exponential buckets from
  // 0.5 microseconds to ~0.5 seconds (factor 2 per bucket).
  static std::vector<double> DefaultTimeBounds();

 private:
  std::vector<double> bounds_;
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Point-in-time view of one metric, as exported by --metrics-json and the
// CLI `metrics:` block.
struct MetricSnapshot {
  std::string name;
  std::string unit;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  int64_t count = 0;   // counter value, or histogram observation count
  double value = 0.0;  // gauge value, or histogram sum
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;  // histograms only
  double min = 0.0, max = 0.0;             // histograms only
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Idempotent: a second registration under the same name returns the
  // existing handle (and aborts if the kind differs — one name, one metric).
  Counter* RegisterCounter(const std::string& name, const std::string& unit,
                           const std::string& help);
  Gauge* RegisterGauge(const std::string& name, const std::string& unit,
                       const std::string& help);
  // Empty `bounds` selects Histogram::DefaultTimeBounds().
  Histogram* RegisterHistogram(const std::string& name, const std::string& unit,
                               const std::string& help,
                               std::vector<double> bounds = {});

  int num_metrics() const { return static_cast<int>(entries_.size()); }
  std::vector<std::string> Names() const;

  // Snapshots are name-sorted so exports are stable across runs.
  std::vector<MetricSnapshot> Snapshot() const;

  // {"metrics": [ {...}, ... ]} — one object per metric.
  std::string ToJson() const;

  // The CLI `metrics:` block: one aligned line per metric with nonzero
  // activity (counters/histograms with count 0 and never-set gauges are
  // elided so short runs stay readable).
  std::string SummaryText() const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    std::string help;
    MetricKind kind;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  Entry* Find(const std::string& name);

  // Deques: handles must stay valid as more metrics register.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::deque<Entry> entries_;
  std::map<std::string, Entry*> by_name_;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_OBS_METRICS_H_
