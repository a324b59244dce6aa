// Per-epoch time-series recording: utilizations, per-job latency/rate, and
// dynamic-policy activity. Attach a TraceRecorder to an Engine to analyse
// how a run unfolds (e.g. watching Carrefour converge), or dump it as CSV
// (`xnuma run --trace out.csv`).

#ifndef XENNUMA_SRC_SIM_TRACE_H_
#define XENNUMA_SRC_SIM_TRACE_H_

#include <string>
#include <vector>

#include "src/common/types.h"

namespace xnuma {

struct JobEpochSample {
  int job_id = -1;
  std::string app;
  double avg_latency_cycles = 0.0;  // rate-weighted over running threads
  double total_rate = 0.0;          // accesses/s over all threads
  double overhead_fraction = 0.0;
  int64_t carrefour_migrations = 0;  // cumulative
  bool finished = false;
};

struct EpochSample {
  double time_seconds = 0.0;
  double max_mc_util = 0.0;
  double avg_mc_util = 0.0;
  double max_link_util = 0.0;
  double avg_link_util = 0.0;
  std::vector<JobEpochSample> jobs;
};

class TraceRecorder {
 public:
  void Record(EpochSample sample) { samples_.push_back(std::move(sample)); }

  const std::vector<EpochSample>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }
  void Clear() { samples_.clear(); }

  // One CSV row per (epoch, job):
  // time,app,latency,rate,overhead,migrations,max_mc,max_link
  // A leading '#' comment line documents which columns are cumulative
  // (migrations) vs instantaneous (utilizations, latency, rate).
  std::string ToCsv() const;

  // Largest observed max-MC utilization (handy in tests).
  double PeakMcUtil() const;
  double PeakLinkUtil() const;

 private:
  std::vector<EpochSample> samples_;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_SIM_TRACE_H_
