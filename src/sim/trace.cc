#include "src/sim/trace.h"

#include <algorithm>
#include <cstdio>

namespace xnuma {

std::string TraceRecorder::ToCsv() const {
  // Column conventions, spelled out because the two families differ:
  //  * migrations is a CUMULATIVE total as of the epoch's end (monotone
  //    non-decreasing; diff adjacent rows for per-epoch activity);
  //  * max_mc/max_link (and latency/rate/overhead) are INSTANTANEOUS values
  //    for that epoch alone.
  std::string out =
      "# migrations: cumulative total; max_mc,max_link,latency,rate,"
      "overhead: instantaneous per-epoch values\n"
      "time,app,latency_cycles,rate_per_s,overhead,migrations,max_mc,max_link\n";
  char line[320];
  for (const EpochSample& e : samples_) {
    for (const JobEpochSample& j : e.jobs) {
      std::snprintf(line, sizeof(line), "%.3f,%s,%.1f,%.0f,%.4f,%lld,%.4f,%.4f\n",
                    e.time_seconds, j.app.c_str(), j.avg_latency_cycles, j.total_rate,
                    j.overhead_fraction, static_cast<long long>(j.carrefour_migrations),
                    e.max_mc_util, e.max_link_util);
      out += line;
    }
  }
  return out;
}

double TraceRecorder::PeakMcUtil() const {
  double peak = 0.0;
  for (const EpochSample& e : samples_) {
    peak = std::max(peak, e.max_mc_util);
  }
  return peak;
}

double TraceRecorder::PeakLinkUtil() const {
  double peak = 0.0;
  for (const EpochSample& e : samples_) {
    peak = std::max(peak, e.max_link_util);
  }
  return peak;
}

}  // namespace xnuma
