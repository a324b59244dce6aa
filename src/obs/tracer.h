// Structured event/span tracer: a fixed-capacity ring buffer of trace
// events exportable as Chrome trace_event JSON (chrome://tracing or
// https://ui.perfetto.dev). The ring grows as events arrive, up to its
// capacity, so constructing a tracer does not zero-fill a full ring (3 MiB
// at the default capacity). Complements the per-epoch CSV from
// TraceRecorder: the CSV answers "what did the machine look like each
// epoch", the trace answers "where did the time go inside an epoch".
//
// Event names and categories must be string literals (or otherwise outlive
// the tracer): the ring stores the pointers, not copies, so the hot path
// never allocates.

#ifndef XENNUMA_SRC_OBS_TRACER_H_
#define XENNUMA_SRC_OBS_TRACER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace xnuma {

// One ring slot. Phases follow the Chrome trace_event format:
//   'X' complete span (ts_us + dur_us), 'i' instant event, 'C' counter.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  char phase = 'i';
  double ts_us = 0.0;   // wall-clock microseconds since tracer construction
  double dur_us = 0.0;  // 'X' only
  double value = 0.0;   // 'C' only
  double sim_s = 0.0;   // simulated time at emission (args.sim_s in the JSON)
};

class EventTracer {
 public:
  explicit EventTracer(size_t capacity = kDefaultCapacity);
  EventTracer(const EventTracer&) = delete;
  EventTracer& operator=(const EventTracer&) = delete;

  // The engine updates this at each epoch boundary so every event carries
  // the simulated timestamp alongside the wall-clock one.
  void set_sim_time(double sim_s) { sim_s_ = sim_s; }
  double sim_time() const { return sim_s_; }

  // Wall-clock microseconds since the tracer was constructed.
  double NowUs() const;

  void EmitInstant(const char* name, const char* category);
  void EmitCounter(const char* name, const char* category, double value);
  // Used by ScopedSpan; begin_us/end_us come from NowUs().
  void EmitSpan(const char* name, const char* category, double begin_us, double end_us);

  size_t size() const { return ring_.size(); }
  size_t capacity() const { return capacity_; }
  // Events that fell off the ring because it wrapped.
  int64_t dropped() const { return dropped_; }

  // Oldest-first copy of the ring contents.
  std::vector<TraceEvent> Events() const;

  // {"traceEvents": [...]} with process/thread metadata — directly loadable
  // in chrome://tracing and Perfetto.
  std::string ToChromeJson() const;

  static constexpr size_t kDefaultCapacity = 1 << 16;

 private:
  void Push(const TraceEvent& ev);

  size_t capacity_;
  std::vector<TraceEvent> ring_;  // grows to capacity_, then wraps
  size_t head_ = 0;  // next write slot once the ring is full
  int64_t dropped_ = 0;
  double sim_s_ = 0.0;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_OBS_TRACER_H_
