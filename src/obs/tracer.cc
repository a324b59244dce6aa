#include "src/obs/tracer.h"

#include <cstdio>

#include "src/common/check.h"

namespace xnuma {

EventTracer::EventTracer(size_t capacity)
    : capacity_(capacity), epoch_(std::chrono::steady_clock::now()) {
  XNUMA_CHECK(capacity > 0);
}

double EventTracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   epoch_)
      .count();
}

void EventTracer::Push(const TraceEvent& ev) {
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
    return;
  }
  ++dropped_;  // the slot we overwrite held the oldest event
  ring_[head_] = ev;
  head_ = (head_ + 1) % capacity_;
}

void EventTracer::EmitInstant(const char* name, const char* category) {
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.phase = 'i';
  ev.ts_us = NowUs();
  ev.sim_s = sim_s_;
  Push(ev);
}

void EventTracer::EmitCounter(const char* name, const char* category, double value) {
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.phase = 'C';
  ev.ts_us = NowUs();
  ev.value = value;
  ev.sim_s = sim_s_;
  Push(ev);
}

void EventTracer::EmitSpan(const char* name, const char* category, double begin_us,
                           double end_us) {
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.phase = 'X';
  ev.ts_us = begin_us;
  ev.dur_us = end_us > begin_us ? end_us - begin_us : 0.0;
  ev.sim_s = sim_s_;
  Push(ev);
}

std::vector<TraceEvent> EventTracer::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Oldest event: head_ points at it (slot 0 until the ring wraps).
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::string EventTracer::ToChromeJson() const {
  std::string out = "{\"traceEvents\": [\n";
  out +=
      "  {\"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"name\": \"process_name\", "
      "\"args\": {\"name\": \"xnuma\"}},\n";
  out +=
      "  {\"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"name\": \"thread_name\", "
      "\"args\": {\"name\": \"epoch-loop\"}}";
  char buf[512];
  for (const TraceEvent& ev : Events()) {
    out += ",\n  {";
    std::snprintf(buf, sizeof(buf),
                  "\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f",
                  ev.name, ev.category, ev.phase, ev.ts_us);
    out += buf;
    if (ev.phase == 'X') {
      std::snprintf(buf, sizeof(buf), ", \"dur\": %.3f", ev.dur_us);
      out += buf;
    }
    if (ev.phase == 'C') {
      // Counter payload goes in args keyed by the series name.
      std::snprintf(buf, sizeof(buf), ", \"args\": {\"value\": %.9g, \"sim_s\": %.9g}",
                    ev.value, ev.sim_s);
      out += buf;
    } else if (ev.phase == 'i') {
      std::snprintf(buf, sizeof(buf), ", \"s\": \"t\", \"args\": {\"sim_s\": %.9g}",
                    ev.sim_s);
      out += buf;
    } else {
      std::snprintf(buf, sizeof(buf), ", \"args\": {\"sim_s\": %.9g}", ev.sim_s);
      out += buf;
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace xnuma
