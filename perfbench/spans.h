// The benchmark's own spans around the public calls an op makes. They are
// kept in memory and written into the workload report when the run ends.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    const char* name = nullptr;  // a string literal
    int op = -1;
    int parent = -1;  // index into spans(), -1 at top level
    double start_us = 0.0;
    double end_us = 0.0;
  };

  SpanLog() : origin_(std::chrono::steady_clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  int Begin(const char* name, int op) {
    Span s;
    s.name = name;
    s.op = op;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_us = NowUs();
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int span) {
    spans_[span].end_us = NowUs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                     origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null log makes it free.
class BenchSpan {
 public:
  BenchSpan(SpanLog* log, const char* name, int op)
      : log_(log), span_(log != nullptr ? log->Begin(name, op) : -1) {}
  ~BenchSpan() {
    if (log_ != nullptr) {
      log_->End(span_);
    }
  }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  SpanLog* log_;
  int span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
