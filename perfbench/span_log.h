// In-memory span log of the traced pass.
//
// A span is one timed call into a layer: its layer name, start and end
// (nanoseconds since the log was created) and the span that contains it.
// Spans are kept in memory while the benchmark runs and written out as JSON
// lines when it ends. Past `capacity` spans, further spans are counted but
// not stored, so a long run cannot grow the log without bound.

#ifndef AQSIOS_PERFBENCH_SPAN_LOG_H_
#define AQSIOS_PERFBENCH_SPAN_LOG_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace aqsios::perfbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* layer = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };

  explicit SpanLog(size_t capacity = size_t{1} << 16)
      : origin_(Clock::now()), capacity_(capacity) {}

  /// Records a finished span; returns its id, or -1 when the log is full.
  /// `layer` must be a string literal (it is stored by pointer).
  int Add(const char* layer, Clock::time_point start, Clock::time_point end,
          int parent = -1);

  /// Opens a span whose end is filled in by Close; for spans that parent
  /// other spans. Returns -1 when the log is full.
  int Open(const char* layer, Clock::time_point start, int parent = -1);
  void Close(int id, Clock::time_point end);

  int64_t recorded() const { return recorded_; }
  int64_t dropped() const {
    return recorded_ - static_cast<int64_t>(spans_.size());
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span: {"id", "layer", "start_ns",
  /// "end_ns", "parent"}. Returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  size_t capacity_;
  std::vector<Span> spans_;
  int64_t recorded_ = 0;
};

}  // namespace aqsios::perfbench

#endif  // AQSIOS_PERFBENCH_SPAN_LOG_H_
