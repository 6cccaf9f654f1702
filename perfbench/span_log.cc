#include "perfbench/span_log.h"

#include <fstream>

namespace aqsios::perfbench {

int SpanLog::Add(const char* layer, Clock::time_point start,
                 Clock::time_point end, int parent) {
  const int id = Open(layer, start, parent);
  if (id >= 0) Close(id, end);
  return id;
}

int SpanLog::Open(const char* layer, Clock::time_point start, int parent) {
  ++recorded_;
  if (spans_.size() >= capacity_) return -1;
  spans_.push_back({layer, Ns(start), Ns(start), parent});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::Close(int id, Clock::time_point end) {
  if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = Ns(end);
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"layer\": \"" << s.layer
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << "}\n";
  }
  out.flush();
  return out.good();
}

}  // namespace aqsios::perfbench
