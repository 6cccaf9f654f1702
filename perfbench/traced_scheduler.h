// A sched::Scheduler decorator that counts and times every call into the
// policy it wraps.
//
// Every Scheduler virtual is overridden and forwarded, so the wrapped
// policy sees exactly the call sequence it would see undecorated and makes
// the same decisions. Calls are counted exactly; one call in `sample_every`
// (a power of two, tested with a mask) per call kind is timed with
// std::chrono::steady_clock, and the per-kind time is estimated as
// calls x mean sampled duration. Each sampled duration has the cost of one
// clock read (measured by ClockReadNs) taken off, since the clock read that
// ends a sample is itself timed. Sampled calls are also kept as spans.

#ifndef AQSIOS_PERFBENCH_TRACED_SCHEDULER_H_
#define AQSIOS_PERFBENCH_TRACED_SCHEDULER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "perfbench/span_log.h"
#include "sched/scheduler.h"

namespace aqsios::perfbench {

class TracedScheduler : public sched::Scheduler {
 public:
  enum CallKind { kPick, kEnqueue, kDequeue, kRekey, kNumKinds };

  struct KindStats {
    int64_t calls = 0;
    int64_t sampled = 0;
    int64_t sampled_ns = 0;
    /// calls x mean sampled duration, in nanoseconds.
    double EstimatedNs() const;
    double MeanNs() const;
  };

  /// `sample_every` is rounded up to a power of two. `spans` may be null;
  /// sampled calls are appended to it as children of the parent span.
  /// `clock_read_ns` is subtracted from every sampled duration.
  TracedScheduler(std::unique_ptr<sched::Scheduler> inner, int sample_every,
                  SpanLog* spans = nullptr, int64_t clock_read_ns = 0);

  /// The span sampled calls are recorded under (the engine run's span).
  void set_parent_span(int span) { parent_span_ = span; }

  void Attach(const sched::UnitTable* units) override;
  void OnEnqueue(int unit) override;
  void OnDequeue(int unit) override;
  void OnBatchDequeue(int unit, int count) override;
  void OnStatsUpdated() override;
  void OnCalibratedStats(const std::vector<int>& changed,
                         SimTime now) override;
  bool PickNext(SimTime now, sched::SchedulingCost* cost,
                std::vector<int>* out) override;
  const char* name() const override;
  double ShedPriority(const sched::Unit& unit) const override;
  void ResyncQueues(SimTime now) override;
  sched::SchedulerState ExportState() const override;
  void ImportState(const sched::SchedulerState& state, SimTime now) override;

  const KindStats& stats(CallKind kind) const { return stats_[kind]; }
  /// Σ over call kinds of EstimatedNs, in seconds.
  double EstimatedSeconds() const;
  /// Σ candidates examined over successful picks
  /// (SchedulingCost::candidates).
  int64_t candidates() const { return candidates_; }
  /// Priority computations the successful picks reported.
  int64_t priority_computations() const { return priority_computations_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Counts one call of `kind`; returns true when this call is sampled.
  bool Count(CallKind kind) {
    return (static_cast<uint64_t>(stats_[kind].calls++) & mask_) == 0;
  }
  void Sampled(CallKind kind, Clock::time_point start);

  std::unique_ptr<sched::Scheduler> inner_;
  uint64_t mask_ = 0;
  SpanLog* spans_ = nullptr;
  int64_t clock_read_ns_ = 0;
  int parent_span_ = -1;
  std::array<KindStats, kNumKinds> stats_{};
  int64_t candidates_ = 0;
  int64_t priority_computations_ = 0;
};

/// Median cost of one steady_clock read, in nanoseconds, from back-to-back
/// reads.
int64_t ClockReadNs();

}  // namespace aqsios::perfbench

#endif  // AQSIOS_PERFBENCH_TRACED_SCHEDULER_H_
