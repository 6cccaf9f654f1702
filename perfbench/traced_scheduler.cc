#include "perfbench/traced_scheduler.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace aqsios::perfbench {

double TracedScheduler::KindStats::MeanNs() const {
  return sampled > 0
             ? static_cast<double>(sampled_ns) / static_cast<double>(sampled)
             : 0.0;
}

double TracedScheduler::KindStats::EstimatedNs() const {
  return MeanNs() * static_cast<double>(calls);
}

namespace {

/// Span layer name of a call kind.
const char* CallKindLayer(TracedScheduler::CallKind kind) {
  switch (kind) {
    case TracedScheduler::kPick:
      return "sched.pick";
    case TracedScheduler::kEnqueue:
      return "sched.enqueue";
    case TracedScheduler::kDequeue:
      return "sched.dequeue";
    case TracedScheduler::kRekey:
      return "sched.rekey";
    case TracedScheduler::kNumKinds:
      break;
  }
  return "sched";
}

}  // namespace

int64_t ClockReadNs() {
  using Clock = std::chrono::steady_clock;
  std::vector<int64_t> deltas(1001);
  for (int64_t& d : deltas) {
    const Clock::time_point a = Clock::now();
    const Clock::time_point b = Clock::now();
    d = std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  }
  std::nth_element(deltas.begin(), deltas.begin() + 500, deltas.end());
  return deltas[500];
}

TracedScheduler::TracedScheduler(std::unique_ptr<sched::Scheduler> inner,
                                 int sample_every, SpanLog* spans,
                                 int64_t clock_read_ns)
    : inner_(std::move(inner)), spans_(spans), clock_read_ns_(clock_read_ns) {
  AQSIOS_CHECK(inner_ != nullptr);
  AQSIOS_CHECK_GE(sample_every, 1);
  uint64_t period = 1;
  while (period < static_cast<uint64_t>(sample_every)) period <<= 1;
  mask_ = period - 1;
}

void TracedScheduler::Sampled(CallKind kind, Clock::time_point start) {
  const Clock::time_point end = Clock::now();
  KindStats& s = stats_[kind];
  ++s.sampled;
  const int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count();
  s.sampled_ns += std::max<int64_t>(0, ns - clock_read_ns_);
  if (spans_ != nullptr) {
    spans_->Add(CallKindLayer(kind), start, end, parent_span_);
  }
}

void TracedScheduler::Attach(const sched::UnitTable* units) {
  inner_->Attach(units);
}

void TracedScheduler::OnEnqueue(int unit) {
  if (!Count(kEnqueue)) {
    inner_->OnEnqueue(unit);
    return;
  }
  const Clock::time_point start = Clock::now();
  inner_->OnEnqueue(unit);
  Sampled(kEnqueue, start);
}

void TracedScheduler::OnDequeue(int unit) {
  if (!Count(kDequeue)) {
    inner_->OnDequeue(unit);
    return;
  }
  const Clock::time_point start = Clock::now();
  inner_->OnDequeue(unit);
  Sampled(kDequeue, start);
}

void TracedScheduler::OnBatchDequeue(int unit, int count) {
  if (!Count(kDequeue)) {
    inner_->OnBatchDequeue(unit, count);
    return;
  }
  const Clock::time_point start = Clock::now();
  inner_->OnBatchDequeue(unit, count);
  Sampled(kDequeue, start);
}

void TracedScheduler::OnStatsUpdated() {
  if (!Count(kRekey)) {
    inner_->OnStatsUpdated();
    return;
  }
  const Clock::time_point start = Clock::now();
  inner_->OnStatsUpdated();
  Sampled(kRekey, start);
}

void TracedScheduler::OnCalibratedStats(const std::vector<int>& changed,
                                        SimTime now) {
  if (!Count(kRekey)) {
    inner_->OnCalibratedStats(changed, now);
    return;
  }
  const Clock::time_point start = Clock::now();
  inner_->OnCalibratedStats(changed, now);
  Sampled(kRekey, start);
}

bool TracedScheduler::PickNext(SimTime now, sched::SchedulingCost* cost,
                               std::vector<int>* out) {
  // Deltas, since PickNext accumulates into `cost`.
  const int64_t candidates_before = cost->candidates;
  const int64_t computations_before = cost->computations;
  const bool sampled = Count(kPick);
  const Clock::time_point start = sampled ? Clock::now() : Clock::time_point{};
  const bool picked = inner_->PickNext(now, cost, out);
  if (sampled) Sampled(kPick, start);
  if (picked) {
    candidates_ += cost->candidates - candidates_before;
    priority_computations_ += cost->computations - computations_before;
  }
  return picked;
}

const char* TracedScheduler::name() const { return inner_->name(); }

double TracedScheduler::ShedPriority(const sched::Unit& unit) const {
  return inner_->ShedPriority(unit);
}

void TracedScheduler::ResyncQueues(SimTime now) { inner_->ResyncQueues(now); }

sched::SchedulerState TracedScheduler::ExportState() const {
  return inner_->ExportState();
}

void TracedScheduler::ImportState(const sched::SchedulerState& state,
                                  SimTime now) {
  inner_->ImportState(state, now);
}

double TracedScheduler::EstimatedSeconds() const {
  double ns = 0.0;
  for (const KindStats& s : stats_) ns += s.EstimatedNs();
  return ns * 1e-9;
}

}  // namespace aqsios::perfbench
