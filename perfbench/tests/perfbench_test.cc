// Tests of the benchmark's own code: the scheduler decorator must be
// invisible to the policy it wraps, and BENCHMARK.json must declare exactly
// the metrics the driver prints.

#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/dsms.h"
#include "core/report.h"
#include "exec/engine.h"
#include "metrics/qos.h"
#include "obs/tracer.h"
#include "perfbench/metric_table.h"
#include "perfbench/span_log.h"
#include "perfbench/traced_scheduler.h"
#include "query/workload.h"
#include "sched/policy.h"

namespace aqsios::perfbench {
namespace {

const sched::PolicyKind kAllPolicies[] = {
    sched::PolicyKind::kFcfs,        sched::PolicyKind::kRoundRobin,
    sched::PolicyKind::kSrpt,        sched::PolicyKind::kHr,
    sched::PolicyKind::kHnr,         sched::PolicyKind::kLsf,
    sched::PolicyKind::kBsd,         sched::PolicyKind::kBsdClustered,
    sched::PolicyKind::kChain,       sched::PolicyKind::kTwoLevelRr,
    sched::PolicyKind::kLpNorm,      sched::PolicyKind::kQosGraph,
};

query::Workload SmallWorkload() {
  query::WorkloadConfig config;
  config.num_queries = 12;
  config.num_arrivals = 600;
  config.utilization = 0.9;
  config.seed = 7;
  return query::GenerateWorkload(config);
}

struct Observed {
  std::string json;
  std::vector<obs::TraceEvent> decisions;
};

/// Runs `workload` once with an EventTracer attached (to capture the pick
/// sequence) and returns the serialized result and the decision events.
Observed RunObserved(const query::Workload& workload,
                     const sched::PolicyConfig& policy,
                     core::SimulationOptions options, bool decorate) {
  obs::EventTracer tracer(size_t{1} << 18);
  options.tracer = &tracer;
  std::unique_ptr<sched::Scheduler> scheduler = sched::CreateScheduler(policy);
  SpanLog spans(64);
  if (decorate) {
    scheduler = std::make_unique<TracedScheduler>(std::move(scheduler),
                                                  /*sample_every=*/4, &spans);
  }
  metrics::QosCollector collector(options.qos);
  exec::Engine engine(&workload.plan, &workload.arrivals,
                      core::MakeEngineConfig(options, policy,
                                             workload.plan.MinOperatorCost()),
                      scheduler.get(), &collector);
  core::RunResult result;
  result.counters = engine.Run();
  result.qos = collector.Snapshot();
  result.policy_name = scheduler->name();
  EXPECT_EQ(tracer.dropped(), 0) << "tracer too small for the test workload";
  Observed out;
  out.json = core::RunResultToJson(result);
  for (const obs::TraceEvent& e : tracer.Events()) {
    if (e.kind == obs::EventKind::kSchedDecision) out.decisions.push_back(e);
  }
  return out;
}

void ExpectSameDecisions(const Observed& plain, const Observed& decorated,
                         const std::string& what) {
  EXPECT_EQ(plain.json, decorated.json) << what;
  ASSERT_EQ(plain.decisions.size(), decorated.decisions.size()) << what;
  EXPECT_GT(plain.decisions.size(), 0u) << what;
  for (size_t i = 0; i < plain.decisions.size(); ++i) {
    const obs::TraceEvent& a = plain.decisions[i];
    const obs::TraceEvent& b = decorated.decisions[i];
    ASSERT_TRUE(a.time == b.time && a.unit == b.unit && a.a == b.a &&
                a.b == b.b)
        << what << ": pick " << i << " differs";
  }
}

TEST(TracedSchedulerTest, PickSequenceAndResultsMatchForEveryPolicy) {
  const query::Workload workload = SmallWorkload();
  for (const sched::PolicyKind kind : kAllPolicies) {
    const sched::PolicyConfig policy = sched::PolicyConfig::Of(kind);
    const core::SimulationOptions options;
    ExpectSameDecisions(RunObserved(workload, policy, options, false),
                        RunObserved(workload, policy, options, true),
                        sched::PolicyKindName(kind));
  }
}

// Trains reach the policy through OnBatchDequeue and calibration through
// OnCalibratedStats; both must pass through the decorator unchanged.
TEST(TracedSchedulerTest, TrainsAndCalibrationPassThrough) {
  const query::Workload workload = SmallWorkload();
  for (const sched::PolicyKind kind :
       {sched::PolicyKind::kLsf, sched::PolicyKind::kBsd,
        sched::PolicyKind::kHnr}) {
    const sched::PolicyConfig policy = sched::PolicyConfig::Of(kind);
    core::SimulationOptions trains;
    trains.batch_size = 8;
    trains.charge_scheduling_overhead = true;
    ExpectSameDecisions(RunObserved(workload, policy, trains, false),
                        RunObserved(workload, policy, trains, true),
                        std::string(sched::PolicyKindName(kind)) + " trains");
    core::SimulationOptions calibrated;
    calibrated.calibration.enabled = true;
    calibrated.calibration.period = workload.arrivals.Horizon() / 50.0;
    ExpectSameDecisions(
        RunObserved(workload, policy, calibrated, false),
        RunObserved(workload, policy, calibrated, true),
        std::string(sched::PolicyKindName(kind)) + " calibrated");
  }
}

/// Records which of its own overrides were called. Every virtual returns a
/// value or leaves a trace that the base-class default would not, so a
/// decorator that fell back to a default is caught.
class RecordingScheduler : public sched::Scheduler {
 public:
  explicit RecordingScheduler(std::vector<std::string>* calls)
      : calls_(calls) {}
  void Attach(const sched::UnitTable*) override { calls_->push_back("Attach"); }
  void OnEnqueue(int) override { calls_->push_back("OnEnqueue"); }
  void OnDequeue(int) override { calls_->push_back("OnDequeue"); }
  void OnBatchDequeue(int, int) override {
    calls_->push_back("OnBatchDequeue");
  }
  void OnStatsUpdated() override { calls_->push_back("OnStatsUpdated"); }
  void OnCalibratedStats(const std::vector<int>&, SimTime) override {
    calls_->push_back("OnCalibratedStats");
  }
  bool PickNext(SimTime, sched::SchedulingCost* cost,
                std::vector<int>* out) override {
    calls_->push_back("PickNext");
    cost->computations += 3;
    cost->candidates += 2;
    out->push_back(5);
    return true;
  }
  const char* name() const override { return "recording"; }
  double ShedPriority(const sched::Unit&) const override { return 42.5; }
  void ResyncQueues(SimTime) override { calls_->push_back("ResyncQueues"); }
  sched::SchedulerState ExportState() const override {
    sched::SchedulerState state;
    state.ints = {7};
    return state;
  }
  void ImportState(const sched::SchedulerState&, SimTime) override {
    calls_->push_back("ImportState");
  }

 private:
  std::vector<std::string>* calls_;
};

TEST(TracedSchedulerTest, OverridesAndForwardsEveryVirtual) {
  std::vector<std::string> calls;
  TracedScheduler traced(std::make_unique<RecordingScheduler>(&calls),
                         /*sample_every=*/1);
  sched::Scheduler& s = traced;
  s.Attach(nullptr);
  s.OnEnqueue(0);
  s.OnDequeue(0);
  s.OnBatchDequeue(0, 4);
  s.OnStatsUpdated();
  s.OnCalibratedStats({1, 2}, 0.5);
  sched::SchedulingCost cost;
  std::vector<int> picked;
  EXPECT_TRUE(s.PickNext(0.0, &cost, &picked));
  s.ResyncQueues(1.0);
  s.ImportState(sched::SchedulerState{}, 1.0);
  EXPECT_EQ(calls, (std::vector<std::string>{
                       "Attach", "OnEnqueue", "OnDequeue", "OnBatchDequeue",
                       "OnStatsUpdated", "OnCalibratedStats", "PickNext",
                       "ResyncQueues", "ImportState"}));
  EXPECT_STREQ(s.name(), "recording");
  EXPECT_EQ(s.ShedPriority(sched::Unit{}), 42.5);
  EXPECT_EQ(s.ExportState().ints, std::vector<int64_t>{7});
  EXPECT_EQ(picked, std::vector<int>{5});

  EXPECT_EQ(traced.stats(TracedScheduler::kPick).calls, 1);
  EXPECT_EQ(traced.stats(TracedScheduler::kEnqueue).calls, 1);
  EXPECT_EQ(traced.stats(TracedScheduler::kDequeue).calls, 2);
  EXPECT_EQ(traced.stats(TracedScheduler::kRekey).calls, 2);
  EXPECT_EQ(traced.candidates(), 2);
  EXPECT_EQ(traced.priority_computations(), 3);
}

TEST(TracedSchedulerTest, SamplesOneCallInThePowerOfTwoAtOrAbovePeriod) {
  std::vector<std::string> calls;
  SpanLog spans;
  TracedScheduler traced(std::make_unique<RecordingScheduler>(&calls),
                         /*sample_every=*/3, &spans);  // rounds up to 4
  traced.set_parent_span(spans.Open("exec.run", SpanLog::Clock::now()));
  for (int i = 0; i < 10; ++i) traced.OnEnqueue(0);
  EXPECT_EQ(traced.stats(TracedScheduler::kEnqueue).calls, 10);
  EXPECT_EQ(traced.stats(TracedScheduler::kEnqueue).sampled, 3);  // 0, 4, 8
  ASSERT_EQ(spans.spans().size(), 4u);
  EXPECT_STREQ(spans.spans()[1].layer, "sched.enqueue");
  EXPECT_EQ(spans.spans()[1].parent, 0);
}

TEST(SpanLogTest, CountsSpansPastCapacityWithoutStoringThem) {
  SpanLog spans(2);
  const SpanLog::Clock::time_point t = SpanLog::Clock::now();
  EXPECT_EQ(spans.Add("a", t, t), 0);
  EXPECT_EQ(spans.Add("b", t, t, 0), 1);
  EXPECT_EQ(spans.Add("c", t, t, 0), -1);
  EXPECT_EQ(spans.recorded(), 3);
  EXPECT_EQ(spans.dropped(), 1);
}

/// (name, unit) pairs of one metric list of BENCHMARK.json.
std::vector<std::pair<std::string, std::string>> DeclaredMetrics(
    const std::string& text, const std::string& list) {
  const size_t begin = text.find("\"" + list + "\"");
  EXPECT_NE(begin, std::string::npos) << list;
  const size_t end = text.find(']', begin);
  const std::string section = text.substr(begin, end - begin);
  const std::regex entry(
      R"re("name":\s*"([^"]+)",\s*"unit":\s*"([^"]+)")re");
  std::vector<std::pair<std::string, std::string>> out;
  for (auto it = std::sregex_iterator(section.begin(), section.end(), entry);
       it != std::sregex_iterator(); ++it) {
    out.emplace_back((*it)[1].str(), (*it)[2].str());
  }
  return out;
}

template <size_t N>
std::vector<std::pair<std::string, std::string>> TableMetrics(
    const std::array<MetricDef, N>& table) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const MetricDef& d : table) out.emplace_back(d.name, d.unit);
  return out;
}

TEST(BenchmarkJsonTest, DeclaresExactlyTheMetricsTheDriverPrints) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in.good()) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_EQ(DeclaredMetrics(text, "end_to_end"),
            TableMetrics(kEndToEndMetrics));
  EXPECT_EQ(DeclaredMetrics(text, "per_layer"), TableMetrics(kPerLayerMetrics));
}

}  // namespace
}  // namespace aqsios::perfbench
