// Tuple-train batching: equivalence and amortization guarantees.
//
// The engine has one dispatcher; batch_size only sets how many head tuples
// a dispatch drains. Batching may change *when* decisions happen, never
// *what* a tuple experiences beyond that:
//  * at batch_size 1 every dispatch is a train of one, and the engine must
//    reproduce a plain per-tuple interpreter (tests/reference_interpreter.h)
//    exactly — same ordered emissions with the same response moments, same
//    counters and clock — for every policy, both selectivity modes, query-
//    and operator-level units, sharing groups with PDT remainders, §9.2
//    overhead charging, and statistics drift;
//  * the default batch_size=1 must serialize byte-identically to an
//    explicit batch_size=1 (the committed BENCH_sweep.json stays pinned);
//  * on a single-query one-operator workload with zero overhead cost,
//    batching must leave every individual tuple's response time unchanged
//    (work-conserving single server, FIFO order — the golden trace);
//  * schedule-independent single-stream totals (emitted, filtered, busy
//    time) must be invariant under any batch size;
//  * under §9.2 overhead charging, batching must actually amortize: fewer
//    scheduling points, less charged overhead time.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dsms.h"
#include "core/report.h"
#include "exec/unit_builder.h"
#include "query/workload.h"
#include "reference_interpreter.h"

namespace aqsios::core {
namespace {

const sched::PolicyKind kAllPolicies[] = {
    sched::PolicyKind::kFcfs,        sched::PolicyKind::kRoundRobin,
    sched::PolicyKind::kSrpt,        sched::PolicyKind::kHr,
    sched::PolicyKind::kHnr,         sched::PolicyKind::kLsf,
    sched::PolicyKind::kBsd,         sched::PolicyKind::kBsdClustered,
    sched::PolicyKind::kChain,       sched::PolicyKind::kTwoLevelRr,
    sched::PolicyKind::kLpNorm,      sched::PolicyKind::kQosGraph,
};

const query::SelectivityMode kBothModes[] = {
    query::SelectivityMode::kCorrelatedAttribute,
    query::SelectivityMode::kIndependent,
};

query::WorkloadConfig TestConfig(uint64_t seed) {
  query::WorkloadConfig config;
  config.num_queries = 20;
  config.num_arrivals = 3000;
  config.utilization = 0.9;
  config.seed = seed;
  return config;
}

query::Workload TestWorkload(uint64_t seed) {
  return query::GenerateWorkload(TestConfig(seed));
}

std::string Label(sched::PolicyKind kind, query::SelectivityMode mode) {
  return std::string(sched::PolicyKindName(kind)) +
         (mode == query::SelectivityMode::kIndependent ? "/independent"
                                                       : "/correlated");
}

// Runs `workload` through the engine at batch_size 1 (with `options`) and
// through the reference interpreter under the same configuration, and
// requires the two to agree exactly: every emission in order, and the core
// counters.
void ExpectMatchesReference(const query::Workload& workload,
                            sched::PolicyKind kind,
                            const SimulationOptions& options,
                            const std::string& what) {
  const sched::PolicyConfig policy = sched::PolicyConfig::Of(kind);
  SimulationOptions engine_options = options;
  engine_options.qos.track_outputs = true;
  const RunResult engine = Simulate(workload, policy, engine_options);

  reference::Options ref_options;
  ref_options.level = options.level;
  ref_options.sharing_strategy = options.sharing_strategy;
  ref_options.sharing_objective = ObjectiveForPolicy(kind);
  ref_options.overhead_op_cost = options.charge_scheduling_overhead
                                     ? workload.plan.MinOperatorCost()
                                     : 0.0;
  ref_options.drift = options.drift;
  const reference::Run ref =
      reference::Interpreter(workload.plan, workload.arrivals, policy,
                             ref_options)
          .Execute();

  const exec::RunCounters& c = engine.counters;
  ASSERT_GT(ref.tuples_emitted, 0) << what;
  ASSERT_EQ(engine.qos.outputs.size(), ref.outputs.size()) << what;
  for (size_t i = 0; i < ref.outputs.size(); ++i) {
    const metrics::OutputRecord& want = ref.outputs[i];
    const metrics::OutputRecord& got = engine.qos.outputs[i];
    ASSERT_EQ(got.query, want.query) << what << " output " << i;
    ASSERT_EQ(got.arrival_time, want.arrival_time) << what << " output " << i;
    ASSERT_EQ(got.response, want.response) << what << " output " << i;
    ASSERT_EQ(got.slowdown, want.slowdown) << what << " output " << i;
  }
  EXPECT_EQ(c.scheduling_points, ref.scheduling_points) << what;
  EXPECT_EQ(c.unit_executions, ref.unit_executions) << what;
  EXPECT_EQ(c.operator_invocations, ref.operator_invocations) << what;
  EXPECT_EQ(c.tuples_emitted, ref.tuples_emitted) << what;
  EXPECT_EQ(c.tuples_filtered, ref.tuples_filtered) << what;
  EXPECT_EQ(c.overhead_operations, ref.overhead_operations) << what;
  EXPECT_EQ(c.peak_queued_tuples, ref.peak_queued_tuples) << what;
  EXPECT_EQ(c.busy_time, ref.busy_time) << what;
  EXPECT_EQ(c.overhead_time, ref.overhead_time) << what;
  EXPECT_EQ(c.end_time, ref.end_time) << what;
  // Every dispatch drained exactly one tuple.
  EXPECT_EQ(c.max_train_tuples, 1) << what;
  EXPECT_EQ(c.train_dispatches, c.unit_executions) << what;
}

class BatchingEquivalenceTest : public testing::TestWithParam<uint64_t> {};

TEST_P(BatchingEquivalenceTest, TrainOfOneMatchesPerTupleForEveryPolicy) {
  for (const query::SelectivityMode mode : kBothModes) {
    query::WorkloadConfig config = TestConfig(GetParam());
    config.selectivity_mode = mode;
    const query::Workload workload = query::GenerateWorkload(config);
    for (const sched::PolicyKind kind : kAllPolicies) {
      ExpectMatchesReference(workload, kind, {}, Label(kind, mode));
    }
  }
}

TEST_P(BatchingEquivalenceTest, TrainOfOneMatchesPerTupleWithOverhead) {
  SimulationOptions charged;
  charged.charge_scheduling_overhead = true;
  for (const query::SelectivityMode mode : kBothModes) {
    query::WorkloadConfig config = TestConfig(GetParam());
    config.selectivity_mode = mode;
    const query::Workload workload = query::GenerateWorkload(config);
    for (const sched::PolicyKind kind : kAllPolicies) {
      ExpectMatchesReference(workload, kind, charged,
                             Label(kind, mode) + "/overhead");
    }
  }
}

TEST_P(BatchingEquivalenceTest, TrainOfOneMatchesAtOperatorLevel) {
  SimulationOptions options;
  options.level = exec::SchedulingLevel::kOperatorLevel;
  for (const query::SelectivityMode mode : kBothModes) {
    query::WorkloadConfig config = TestConfig(GetParam());
    config.selectivity_mode = mode;
    // Stale statistics: execution draws on the actual selectivities while
    // the priorities use the assumed ones.
    config.selectivity_misestimation = 0.3;
    const query::Workload workload = query::GenerateWorkload(config);
    for (const sched::PolicyKind kind : kAllPolicies) {
      ExpectMatchesReference(workload, kind, options,
                             Label(kind, mode) + "/op-level");
    }
  }
}

TEST_P(BatchingEquivalenceTest, TrainOfOneMatchesWithSharedRemainders) {
  for (const query::SelectivityMode mode : kBothModes) {
    query::WorkloadConfig config = TestConfig(GetParam());
    config.selectivity_mode = mode;
    config.sharing_group_size = 5;
    const query::Workload workload = query::GenerateWorkload(config);
    for (const sched::PolicyKind kind : kAllPolicies) {
      ExpectMatchesReference(workload, kind, {},
                             Label(kind, mode) + "/sharing");
    }
  }
}

TEST_P(BatchingEquivalenceTest, TrainOfOneMatchesUnderDrift) {
  SimulationOptions options;
  options.drift.enabled = true;
  options.drift.cost_factor = 3.0;
  options.drift.selectivity_factor = 0.7;
  for (const query::SelectivityMode mode : kBothModes) {
    query::WorkloadConfig config = TestConfig(GetParam());
    config.selectivity_mode = mode;
    config.utilization = 0.4;
    const query::Workload workload = query::GenerateWorkload(config);
    const SimTime span = workload.arrivals.arrivals.back().time;
    options.drift.step_time = 0.3 * span;
    options.drift.ramp_seconds = 0.1 * span;
    for (const sched::PolicyKind kind : kAllPolicies) {
      ExpectMatchesReference(workload, kind, options,
                             Label(kind, mode) + "/drift");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchingEquivalenceTest,
                         testing::Values(1u, 7u, 42u));

// The sharing cells above exercise PDT remainders only if the plans have
// some: at least one seed's PDT split must exclude a member segment.
TEST(BatchingEquivalenceCoverageTest, SharingWorkloadsHavePdtRemainders) {
  int remainder_units = 0;
  for (const uint64_t seed : {1u, 7u, 42u}) {
    query::WorkloadConfig config = TestConfig(seed);
    config.sharing_group_size = 5;
    const query::Workload workload = query::GenerateWorkload(config);
    for (const sched::SharingObjective objective :
         {sched::SharingObjective::kHnr, sched::SharingObjective::kBsd}) {
      exec::UnitBuilderOptions build;
      build.sharing_objective = objective;
      for (const sched::Unit& unit :
           exec::BuildUnits(workload.plan, build).units) {
        if (unit.kind == sched::UnitKind::kRemainder) ++remainder_units;
      }
    }
  }
  EXPECT_GT(remainder_units, 0);
}

// batch_size=1 (the default) must not merely be equivalent — it must be the
// *same engine*, serializing byte-for-byte identically. This is what pins
// the committed BENCH_sweep.json across the batching change.
TEST(BatchingDefaultTest, ExplicitBatchSizeOneSerializesIdentically) {
  const query::Workload workload = TestWorkload(42);
  for (const sched::PolicyKind kind :
       {sched::PolicyKind::kBsd, sched::PolicyKind::kHnr,
        sched::PolicyKind::kFcfs}) {
    const sched::PolicyConfig policy = sched::PolicyConfig::Of(kind);
    const RunResult implicit = Simulate(workload, policy);
    SimulationOptions explicit_one;
    explicit_one.batch_size = 1;
    const RunResult explicit_run = Simulate(workload, policy, explicit_one);
    EXPECT_EQ(implicit.counters.max_train_tuples, 1)
        << sched::PolicyKindName(kind);
    EXPECT_EQ(RunResultToJson(implicit), RunResultToJson(explicit_run))
        << sched::PolicyKindName(kind);
  }
}

// Golden trace: one query, one operator, zero overhead cost. A single
// work-conserving server draining one FIFO emits every tuple at the same
// virtual instant no matter how many tuples each dispatch drains, so each
// individual response time must be bit-identical across batch sizes.
TEST(BatchingGoldenTraceTest, PerTupleResponseTimesUnchangedByBatching) {
  Dsms dsms(query::SelectivityMode::kCorrelatedAttribute);
  query::QuerySpec spec;
  spec.left_stream = 0;
  spec.left_ops = {query::MakeSelect(/*cost_ms=*/1.0, /*selectivity=*/0.6)};
  dsms.AddQuery(std::move(spec));

  // Bursts of 12 back-to-back tuples followed by a drain gap: deep enough
  // backlogs that batch>1 runs form real multi-tuple trains.
  stream::ArrivalTable arrivals;
  for (int i = 0; i < 480; ++i) {
    stream::Arrival a;
    a.id = i;
    a.stream = 0;
    a.time = static_cast<double>(i / 12) * 0.02 +
             static_cast<double>(i % 12) * 1e-4;
    a.attribute = static_cast<double>((i * 37) % 100) + 0.5;
    arrivals.arrivals.push_back(a);
  }
  dsms.SetArrivals(std::move(arrivals));

  SimulationOptions options;
  options.qos.track_outputs = true;
  const RunResult baseline =
      dsms.Run(sched::PolicyConfig::Of(sched::PolicyKind::kHnr), options);
  ASSERT_GT(baseline.qos.outputs.size(), 100u);

  for (const int batch : {2, 4, 16, 0}) {
    SimulationOptions batched = options;
    batched.batch_size = batch;
    const RunResult r =
        dsms.Run(sched::PolicyConfig::Of(sched::PolicyKind::kHnr), batched);
    ASSERT_EQ(r.qos.outputs.size(), baseline.qos.outputs.size())
        << "batch=" << batch;
    EXPECT_GT(r.counters.max_train_tuples, 1)
        << "batch=" << batch << ": no multi-tuple train ever formed";
    for (size_t i = 0; i < baseline.qos.outputs.size(); ++i) {
      const metrics::OutputRecord& want = baseline.qos.outputs[i];
      const metrics::OutputRecord& got = r.qos.outputs[i];
      ASSERT_EQ(got.query, want.query) << "batch=" << batch << " tuple " << i;
      ASSERT_EQ(got.arrival_time, want.arrival_time)
          << "batch=" << batch << " tuple " << i;
      ASSERT_EQ(got.response, want.response)
          << "batch=" << batch << " tuple " << i;
      ASSERT_EQ(got.slowdown, want.slowdown)
          << "batch=" << batch << " tuple " << i;
    }
  }
}

// Which tuples survive their filters is frozen per (arrival, query,
// operator) — independent of execution order — so single-stream emission,
// filter, and busy-time totals may not move with the batch size even when
// batching reorders service.
TEST(BatchingInvariantsTest, ScheduleIndependentTotalsHoldAtAnyBatchSize) {
  const query::Workload workload = TestWorkload(42);
  for (const sched::PolicyKind kind :
       {sched::PolicyKind::kHnr, sched::PolicyKind::kBsd,
        sched::PolicyKind::kRoundRobin}) {
    const sched::PolicyConfig policy = sched::PolicyConfig::Of(kind);
    const RunResult base = Simulate(workload, policy);
    for (const int batch : {4, 32, 0}) {
      SimulationOptions options;
      options.batch_size = batch;
      const RunResult r = Simulate(workload, policy, options);
      const std::string what = std::string(sched::PolicyKindName(kind)) +
                               "/batch=" + std::to_string(batch);
      EXPECT_EQ(r.qos.tuples_emitted, base.qos.tuples_emitted) << what;
      EXPECT_EQ(r.counters.tuples_filtered, base.counters.tuples_filtered)
          << what;
      EXPECT_NEAR(r.counters.busy_time, base.counters.busy_time, 1e-9)
          << what;
      EXPECT_EQ(r.counters.unit_executions, base.counters.unit_executions)
          << what;
      EXPECT_GT(r.counters.train_dispatches, 0) << what;
      EXPECT_LT(r.counters.train_dispatches, r.counters.train_tuples)
          << what << ": trains never exceeded one tuple";
    }
  }
}

// The point of batching (§9.2, Figure 14): one priority decision — and one
// overhead charge — buys up to k tuples of progress.
TEST(BatchingAmortizationTest, FewerDecisionsAndLessOverheadCharged) {
  const query::Workload workload = TestWorkload(42);
  for (const sched::PolicyKind kind :
       {sched::PolicyKind::kLsf, sched::PolicyKind::kBsd}) {
    const sched::PolicyConfig policy = sched::PolicyConfig::Of(kind);
    SimulationOptions charged;
    charged.charge_scheduling_overhead = true;
    const RunResult per_tuple = Simulate(workload, policy, charged);
    SimulationOptions batched = charged;
    batched.batch_size = 8;
    const RunResult r = Simulate(workload, policy, batched);
    const std::string what = sched::PolicyKindName(kind);
    EXPECT_LT(r.counters.scheduling_points,
              per_tuple.counters.scheduling_points)
        << what;
    EXPECT_LT(r.counters.overhead_time, per_tuple.counters.overhead_time)
        << what;
    EXPECT_EQ(r.qos.tuples_emitted, per_tuple.qos.tuples_emitted) << what;
    EXPECT_LE(r.qos.avg_response, per_tuple.qos.avg_response)
        << what << ": amortization did not help under overload";
  }
}

}  // namespace
}  // namespace aqsios::core
