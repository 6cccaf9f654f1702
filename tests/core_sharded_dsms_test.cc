// Determinism and equivalence contract of the shard-parallel runtime
// (core/sharded_dsms.h):
//  * one shard through the sharded machinery == the classic engine, byte for
//    byte (RunResultToJson equality);
//  * fixed (plan, arrivals, policy, K, seed) => identical merged results
//    across repeated runs and across worker-thread counts;
//  * emissions are schedule-invariant, so tuples_emitted matches the classic
//    run at every K.

#include "core/sharded_dsms.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dsms.h"
#include "core/report.h"
#include "query/workload.h"
#include "sched/policy.h"

namespace aqsios::core {
namespace {

query::Workload Testbed(int queries, int64_t arrivals,
                        bool multi_stream = false,
                        int sharing_group_size = 0,
                        query::SelectivityMode mode =
                            query::SelectivityMode::kCorrelatedAttribute) {
  query::WorkloadConfig config;
  config.num_queries = queries;
  config.num_arrivals = arrivals;
  config.seed = 42;
  config.utilization = 0.9;
  config.multi_stream = multi_stream;
  config.sharing_group_size = sharing_group_size;
  config.selectivity_mode = mode;
  return query::GenerateWorkload(config);
}

SimulationOptions FullOptions(int shards) {
  SimulationOptions options;
  options.shards = shards;
  options.qos.track_per_query = true;
  options.attribution_sample_every = 32;
  return options;
}

sched::PolicyConfig Policy(sched::PolicyKind kind) {
  return sched::PolicyConfig::Of(kind);
}

TEST(ShardedDsmsTest, OneShardIsByteIdenticalToClassicEngine) {
  const query::Workload workload = Testbed(20, 3000);
  for (const sched::PolicyKind kind :
       {sched::PolicyKind::kHnr, sched::PolicyKind::kBsd,
        sched::PolicyKind::kRoundRobin}) {
    const RunResult classic =
        Simulate(workload, Policy(kind), FullOptions(/*shards=*/1));
    SimulationOptions options = FullOptions(1);
    const ShardedRunResult sharded =
        SimulateSharded(workload, Policy(kind), options);
    // The sharded path at K=1 still routes through rings, rebuilds the
    // sub-plan, and merges one shard's metrics into fresh accumulators —
    // all of which must be exact identities.
    EXPECT_EQ(RunResultToJson(sharded.result), RunResultToJson(classic));
  }
}

TEST(ShardedDsmsTest, OverheadChargingStaysByteIdenticalAtOneShard) {
  const query::Workload workload = Testbed(20, 3000);
  SimulationOptions options = FullOptions(1);
  options.charge_scheduling_overhead = true;
  const RunResult classic =
      Simulate(workload, Policy(sched::PolicyKind::kBsd), options);
  const ShardedRunResult sharded =
      SimulateSharded(workload, Policy(sched::PolicyKind::kBsd), options);
  EXPECT_EQ(RunResultToJson(sharded.result), RunResultToJson(classic));
}

TEST(ShardedDsmsTest, RepeatedRunsAndThreadCountsAreIdentical) {
  const query::Workload workload = Testbed(40, 4000);
  for (const int shards : {2, 4, 8}) {
    std::string reference;
    for (int rep = 0; rep < 3; ++rep) {
      SimulationOptions options = FullOptions(shards);
      options.shard_threads = rep == 2 ? 4 : 1;  // serial and pooled runs
      const ShardedRunResult run =
          SimulateSharded(workload, Policy(sched::PolicyKind::kHnr), options);
      const std::string json = RunResultToJson(run.result);
      if (rep == 0) {
        reference = json;
      } else {
        EXPECT_EQ(json, reference)
            << "nondeterministic merged result at shards=" << shards
            << " rep=" << rep;
      }
    }
  }
}

TEST(ShardedDsmsTest, EmissionsAreScheduleInvariantAcrossShardCounts) {
  // Correlated plans realize selectivity as an attribute threshold; the
  // independent ones take frozen per-(arrival, query, operator) draws,
  // which must key on the *global* query id a shard's sub-plan renumbers.
  for (const query::SelectivityMode mode :
       {query::SelectivityMode::kCorrelatedAttribute,
        query::SelectivityMode::kIndependent}) {
    const query::Workload workload = Testbed(40, 4000, /*multi_stream=*/false,
                                             /*sharing_group_size=*/0, mode);
    const RunResult classic =
        Simulate(workload, Policy(sched::PolicyKind::kHnr),
                 FullOptions(/*shards=*/1));
    for (const int shards : {2, 4, 8}) {
      const ShardedRunResult run = SimulateSharded(
          workload, Policy(sched::PolicyKind::kHnr), FullOptions(shards));
      // Frozen draws key on global ids, which sharding preserves: what gets
      // emitted/filtered never depends on the schedule, only *when* does.
      const std::string what =
          std::string(mode == query::SelectivityMode::kIndependent
                          ? "independent"
                          : "correlated") +
          " shards=" + std::to_string(shards);
      EXPECT_EQ(run.result.qos.tuples_emitted, classic.qos.tuples_emitted)
          << what;
      EXPECT_EQ(run.result.counters.tuples_filtered,
                classic.counters.tuples_filtered)
          << what;
      EXPECT_EQ(run.result.counters.tuples_emitted,
                classic.counters.tuples_emitted)
          << what;
    }
  }
}

TEST(ShardedDsmsTest, ShardStatsAccountForTheWholeRun) {
  const query::Workload workload = Testbed(30, 3000);
  const ShardedRunResult run = SimulateSharded(
      workload, Policy(sched::PolicyKind::kHnr), FullOptions(4));
  ASSERT_EQ(run.shard_stats.size(), 4u);
  ASSERT_EQ(run.query_id_maps.size(), 4u);
  int queries = 0;
  double busy = 0.0;
  for (int s = 0; s < 4; ++s) {
    const ShardRunStats& stats = run.shard_stats[static_cast<size_t>(s)];
    EXPECT_EQ(stats.shard, s);
    EXPECT_EQ(static_cast<size_t>(stats.num_queries),
              run.query_id_maps[static_cast<size_t>(s)].size());
    EXPECT_EQ(static_cast<size_t>(stats.num_queries),
              run.assignment.queries_of_shard[static_cast<size_t>(s)].size());
    queries += stats.num_queries;
    busy += stats.busy_seconds;
    if (stats.num_queries > 0) {
      // Single-stream workload: every live shard sees every arrival.
      EXPECT_EQ(stats.arrivals, workload.arrivals.size());
      EXPECT_GT(stats.end_seconds, 0.0);
    }
  }
  EXPECT_EQ(queries, 30);
  // Per-shard busy times partition the merged busy time exactly (sums of
  // the same per-execution addends, shard-major instead of interleaved).
  EXPECT_NEAR(busy, run.result.counters.busy_time, 1e-9);
  EXPECT_GE(run.LoadImbalance(), 1.0);
  EXPECT_LE(run.LoadImbalance(), 4.0);
}

TEST(ShardedDsmsTest, MoreShardsThanQueriesLeavesShardsEmpty) {
  const query::Workload workload = Testbed(5, 1500);
  const ShardedRunResult run = SimulateSharded(
      workload, Policy(sched::PolicyKind::kHnr), FullOptions(8));
  const RunResult classic = Simulate(workload, Policy(sched::PolicyKind::kHnr),
                                     FullOptions(1));
  int live = 0;
  for (const ShardRunStats& stats : run.shard_stats) {
    if (stats.num_queries > 0) {
      ++live;
    } else {
      EXPECT_EQ(stats.arrivals, 0);
      EXPECT_EQ(stats.busy_seconds, 0.0);
    }
  }
  EXPECT_LE(live, 5);
  EXPECT_GT(live, 0);
  EXPECT_EQ(run.result.qos.tuples_emitted, classic.qos.tuples_emitted);
}

TEST(ShardedDsmsTest, SharingGroupsSurviveSharding) {
  const query::Workload workload =
      Testbed(40, 3000, /*multi_stream=*/false, /*sharing_group_size=*/10);
  ASSERT_FALSE(workload.plan.sharing_groups().empty());
  const RunResult classic = Simulate(workload, Policy(sched::PolicyKind::kHnr),
                                     FullOptions(1));
  const ShardedRunResult run = SimulateSharded(
      workload, Policy(sched::PolicyKind::kHnr), FullOptions(4));
  // Groups co-locate, shared leaves still run once per tuple per group, and
  // the frozen shared-op draws key on stable group ids: emissions match.
  EXPECT_EQ(run.result.qos.tuples_emitted, classic.qos.tuples_emitted);
}

TEST(ShardedDsmsTest, MultiStreamJoinsSurviveSharding) {
  const query::Workload workload = Testbed(16, 3000, /*multi_stream=*/true);
  const RunResult classic = Simulate(workload, Policy(sched::PolicyKind::kHnr),
                                     FullOptions(1));
  const ShardedRunResult run = SimulateSharded(
      workload, Policy(sched::PolicyKind::kHnr), FullOptions(4));
  // Windowed joins evict state relative to the probing tuple's timestamp,
  // so match counts are schedule-dependent (true of any policy change too);
  // sharding must stay within a fraction of a percent of the global
  // schedule, and must be exactly repeatable.
  EXPECT_NEAR(static_cast<double>(run.result.qos.tuples_emitted),
              static_cast<double>(classic.qos.tuples_emitted),
              0.01 * static_cast<double>(classic.qos.tuples_emitted));
  std::string reference = RunResultToJson(run.result);
  const ShardedRunResult again = SimulateSharded(
      workload, Policy(sched::PolicyKind::kHnr), FullOptions(4));
  EXPECT_EQ(RunResultToJson(again.result), reference);
}

TEST(ShardedDsmsTest, ShardSeedSelectsThePlacement) {
  const query::Workload workload = Testbed(40, 2000);
  SimulationOptions options = FullOptions(4);
  options.shard_seed = 1;
  const ShardedRunResult a = SimulateSharded(
      workload, Policy(sched::PolicyKind::kHnr), options);
  options.shard_seed = 2;
  const ShardedRunResult b = SimulateSharded(
      workload, Policy(sched::PolicyKind::kHnr), options);
  EXPECT_NE(a.assignment.shard_of_query, b.assignment.shard_of_query);
  // Different placements are different schedules but the same emissions.
  EXPECT_EQ(a.result.qos.tuples_emitted, b.result.qos.tuples_emitted);
}

TEST(ShardedDsmsTest, SimulatePlanRoutesShardedOptions) {
  // Dsms::Simulate with options.shards > 1 transparently runs the sharded
  // runtime and returns the merged result.
  const query::Workload workload = Testbed(20, 2000);
  SimulationOptions options = FullOptions(4);
  const RunResult via_simulate =
      Simulate(workload, Policy(sched::PolicyKind::kHnr), options);
  const ShardedRunResult direct = SimulateSharded(
      workload, Policy(sched::PolicyKind::kHnr), options);
  EXPECT_EQ(RunResultToJson(via_simulate), RunResultToJson(direct.result));
}

}  // namespace
}  // namespace aqsios::core
