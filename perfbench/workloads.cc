#include "perfbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "sched/shard_router.h"
#include "stream/arrival_process.h"

namespace aqsios::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Seed of the testbed workloads' query population and arrival-time trace.
constexpr uint64_t kTestbedSeed = 42;

// --- paper_q500 ------------------------------------------------------------
// The §8 testbed at the paper's 500 single-stream queries. Every arrival fans
// out to 500 leaf queues and 500 decisions, so scheduler pick/enqueue/dequeue,
// arrival delivery and QoS recording dominate; trains, kernels, sharding,
// shedding and calibration are all bypassed. Scheduling overhead is not
// charged: charged, exact BSD at q=500 overloads (Fig 13's point, not a
// steady workload).
constexpr int kPaperQueries = 500;
constexpr int64_t kPaperArrivals = 10000;

// --- overload_trains -------------------------------------------------------
// 48-op correlated select chains (the committed kernel/columnar cells'
// shape) under deterministic arrivals at 1.3x capacity: operator execution
// inside 32-tuple trains dominates, and the source shedder fires.
constexpr int kTrainQueries = 60;
constexpr int64_t kTrainArrivals = 15000;
constexpr int kTrainChainOps = 48;
constexpr int kTrainPlateau = 4;
constexpr double kTrainLoad = 1.3;
constexpr int64_t kTrainQueueCap = 4096;

// --- skew_elastic ----------------------------------------------------------
// The committed scaling/skew/rebalance shape: sharing groups of 10 on their
// own Poisson streams, one dominant group, 2.4x one engine's capacity, four
// shards with elastic rebalancing. Two worker threads: on a 4-core host the
// 2-thread runs were both faster and steadier than 4-thread runs.
constexpr int kSkewQueries = 1000;
constexpr int64_t kSkewArrivals = 400000;
constexpr int kSkewGroupSize = 10;
constexpr int kSkewShards = 4;
constexpr int kSkewThreads = 2;
constexpr double kSkewLoad = 2.4;
constexpr double kSkewHotBusyMass = 0.65;

// --- drift_calibrated ------------------------------------------------------
// The committed drift/calibrated/bsd shape: the §8 testbed at utilization
// 0.3 where half the queries ramp to cost x5 and selectivity x0.7 over
// [30%, 40%] of the span, with the online calibrator re-keying them.
constexpr int kDriftQueries = 100;
constexpr int64_t kDriftArrivals = 12000;

query::GlobalPlan CompileSpecs(std::vector<query::QuerySpec> specs,
                               std::vector<query::SharingGroup> groups,
                               query::SelectivityMode mode, int num_streams) {
  std::vector<query::CompiledQuery> compiled;
  compiled.reserve(specs.size());
  for (query::QuerySpec& spec : specs) {
    compiled.emplace_back(std::move(spec), mode);
  }
  return query::GlobalPlan(std::move(compiled), std::move(groups), num_streams);
}

query::GlobalPlan BuildTrainPlan() {
  std::vector<query::QuerySpec> specs;
  for (int qi = 0; qi < kTrainQueries; ++qi) {
    query::QuerySpec spec;
    spec.id = qi;
    spec.left_stream = 0;
    const double cost_ms = 0.002 * static_cast<double>(1 << (qi % 4));
    for (int x = 0; x < kTrainChainOps; ++x) {
      const int step = (x / kTrainPlateau) * kTrainPlateau;
      const double selectivity =
          0.98 - (0.98 - 0.15) * static_cast<double>(step) /
                     static_cast<double>(kTrainChainOps - 1);
      spec.left_ops.push_back(query::MakeSelect(cost_ms, selectivity));
    }
    specs.push_back(std::move(spec));
  }
  return CompileSpecs(std::move(specs), {},
                      query::SelectivityMode::kCorrelatedAttribute, 1);
}

query::GlobalPlan BuildSkewPlan(const std::vector<double>& cost_ms_of_group) {
  const int num_groups = static_cast<int>(cost_ms_of_group.size());
  std::vector<query::QuerySpec> specs;
  std::vector<query::SharingGroup> groups;
  for (int g = 0; g < num_groups; ++g) {
    query::SharingGroup group;
    group.id = g;
    const double cost_ms = cost_ms_of_group[static_cast<size_t>(g)];
    for (int j = 0; j < kSkewGroupSize; ++j) {
      const query::QueryId id = g * kSkewGroupSize + j;
      query::QuerySpec spec;
      spec.id = id;
      spec.left_stream = g;
      spec.left_ops = {query::MakeSelect(cost_ms, 0.5),
                       query::MakeStoredJoin(cost_ms, 0.3 + 0.1 * (j % 5)),
                       query::MakeProject(cost_ms)};
      group.members.push_back(id);
      specs.push_back(std::move(spec));
    }
    groups.push_back(std::move(group));
  }
  return CompileSpecs(std::move(specs), std::move(groups),
                      query::SelectivityMode::kIndependent, num_groups);
}

/// Per-group arrival counts and cost scales of the skew workload. Skew sits
/// on two axes the hash placement is blind to: the dominant group carries
/// half of all arrivals, and the groups the hash co-locates on one shard
/// carry kSkewHotBusyMass of the busy time.
void SkewShape(const query::GlobalPlan& unit_cost_plan, int num_groups,
               std::vector<int64_t>* counts, std::vector<double>* costs) {
  const sched::ShardAssignment assignment = sched::AssignShards(
      unit_cost_plan, kSkewShards, core::SimulationOptions{}.shard_seed);
  std::vector<int> groups_of_shard(kSkewShards, 0);
  for (int g = 0; g < num_groups; ++g) {
    ++groups_of_shard[static_cast<size_t>(
        assignment.shard_of_query[static_cast<size_t>(g * kSkewGroupSize)])];
  }
  const int hot_shard = static_cast<int>(
      std::max_element(groups_of_shard.begin(), groups_of_shard.end()) -
      groups_of_shard.begin());
  const int hot_groups = groups_of_shard[static_cast<size_t>(hot_shard)];
  AQSIOS_CHECK_GT(hot_groups, 0);
  AQSIOS_CHECK_LT(hot_groups, num_groups);

  const size_t n = static_cast<size_t>(num_groups);
  std::vector<bool> hot(n, false);
  int dominant = -1;
  for (int g = 0; g < num_groups; ++g) {
    if (assignment.shard_of_query[static_cast<size_t>(g * kSkewGroupSize)] ==
        hot_shard) {
      hot[static_cast<size_t>(g)] = true;
      if (dominant < 0) dominant = g;
    }
  }
  counts->assign(n, 0);
  (*counts)[static_cast<size_t>(dominant)] = kSkewArrivals / 2;
  const int64_t rest = kSkewArrivals - kSkewArrivals / 2;
  for (int g = 0; g < num_groups; ++g) {
    if (g == dominant) continue;
    (*counts)[static_cast<size_t>(g)] =
        std::max<int64_t>(rest / static_cast<int64_t>(num_groups - 1), 1);
  }
  costs->assign(n, 0.0);
  for (int g = 0; g < num_groups; ++g) {
    const double mass =
        hot[static_cast<size_t>(g)]
            ? kSkewHotBusyMass / static_cast<double>(hot_groups)
            : (1.0 - kSkewHotBusyMass) /
                  static_cast<double>(num_groups - hot_groups);
    (*costs)[static_cast<size_t>(g)] =
        mass / (static_cast<double>((*counts)[static_cast<size_t>(g)]) /
                static_cast<double>(kSkewArrivals));
  }
}

query::Workload BuildSkew(uint64_t seed, BuildTimes* times) {
  const int num_groups = kSkewQueries / kSkewGroupSize;
  Clock::time_point start = Clock::now();
  const query::GlobalPlan shape =
      BuildSkewPlan(std::vector<double>(static_cast<size_t>(num_groups), 1.0));
  times->query_s += Since(start);
  std::vector<int64_t> counts;
  std::vector<double> costs;
  SkewShape(shape, num_groups, &counts, &costs);

  // ~1000 arrivals per virtual second across all streams.
  const double horizon = static_cast<double>(kSkewArrivals) / 1000.0;
  start = Clock::now();
  Rng rng(seed);
  std::vector<std::vector<stream::Arrival>> per_stream;
  per_stream.reserve(counts.size());
  for (size_t s = 0; s < counts.size(); ++s) {
    const double rate = static_cast<double>(counts[s]) / horizon;
    stream::PoissonArrivalProcess process(rate, rng.Fork());
    per_stream.push_back(stream::GenerateArrivals(
        process, static_cast<stream::StreamId>(s), counts[s], rng.Fork()));
  }
  query::Workload workload;
  workload.arrivals = stream::MergeArrivalTables(std::move(per_stream));
  times->stream_s += Since(start);

  // Calibrate total expected work to kSkewLoad x the arrival span.
  start = Clock::now();
  const double span = workload.arrivals.Horizon();
  AQSIOS_CHECK_GT(span, 0.0);
  const query::GlobalPlan probe = BuildSkewPlan(costs);
  double work = 0.0;
  for (int g = 0; g < num_groups; ++g) {
    work += static_cast<double>(counts[static_cast<size_t>(g)]) *
            probe.ExpectedWorkPerArrival(static_cast<stream::StreamId>(g));
  }
  AQSIOS_CHECK_GT(work, 0.0);
  for (double& cost : costs) cost *= kSkewLoad * span / work;
  workload.plan = BuildSkewPlan(costs);
  workload.expected_utilization = kSkewLoad;
  times->query_s += Since(start);
  return workload;
}

query::Workload BuildTrains(uint64_t seed, BuildTimes* times) {
  Clock::time_point start = Clock::now();
  query::Workload workload;
  workload.selectivity_mode = query::SelectivityMode::kCorrelatedAttribute;
  workload.plan = BuildTrainPlan();
  workload.expected_utilization = kTrainLoad;
  times->query_s += Since(start);

  start = Clock::now();
  const double interval = workload.plan.ExpectedWorkPerArrival(0) / kTrainLoad;
  stream::DeterministicArrivalProcess process(interval);
  std::vector<std::vector<stream::Arrival>> per_stream;
  per_stream.push_back(
      stream::GenerateArrivals(process, 0, kTrainArrivals, seed));
  workload.arrivals = stream::MergeArrivalTables(std::move(per_stream));
  times->stream_s += Since(start);
  return workload;
}

/// The §8 testbed with a fixed query population and a fixed MMPP
/// arrival-time trace (both drawn from kTestbedSeed, as the committed
/// sim/bsd/q=500 and drift/calibrated/bsd cells draw them), replayed through
/// stream::TraceArrivalProcess with tuple values drawn from `seed`. The
/// paper likewise replays one fixed trace. Varying the trace or the
/// population with the seed moved avg/p99 slowdown by 20-50% between seeds
/// at utilization 0.9 (and p50 flips between cost-class modes), which no
/// regression bound of this benchmark could absorb.
query::Workload BuildTestbed(const WorkloadSpec& spec, uint64_t seed,
                             double utilization, BuildTimes* times) {
  query::WorkloadConfig config;
  config.num_queries = spec.queries;
  config.num_arrivals = spec.arrivals;
  config.seed = kTestbedSeed;
  config.utilization = utilization;
  Clock::time_point start = Clock::now();
  query::Workload workload = query::GenerateWorkload(config);
  times->query_s += Since(start);

  start = Clock::now();
  std::vector<SimTime> timestamps;
  timestamps.reserve(workload.arrivals.arrivals.size());
  for (const stream::Arrival& a : workload.arrivals.arrivals) {
    timestamps.push_back(a.time);
  }
  const int64_t count = static_cast<int64_t>(timestamps.size());
  stream::TraceArrivalProcess trace(std::move(timestamps));
  std::vector<std::vector<stream::Arrival>> per_stream;
  per_stream.push_back(stream::GenerateArrivals(trace, 0, count, seed,
                                                config.num_join_keys));
  workload.arrivals = stream::MergeArrivalTables(std::move(per_stream));
  times->stream_s += Since(start);
  return workload;
}

}  // namespace

std::string WorkloadSpec::Identity() const {
  std::ostringstream os;
  os << name << "/q=" << queries << "/arrivals=" << arrivals
     << "/policy=" << sched::PolicyKindName(policy.kind);
  if (options.batch_size != 1) os << "/batch=" << options.batch_size;
  if (sub_seeds > 1) os << "/inputs=" << sub_seeds;
  if (sharded) {
    os << "/shards=" << options.shards << "/threads=" << options.shard_threads;
  } else {
    os << "/threads=1";
  }
  return os.str();
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "paper_q500", "overload_trains", "skew_elastic", "drift_calibrated"};
  return names;
}

bool MakeSpec(const std::string& name, uint64_t seed, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  s.seed = seed;
  s.options.qos.track_per_class = false;
  if (name == "paper_q500") {
    s.queries = kPaperQueries;
    s.arrivals = kPaperArrivals;
    s.policy = sched::PolicyConfig::Of(sched::PolicyKind::kBsd);
    s.has_reference = true;
    s.reference_policy = sched::PolicyConfig::Of(sched::PolicyKind::kHnr);
    s.fanout_per_arrival = kPaperQueries;
    s.sub_seeds = 3;
    s.setup_reps = 35;
    s.timing_epochs = 32;
  } else if (name == "overload_trains") {
    s.queries = kTrainQueries;
    s.arrivals = kTrainArrivals;
    s.policy = sched::PolicyConfig::Of(sched::PolicyKind::kLsf);
    s.options.charge_scheduling_overhead = true;
    s.options.batch_size = 32;
    s.options.use_columnar_kernels = true;
    s.options.shed.enabled = true;
    s.options.shed.queue_cap = kTrainQueueCap;
    s.options.shed.shed_fraction = 1.0;
    s.fanout_per_arrival = kTrainQueries;
    s.setup_reps = 101;
  } else if (name == "skew_elastic") {
    s.queries = kSkewQueries;
    s.arrivals = kSkewArrivals;
    s.sharded = true;
    s.policy = sched::PolicyConfig::Of(sched::PolicyKind::kBsd);
    s.policy.use_kinetic_index = false;
    s.options.shards = kSkewShards;
    s.options.shard_threads = kSkewThreads;
    s.options.rebalance.enabled = true;
    s.options.rebalance.max_migrations_per_epoch = 8;
    s.has_reference = true;
    s.reference_policy = sched::PolicyConfig::Of(sched::PolicyKind::kHnr);
    s.reference_options = s.options;
    s.sub_seeds = 16;
    s.setup_reps = 3;
  } else if (name == "drift_calibrated") {
    s.queries = kDriftQueries;
    s.arrivals = kDriftArrivals;
    s.policy = sched::PolicyConfig::Of(sched::PolicyKind::kBsd);
    s.options.drift.enabled = true;
    s.options.drift.modulo = 2;
    s.options.drift.phase = 0;
    s.options.drift.cost_factor = 5.0;
    s.options.drift.selectivity_factor = 0.7;
    s.options.calibration.enabled = true;
    s.fanout_per_arrival = kDriftQueries;
    s.sub_seeds = 3;
    s.setup_reps = 35;
    s.timing_epochs = 8;
    s.has_reference = true;
    s.reference_policy = sched::PolicyConfig::Of(sched::PolicyKind::kHnr);
  } else {
    return false;
  }
  if (s.has_reference && !s.sharded) {
    s.reference_options = s.options;
    s.reference_options.calibration = sched::CalibrationConfig{};
  }
  *spec = std::move(s);
  return true;
}

uint64_t WorkloadSpec::SubSeed(int index) const {
  return index == 0 ? seed : MixKeys(seed, static_cast<uint64_t>(index));
}

query::Workload BuildInputs(WorkloadSpec* spec, int sub, BuildTimes* times) {
  AQSIOS_CHECK_GE(sub, 0);
  AQSIOS_CHECK_LT(sub, spec->sub_seeds);
  const uint64_t seed = spec->SubSeed(sub);
  if (spec->name == "paper_q500") return BuildTestbed(*spec, seed, 0.9, times);
  if (spec->name == "overload_trains") return BuildTrains(seed, times);
  if (spec->name == "skew_elastic") return BuildSkew(seed, times);
  AQSIOS_CHECK(spec->name == "drift_calibrated") << spec->name;
  query::Workload workload = BuildTestbed(*spec, seed, 0.3, times);
  const double span = workload.arrivals.arrivals.back().time;
  for (core::SimulationOptions* options :
       {&spec->options, &spec->reference_options}) {
    options->drift.step_time = 0.3 * span;
    options->drift.ramp_seconds = 0.1 * span;
  }
  // ~200 epochs over the run.
  spec->options.calibration.period = span / 200.0;
  return workload;
}

}  // namespace aqsios::perfbench
