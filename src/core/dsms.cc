#include "core/dsms.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "core/sharded_dsms.h"

namespace aqsios::core {

sched::SharingObjective ObjectiveForPolicy(sched::PolicyKind kind) {
  switch (kind) {
    case sched::PolicyKind::kBsd:
    case sched::PolicyKind::kBsdClustered:
      return sched::SharingObjective::kBsd;
    default:
      return sched::SharingObjective::kHnr;
  }
}

exec::EngineConfig MakeEngineConfig(const SimulationOptions& options,
                                    const sched::PolicyConfig& policy,
                                    SimTime min_operator_cost) {
  exec::EngineConfig engine_config;
  engine_config.level = options.level;
  engine_config.sharing_strategy = options.sharing_strategy;
  engine_config.sharing_objective = ObjectiveForPolicy(policy.kind);
  engine_config.overhead_op_cost =
      options.charge_scheduling_overhead ? min_operator_cost : 0.0;
  engine_config.adaptation = options.adaptation;
  engine_config.calibration = options.calibration;
  engine_config.drift = options.drift;
  engine_config.tracer = options.tracer;
  engine_config.attribution_sample_every = options.attribution_sample_every;
  engine_config.batch_size = options.batch_size;
  engine_config.use_columnar_kernels = options.use_columnar_kernels;
  engine_config.shed = options.shed;
  return engine_config;
}

RunResult SimulatePlan(const query::GlobalPlan& plan,
                       const stream::ArrivalTable& arrivals,
                       const sched::PolicyConfig& policy,
                       const SimulationOptions& options) {
  if (options.shards > 1 || options.rebalance.enabled) {
    AQSIOS_CHECK(options.tracer == nullptr)
        << "a single tracer cannot serve concurrent shards; use "
           "SimulateShardedPlan with per-shard tracers (obs/shard_trace.h)";
    return SimulateShardedPlan(plan, arrivals, policy, options).result;
  }
  exec::EngineConfig engine_config =
      MakeEngineConfig(options, policy, plan.MinOperatorCost());
  if (options.telemetry != nullptr) {
    AQSIOS_CHECK_GE(options.telemetry->num_shards(), 1);
    engine_config.telemetry = options.telemetry->cell(0);
    options.telemetry->SetShardQueries(0, plan.num_queries());
  }

  std::unique_ptr<sched::Scheduler> scheduler = sched::CreateScheduler(policy);
  metrics::QosCollector collector(options.qos);
  exec::Engine engine(&plan, &arrivals, engine_config, scheduler.get(),
                      &collector);

  RunResult result;
  result.policy_name = scheduler->name();
  result.counters = engine.Run();
  result.qos = collector.Snapshot();
  // Shed tuples never reached the collector (slowdown stats are over
  // delivered tuples only); surface the loss on the snapshot explicitly.
  result.qos.shed_count = result.counters.tuples_shed;
  result.qos.shed_ratio = result.counters.ShedRatio();
  return result;
}

RunResult Simulate(const query::Workload& workload,
                   const sched::PolicyConfig& policy,
                   const SimulationOptions& options) {
  return SimulatePlan(workload.plan, workload.arrivals, policy, options);
}

Dsms::Dsms(query::SelectivityMode mode) : mode_(mode) {}

query::QueryId Dsms::AddQuery(query::QuerySpec spec) {
  spec.id = static_cast<query::QueryId>(specs_.size());
  // Validate eagerly so misconfigured specs fail at registration time.
  query::CompiledQuery compiled(spec, mode_);
  (void)compiled;
  specs_.push_back(std::move(spec));
  return specs_.back().id;
}

void Dsms::AddSharingGroup(std::vector<query::QueryId> members) {
  AQSIOS_CHECK_GE(members.size(), 2u);
  for (query::QueryId id : members) {
    AQSIOS_CHECK_GE(id, 0);
    AQSIOS_CHECK_LT(id, num_queries());
  }
  query::SharingGroup group;
  group.id = static_cast<int>(groups_.size());
  group.members = std::move(members);
  groups_.push_back(std::move(group));
}

void Dsms::SetArrivals(stream::ArrivalTable arrivals) {
  arrivals_ = std::move(arrivals);
}

RunResult Dsms::Run(const sched::PolicyConfig& policy,
                    const SimulationOptions& options) const {
  AQSIOS_CHECK(!specs_.empty()) << "no queries registered";
  AQSIOS_CHECK(!arrivals_.empty()) << "no arrivals set";

  stream::StreamId max_stream = 0;
  std::vector<query::CompiledQuery> compiled;
  compiled.reserve(specs_.size());
  for (const query::QuerySpec& spec : specs_) {
    compiled.emplace_back(spec, mode_);
    max_stream = std::max(max_stream, spec.left_stream);
    max_stream = std::max(max_stream, spec.right_stream);
  }
  for (const stream::Arrival& a : arrivals_.arrivals) {
    max_stream = std::max(max_stream, a.stream);
  }
  query::GlobalPlan plan(std::move(compiled), groups_, max_stream + 1);
  return SimulatePlan(plan, arrivals_, policy, options);
}

}  // namespace aqsios::core
