#include "exec/engine.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace aqsios::exec {
namespace {

// Salts for frozen (order-independent) randomness; keep filter, shared-op,
// and join-pair draws in disjoint key spaces.
constexpr uint64_t kFilterSalt = 0xf117e500;
constexpr uint64_t kSharedOpSalt = 0x54a6ed00;
constexpr uint64_t kJoinPairSalt = 0x301d9a00;

// Operator ordinal offsets distinguishing the segments of a multi-stream
// plan: side segment of join input j starts at j·kSideOrdinalStride; the
// common segment at kCommonOrdinalBase.
constexpr int kSideOrdinalStride = 1000;
constexpr int kCommonOrdinalBase = 1000000;

}  // namespace

void RunCounters::Merge(const RunCounters& other) {
  // Queued-tuple-seconds must be recovered before end_time mutates.
  const double self_queued_seconds = avg_queued_tuples * end_time;
  const double other_queued_seconds = other.avg_queued_tuples * other.end_time;

  scheduling_points += other.scheduling_points;
  unit_executions += other.unit_executions;
  operator_invocations += other.operator_invocations;
  tuples_emitted += other.tuples_emitted;
  tuples_filtered += other.tuples_filtered;
  composites_generated += other.composites_generated;
  overhead_operations += other.overhead_operations;
  adaptation_ticks += other.adaptation_ticks;
  decision_candidates += other.decision_candidates;
  priority_computations += other.priority_computations;
  train_dispatches += other.train_dispatches;
  train_tuples += other.train_tuples;
  max_train_tuples = std::max(max_train_tuples, other.max_train_tuples);
  tuples_offered += other.tuples_offered;
  tuples_shed += other.tuples_shed;
  calibration_epochs += other.calibration_epochs;
  calibration_updates += other.calibration_updates;
  calibration_rekeys += other.calibration_rekeys;
  // Drift gauges are per-engine means; the merged report keeps the worst
  // shard (a max, like end_time) rather than inventing a cross-shard mean
  // with no common denominator.
  calibration_cost_drift =
      std::max(calibration_cost_drift, other.calibration_cost_drift);
  calibration_selectivity_drift = std::max(calibration_selectivity_drift,
                                           other.calibration_selectivity_drift);
  busy_time += other.busy_time;
  overhead_time += other.overhead_time;
  end_time = std::max(end_time, other.end_time);
  peak_queued_tuples += other.peak_queued_tuples;
  avg_queued_tuples =
      end_time > 0.0 ? (self_queued_seconds + other_queued_seconds) / end_time
                     : 0.0;
  queue_length_hist.Merge(other.queue_length_hist);
  exec_busy_hist.Merge(other.exec_busy_hist);
  queue_length = queue_length_hist.Summarize();
  exec_busy = exec_busy_hist.Summarize();
  attribution.Merge(other.attribution);
}

std::string RunCounters::ToString() const {
  std::ostringstream os;
  os << "points=" << scheduling_points << " executions=" << unit_executions
     << " ops=" << operator_invocations << " emitted=" << tuples_emitted
     << " filtered=" << tuples_filtered
     << " composites=" << composites_generated
     << " busy=" << busy_time << "s overhead=" << overhead_time
     << "s end=" << end_time << "s util=" << MeasuredUtilization()
     << " peak_queue=" << peak_queued_tuples
     << " avg_queue=" << avg_queued_tuples
     << " candidates=" << decision_candidates;
  if (max_train_tuples > 1) {
    os << " trains=" << train_dispatches
       << " train_tuples=" << train_tuples
       << " max_train=" << max_train_tuples;
  }
  if (tuples_offered > 0) {
    os << " offered=" << tuples_offered << " shed=" << tuples_shed
       << " shed_ratio=" << ShedRatio();
  }
  return os.str();
}

Engine::Engine(const query::GlobalPlan* plan,
               const stream::ArrivalTable* arrivals,
               const EngineConfig& config, sched::Scheduler* scheduler,
               metrics::QosCollector* collector)
    : plan_(plan),
      arrivals_(arrivals),
      config_(config),
      scheduler_(scheduler),
      collector_(collector),
      tracer_(config.tracer),
      telemetry_(config.telemetry) {
  attribution_.sample_every = config.attribution_sample_every;
  AQSIOS_CHECK(plan != nullptr);
  AQSIOS_CHECK(arrivals != nullptr);
  AQSIOS_CHECK(scheduler != nullptr);
  AQSIOS_CHECK_GE(config.batch_size, 0);
  global_query_id_.resize(static_cast<size_t>(plan->num_queries()));
  for (size_t q = 0; q < global_query_id_.size(); ++q) {
    global_query_id_[q] = static_cast<int32_t>(q);
  }

  UnitBuilderOptions builder_options;
  builder_options.level = config.level;
  builder_options.sharing_strategy = config.sharing_strategy;
  builder_options.sharing_objective = config.sharing_objective;
  built_ = BuildUnits(*plan, builder_options);

  leaf_units_of_stream_.resize(static_cast<size_t>(plan->num_streams()));
  for (const sched::Unit& unit : built_.units) {
    if (unit.input_stream >= 0) {
      AQSIOS_CHECK_LT(unit.input_stream, plan->num_streams());
      leaf_units_of_stream_[static_cast<size_t>(unit.input_stream)].push_back(
          unit.id);
    }
  }

  join_state_.resize(static_cast<size_t>(plan->num_queries()));
  for (const query::CompiledQuery& q : plan->queries()) {
    if (!q.is_multi_stream()) continue;
    auto& states = join_state_[static_cast<size_t>(q.id())];
    for (int stage = 0; stage < q.num_join_stages(); ++stage) {
      const query::OperatorSpec& join = q.StageJoin(stage);
      if (join.is_row_window()) {
        states.push_back(std::make_unique<SymmetricHashJoinState>(
            SymmetricHashJoinState::RowWindow(join.window_rows)));
        continue;
      }
      // Stage 0 sees monotone timestamps on both sides; later stages are
      // fed composites whose timestamps are not monotone, so they run
      // without the ordered-mode eviction optimizations.
      states.push_back(std::make_unique<SymmetricHashJoinState>(
          join.window_seconds, /*ordered=*/stage == 0));
    }
  }

  size_t max_join_stages = 0;
  for (const auto& states : join_state_) {
    max_join_stages = std::max(max_join_stages, states.size());
  }
  // One probe buffer per possible recursion depth, sized up front so the
  // buffers never move while a shallower probe is iterating its own.
  probe_scratch_.resize(max_join_stages + 1);

  scheduler_->Attach(&built_.units);

  shedding_ = config.shed.enabled;
  if (shedding_) {
    AQSIOS_CHECK_GE(config.shed.queue_cap, 0);
    AQSIOS_CHECK_GE(config.shed.shed_fraction, 0.0);
    AQSIOS_CHECK_LE(config.shed.shed_fraction, 1.0);
    // The sheddable set: the bottom shed_fraction of the leaf units ranked
    // ascending by the policy's marginal-slowdown slope (ties by id). Fixed
    // for the whole run, so shed outcomes are a pure function of the arrival
    // sequence — never of scheduling order or wall-clock.
    std::vector<int> leaves;
    for (const sched::Unit& unit : built_.units) {
      if (unit.input_stream >= 0) leaves.push_back(unit.id);
    }
    std::sort(leaves.begin(), leaves.end(), [this](int a, int b) {
      const double pa =
          scheduler_->ShedPriority(built_.units[static_cast<size_t>(a)]);
      const double pb =
          scheduler_->ShedPriority(built_.units[static_cast<size_t>(b)]);
      if (pa != pb) return pa < pb;
      return a < b;
    });
    sheddable_.assign(built_.units.size(), 0);
    const size_t num_sheddable = static_cast<size_t>(
        config.shed.shed_fraction * static_cast<double>(leaves.size()));
    for (size_t i = 0; i < num_sheddable && i < leaves.size(); ++i) {
      sheddable_[static_cast<size_t>(leaves[i])] = 1;
    }
  }

  if (config.adaptation.enabled) {
    AQSIOS_CHECK(config.level == SchedulingLevel::kQueryLevel)
        << "statistics adaptation requires query-level scheduling (root "
           "emissions per execution estimate the segment selectivity)";
    stats_monitor_ = std::make_unique<StatsMonitor>(
        config.adaptation, &built_.units, scheduler_);
  }

  if (config.calibration.enabled) {
    AQSIOS_CHECK(config.level == SchedulingLevel::kQueryLevel)
        << "online calibration requires query-level scheduling (root "
           "emissions per dispatch estimate the segment selectivity)";
    AQSIOS_CHECK(!config.adaptation.enabled)
        << "calibration and windowed adaptation both rewrite UnitStats; "
           "enable one";
    calibrator_ = std::make_unique<sched::CostCalibrator>(
        config.calibration, &built_.units, scheduler_);
  }

  drifting_ = config.drift.enabled;
  if (drifting_) {
    AQSIOS_CHECK_EQ(config.batch_size, 1)
        << "statistics drift requires batch_size 1 (a longer train charges "
           "one bulk cost for entries with different arrival times)";
    AQSIOS_CHECK(plan->sharing_groups().empty())
        << "statistics drift is per query; a shared operator execution "
           "spans queries with different drift factors";
    for (const query::CompiledQuery& q : plan->queries()) {
      AQSIOS_CHECK(!q.is_multi_stream())
          << "statistics drift supports single-stream queries only (a "
             "composite has no single arrival time to key the factor on)";
    }
  }

  // Columnar kernel plans: per-operator constants and fusion runs, pinned
  // once here because the compiled plan is immutable for the whole run (the
  // stats monitor adapts UnitStats, never OperatorSpec). Traced runs keep
  // the scalar pass — it emits one kOperatorInvocation event per charge in
  // clock order, which the batched replay cannot reproduce lazily.
  columnar_ = config.use_columnar_kernels && config.batch_size != 1 &&
              tracer_ == nullptr;
  if (columnar_) {
    unit_kernels_.resize(built_.units.size());
    for (const sched::Unit& unit : built_.units) {
      if (unit.kind != sched::UnitKind::kQueryChain &&
          unit.kind != sched::UnitKind::kRemainder) {
        continue;
      }
      const ChainFusion& fusion =
          built_.chain_fusion[static_cast<size_t>(unit.id)];
      // A stateful operator inside the segment leaves a gap no kernel
      // covers; such units (none in validated plans) stay scalar.
      if (!fusion.contiguous) continue;
      const query::CompiledQuery& q = plan_->query(unit.query);
      UnitKernelPlan& kplan = unit_kernels_[static_cast<size_t>(unit.id)];
      kplan.enabled = true;
      kplan.correlated = q.selectivity_mode() ==
                         query::SelectivityMode::kCorrelatedAttribute;
      kplan.from =
          unit.kind == sched::UnitKind::kRemainder ? unit.op_index : 0;
      kplan.n_ops = static_cast<int>(q.spec().left_ops.size());
      for (int x = kplan.from; x < kplan.n_ops; ++x) {
        const query::OperatorSpec& op =
            q.spec().left_ops[static_cast<size_t>(x)];
        KernelOp kop;
        kop.cost = op.cost();
        kop.selectivity = op.EffectiveActualSelectivity();
        kop.threshold = kop.selectivity >= 1.0
                            ? std::numeric_limits<double>::infinity()
                            : kop.selectivity * 100.0;
        kop.ordinal = x;
        kplan.ops.push_back(kop);
      }
      kplan.runs = fusion.runs;
      // Prefix-min thresholds per fused run (see KernelOp::run_prefix_min).
      for (const FusedKernel& run : kplan.runs) {
        double prefix_min = std::numeric_limits<double>::infinity();
        for (int i = 0; i < run.num_ops; ++i) {
          KernelOp& kop = kplan.ops[static_cast<size_t>(
              run.first_op - kplan.from + i)];
          prefix_min = std::min(prefix_min, kop.threshold);
          kop.run_prefix_min = prefix_min;
        }
      }
    }
  }
}

void Engine::Charge(SimTime cost) {
  // charge_scale_ is exactly 1.0 outside a drift run, and x * 1.0 is
  // bit-exact (IEEE 754), so undrifted runs are unperturbed.
  const SimTime scaled = cost * charge_scale_;
  if (tracer_ != nullptr) {
    tracer_->Record({obs::EventKind::kOperatorInvocation, now_, scaled,
                     cur_unit_, cur_query_});
  }
  now_ += scaled;
  counters_.busy_time += scaled;
  ++counters_.operator_invocations;
  if (stats_monitor_ != nullptr) stats_monitor_->AddBusyTime(scaled);
}

void Engine::ChargeBulk(SimTime cost, int64_t invocations) {
  if (invocations <= 0) return;
  const SimTime scaled = cost * charge_scale_;
  if (tracer_ != nullptr) {
    // Traced batched runs keep one event per invocation (the count contract
    // with RunCounters), timestamped at the pre-charge clock — train charges
    // are per-operator, so per-tuple intermediate clocks no longer exist.
    for (int64_t i = 0; i < invocations; ++i) {
      tracer_->Record({obs::EventKind::kOperatorInvocation, now_, scaled,
                       cur_unit_, cur_query_});
    }
  }
  const SimTime total = scaled * static_cast<double>(invocations);
  now_ += total;
  counters_.busy_time += total;
  counters_.operator_invocations += invocations;
  if (stats_monitor_ != nullptr) stats_monitor_->AddBusyTime(total);
}

void Engine::DropTuple(query::QueryId q, int64_t arrival) {
  ++counters_.tuples_filtered;
  if (tracer_ != nullptr) {
    tracer_->Record({obs::EventKind::kFilterDrop, now_, 0.0, cur_unit_,
                     static_cast<int32_t>(q), arrival});
  }
}

void Engine::AttributeEmission(int64_t arrival, SimTime arrival_time,
                               SimTime dependency_delay) {
  if (attribution_.sample_every <= 0 ||
      arrival % attribution_.sample_every != 0) {
    return;
  }
  // The decomposition (see obs/attribution.h): the emitting execution began
  // at exec_start_, right after its scheduling point charged
  // exec_point_overhead_; everything before that point is queue wait.
  const SimTime response = now_ - arrival_time;
  const SimTime processing = now_ - exec_start_;
  const SimTime overhead = exec_point_overhead_;
  const SimTime wait = response - processing - overhead;
  attribution_.AddSample(response, wait, overhead, processing);
  if (dependency_delay >= 0.0) {
    attribution_.dependency_delay.Add(dependency_delay);
  }
}

bool Engine::Passes(const query::OperatorSpec& op,
                    const stream::Arrival& arrival,
                    const query::CompiledQuery& q, int op_ordinal) const {
  // Execution uses the operator's *actual* selectivity; the priorities were
  // computed from the assumed one (they differ under statistics drift).
  // sel_scale_ is exactly 1.0 outside a drift run (bit-inert multiply); in
  // one it scales both realizations deterministically — the correlated
  // threshold moves, and the frozen-Bernoulli draw compares the same frozen
  // uniform against the scaled probability.
  const double selectivity = op.EffectiveActualSelectivity() * sel_scale_;
  if (selectivity >= 1.0) return true;
  if (q.selectivity_mode() == query::SelectivityMode::kCorrelatedAttribute) {
    // The paper's testbed realizes selectivity s as a predicate
    // "attribute <= s·100" over the synthetic uniform (0,100] attribute.
    return arrival.attribute <= selectivity * 100.0;
  }
  const uint64_t key = MixKeys(
      kFilterSalt, static_cast<uint64_t>(arrival.id),
      static_cast<uint64_t>(global_query_id_[static_cast<size_t>(q.id())]),
      static_cast<uint64_t>(op_ordinal));
  return FrozenBernoulli(key, selectivity);
}

bool Engine::SharedOpPasses(const query::OperatorSpec& op,
                            const stream::Arrival& arrival, int group) const {
  const double selectivity = op.EffectiveActualSelectivity();
  if (selectivity >= 1.0) return true;
  const query::SharingGroup& sharing =
      plan_->sharing_groups()[static_cast<size_t>(group)];
  const query::SelectivityMode mode =
      plan_->query(sharing.members.front()).selectivity_mode();
  if (mode == query::SelectivityMode::kCorrelatedAttribute) {
    return arrival.attribute <= selectivity * 100.0;
  }
  // Keyed on the group's stable id (not the local table index) so the draw
  // is identical when the group runs inside a shard's sub-plan.
  const uint64_t key = MixKeys(kSharedOpSalt,
                               static_cast<uint64_t>(arrival.id),
                               static_cast<uint64_t>(sharing.id));
  return FrozenBernoulli(key, selectivity);
}

bool Engine::RunChainOps(const query::CompiledQuery& q,
                         const stream::Arrival& arrival, int from) {
  const std::vector<query::OperatorSpec>& ops = q.spec().left_ops;
  for (int x = from; x < static_cast<int>(ops.size()); ++x) {
    const query::OperatorSpec& op = ops[static_cast<size_t>(x)];
    Charge(op.cost());
    if (!Passes(op, arrival, q, x)) {
      DropTuple(q.id(), arrival.id);
      return false;
    }
  }
  return true;
}

void Engine::EmitSingle(const query::CompiledQuery& q,
                        stream::ArrivalId arrival, SimTime arrival_time) {
  const SimTime response = now_ - arrival_time;
  // Under cost drift the tuple's true ideal time scales with its charges
  // (charge_scale_ is this dispatch's factor, a pure function of the tuple's
  // query and arrival time), so the reported slowdown stays honest stretch —
  // measuring against the stale static ideal would reward policies for
  // ignoring the drift. Exactly 1.0 (bit-inert) outside a drift run.
  const double slowdown = response / (q.ideal_time() * charge_scale_);
  ++counters_.tuples_emitted;
  if (stats_monitor_ != nullptr) stats_monitor_->AddEmission();
  if (telemetry_ != nullptr) {
    telemetry_slowdown_sum_ += slowdown;
    ++telemetry_slowdown_count_;
    telemetry_max_slowdown_ = std::max(telemetry_max_slowdown_, slowdown);
  }
  if (tracer_ != nullptr) {
    tracer_->Record({obs::EventKind::kEmit, now_, 0.0, cur_unit_,
                     static_cast<int32_t>(q.id()), arrival, slowdown});
  }
  AttributeEmission(arrival, arrival_time, /*dependency_delay=*/-1.0);
  if (collector_ != nullptr) {
    collector_->RecordOutput(q.id(), q.spec().cost_class,
                             q.spec().class_selectivity, arrival_time,
                             response, slowdown);
  }
}

void Engine::ExecuteChainTuple(const sched::Unit& unit,
                               const sched::QueueEntry& entry) {
  const query::CompiledQuery& q = plan_->query(unit.query);
  const stream::Arrival& arrival =
      arrivals_->arrivals[static_cast<size_t>(entry.arrival)];
  const int from =
      unit.kind == sched::UnitKind::kRemainder ? unit.op_index : 0;
  if (RunChainOps(q, arrival, from)) {
    EmitSingle(q, arrival.id, entry.arrival_time);
  }
}

void Engine::ExecuteSharedGroup(const sched::Unit& unit,
                                const sched::QueueEntry& entry) {
  const GroupRuntime& runtime =
      built_.groups[static_cast<size_t>(unit.group)];
  const query::CompiledQuery& first = plan_->query(unit.query);
  const query::OperatorSpec& shared = first.spec().left_ops.front();
  const stream::Arrival& arrival =
      arrivals_->arrivals[static_cast<size_t>(entry.arrival)];

  // The shared operator runs once for the whole group.
  Charge(shared.cost());
  if (!SharedOpPasses(shared, arrival, unit.group)) {
    DropTuple(unit.query, arrival.id);
    return;
  }
  // Members bundled with the shared operator execute now, in priority order.
  for (query::QueryId member : runtime.executed) {
    const query::CompiledQuery& q = plan_->query(member);
    if (RunChainOps(q, arrival, /*from=*/1)) {
      EmitSingle(q, arrival.id, entry.arrival_time);
    }
  }
  // PDT-excluded remainders become separately scheduled work.
  for (int remainder_unit : runtime.remainder_units) {
    Enqueue(remainder_unit, entry.arrival, entry.arrival_time);
  }
}

void Engine::ExecuteOperator(const sched::Unit& unit,
                             const sched::QueueEntry& entry) {
  const query::CompiledQuery& q = plan_->query(unit.query);
  const stream::Arrival& arrival =
      arrivals_->arrivals[static_cast<size_t>(entry.arrival)];
  const query::OperatorSpec& op =
      q.spec().left_ops[static_cast<size_t>(unit.op_index)];
  Charge(op.cost());
  if (!Passes(op, arrival, q, unit.op_index)) {
    DropTuple(q.id(), arrival.id);
    return;
  }
  if (unit.op_index + 1 == q.chain_length()) {
    EmitSingle(q, arrival.id, entry.arrival_time);
    return;
  }
  const int next_unit =
      built_.op_units[static_cast<size_t>(q.id())]
                     [static_cast<size_t>(unit.op_index + 1)];
  Enqueue(next_unit, entry.arrival, entry.arrival_time);
}

bool Engine::PassesComposite(const query::OperatorSpec& op, uint64_t identity,
                             query::QueryId q, int op_ordinal) const {
  const double selectivity = op.EffectiveActualSelectivity();
  if (selectivity >= 1.0) return true;
  // Frozen per composite identity: deterministic and independent of the
  // order in which policies generate the composite.
  const uint64_t key = MixKeys(
      kFilterSalt, identity,
      static_cast<uint64_t>(global_query_id_[static_cast<size_t>(q)]),
      static_cast<uint64_t>(op_ordinal));
  return FrozenBernoulli(key, selectivity);
}

void Engine::EmitComposite(const query::CompiledQuery& q,
                           const SymmetricHashJoinState::Entry& composite) {
  // Slowdown excludes the dependency delay (§5.1.2):
  //   H = 1 + (D_actual − D_ideal) / T,
  // with D_ideal the departure of the composite in an idle system, reached
  // via the latest-arriving (trigger) constituent's path.
  const SimTime ideal_departure =
      composite.arrival_time +
      q.IdealCompositePathCost(composite.trigger_input);
  const SimTime response = now_ - composite.arrival_time;
  const double slowdown = 1.0 + (now_ - ideal_departure) / q.ideal_time();
  ++counters_.tuples_emitted;
  if (stats_monitor_ != nullptr) stats_monitor_->AddEmission();
  if (telemetry_ != nullptr) {
    telemetry_slowdown_sum_ += slowdown;
    ++telemetry_slowdown_count_;
    telemetry_max_slowdown_ = std::max(telemetry_max_slowdown_, slowdown);
  }
  if (tracer_ != nullptr) {
    tracer_->Record({obs::EventKind::kEmit, now_, 0.0, cur_unit_,
                     static_cast<int32_t>(q.id()),
                     static_cast<int64_t>(composite.id), slowdown});
  }
  AttributeEmission(
      composite.id, composite.arrival_time,
      composite.arrival_time - composite.first_arrival_time);
  if (collector_ != nullptr) {
    collector_->RecordOutput(q.id(), q.spec().cost_class,
                             q.spec().class_selectivity,
                             composite.arrival_time, response, slowdown);
  }
}

void Engine::PropagateComposite(
    const query::CompiledQuery& q, int stage,
    const SymmetricHashJoinState::Entry& composite, int32_t join_key) {
  if (stage == q.num_join_stages()) {
    // Past the last join: the common segment runs once per composite.
    const std::vector<query::OperatorSpec>& common = q.spec().common_ops;
    for (int x = 0; x < static_cast<int>(common.size()); ++x) {
      const query::OperatorSpec& op = common[static_cast<size_t>(x)];
      Charge(op.cost());
      if (!PassesComposite(op, composite.identity, q.id(),
                           kCommonOrdinalBase + x)) {
        DropTuple(q.id(), composite.id);
        return;
      }
    }
    EmitComposite(q, composite);
    return;
  }
  // Enter stage `stage` on its accumulated (left) side.
  Charge(q.StageJoin(stage).cost());
  JoinState(q.id(), stage).Insert(query::Side::kLeft, join_key, composite);
  ProbeAndPropagate(q, stage, query::Side::kLeft, composite, join_key);
}

void Engine::ProbeAndPropagate(const query::CompiledQuery& q, int stage,
                               query::Side side,
                               const SymmetricHashJoinState::Entry& entry,
                               int32_t join_key) {
  const query::OperatorSpec& join = q.StageJoin(stage);
  // Each recursion depth owns one pooled candidates buffer: this level
  // iterates its buffer while PropagateComposite fills deeper ones.
  AQSIOS_DCHECK_LT(static_cast<size_t>(probe_depth_), probe_scratch_.size());
  std::vector<SymmetricHashJoinState::Entry>& candidates =
      probe_scratch_[static_cast<size_t>(probe_depth_)];
  candidates.clear();
  JoinState(q.id(), stage).Probe(side, join_key, entry.timestamp,
                                 &candidates);
  if (tracer_ != nullptr) {
    tracer_->Record({obs::EventKind::kJoinProbe, now_, 0.0, cur_unit_,
                     static_cast<int32_t>(q.id()),
                     static_cast<int64_t>(candidates.size())});
  }
  ++probe_depth_;
  for (const SymmetricHashJoinState::Entry& partner : candidates) {
    // Per-pair match draw, symmetric in the pair identities so the outcome
    // does not depend on processing order (and hence not on the policy).
    const uint64_t pair_hash =
        Mix64(entry.identity) ^ Mix64(partner.identity);
    const uint64_t key = MixKeys(
        kJoinPairSalt,
        static_cast<uint64_t>(global_query_id_[static_cast<size_t>(q.id())]),
        static_cast<uint64_t>(stage), pair_hash);
    if (!FrozenBernoulli(key, join.EffectiveActualSelectivity())) continue;
    ++counters_.composites_generated;

    SymmetricHashJoinState::Entry composite;
    composite.id = entry.id;
    composite.identity = MixKeys(kJoinPairSalt + 1, pair_hash);
    // Definition 5 (recursively): composite timestamps/arrivals are the max
    // over constituents; the trigger is the latest-arriving constituent.
    composite.timestamp = std::max(entry.timestamp, partner.timestamp);
    composite.arrival_time =
        std::max(entry.arrival_time, partner.arrival_time);
    composite.first_arrival_time =
        std::min(entry.first_arrival_time, partner.first_arrival_time);
    if (entry.arrival_time > partner.arrival_time) {
      composite.trigger_input = entry.trigger_input;
    } else if (partner.arrival_time > entry.arrival_time) {
      composite.trigger_input = partner.trigger_input;
    } else {
      composite.trigger_input =
          std::min(entry.trigger_input, partner.trigger_input);
    }
    PropagateComposite(q, stage + 1, composite, join_key);
  }
  --probe_depth_;
}

void Engine::ExecuteJoinInput(const sched::Unit& unit,
                              const sched::QueueEntry& entry, int input) {
  const query::CompiledQuery& q = plan_->query(unit.query);
  const stream::Arrival& arrival =
      arrivals_->arrivals[static_cast<size_t>(entry.arrival)];
  const std::vector<query::OperatorSpec>& side_ops = [&]()
      -> const std::vector<query::OperatorSpec>& {
    if (input == 0) return q.spec().left_ops;
    if (input == 1) return q.spec().right_ops;
    return q.spec().extra_stages[static_cast<size_t>(input - 2)].side_ops;
  }();
  const int ordinal_base = input * kSideOrdinalStride;

  // Pre-join segment.
  for (int x = 0; x < static_cast<int>(side_ops.size()); ++x) {
    const query::OperatorSpec& op = side_ops[static_cast<size_t>(x)];
    Charge(op.cost());
    if (!Passes(op, arrival, q, ordinal_base + x)) {
      DropTuple(q.id(), arrival.id);
      return;
    }
  }

  // Join entry: hash, insert, probe (one C_J charge per input tuple; a
  // composite's other C_J charges accrued when its constituents and
  // intermediates were processed — matching the generalized Definition 6).
  const int stage = input <= 1 ? 0 : input - 1;
  const query::Side side =
      input == 0 ? query::Side::kLeft : query::Side::kRight;
  Charge(q.StageJoin(stage).cost());
  SymmetricHashJoinState::Entry self;
  self.id = arrival.id;
  self.timestamp = arrival.time;
  self.arrival_time = entry.arrival_time;
  self.first_arrival_time = entry.arrival_time;
  self.identity = static_cast<uint64_t>(arrival.id);
  self.trigger_input = input;
  JoinState(q.id(), stage).Insert(side, arrival.join_key, self);
  ProbeAndPropagate(q, stage, side, self, arrival.join_key);
}

void Engine::AccrueQueueOccupancy() {
  queued_tuple_seconds_ +=
      static_cast<double>(queued_tuples_) * (now_ - last_occupancy_time_);
  last_occupancy_time_ = now_;
}

void Engine::Enqueue(int unit_id, stream::ArrivalId arrival,
                     SimTime arrival_time) {
  sched::Unit& unit = built_.units[static_cast<size_t>(unit_id)];
  unit.queue.push_back(sched::QueueEntry{arrival, arrival_time});
  AccrueQueueOccupancy();
  ++queued_tuples_;
  counters_.peak_queued_tuples =
      std::max(counters_.peak_queued_tuples, queued_tuples_);
  if (tracer_ != nullptr) {
    tracer_->Record({obs::EventKind::kEnqueue, now_, 0.0, unit_id,
                     static_cast<int32_t>(unit.query),
                     arrivals_->arrivals[static_cast<size_t>(arrival)].id,
                     static_cast<double>(unit.queue.size())});
  }
  scheduler_->OnEnqueue(unit_id);
}

void Engine::DeliverArrivalsUpTo(SimTime time) {
  while (next_arrival_ < arrivals_->size()) {
    const stream::Arrival& arrival =
        arrivals_->arrivals[static_cast<size_t>(next_arrival_)];
    if (arrival.time > time) break;
    if (tracer_ != nullptr) {
      tracer_->Record({obs::EventKind::kTupleArrival, arrival.time, 0.0,
                       static_cast<int32_t>(arrival.stream), -1,
                       static_cast<int64_t>(arrival.id)});
    }
    bool delivered = false;
    for (int unit :
         leaf_units_of_stream_[static_cast<size_t>(arrival.stream)]) {
      // Elastic mode: each engine sees the shared global arrival table but
      // only feeds the leaf queues of the placement groups it currently
      // owns. Cheap single branch when elastic_ is off.
      if (elastic_ &&
          owned_groups_[static_cast<size_t>(group_of_unit_[static_cast<size_t>(
              unit)])] == 0) {
        continue;
      }
      if (shedding_) {
        ++counters_.tuples_offered;
        if (queued_tuples_ >= config_.shed.queue_cap &&
            sheddable_[static_cast<size_t>(unit)] != 0) {
          ++counters_.tuples_shed;
          if (tracer_ != nullptr) {
            tracer_->Record(
                {obs::EventKind::kShed, arrival.time, 0.0, unit,
                 static_cast<int32_t>(
                     built_.units[static_cast<size_t>(unit)].query),
                 static_cast<int64_t>(arrival.id),
                 static_cast<double>(queued_tuples_)});
          }
          continue;
        }
      }
      // Queue entries carry the table *index*; Arrival::id stays global so
      // frozen draws and trace ids are identical inside shard sub-tables.
      Enqueue(unit, next_arrival_, arrival.time);
      delivered = true;
    }
    if (elastic_ && delivered) ++elastic_arrivals_routed_;
    ++next_arrival_;
  }
}

void Engine::ExecuteChainTrain(const sched::Unit& unit, size_t count) {
  const query::CompiledQuery& q = plan_->query(unit.query);
  const std::vector<query::OperatorSpec>& ops = q.spec().left_ops;
  const int from =
      unit.kind == sched::UnitKind::kRemainder ? unit.op_index : 0;
  const int n_ops = static_cast<int>(ops.size());
  if (from >= n_ops) {
    for (size_t i = 0; i < count; ++i) {
      EmitSingle(
          q, arrivals_->arrivals[static_cast<size_t>(train_[i].arrival)].id,
          train_[i].arrival_time);
    }
    return;
  }
  train_sel_.clear();
  for (uint32_t i = 0; i < static_cast<uint32_t>(count); ++i) {
    train_sel_.push_back(i);
  }
  // The selectivity mode is a plan invariant: hoist it (and below, each
  // operator's effective selectivity and derived threshold) out of the
  // tuple loop. The predicate is a manually inlined Passes() and must stay
  // in lockstep with it — same comparisons, same MixKeys key.
  const bool correlated =
      q.selectivity_mode() == query::SelectivityMode::kCorrelatedAttribute;
  const uint64_t query_key = static_cast<uint64_t>(
      global_query_id_[static_cast<size_t>(q.id())]);
  // Operator-at-a-time over the surviving run: evaluate each chain operator
  // against every survivor before moving to the next operator, compacting
  // the selection vector in place. Non-root operators charge the clock in
  // bulk (ChargeBulk — one per-operator advance for the whole train); the
  // last operator charges and emits per survivor so each tuple departs with
  // its own virtual timestamp (monotone within the train).
  for (int x = from; x < n_ops && !train_sel_.empty(); ++x) {
    const query::OperatorSpec& op = ops[static_cast<size_t>(x)];
    const SimTime cost = op.cost();
    const double selectivity = op.EffectiveActualSelectivity();
    const bool pass_all = selectivity >= 1.0;
    const double threshold = selectivity * 100.0;
    const uint64_t ordinal = static_cast<uint64_t>(x);
    const bool last = x + 1 == n_ops;
    if (!last) {
      ChargeBulk(cost, static_cast<int64_t>(train_sel_.size()));
    }
    size_t kept = 0;
    for (const uint32_t idx : train_sel_) {
      const sched::QueueEntry& entry = train_[idx];
      const stream::Arrival& arrival =
          arrivals_->arrivals[static_cast<size_t>(entry.arrival)];
      if (last) Charge(cost);
      const bool passes =
          pass_all ||
          (correlated
               ? arrival.attribute <= threshold
               : FrozenBernoulli(
                     MixKeys(kFilterSalt, static_cast<uint64_t>(arrival.id),
                             query_key, ordinal),
                     selectivity));
      if (!passes) {
        DropTuple(q.id(), arrival.id);
        continue;
      }
      if (last) {
        EmitSingle(q, arrival.id, entry.arrival_time);
      } else {
        train_sel_[kept++] = idx;
      }
    }
    train_sel_.resize(kept);
  }
}

void Engine::EnsureColumnCapacity(size_t n) {
  if (n <= col_capacity_) return;
  size_t capacity = col_capacity_ == 0 ? 256 : col_capacity_;
  while (capacity < n) capacity *= 2;
  // Growth re-carves the arena wholesale: the columns are per-train scratch
  // (nothing survives a dispatch), so dropping every chunk and allocating
  // the larger columns fresh keeps each one contiguous and aligned.
  column_arena_.Reset();
  col_attr_ = column_arena_.AllocateSpan<double>(capacity);
  col_id_ = column_arena_.AllocateSpan<stream::ArrivalId>(capacity);
  col_arrival_time_ = column_arena_.AllocateSpan<SimTime>(capacity);
  col_depth_ = column_arena_.AllocateSpan<uint32_t>(capacity);
  col_sel_ = column_arena_.AllocateSpan<uint32_t>(capacity);
  col_sel_next_ = column_arena_.AllocateSpan<uint32_t>(capacity);
  col_capacity_ = capacity;
}

void Engine::CountReachAttribute(const uint32_t* sel, size_t n,
                                 const KernelOp* ops, int k) {
  kernel_reach_.assign(static_cast<size_t>(k) + 1, 0);
  kernel_reach_[0] = static_cast<int64_t>(n);
  for (int x = 1; x <= k; ++x) {
    const double bound = ops[x - 1].run_prefix_min;
    // An unchanged prefix min means an identical comparison over identical
    // lanes: reuse the count. Random threshold sequences change their
    // running min only O(log k) times, so most entries take this path.
    if (x > 1 && bound == ops[x - 2].run_prefix_min) {
      kernel_reach_[static_cast<size_t>(x)] =
          kernel_reach_[static_cast<size_t>(x) - 1];
      continue;
    }
    int64_t count = 0;
    if (sel == nullptr) {
      for (size_t j = 0; j < n; ++j) {
        count += col_attr_[j] <= bound ? 1 : 0;
      }
    } else {
      for (size_t j = 0; j < n; ++j) {
        count += col_attr_[sel[j]] <= bound ? 1 : 0;
      }
    }
    kernel_reach_[static_cast<size_t>(x)] = count;
    // The prefix min only tightens, so once no lane survives a prefix the
    // remaining entries stay at the zero assign() left there.
    if (count == 0) break;
  }
}

void Engine::DepthKernelBernoulli(const uint32_t* sel, size_t n,
                                  const KernelOp* ops, int k,
                                  uint64_t query_key) {
  // FrozenUniform draws lie in [0, 1), so a selectivity >= 1 operator needs
  // no special case: the draw is spent but the scalar outcome (pass) is
  // reproduced, and the lane loop stays branch-free.
  if (k == 1) {
    // Specialized single-predicate filter kernel.
    const double selectivity = ops[0].selectivity;
    const uint64_t ordinal = static_cast<uint64_t>(ops[0].ordinal);
    for (size_t j = 0; j < n; ++j) {
      const uint64_t id = static_cast<uint64_t>(
          col_id_[sel == nullptr ? j : static_cast<size_t>(sel[j])]);
      const uint64_t key = MixKeys(kFilterSalt, id, query_key, ordinal);
      col_depth_[j] = FrozenUniform(key) < selectivity ? 1u : 0u;
    }
    return;
  }
  for (size_t j = 0; j < n; ++j) {
    const uint64_t id = static_cast<uint64_t>(
        col_id_[sel == nullptr ? j : static_cast<size_t>(sel[j])]);
    // MixKeys(a, b, c, d) == MixKeys(MixKeys(a, b, c), d): the
    // (salt, id, query) prefix is loop-invariant across the run's ops.
    const uint64_t prefix = MixKeys(kFilterSalt, id, query_key);
    uint32_t depth = 0;
    uint32_t alive = 1;
    for (int x = 0; x < k; ++x) {
      const uint64_t key =
          MixKeys(prefix, static_cast<uint64_t>(ops[x].ordinal));
      alive &= FrozenUniform(key) < ops[x].selectivity ? 1u : 0u;
      depth += alive;
    }
    col_depth_[j] = depth;
  }
}

void Engine::ExecuteChainTrainColumnar(const sched::Unit& unit,
                                       size_t count) {
  const query::CompiledQuery& q = plan_->query(unit.query);
  const UnitKernelPlan& kplan = unit_kernels_[static_cast<size_t>(unit.id)];
  if (kplan.from >= kplan.n_ops) {
    for (size_t i = 0; i < count; ++i) {
      EmitSingle(q, col_id_[i], col_arrival_time_[i]);
    }
    return;
  }
  const uint64_t query_key = static_cast<uint64_t>(
      global_query_id_[static_cast<size_t>(q.id())]);
  const bool track_stats = stats_monitor_ != nullptr;
  uint32_t* sel = col_sel_;
  uint32_t* sel_next = col_sel_next_;
  size_t n = count;
  // Lanes scan the columns in gathered order until the first compaction
  // writes a real selection vector.
  bool dense = true;
  for (const FusedKernel& run : kplan.runs) {
    if (n == 0) break;
    const KernelOp* run_ops =
        kplan.ops.data() + (run.first_op - kplan.from);
    const int k = run.num_ops;
    // The run holding the chain's root operator (in a tiled segment: the
    // last run) keeps the root out of the depth kernel — its charges
    // interleave with emissions, handled below.
    const bool rooted = run.first_op + k == kplan.n_ops;
    const int k_pred = rooted ? k - 1 : k;

    if (k_pred > 0) {
      const uint32_t* lanes = dense ? nullptr : sel;
      if (kplan.correlated) {
        // Per-operator survivor counts straight off the attribute column.
        CountReachAttribute(lanes, n, run_ops, k_pred);
      } else {
        DepthKernelBernoulli(lanes, n, run_ops, k_pred, query_key);
        // reach[x] = lanes whose depth reaches local op x (suffix counts of
        // the depth histogram); reach[0] == n, reach[k_pred] == survivors.
        kernel_reach_.assign(static_cast<size_t>(k_pred) + 1, 0);
        for (size_t j = 0; j < n; ++j) {
          ++kernel_reach_[col_depth_[j]];
        }
        for (int x = k_pred - 1; x >= 0; --x) {
          kernel_reach_[static_cast<size_t>(x)] +=
              kernel_reach_[static_cast<size_t>(x) + 1];
        }
      }

      // Clock replay: the scalar pass bulk-charges operator x once for all
      // tuples reaching it (ChargeBulk) — reach[x] is that same count, so
      // one identical multiply-and-add per operator replays the train's
      // entire clock advance.
      for (int x = 0; x < k_pred; ++x) {
        const int64_t reach = kernel_reach_[static_cast<size_t>(x)];
        if (reach <= 0) continue;
        const SimTime total =
            run_ops[x].cost * static_cast<double>(reach);
        now_ += total;
        counters_.busy_time += total;
        counters_.operator_invocations += reach;
        if (track_stats) stats_monitor_->AddBusyTime(total);
      }
      counters_.tuples_filtered +=
          static_cast<int64_t>(n) - kernel_reach_[static_cast<size_t>(k_pred)];

      // Branch-free survivor compaction into the next selection vector.
      // Correlated runs survive iff the attribute clears the whole run's
      // prefix-min bound (one comparison); Bernoulli runs survive iff the
      // lane's depth covers the run.
      size_t kept = 0;
      if (kplan.correlated) {
        const double bound = run_ops[k_pred - 1].run_prefix_min;
        if (dense) {
          for (size_t j = 0; j < n; ++j) {
            sel_next[kept] = static_cast<uint32_t>(j);
            kept += col_attr_[j] <= bound ? 1 : 0;
          }
        } else {
          for (size_t j = 0; j < n; ++j) {
            sel_next[kept] = sel[j];
            kept += col_attr_[sel[j]] <= bound ? 1 : 0;
          }
        }
      } else {
        const uint32_t full = static_cast<uint32_t>(k_pred);
        if (dense) {
          for (size_t j = 0; j < n; ++j) {
            sel_next[kept] = static_cast<uint32_t>(j);
            kept += col_depth_[j] == full ? 1 : 0;
          }
        } else {
          for (size_t j = 0; j < n; ++j) {
            sel_next[kept] = sel[j];
            kept += col_depth_[j] == full ? 1 : 0;
          }
        }
      }
      std::swap(sel, sel_next);
      n = kept;
      dense = false;
    }

    if (!rooted) continue;

    // Root operator: one charge then emit-or-drop per surviving lane, in
    // selection order — the scalar tail sweep replayed exactly, so every
    // emission sees the same virtual timestamp.
    const KernelOp& root = run_ops[k - 1];
    for (size_t j = 0; j < n; ++j) {
      const uint32_t row = dense ? static_cast<uint32_t>(j) : sel[j];
      now_ += root.cost;
      counters_.busy_time += root.cost;
      ++counters_.operator_invocations;
      if (track_stats) stats_monitor_->AddBusyTime(root.cost);
      const bool passes =
          kplan.correlated
              ? col_attr_[row] <= root.threshold
              : FrozenUniform(MixKeys(
                    kFilterSalt, static_cast<uint64_t>(col_id_[row]),
                    query_key, static_cast<uint64_t>(root.ordinal))) <
                    root.selectivity;
      if (passes) {
        EmitSingle(q, col_id_[row], col_arrival_time_[row]);
      } else {
        ++counters_.tuples_filtered;
      }
    }
    return;
  }
}

void Engine::ExecuteUnitTrain(int unit_id) {
  sched::Unit& unit = built_.units[static_cast<size_t>(unit_id)];
  AQSIOS_CHECK(unit.has_pending())
      << "scheduler picked empty unit " << unit_id;
  const size_t count =
      config_.batch_size <= 0
          ? unit.queue.size()
          : std::min(unit.queue.size(),
                     static_cast<size_t>(config_.batch_size));
  const bool columnar = count > 1 && columnar_ &&
                        unit_kernels_[static_cast<size_t>(unit_id)].enabled;
  if (columnar) {
    // Gather: one pass converting the drained AoS queue entries into the
    // SoA columns the kernels scan. The train_ scratch stays untouched —
    // everything the chain pass needs lives in the columns.
    EnsureColumnCapacity(count);
    for (size_t i = 0; i < count; ++i) {
      const sched::QueueEntry& entry = unit.queue.front();
      const stream::Arrival& arrival =
          arrivals_->arrivals[static_cast<size_t>(entry.arrival)];
      col_attr_[i] = arrival.attribute;
      col_id_[i] = arrival.id;
      col_arrival_time_[i] = entry.arrival_time;
      unit.queue.pop_front();
    }
  } else {
    train_.clear();
    for (size_t i = 0; i < count; ++i) {
      train_.push_back(unit.queue.front());
      unit.queue.pop_front();
    }
  }
  AccrueQueueOccupancy();
  queued_tuples_ -= static_cast<int64_t>(count);
  // One scheduler reconciliation for the whole train (the amortized re-key).
  // OnBatchDequeue(u, 1) is exactly OnDequeue(u) for every policy; a train
  // of one calls the primitive directly, saving the forwarding virtual call
  // on the per-tuple hot path (measurable on the paper_q500 benchmark).
  if (count == 1) {
    scheduler_->OnDequeue(unit_id);
  } else {
    scheduler_->OnBatchDequeue(unit_id, static_cast<int>(count));
  }
  counters_.unit_executions += static_cast<int64_t>(count);
  ++counters_.train_dispatches;
  counters_.train_tuples += static_cast<int64_t>(count);
  counters_.max_train_tuples = std::max(counters_.max_train_tuples,
                                        static_cast<int64_t>(count));
  if (stats_monitor_ != nullptr) {
    // Each train tuple is one execution of the unit for the selectivity /
    // cost estimators.
    for (size_t i = 0; i < count; ++i) {
      stats_monitor_->OnExecutionStart(unit_id);
    }
  }

  exec_start_ = now_;
  cur_unit_ = unit_id;
  cur_query_ = static_cast<int32_t>(unit.query);

  if (drifting_) {
    // Drift runs at batch_size 1, so the head entry is the whole train. The
    // factors are pure functions of (query, arrival time): every policy
    // charges the same scaled costs for this tuple no matter when it runs.
    const int query = global_query_id_[static_cast<size_t>(unit.query)];
    const SimTime arrival_time = train_.front().arrival_time;
    charge_scale_ = config_.drift.CostFactorAt(query, arrival_time);
    sel_scale_ = config_.drift.SelectivityFactorAt(query, arrival_time);
  }
  const SimTime dispatch_busy0 = counters_.busy_time;
  const int64_t dispatch_emit0 = counters_.tuples_emitted;

  switch (unit.kind) {
    case sched::UnitKind::kQueryChain:
    case sched::UnitKind::kRemainder:
      if (count == 1) {
        ExecuteChainTuple(unit, train_.front());
      } else if (columnar) {
        ExecuteChainTrainColumnar(unit, count);
      } else {
        ExecuteChainTrain(unit, count);
      }
      break;
    case sched::UnitKind::kOperator:
      for (size_t i = 0; i < count; ++i) ExecuteOperator(unit, train_[i]);
      break;
    case sched::UnitKind::kSharedGroup:
      for (size_t i = 0; i < count; ++i) ExecuteSharedGroup(unit, train_[i]);
      break;
    case sched::UnitKind::kJoinSideLeft:
      for (size_t i = 0; i < count; ++i) {
        ExecuteJoinInput(unit, train_[i], 0);
      }
      break;
    case sched::UnitKind::kJoinSideRight:
      for (size_t i = 0; i < count; ++i) {
        ExecuteJoinInput(unit, train_[i], 1);
      }
      break;
    case sched::UnitKind::kJoinInput:
      for (size_t i = 0; i < count; ++i) {
        ExecuteJoinInput(unit, train_[i], unit.op_index);
      }
      break;
  }

  if (calibrator_ != nullptr) {
    // The whole train is one estimator observation: `count` tuples, their
    // combined busy time, their root emissions.
    calibrator_->OnDispatch(unit_id, static_cast<int64_t>(count),
                            counters_.busy_time - dispatch_busy0,
                            counters_.tuples_emitted - dispatch_emit0);
  }
  // One busy sample / segment-run event per dispatch: the train is the unit
  // of dispatch, and its span is what queue-wait attribution sees.
  exec_busy_hist_.Add(now_ - exec_start_);
  if (tracer_ != nullptr) {
    tracer_->Record(
        {obs::EventKind::kSegmentRun, exec_start_, now_ - exec_start_,
         unit_id, static_cast<int32_t>(unit.query),
         arrivals_->arrivals[static_cast<size_t>(train_.front().arrival)]
             .id});
  }
  cur_unit_ = -1;
  cur_query_ = -1;
}

void Engine::PublishTelemetry(bool done) {
  obs::TelemetrySample s;
  s.virtual_sec = now_;
  s.busy_sec = counters_.busy_time;
  s.queued_tuples = queued_tuples_;
  // Enqueued-total = executed + still queued; no extra hot-path counter.
  s.tuples_executed = counters_.unit_executions;
  s.tuples_emitted = counters_.tuples_emitted;
  s.tuples_filtered = counters_.tuples_filtered;
  s.tuples_shed = counters_.tuples_shed;
  s.tuples_offered = counters_.tuples_offered;
  s.scheduling_points = counters_.scheduling_points;
  s.slowdown_sum = telemetry_slowdown_sum_;
  s.slowdown_count = telemetry_slowdown_count_;
  s.max_slowdown = telemetry_max_slowdown_;
  if (calibrator_ != nullptr) {
    s.calibration_updates = calibrator_->updates();
    s.calibration_rekeys = calibrator_->rekeys();
    s.calibration_cost_drift = calibrator_->MeanAbsCostDrift();
  }
  s.done = done;
  telemetry_->Publish(s);
}

RunCounters Engine::Run() {
  Begin();
  RunUntil(std::numeric_limits<SimTime>::infinity());
  return Finish();
}

void Engine::Begin() {
  AQSIOS_CHECK(!ran_) << "Engine::Run may be called once";
  ran_ = true;
  DeliverArrivalsUpTo(now_);
}

bool Engine::RunUntil(SimTime barrier) {
  // Catch up deliveries a previous (finite) barrier deferred: if the last
  // epoch's execution overshot its barrier, arrivals in (old barrier, now_]
  // were withheld so a migration at the barrier saw a frozen arrival cursor;
  // they must land before the next pick, exactly as the unbarriered loop
  // delivers up to now_ after every execution.
  DeliverArrivalsUpTo(std::min(now_, barrier));
  sched::SchedulingCost cost;
  while (now_ < barrier) {
    picked_.clear();
    cost.Clear();
    if (!scheduler_->PickNext(now_, &cost, &picked_)) {
      if (next_arrival_ >= arrivals_->size()) return true;  // drained
      const SimTime next_time =
          arrivals_->arrivals[static_cast<size_t>(next_arrival_)].time;
      // The next arrival is beyond the barrier: pause idle. The idle jump —
      // and its delivery and telemetry publish — happens unchanged in the
      // epoch whose barrier covers it, so the eventual state transitions are
      // those of the unbarriered loop.
      if (next_time > barrier) return false;
      now_ = std::max(now_, next_time);
      DeliverArrivalsUpTo(now_);
      // Idle jumps still publish: a sampler watching the cell must see the
      // clock advance even through arrival gaps, or the watchdog would
      // mistake a sparse workload for a stalled shard.
      if (telemetry_ != nullptr) PublishTelemetry(/*done=*/false);
      continue;
    }
    ++counters_.scheduling_points;
    if (telemetry_ != nullptr &&
        (static_cast<uint64_t>(counters_.scheduling_points) &
         kTelemetryMask) == 0) {
      PublishTelemetry(/*done=*/false);
    }
    counters_.overhead_operations += cost.total();
    counters_.decision_candidates += cost.candidates;
    counters_.priority_computations += cost.computations;
    queue_len_hist_.Add(static_cast<double>(queued_tuples_));
    if (tracer_ != nullptr) {
      tracer_->Record({obs::EventKind::kSchedDecision, now_, 0.0,
                       picked_.front(), -1, cost.candidates,
                       cost.chosen_priority});
    }
    exec_point_overhead_ = 0.0;
    if (config_.overhead_op_cost > 0.0 && cost.total() > 0) {
      const SimTime overhead =
          static_cast<double>(cost.total()) * config_.overhead_op_cost;
      now_ += overhead;
      counters_.overhead_time += overhead;
      exec_point_overhead_ = overhead;
    }
    const SimTime busy_before = counters_.busy_time;
    for (int unit : picked_) ExecuteUnitTrain(unit);
    if (elastic_) {
      group_busy_[static_cast<size_t>(group_of_unit_[static_cast<size_t>(
          picked_.front())])] += counters_.busy_time - busy_before;
    }
    if (stats_monitor_ != nullptr && stats_monitor_->MaybeAdapt(now_)) {
      ++counters_.adaptation_ticks;
      if (tracer_ != nullptr) {
        tracer_->Record({obs::EventKind::kAdaptationTick, now_, 0.0, -1, -1,
                         stats_monitor_->last_refreshed_units()});
      }
    }
    // Calibration epochs fire at deterministic virtual times, after the
    // dispatch like the adaptive monitor (the epoch sees completed work
    // only). Counters are copied out once in Finish.
    if (calibrator_ != nullptr) calibrator_->MaybeCalibrate(now_);
    // Execution may push the clock past the barrier; deliveries are clamped
    // so the arrival cursor is frozen at the barrier for migrations, and the
    // withheld tail lands at the next RunUntil's entry catch-up.
    DeliverArrivalsUpTo(std::min(now_, barrier));
  }
  return false;  // barrier reached
}

RunCounters Engine::Finish() {
  AccrueQueueOccupancy();
  if (calibrator_ != nullptr) {
    counters_.calibration_epochs = calibrator_->epochs();
    counters_.calibration_updates = calibrator_->updates();
    counters_.calibration_rekeys = calibrator_->rekeys();
    counters_.calibration_cost_drift = calibrator_->MeanAbsCostDrift();
    counters_.calibration_selectivity_drift =
        calibrator_->MeanAbsSelectivityDrift();
  }
  if (telemetry_ != nullptr) PublishTelemetry(/*done=*/true);
  counters_.end_time = now_;
  counters_.avg_queued_tuples =
      now_ > 0.0 ? queued_tuple_seconds_ / now_ : 0.0;
  counters_.queue_length = queue_len_hist_.Summarize();
  counters_.exec_busy = exec_busy_hist_.Summarize();
  // Full histograms travel with the counters so per-shard runs merge their
  // distributions exactly (RunCounters::Merge re-summarizes the union).
  counters_.queue_length_hist = std::move(queue_len_hist_);
  counters_.exec_busy_hist = std::move(exec_busy_hist_);
  counters_.attribution = attribution_;
  return counters_;
}

void Engine::SetGlobalQueryIds(std::vector<int32_t> global_ids) {
  AQSIOS_CHECK(!ran_) << "SetGlobalQueryIds must precede Begin";
  AQSIOS_CHECK_EQ(static_cast<int64_t>(global_ids.size()),
                  static_cast<int64_t>(plan_->num_queries()));
  global_query_id_ = std::move(global_ids);
}

// --- Elastic shard mode (core/rebalance.h, core/sharded_dsms.cc) ------------

void Engine::ConfigureElastic(const std::vector<int>& group_of_query,
                              int num_groups,
                              std::vector<uint8_t> owned_groups) {
  AQSIOS_CHECK(!ran_) << "ConfigureElastic must precede Begin";
  // Elastic runs disallow the features whose state can't migrate with a
  // group (adaptation rewrites shared stats; shedding/tracing key off
  // whole-engine populations the ownership filter would distort).
  AQSIOS_CHECK(config_.tracer == nullptr) << "elastic mode cannot be traced";
  AQSIOS_CHECK(!config_.adaptation.enabled)
      << "elastic mode is incompatible with adaptation";
  AQSIOS_CHECK(!config_.calibration.enabled)
      << "elastic mode is incompatible with calibration (estimator state "
         "cannot migrate with a group)";
  AQSIOS_CHECK(!config_.shed.enabled)
      << "elastic mode is incompatible with load shedding";
  AQSIOS_CHECK_EQ(static_cast<int64_t>(group_of_query.size()),
                  static_cast<int64_t>(plan_->num_queries()));
  AQSIOS_CHECK_EQ(static_cast<int64_t>(owned_groups.size()),
                  static_cast<int64_t>(num_groups));
  elastic_ = true;
  group_of_query_ = group_of_query;
  owned_groups_ = std::move(owned_groups);
  group_busy_.assign(static_cast<size_t>(num_groups), 0.0);
  group_of_unit_.resize(built_.units.size());
  for (const sched::Unit& unit : built_.units) {
    const int group = group_of_query_[static_cast<size_t>(unit.query)];
    AQSIOS_CHECK_GE(group, 0);
    AQSIOS_CHECK_LT(group, num_groups);
    group_of_unit_[static_cast<size_t>(unit.id)] = group;
  }
}

Engine::GroupState Engine::ExtractGroup(int group) {
  AQSIOS_CHECK(elastic_);
  AQSIOS_CHECK(owned_groups_[static_cast<size_t>(group)] != 0)
      << "extracting group " << group << " from a non-owner";
  GroupState state;
  // Entries leave this engine's population now: settle the occupancy
  // integral before the count changes.
  AccrueQueueOccupancy();
  for (sched::Unit& unit : built_.units) {
    if (group_of_unit_[static_cast<size_t>(unit.id)] != group) continue;
    if (unit.queue.empty()) continue;
    state.queued += static_cast<int64_t>(unit.queue.size());
    state.unit_queues.emplace_back(unit.id, std::move(unit.queue));
  }
  queued_tuples_ -= state.queued;
  for (size_t q = 0; q < join_state_.size(); ++q) {
    if (group_of_query_[q] != group || join_state_[q].empty()) continue;
    state.join_states.emplace_back(static_cast<int>(q),
                                   std::move(join_state_[q]));
    join_state_[q].clear();
  }
  owned_groups_[static_cast<size_t>(group)] = 0;
  scheduler_->ResyncQueues(now_);
  return state;
}

void Engine::InjectGroup(int group, GroupState state, SimTime barrier) {
  AQSIOS_CHECK(elastic_);
  AQSIOS_CHECK(owned_groups_[static_cast<size_t>(group)] == 0)
      << "injecting group " << group << " into an owner";
  AccrueQueueOccupancy();
  // A target below the barrier is paused idle (empty queues), so jumping it
  // to the barrier accrues zero occupancy; the jump guarantees injected
  // entries (arrival_time <= barrier by the delivery clamp) never see a
  // negative head wait.
  now_ = std::max(now_, barrier);
  last_occupancy_time_ = now_;
  for (auto& [unit_id, queue] : state.unit_queues) {
    sched::Unit& unit = built_.units[static_cast<size_t>(unit_id)];
    if (unit.queue.empty()) {
      unit.queue = std::move(queue);
    } else {
      // The target holds residual *stolen* entries of this group — a prefix
      // of the same FIFO, strictly older than everything migrating in:
      // append the remainder behind them.
      for (size_t i = 0; i < queue.size(); ++i) {
        unit.queue.push_back(queue.at(i));
      }
    }
  }
  queued_tuples_ += state.queued;
  counters_.peak_queued_tuples =
      std::max(counters_.peak_queued_tuples, queued_tuples_);
  for (auto& [q, states] : state.join_states) {
    join_state_[static_cast<size_t>(q)] = std::move(states);
  }
  owned_groups_[static_cast<size_t>(group)] = 1;
  scheduler_->ResyncQueues(now_);
}

bool Engine::ExtractStolenTrain(int64_t max_tuples, int* unit_out,
                                std::vector<sched::QueueEntry>* entries) {
  AQSIOS_CHECK(elastic_);
  AQSIOS_CHECK_GT(max_tuples, 0);
  // Stealable work is a prefix of a stateless chain's queue: kQueryChain and
  // kRemainder segments are pure (charge, filter, emit) so a thief can run
  // them against its own clock with no state handoff. Largest backlog wins,
  // ties to the lowest unit id.
  int best = -1;
  size_t best_size = 0;
  for (const sched::Unit& unit : built_.units) {
    if (unit.kind != sched::UnitKind::kQueryChain &&
        unit.kind != sched::UnitKind::kRemainder) {
      continue;
    }
    if (unit.queue.size() > best_size) {
      best_size = unit.queue.size();
      best = unit.id;
    }
  }
  if (best < 0) return false;
  sched::Unit& unit = built_.units[static_cast<size_t>(best)];
  const size_t take =
      std::min(unit.queue.size(), static_cast<size_t>(max_tuples));
  AccrueQueueOccupancy();
  entries->clear();
  entries->reserve(take);
  for (size_t i = 0; i < take; ++i) {
    entries->push_back(unit.queue.front());
    unit.queue.pop_front();
  }
  queued_tuples_ -= static_cast<int64_t>(take);
  scheduler_->ResyncQueues(now_);
  *unit_out = best;
  return true;
}

void Engine::InjectStolenTrain(int unit_id,
                               const std::vector<sched::QueueEntry>& entries,
                               SimTime barrier) {
  AQSIOS_CHECK(elastic_);
  AQSIOS_CHECK(!entries.empty());
  sched::Unit& unit = built_.units[static_cast<size_t>(unit_id)];
  AQSIOS_CHECK(unit.queue.empty()) << "thief must be idle";
  AccrueQueueOccupancy();
  now_ = std::max(now_, barrier);
  last_occupancy_time_ = now_;
  for (const sched::QueueEntry& entry : entries) unit.queue.push_back(entry);
  queued_tuples_ += static_cast<int64_t>(entries.size());
  counters_.peak_queued_tuples =
      std::max(counters_.peak_queued_tuples, queued_tuples_);
  scheduler_->ResyncQueues(now_);
}

}  // namespace aqsios::exec
