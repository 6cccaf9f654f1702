// A plain per-tuple reference interpreter of the engine's scheduling loop.
//
// It takes only the engine's inputs — the unit table exec::BuildUnits
// derives from the plan, and a policy from sched::CreateScheduler — and
// re-implements execution in its most direct form: deliver due arrivals to
// the leaf queues, ask the policy for a unit, pop one head entry, notify
// OnDequeue, and run the unit's operators on that one tuple (charge the
// clock, take the frozen filter draw, emit at the root). There are no
// trains, no fused or columnar kernels, and no priority structures of its
// own. tests/exec_batching_test.cc holds the engine at batch_size 1 — where
// every dispatch is a train of one — to it exactly.
//
// Covered: single-stream chains at query and operator level, §7 sharing
// groups with PDT remainders, §9.2 overhead charging, and statistics drift.
// Window joins are out of scope (their executor has its own tests).

#ifndef AQSIOS_TESTS_REFERENCE_INTERPRETER_H_
#define AQSIOS_TESTS_REFERENCE_INTERPRETER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "exec/unit_builder.h"
#include "metrics/qos.h"
#include "query/plan.h"
#include "sched/policy.h"
#include "sched/scheduler.h"
#include "stream/drift.h"
#include "stream/tuple.h"

namespace aqsios::reference {

/// Frozen-draw salts of the engine's filter and shared-operator outcomes.
/// They are part of the determinism contract (committed reports pin the
/// outcomes), so the reference spells them out rather than sharing code.
inline constexpr uint64_t kFilterSalt = 0xf117e500;
inline constexpr uint64_t kSharedOpSalt = 0x54a6ed00;

struct Options {
  exec::SchedulingLevel level = exec::SchedulingLevel::kQueryLevel;
  sched::SharingStrategy sharing_strategy = sched::SharingStrategy::kPdt;
  sched::SharingObjective sharing_objective = sched::SharingObjective::kHnr;
  /// Clock charge per priority computation/comparison; 0 = not charged.
  SimTime overhead_op_cost = 0.0;
  stream::DriftConfig drift;
};

struct Run {
  /// Every emission, in emission order.
  std::vector<metrics::OutputRecord> outputs;
  int64_t scheduling_points = 0;
  int64_t unit_executions = 0;
  int64_t operator_invocations = 0;
  int64_t tuples_emitted = 0;
  int64_t tuples_filtered = 0;
  int64_t overhead_operations = 0;
  int64_t peak_queued_tuples = 0;
  SimTime busy_time = 0.0;
  SimTime overhead_time = 0.0;
  SimTime end_time = 0.0;
};

class Interpreter {
 public:
  Interpreter(const query::GlobalPlan& plan,
              const stream::ArrivalTable& arrivals,
              const sched::PolicyConfig& policy, const Options& options)
      : plan_(plan),
        arrivals_(arrivals),
        options_(options),
        scheduler_(sched::CreateScheduler(policy)) {
    exec::UnitBuilderOptions build;
    build.level = options.level;
    build.sharing_strategy = options.sharing_strategy;
    build.sharing_objective = options.sharing_objective;
    built_ = exec::BuildUnits(plan, build);
    scheduler_->Attach(&built_.units);
  }

  Run Execute() {
    Deliver();
    std::vector<int> picked;
    sched::SchedulingCost cost;
    while (true) {
      picked.clear();
      cost.Clear();
      if (!scheduler_->PickNext(now_, &cost, &picked)) {
        if (next_arrival_ >= arrivals_.size()) break;
        now_ = std::max(
            now_, arrivals_.arrivals[static_cast<size_t>(next_arrival_)].time);
        Deliver();
        continue;
      }
      ++run_.scheduling_points;
      run_.overhead_operations += cost.total();
      if (options_.overhead_op_cost > 0.0 && cost.total() > 0) {
        const SimTime overhead =
            static_cast<double>(cost.total()) * options_.overhead_op_cost;
        now_ += overhead;
        run_.overhead_time += overhead;
      }
      for (const int unit : picked) ExecuteHead(unit);
      Deliver();
    }
    run_.end_time = now_;
    return run_;
  }

 private:
  // Enqueues every arrival due by now_ on each leaf unit of its stream, in
  // unit-id order.
  void Deliver() {
    while (next_arrival_ < arrivals_.size()) {
      const stream::Arrival& arrival =
          arrivals_.arrivals[static_cast<size_t>(next_arrival_)];
      if (arrival.time > now_) break;
      for (const sched::Unit& unit : built_.units) {
        if (unit.input_stream == arrival.stream) {
          Enqueue(unit.id, next_arrival_, arrival.time);
        }
      }
      ++next_arrival_;
    }
  }

  void Enqueue(int unit, int64_t arrival_index, SimTime arrival_time) {
    built_.units[static_cast<size_t>(unit)].queue.push_back(
        sched::QueueEntry{arrival_index, arrival_time});
    ++queued_;
    run_.peak_queued_tuples = std::max(run_.peak_queued_tuples, queued_);
    scheduler_->OnEnqueue(unit);
  }

  void ExecuteHead(int unit_id) {
    sched::Unit& unit = built_.units[static_cast<size_t>(unit_id)];
    AQSIOS_CHECK(unit.has_pending());
    const sched::QueueEntry entry = unit.queue.front();
    unit.queue.pop_front();
    --queued_;
    scheduler_->OnDequeue(unit_id);
    ++run_.unit_executions;
    charge_scale_ =
        options_.drift.CostFactorAt(unit.query, entry.arrival_time);
    sel_scale_ =
        options_.drift.SelectivityFactorAt(unit.query, entry.arrival_time);

    const stream::Arrival& arrival =
        arrivals_.arrivals[static_cast<size_t>(entry.arrival)];
    const query::CompiledQuery& q = plan_.query(unit.query);
    switch (unit.kind) {
      case sched::UnitKind::kQueryChain:
        RunThenEmit(q, arrival, entry, /*from=*/0);
        return;
      case sched::UnitKind::kRemainder:
        RunThenEmit(q, arrival, entry, unit.op_index);
        return;
      case sched::UnitKind::kOperator: {
        const int x = unit.op_index;
        if (!RunOp(q, arrival, x)) return;
        if (x + 1 == q.chain_length()) {
          Emit(q, entry.arrival_time);
        } else {
          Enqueue(built_.op_units[static_cast<size_t>(q.id())]
                                 [static_cast<size_t>(x + 1)],
                  entry.arrival, entry.arrival_time);
        }
        return;
      }
      case sched::UnitKind::kSharedGroup: {
        const exec::GroupRuntime& runtime =
            built_.groups[static_cast<size_t>(unit.group)];
        const query::OperatorSpec& shared = q.spec().left_ops.front();
        Charge(shared.cost());
        const query::SharingGroup& group =
            plan_.sharing_groups()[static_cast<size_t>(unit.group)];
        if (!Draw(shared.EffectiveActualSelectivity(), q, arrival,
                  MixKeys(kSharedOpSalt, static_cast<uint64_t>(arrival.id),
                          static_cast<uint64_t>(group.id)))) {
          ++run_.tuples_filtered;
          return;
        }
        for (const query::QueryId member : runtime.executed) {
          RunThenEmit(plan_.query(member), arrival, entry, /*from=*/1);
        }
        for (const int remainder : runtime.remainder_units) {
          Enqueue(remainder, entry.arrival, entry.arrival_time);
        }
        return;
      }
      default:
        AQSIOS_CHECK(false) << "window joins are outside the reference";
    }
  }

  // Runs chain operators [from, end) on one tuple; emits a survivor.
  void RunThenEmit(const query::CompiledQuery& q,
                   const stream::Arrival& arrival,
                   const sched::QueueEntry& entry, int from) {
    for (int x = from; x < q.chain_length(); ++x) {
      if (!RunOp(q, arrival, x)) return;
    }
    Emit(q, entry.arrival_time);
  }

  // Charges chain operator x and takes its filter draw; counts a drop.
  bool RunOp(const query::CompiledQuery& q, const stream::Arrival& arrival,
             int x) {
    const query::OperatorSpec& op = q.spec().left_ops[static_cast<size_t>(x)];
    Charge(op.cost());
    if (Draw(op.EffectiveActualSelectivity() * sel_scale_, q, arrival,
             MixKeys(kFilterSalt, static_cast<uint64_t>(arrival.id),
                     static_cast<uint64_t>(q.id()),
                     static_cast<uint64_t>(x)))) {
      return true;
    }
    ++run_.tuples_filtered;
    return false;
  }

  // The paper's testbed predicate (attribute <= s·100) in correlated mode,
  // a frozen Bernoulli(s) draw on `key` otherwise.
  static bool Draw(double selectivity, const query::CompiledQuery& q,
                   const stream::Arrival& arrival, uint64_t key) {
    if (selectivity >= 1.0) return true;
    if (q.selectivity_mode() ==
        query::SelectivityMode::kCorrelatedAttribute) {
      return arrival.attribute <= selectivity * 100.0;
    }
    return FrozenBernoulli(key, selectivity);
  }

  void Charge(SimTime cost) {
    const SimTime scaled = cost * charge_scale_;
    now_ += scaled;
    run_.busy_time += scaled;
    ++run_.operator_invocations;
  }

  void Emit(const query::CompiledQuery& q, SimTime arrival_time) {
    const SimTime response = now_ - arrival_time;
    ++run_.tuples_emitted;
    run_.outputs.push_back(
        {q.id(), arrival_time, response,
         response / (q.ideal_time() * charge_scale_)});
  }

  const query::GlobalPlan& plan_;
  const stream::ArrivalTable& arrivals_;
  Options options_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  exec::BuiltUnits built_;
  SimTime now_ = 0.0;
  int64_t next_arrival_ = 0;
  int64_t queued_ = 0;
  double charge_scale_ = 1.0;
  double sel_scale_ = 1.0;
  Run run_;
};

}  // namespace aqsios::reference

#endif  // AQSIOS_TESTS_REFERENCE_INTERPRETER_H_
