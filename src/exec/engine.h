// The discrete-event DSMS execution engine.
//
// The engine simulates a single-CPU stream processor on a virtual clock:
// arrivals from the arrival table are fanned out to the leaf queues of the
// schedulable units; at each scheduling point the attached Scheduler chooses
// a unit (or a cluster of units, §6.2.3) and the engine runs the pipelined
// operator segment on the head tuple, advancing the clock by the operator
// costs actually incurred. Tuples surviving to a query root are reported to
// the QosCollector with their response time and slowdown.
//
// Scheduling overhead can be charged to the virtual clock (Figures 13–14):
// each priority computation/comparison reported by the scheduler costs
// `overhead_op_cost` seconds (the paper uses the cheapest operator cost).

#ifndef AQSIOS_EXEC_ENGINE_H_
#define AQSIOS_EXEC_ENGINE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/sim_time.h"
#include "exec/stats_monitor.h"
#include "exec/unit_builder.h"
#include "exec/window_join.h"
#include "metrics/qos.h"
#include "obs/attribution.h"
#include "obs/histogram.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "query/plan.h"
#include "sched/calibration.h"
#include "sched/scheduler.h"
#include "stream/drift.h"
#include "stream/tuple.h"

namespace aqsios::exec {

/// QoS-aware load shedding at the sources (overload survival,
/// docs/overload.md). When the total queued-tuple population reaches
/// `queue_cap`, arrivals destined for the *sheddable* leaf units are dropped
/// at admission instead of enqueued. The sheddable set is the bottom
/// `shed_fraction` of the leaf units ranked by the attached policy's
/// marginal-slowdown line slope (Scheduler::ShedPriority, ties by unit id),
/// computed once before the run — so shedding is deterministic in virtual
/// time, policy-consistent (the policy loses the tuples it valued least),
/// and schedule-invariant across repeats. Disabled (the default) leaves the
/// engine bit-identical to one built before shedding existed.
struct ShedConfig {
  bool enabled = false;
  /// Total queued tuples at which sheddable sources start dropping.
  int64_t queue_cap = 1 << 16;
  /// Fraction of leaf units (lowest shed priority first) that may shed;
  /// 1.0 turns queue_cap into a hard cap on queued memory.
  double shed_fraction = 1.0;
};

struct EngineConfig {
  SchedulingLevel level = SchedulingLevel::kQueryLevel;
  sched::SharingStrategy sharing_strategy = sched::SharingStrategy::kPdt;
  sched::SharingObjective sharing_objective = sched::SharingObjective::kHnr;
  /// Simulated cost (seconds) of one scheduling computation/comparison;
  /// 0 disables overhead charging.
  SimTime overhead_op_cost = 0.0;

  /// Run-time statistics monitoring (query-level scheduling only).
  AdaptationConfig adaptation;

  /// Optional event tracer. Observation-only: attaching a tracer never
  /// changes the simulation (every site is a branch on this pointer — the
  /// null-sink fast path pinned by tests/obs_tracer_test.cc).
  obs::EventTracer* tracer = nullptr;

  /// Optional live-telemetry snapshot cell (obs/telemetry.h). The engine
  /// publishes its hot counters into the cell every 16th scheduling point
  /// (and at idle jumps and the end) so a TelemetrySampler thread can
  /// observe the run live. Same discipline as `tracer`: observation-only,
  /// one branch on a null pointer when disabled, never feeds the virtual
  /// clock (pinned by tests/obs_telemetry_test.cc).
  obs::SnapshotCell* telemetry = nullptr;

  /// Per-tuple stage-attribution sample period N: every N-th arrival id's
  /// emissions get their response time decomposed into queue wait /
  /// scheduling overhead / processing (see obs/attribution.h). 0 disables.
  int64_t attribution_sample_every = 0;

  /// Train length: one scheduling decision drains up to `batch_size` tuples
  /// from the picked unit and runs them through the segment as a train, so
  /// priority re-keys and the §9.2 overhead charge are amortized over the
  /// whole batch (Aurora's train scheduling, the regime Figure 14
  /// analyzes). Every dispatch is a train; 1 (the default) makes each a
  /// train of one — the paper's per-tuple scheduling, pinned against a
  /// plain per-tuple interpreter by tests/exec_batching_test.cc. 0 =
  /// unbounded (drain the whole queue).
  int batch_size = 1;

  /// Columnar (SoA) kernel execution of batched chain trains: the train's
  /// arrival attributes / ids / timestamps are gathered once into
  /// arena-backed column vectors, and each fused run of stateless chain
  /// operators (unit_builder's FuseChainOps) is evaluated as one
  /// branch-free pass over the columns with selection-vector survivor
  /// compaction (docs/performance.md). Observable results are bit-identical
  /// to the scalar selection-vector pass — clock, counters, QoS, frozen
  /// filter draws (pinned by tests/exec_kernel_test.cc) — so the flag only
  /// selects an execution strategy; off measures the scalar engine floor.
  /// Engages only on trains longer than one; traced runs always take the
  /// scalar pass (they need per-invocation events).
  bool use_columnar_kernels = true;

  /// Source-side load shedding (see ShedConfig above). Off by default.
  ShedConfig shed;

  /// Online cost/selectivity calibration (sched/calibration.h,
  /// docs/calibration.md). Query-level scheduling only; mutually exclusive
  /// with `adaptation` (both rewrite UnitStats). Off by default — and off is
  /// byte-identical: the engine then never constructs the calibrator and
  /// every hot-path site is one branch on a null pointer.
  sched::CalibrationConfig calibration;

  /// Mid-run statistics drift of a query subset (stream/drift.h) — the
  /// scenario calibration exists for. Requires batch_size 1 (a longer
  /// train mixes arrival times inside one clock charge), no sharing groups,
  /// and single-stream queries only (checked). Off by default; off is
  /// byte-identical (the scale factors are exactly 1.0 and never computed).
  stream::DriftConfig drift;
};

/// Queue lengths are small integers: first bucket edge at 1 tuple. A named
/// constant rather than a braced temporary in the member initializers below
/// (GCC 12 flags the temporary under -Wdangling-pointer once inlined).
inline constexpr obs::HistogramOptions kQueueLengthHistogram{.min_value = 1.0};

/// Execution counters of one run.
struct RunCounters {
  int64_t scheduling_points = 0;
  int64_t unit_executions = 0;
  int64_t operator_invocations = 0;
  int64_t tuples_emitted = 0;
  int64_t tuples_filtered = 0;
  int64_t composites_generated = 0;
  int64_t overhead_operations = 0;
  int64_t adaptation_ticks = 0;

  /// Decision shape: Σ candidates examined and Σ priority computations over
  /// all scheduling points (the per-policy `decisions` block in reports).
  int64_t decision_candidates = 0;
  int64_t priority_computations = 0;

  /// Train shape: dispatches, tuples they drained, and the largest single
  /// train. Every dispatch counts (at batch_size 1 each is a train of one);
  /// the report writer omits them unless some train drained more than one
  /// tuple, so batch_size 1 JSON stays byte-identical.
  int64_t train_dispatches = 0;
  int64_t train_tuples = 0;
  int64_t max_train_tuples = 0;

  /// Load shedding only (both stay zero — and the report writer omits the
  /// shed block — unless ShedConfig::enabled): leaf-queue admission
  /// opportunities offered to the engine, and how many of them were shed.
  /// Shed tuples never reach the QoS collector, so every slowdown statistic
  /// is over delivered tuples only; the shed ratio is reported alongside so
  /// the loss is first-class instead of silently vanishing.
  int64_t tuples_offered = 0;
  int64_t tuples_shed = 0;

  /// Online calibration only (all zero — and the report writer omits the
  /// calibration block — unless CalibrationConfig::enabled): epochs fired,
  /// units whose stats were rewritten (summed over epochs), and how many of
  /// those rewrites re-keyed a unit with pending work. The drift gauges are
  /// the final-epoch mean |estimate/static - 1| over all units.
  int64_t calibration_epochs = 0;
  int64_t calibration_updates = 0;
  int64_t calibration_rekeys = 0;
  double calibration_cost_drift = 0.0;
  double calibration_selectivity_drift = 0.0;

  SimTime busy_time = 0.0;      // operator processing time
  SimTime overhead_time = 0.0;  // charged scheduling overhead
  SimTime end_time = 0.0;       // virtual time when all work drained

  /// Run-time memory (queued tuples): peak and time-weighted average. The
  /// quantity Chain ([5], Table 3) minimizes.
  int64_t peak_queued_tuples = 0;
  double avg_queued_tuples = 0.0;

  /// Distribution of total queued tuples observed at each scheduling point.
  obs::HistogramSummary queue_length;
  /// Distribution of busy time per unit execution (seconds).
  obs::HistogramSummary exec_busy;

  /// Full histograms behind the two summaries above. Kept so per-shard
  /// counters merge exactly: quantiles are pure functions of the merged
  /// buckets, so Merge can rebuild the summaries from combined counts
  /// instead of approximating from pre-digested quantiles.
  obs::Histogram queue_length_hist{kQueueLengthHistogram};
  obs::Histogram exec_busy_hist;

  /// Sampled response-time decomposition (empty when sampling is disabled).
  obs::StageAttribution attribution;

  /// Folds another (disjoint) run's counters into this one, exactly: counts
  /// and times sum; end_time and max_train_tuples take the max (shards run
  /// concurrently on the virtual clock); peak_queued_tuples sums (concurrent
  /// shards each hold their peak's memory); avg_queued_tuples re-weights by
  /// each run's queued-tuple-seconds over the merged end_time; and the
  /// histogram summaries are rebuilt from the merged full histograms.
  void Merge(const RunCounters& other);

  /// busy_time / end_time: fraction of the run the CPU spent on operators.
  double MeasuredUtilization() const {
    return end_time > 0.0 ? busy_time / end_time : 0.0;
  }

  /// tuples_shed / tuples_offered; 0 when shedding was disabled.
  double ShedRatio() const {
    return tuples_offered > 0 ? static_cast<double>(tuples_shed) /
                                    static_cast<double>(tuples_offered)
                              : 0.0;
  }

  std::string ToString() const;
};

class Engine {
 public:
  /// All pointers must outlive the engine. `collector` may be null when only
  /// counters are of interest.
  Engine(const query::GlobalPlan* plan, const stream::ArrivalTable* arrivals,
         const EngineConfig& config, sched::Scheduler* scheduler,
         metrics::QosCollector* collector);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs the simulation until all arrivals are processed and every queue is
  /// drained. Call at most once. Exactly equivalent to Begin();
  /// RunUntil(+inf); Finish() — which is how the elastic sharded runner
  /// drives the engine in virtual-time epochs instead.
  RunCounters Run();

  /// Epoch-driven protocol (core/sharded_dsms.cc elastic runner). Begin
  /// once, RunUntil per epoch barrier, Finish once after every engine
  /// drained. With barrier = +inf the three calls replay Run() byte for
  /// byte.
  void Begin();
  /// Advances the simulation until the clock reaches `barrier` or the engine
  /// pauses idle (no ready work, next arrival beyond the barrier). Arrival
  /// delivery is clamped to min(now, barrier) so at every return the arrival
  /// cursor sits exactly at the first arrival after the barrier — the
  /// invariant group migration relies on. Returns true when fully drained
  /// (cursor exhausted, no pending work); a drained engine is merely paused
  /// and is revived by InjectGroup / InjectStolenTrain.
  bool RunUntil(SimTime barrier);
  /// Settles final accounting and returns the counters. Call once.
  RunCounters Finish();

  // --- Elastic shard mode (core/rebalance.h) ---
  /// Enters elastic mode before Begin: the engine holds the *full* plan and
  /// the global arrival table, but only delivers arrivals to the placement
  /// groups it owns (`owned_groups` bitmap over `num_groups` groups;
  /// `group_of_query` maps every query to its group). Incompatible with
  /// tracing, adaptation, and load shedding (checked).
  void ConfigureElastic(const std::vector<int>& group_of_query,
                        int num_groups, std::vector<uint8_t> owned_groups);

  /// Scheduler + queue state of one placement group in flight between
  /// engines.
  struct GroupState {
    /// (unit id, moved queue) for every non-empty member queue.
    std::vector<std::pair<int, sched::TupleQueue>> unit_queues;
    /// (query id, moved per-stage window-join state) for member queries.
    std::vector<std::pair<
        int, std::vector<std::unique_ptr<SymmetricHashJoinState>>>>
        join_states;
    int64_t queued = 0;
  };
  /// Quiesced handoff, called only at an epoch barrier: moves the group's
  /// queues and window-join state out, drops ownership, and resyncs the
  /// scheduler. The group's frozen randomness is keyed on global ids, so the
  /// target replays identical outcomes.
  GroupState ExtractGroup(int group);
  /// Target side of a migration: bumps the clock to the barrier (paused-idle
  /// targets sit below it), installs the state, takes ownership, resyncs.
  void InjectGroup(int group, GroupState state, SimTime barrier);

  /// Work stealing: pops up to `max_tuples` head entries of the fullest
  /// stateless (kQueryChain/kRemainder) queue for an idle thief. Ownership
  /// is unchanged — the thief only drains the handed-off train. Returns
  /// false when no stealable backlog exists.
  bool ExtractStolenTrain(int64_t max_tuples, int* unit_out,
                          std::vector<sched::QueueEntry>* entries);
  /// Thief side of a steal; the thief must be fully idle so the handed-off
  /// prefix stays FIFO-ordered in its (empty) queue.
  void InjectStolenTrain(int unit_id,
                         const std::vector<sched::QueueEntry>& entries,
                         SimTime barrier);

  /// Elastic-mode observers for the rebalance controller.
  SimTime virtual_now() const { return now_; }
  SimTime busy_time() const { return counters_.busy_time; }
  int64_t queued_tuples() const { return queued_tuples_; }
  /// Cumulative busy seconds attributed to each placement group (the
  /// executed unit's group, including stolen work executed here).
  const std::vector<double>& group_busy() const { return group_busy_; }
  /// Arrivals delivered to at least one owned leaf queue (the elastic
  /// counterpart of the router's per-shard routed count).
  int64_t elastic_arrivals_routed() const { return elastic_arrivals_routed_; }

  const sched::UnitTable& units() const { return built_.units; }

  /// Static shard mode (core/sharded_dsms.cc): the engine runs a sub-plan
  /// whose query ids are dense local ids; `global_ids[local]` is each
  /// query's id in the full plan. Frozen filter and join draws and drift
  /// membership key on the global id, so every tuple meets the same
  /// outcomes as in the unsharded run. Call before Begin; without it the
  /// plan's own ids are used.
  void SetGlobalQueryIds(std::vector<int32_t> global_ids);

 private:
  void DeliverArrivalsUpTo(SimTime time);
  /// `arrival` is the *index* into the engine's arrival table (queue entries
  /// carry indexes; Arrival::id stays global — see sched/unit.h).
  void Enqueue(int unit, stream::ArrivalId arrival, SimTime arrival_time);

  /// The engine's one dispatcher: drains min(batch_size, queue depth) head
  /// entries of the picked unit (the whole queue when batch_size is 0) and
  /// runs them as a train. The scheduler reconciliation, counters,
  /// calibrator tap, busy sample and segment-run event happen once per
  /// dispatch. Per-tuple semantics (timestamps, QoS, filter outcomes) are
  /// preserved; only the dispatch is amortized.
  void ExecuteUnitTrain(int unit_id);
  /// Runs a train of two or more through a chain segment (kQueryChain /
  /// kRemainder) with a selection-vector pass: operator-at-a-time over the
  /// surviving run, compacting survivors in place. Safe because filter
  /// outcomes are frozen per (arrival, query, ordinal) — evaluation order
  /// cannot change them. Trains of one take ExecuteChainTuple.
  void ExecuteChainTrain(const sched::Unit& unit, size_t count);

  /// Columnar counterpart of ExecuteChainTrain: runs the gathered column
  /// train through the unit's fused kernels (UnitKernelPlan below). The
  /// branch-free predicate kernels compute each lane's survived depth; the
  /// depths then drive an exact replay of the scalar pass's
  /// operator-at-a-time clock/counter sequence (floating-point accumulation
  /// is order-sensitive, so the replay repeats the very same additions —
  /// never a multiply) before survivors are compacted and the root operator
  /// emits in selection order.
  void ExecuteChainTrainColumnar(const sched::Unit& unit, size_t count);
  /// Grows the column scratch to hold `n` tuples (power-of-two growth;
  /// cache-line-aligned columns carved from column_arena_).
  void EnsureColumnCapacity(size_t n);

  /// Charges processing time to the clock.
  void Charge(SimTime cost);

  /// Charges `invocations` executions of one operator at `cost` each in a
  /// single bulk step (`now_ += cost * invocations`). Train semantics for
  /// non-root operators: nothing observes the clock between same-operator
  /// charges within a train, so the batched paths advance it once per
  /// operator instead of per tuple — this is what lets the columnar kernels
  /// replay a fused run in O(ops) instead of O(invocations). At
  /// invocations == 1 the arithmetic is bit-identical to Charge(cost)
  /// (cost * 1.0 is exact). The scalar and columnar train passes charge
  /// identically, so use_columnar_kernels stays bit-inert.
  void ChargeBulk(SimTime cost, int64_t invocations);

  /// Whether `op` (the op_ordinal-th operator of query q) passes `arrival`.
  /// Deterministic in (arrival, query, ordinal) so all policies see the same
  /// filter outcomes. Takes the compiled query the caller already holds to
  /// keep the per-operator hot path free of plan lookups.
  bool Passes(const query::OperatorSpec& op, const stream::Arrival& arrival,
              const query::CompiledQuery& q, int op_ordinal) const;

  /// Whether the shared leaf operator of `group` passes `arrival` (one
  /// outcome for the whole group).
  bool SharedOpPasses(const query::OperatorSpec& op,
                      const stream::Arrival& arrival, int group) const;

  /// Runs chain operators [from, end) of single-stream query q on `arrival`,
  /// charging costs; returns true if the tuple survives.
  bool RunChainOps(const query::CompiledQuery& q,
                   const stream::Arrival& arrival, int from);

  void EmitSingle(const query::CompiledQuery& q, stream::ArrivalId arrival,
                  SimTime arrival_time);

  /// Counts a filter drop (and traces it when a tracer is attached).
  void DropTuple(query::QueryId q, int64_t arrival);

  /// Records the decomposed response time of an emission when the arrival id
  /// falls in the attribution sample. `dependency_delay` < 0 means "not a
  /// composite" (no dependency component recorded).
  void AttributeEmission(int64_t arrival, SimTime arrival_time,
                         SimTime dependency_delay);

  /// A one-tuple chain train (kQueryChain / kRemainder): RunChainOps +
  /// EmitSingle from the unit's first operator — the selection-vector
  /// pass's own count-1 sequence, without its setup. The only chain path
  /// the drift factors reach (Passes reads sel_scale_; drift requires
  /// batch_size 1).
  void ExecuteChainTuple(const sched::Unit& unit,
                         const sched::QueueEntry& entry);
  void ExecuteSharedGroup(const sched::Unit& unit,
                          const sched::QueueEntry& entry);
  void ExecuteOperator(const sched::Unit& unit,
                       const sched::QueueEntry& entry);
  /// Runs join input `input` (0 = left stream, 1 = right stream of the base
  /// join, >= 2 = extra-stage streams) on the head tuple.
  void ExecuteJoinInput(const sched::Unit& unit,
                        const sched::QueueEntry& entry, int input);

  /// Whether composite `identity` passes the op (frozen, order-independent).
  bool PassesComposite(const query::OperatorSpec& op, uint64_t identity,
                       query::QueryId q, int op_ordinal) const;

  /// Joins `entry` (freshly inserted on `side` of `stage`) against the
  /// opposite table and pushes every match up the pipeline.
  void ProbeAndPropagate(const query::CompiledQuery& q, int stage,
                         query::Side side,
                         const SymmetricHashJoinState::Entry& entry,
                         int32_t join_key);

  /// Moves a composite produced by stage `stage - 1` into stage `stage`, or
  /// through the common segment to emission when past the last stage.
  void PropagateComposite(const query::CompiledQuery& q, int stage,
                          const SymmetricHashJoinState::Entry& composite,
                          int32_t join_key);

  void EmitComposite(const query::CompiledQuery& q,
                     const SymmetricHashJoinState::Entry& composite);

  SymmetricHashJoinState& JoinState(query::QueryId q, int stage) {
    return *join_state_[static_cast<size_t>(q)][static_cast<size_t>(stage)];
  }

  const query::GlobalPlan* plan_;
  const stream::ArrivalTable* arrivals_;
  EngineConfig config_;
  sched::Scheduler* scheduler_;
  metrics::QosCollector* collector_;

  BuiltUnits built_;
  /// Present when config_.adaptation.enabled.
  std::unique_ptr<StatsMonitor> stats_monitor_;
  /// Present when config_.calibration.enabled.
  std::unique_ptr<sched::CostCalibrator> calibrator_;
  /// Query id keying frozen draws and drift membership, per plan query id
  /// (identity unless SetGlobalQueryIds renumbered it).
  std::vector<int32_t> global_query_id_;
  /// Leaf unit ids per stream id.
  std::vector<std::vector<int>> leaf_units_of_stream_;
  /// Window-join state per query and stage (empty for single-stream
  /// queries). Stage 0 runs in ordered mode; composite-fed stages do not.
  std::vector<std::vector<std::unique_ptr<SymmetricHashJoinState>>>
      join_state_;

  /// Accrues the queued-tuples time integral up to the current clock.
  void AccrueQueueOccupancy();

  /// --- Elastic shard mode state (all inert when elastic_ is false) ---
  bool elastic_ = false;
  /// Placement group of each query / unit (ConfigureElastic).
  std::vector<int> group_of_query_;
  std::vector<int> group_of_unit_;
  /// Ownership bitmap over placement groups; gates arrival delivery.
  std::vector<uint8_t> owned_groups_;
  /// Cumulative busy seconds per placement group (EWMA input).
  std::vector<double> group_busy_;
  int64_t elastic_arrivals_routed_ = 0;

  SimTime now_ = 0.0;
  int64_t next_arrival_ = 0;
  int64_t queued_tuples_ = 0;
  SimTime last_occupancy_time_ = 0.0;
  double queued_tuple_seconds_ = 0.0;
  RunCounters counters_;
  bool ran_ = false;
  /// Scratch buffer reused across scheduling points.
  std::vector<int> picked_;
  /// Load shedding engaged (config_.shed.enabled); false keeps
  /// DeliverArrivalsUpTo bit-identical to the pre-shedding engine.
  bool shedding_ = false;
  /// Statistics drift engaged (config_.drift.enabled). When false the scale
  /// factors below stay exactly 1.0 and every multiply is bit-inert.
  bool drifting_ = false;
  /// Drift factors of the tuple being executed, set per dispatch from the
  /// (query, arrival time) of the head entry — never from now_, so charges
  /// stay schedule- and policy-independent.
  double charge_scale_ = 1.0;
  double sel_scale_ = 1.0;
  /// Leaf units in the sheddable set (bottom shed_fraction of the leaves by
  /// Scheduler::ShedPriority); indexed by unit id, empty when !shedding_.
  std::vector<uint8_t> sheddable_;
  /// Train scratch, reused across dispatches: the entries drained by the
  /// current train, and the selection vector of indexes into it that still
  /// survive the chain pass.
  std::vector<sched::QueueEntry> train_;
  std::vector<uint32_t> train_sel_;

  /// --- Columnar train path (EngineConfig::use_columnar_kernels) ---
  /// Build-time constants of one chain operator, denormalized so the kernel
  /// lane loops read plain scalars instead of chasing the plan.
  struct KernelOp {
    SimTime cost = 0.0;
    /// EffectiveActualSelectivity() of the operator.
    double selectivity = 1.0;
    /// Correlated-attribute predicate bound: the exact IEEE product
    /// selectivity * 100 the scalar Passes computes, or +infinity for a
    /// pass-everything operator (selectivity >= 1) so the kernel comparison
    /// stays branch-free in that case too.
    double threshold = 0.0;
    /// Correlated plans: min(threshold) over the ops of this op's fused run
    /// up to and including this one. A lane survives a correlated run's
    /// prefix [0..x] iff attr <= run_prefix_min of op x (the same IEEE
    /// comparisons the scalar chain performs, just collapsed), which is what
    /// lets the reach kernel count survivors per operator without tracking
    /// per-lane depth.
    double run_prefix_min = 0.0;
    /// Absolute chain position (the frozen-draw ordinal).
    int ordinal = 0;
  };
  /// Columnar execution plan of one unit; `enabled` only for chain units
  /// whose fusion tiles the whole segment (FuseChainOps contiguous).
  struct UnitKernelPlan {
    bool enabled = false;
    /// Selectivity realized as an attribute threshold (vs a frozen draw).
    bool correlated = false;
    int from = 0;   // first chain position of the segment
    int n_ops = 0;  // chain length
    /// Segment operators, indexed by (chain position - from).
    std::vector<KernelOp> ops;
    std::vector<FusedKernel> runs;
  };

  /// Correlated-attribute reach kernel: fills kernel_reach_[0..k] with the
  /// number of lanes charged for each operator of the run (reach[x] = lanes
  /// surviving ops [0..x-1]; reach[0] = n). Survival of a run prefix is a
  /// single comparison against that prefix's min threshold
  /// (KernelOp::run_prefix_min), so each entry is a branch-free vectorizable
  /// count over the attribute column — no per-lane depth — and consecutive
  /// ops whose prefix min did not change reuse the previous count outright.
  /// `sel` maps lanes to column rows; nullptr = identity (the dense
  /// first-run fast path, gather-free for the auto-vectorizer).
  void CountReachAttribute(const uint32_t* sel, size_t n,
                           const KernelOp* ops, int k);
  /// Branch-free frozen-Bernoulli depth kernel: fills col_depth_[0..n) with
  /// each lane's survived depth over a run of `k` operators (consecutive
  /// passes from the run's start; alive &= pass, depth += alive — no
  /// per-lane branch). Draw outcomes are per (op, tuple), so unlike the
  /// correlated kernel a per-lane pass is irreducible.
  void DepthKernelBernoulli(const uint32_t* sel, size_t n,
                            const KernelOp* ops, int k, uint64_t query_key);

  /// Indexed by unit id; sized (and consulted) only when columnar_.
  std::vector<UnitKernelPlan> unit_kernels_;
  /// Columnar path engaged: use_columnar_kernels && batch_size != 1 (trains
  /// of one take ExecuteChainTuple) && no tracer (the tracer wants
  /// per-invocation events in clock order).
  bool columnar_ = false;
  /// Arena backing the column scratch; reset and re-carved on growth.
  Arena column_arena_;
  /// SoA columns of the current train, gathered from the drained queue
  /// entries: synthetic attribute, global arrival id (frozen-draw key and
  /// trace/QoS identity), arrival time. col_depth_ is the kernels' survived
  /// depth output; col_sel_/col_sel_next_ the selection vectors survivor
  /// compaction ping-pongs between. All col_capacity_ elements long.
  double* col_attr_ = nullptr;
  stream::ArrivalId* col_id_ = nullptr;
  SimTime* col_arrival_time_ = nullptr;
  uint32_t* col_depth_ = nullptr;
  uint32_t* col_sel_ = nullptr;
  uint32_t* col_sel_next_ = nullptr;
  size_t col_capacity_ = 0;
  /// Clock-replay scratch: reach[x] = lanes whose depth reaches local op x.
  std::vector<int64_t> kernel_reach_;
  /// Join-probe candidate buffers, one per recursion depth of
  /// ProbeAndPropagate (a probe at stage s iterates its buffer while deeper
  /// stages fill theirs). Sized once in the constructor from the deepest
  /// join pipeline in the plan; reused across all probes so the hot path
  /// allocates nothing.
  std::vector<std::vector<SymmetricHashJoinState::Entry>> probe_scratch_;
  int probe_depth_ = 0;

  /// Publishes the engine's hot counters into the telemetry cell. Wait-free
  /// (SnapshotCell::Publish); called at masked scheduling points and once
  /// with done=true when the run drains.
  void PublishTelemetry(bool done);

  /// Observability state — all observation-only (never feeds the clock).
  obs::EventTracer* tracer_ = nullptr;
  /// Live-telemetry cell (null = disabled; the hot-loop check is one branch
  /// on this pointer, same as tracer_).
  obs::SnapshotCell* telemetry_ = nullptr;
  /// Publish every 16th scheduling point (the mask tests the count).
  static constexpr uint64_t kTelemetryMask = 15;
  /// Slowdown accumulators feeding the cell (only maintained when a cell is
  /// attached — emission sites branch on telemetry_).
  double telemetry_slowdown_sum_ = 0.0;
  int64_t telemetry_slowdown_count_ = 0;
  double telemetry_max_slowdown_ = 0.0;
  obs::Histogram queue_len_hist_{kQueueLengthHistogram};
  obs::Histogram exec_busy_hist_;
  obs::StageAttribution attribution_;
  /// Unit/query of the execution in progress (trace context for operator
  /// invocations and join probes); -1 outside ExecuteUnitTrain.
  int32_t cur_unit_ = -1;
  int32_t cur_query_ = -1;
  /// Clock when the execution in progress began, and the scheduling overhead
  /// charged at its scheduling point (the attribution decomposition).
  SimTime exec_start_ = 0.0;
  SimTime exec_point_overhead_ = 0.0;
};

}  // namespace aqsios::exec

#endif  // AQSIOS_EXEC_ENGINE_H_
