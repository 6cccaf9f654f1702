// Shard-parallel DSMS runtime.
//
// Execution model: the query population is partitioned into K disjoint
// shards by the seeded hash of sched/shard_router.h (whole sharing groups
// co-locate). Every shard owns a complete private runtime — scheduler,
// engine, arena-backed unit table, QoS collector, optional tracer — and
// simulates its sub-plan on its own virtual clock, exactly as a
// single-engine run over that query subset would. Arrivals are fanned out
// from the global time-ordered table through lock-free SPSC rings (one
// producer walks the table once; one consumer per shard builds the
// shard-local sub-table), and shards execute concurrently on a thread pool.
//
// Determinism contract (docs/scaling.md):
//  * Results are a pure function of (plan, arrivals, policy, K, shard_seed).
//    Thread count, pool scheduling, and ring timing affect only wall-clock.
//  * Emissions and filter drops are schedule-invariant: frozen draws key on
//    global Arrival::id / query id / group id / composite identity, which
//    shard sub-tables and sub-plans preserve (each shard engine maps its
//    local dense query ids back to global ones). Single-stream workloads
//    therefore emit identical tuples at any K, in either selectivity mode.
//    Windowed joins evict state relative to the probing tuple's timestamp,
//    so — as with any schedule change (policy, batching, sharding) — match
//    counts can shift marginally when cross-stream processing order
//    changes; the deltas stay within a fraction of a percent (pinned by
//    tests/core_sharded_dsms_test.cc).
//  * K > 1 is a *scheduling variant*, not a bit-identical reproduction of
//    K = 1: each shard's scheduler ranks only its own units, so per-tuple
//    response times differ from the global schedule (the same way HNR
//    differs from RR). K = 1 — routed through the classic path by
//    SimulatePlan — is byte-identical to the unsharded runtime.
//  * Merged metrics are exact merges (histogram buckets add, RunningStats
//    sums add, timeline buckets align by arrival time), never re-sampled
//    approximations.

#ifndef AQSIOS_CORE_SHARDED_DSMS_H_
#define AQSIOS_CORE_SHARDED_DSMS_H_

#include <cstdint>
#include <vector>

#include "core/dsms.h"
#include "obs/tracer.h"
#include "sched/shard_router.h"

namespace aqsios::core {

/// Per-shard execution accounting of one sharded run.
struct ShardRunStats {
  int shard = 0;
  /// Queries assigned to this shard (0 = the shard never simulated).
  int num_queries = 0;
  /// Arrivals routed to this shard's sub-table.
  int64_t arrivals = 0;
  /// Real time this shard's simulation task took (milliseconds).
  double wall_ms = 0.0;
  /// Process-wide peak RSS (KiB) when the shard's task finished.
  int64_t max_rss_kb = 0;
  /// The shard engine's virtual busy time — the load-balance quantity.
  double busy_seconds = 0.0;
  /// The shard's virtual clock when it drained.
  double end_seconds = 0.0;
  /// Arrivals the admission controller refused to route to this shard
  /// (0 unless SimulationOptions::admission is enabled).
  int64_t admission_dropped = 0;
  /// Placement groups migrated *out of* this shard by the elastic rebalance
  /// controller (0 unless SimulationOptions::rebalance is enabled).
  int64_t migrations = 0;
  /// Trains this shard stole as an idle thief (0 unless rebalance.steal).
  int64_t steals = 0;
};

/// A sharded run: the merged RunResult plus the sharding it came from.
struct ShardedRunResult {
  RunResult result;
  sched::ShardAssignment assignment;
  /// One entry per shard, indexed by shard.
  std::vector<ShardRunStats> shard_stats;
  /// Per shard: shard-local query id -> global query id (sub-plan order).
  /// Feed these to obs::MergeShardTraces when per-shard tracers were used.
  std::vector<std::vector<int32_t>> query_id_maps;

  /// max / mean of per-shard busy_seconds over all shards (empty shards
  /// count as zero busy). 1.0 = perfectly balanced; K = one shard holds all
  /// the work. 1.0 when there is no work at all.
  double LoadImbalance() const;
};

/// Runs `plan` under `policy` partitioned into options.shards shards.
/// `shard_tracers`, when non-null, must hold one (possibly null) tracer per
/// shard; each is attached to that shard's engine as its private
/// single-producer sink (options.tracer is ignored on this path).
ShardedRunResult SimulateShardedPlan(
    const query::GlobalPlan& plan, const stream::ArrivalTable& arrivals,
    const sched::PolicyConfig& policy, const SimulationOptions& options = {},
    const std::vector<obs::EventTracer*>* shard_tracers = nullptr);

/// Workload-level convenience wrapper.
ShardedRunResult SimulateSharded(
    const query::Workload& workload, const sched::PolicyConfig& policy,
    const SimulationOptions& options = {},
    const std::vector<obs::EventTracer*>* shard_tracers = nullptr);

}  // namespace aqsios::core

#endif  // AQSIOS_CORE_SHARDED_DSMS_H_
