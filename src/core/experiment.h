// Experiment sweep harness: run (policy × utilization) grids and render the
// series the paper's figures report.

#ifndef AQSIOS_CORE_EXPERIMENT_H_
#define AQSIOS_CORE_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/dsms.h"
#include "core/sharded_dsms.h"
#include "query/workload.h"

namespace aqsios::core {

/// The QoS metric a figure plots.
enum class Metric {
  kAvgSlowdown,
  kAvgResponseMs,
  kMaxSlowdown,
  kL2Slowdown,
  kRmsSlowdown,
  /// Jain fairness over per-query mean slowdowns (needs
  /// qos.track_per_query).
  kJainFairness,
  /// Run-time memory: peak / time-averaged queued tuples.
  kPeakQueuedTuples,
  kAvgQueuedTuples,
};

const char* MetricName(Metric metric);
double GetMetric(const RunResult& result, Metric metric);

/// Process-wide peak resident set size in KiB (0 where unsupported).
int64_t CurrentPeakRssKb();

struct SweepConfig {
  /// Base workload; `utilization` is overridden per sweep point. The same
  /// seed is reused at every point so all policies and loads see identical
  /// query populations and arrival patterns.
  query::WorkloadConfig workload;
  std::vector<double> utilizations;
  std::vector<sched::PolicyConfig> policies;
  /// Per-cell simulation knobs, applied uniformly to every cell. This is
  /// also where tuple-train batching rides into a sweep
  /// (SimulationOptions::batch_size): a batched sweep runs
  /// the same grid with every engine draining up to batch_size tuples per
  /// scheduling decision.
  SimulationOptions options;
  /// Worker threads for the sweep: each (utilization, policy) cell is an
  /// independent single-threaded simulation, so cells run concurrently.
  /// 1 = serial; 0 = one per hardware thread. Results are bit-for-bit
  /// identical for any thread count (only wall_ms / max_rss_kb vary).
  int threads = 0;
};

struct SweepCell {
  double utilization = 0.0;
  std::string policy;
  RunResult result;
  /// Wall-clock spent simulating this cell, in (real) milliseconds.
  double wall_ms = 0.0;
  /// Process-wide peak RSS (KiB) observed when this cell finished. Monotone
  /// over a run; the grid maximum is the sweep's memory high-water mark.
  int64_t max_rss_kb = 0;
  /// Sharded cells only (options.shards > 1; empty otherwise — the report
  /// writer then omits the shard block so unsharded sweep JSON is
  /// unchanged): per-shard accounting and the max/mean busy-time ratio.
  std::vector<ShardRunStats> shard_stats;
  double load_imbalance = 0.0;
};

/// Runs every (utilization, policy) combination, dispatching cells across
/// `config.threads` workers. Workload generation is shared across policies
/// of the same utilization, and cells are returned in grid order
/// (utilizations outer, policies inner) regardless of thread count.
std::vector<SweepCell> RunSweep(const SweepConfig& config);

/// Renders one metric as a table: one row per utilization, one column per
/// policy (figure-series layout).
Table SweepTable(const std::vector<SweepCell>& cells, Metric metric,
                 int precision = 4);

}  // namespace aqsios::core

#endif  // AQSIOS_CORE_EXPERIMENT_H_
