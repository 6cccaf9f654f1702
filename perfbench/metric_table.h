// Names and units of every metric the driver prints. BENCHMARK.json at the
// repository root must list exactly these (checked by
// tests/perfbench_test.cc and again by run.py on every run).

#ifndef AQSIOS_PERFBENCH_METRIC_TABLE_H_
#define AQSIOS_PERFBENCH_METRIC_TABLE_H_

#include <array>

namespace aqsios::perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by untraced runs (--trace 0).
inline constexpr std::array<MetricDef, 11> kEndToEndMetrics = {{
    {"arrivals_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"avg_slowdown", "ratio"},
    {"p50_slowdown", "ratio"},
    {"p99_slowdown", "ratio"},
    {"max_slowdown", "ratio"},
    {"rms_slowdown", "ratio"},
    {"avg_response_ms", "ms"},
    {"overhead_share", "fraction"},
    {"delivered_ratio", "fraction"},
}};

/// Printed by the traced pass (--trace 1). A metric that does not apply to
/// a workload (core.* on a single-engine run, sched.* where the sharded
/// driver builds its own schedulers) reads 0.
inline constexpr std::array<MetricDef, 48> kPerLayerMetrics = {{
    {"stream.generate_s", "s"},
    {"stream.arrivals", "count"},
    {"query.plan_build_s", "s"},
    {"query.units", "count"},
    {"query.operators", "count"},
    {"exec.unit_build_s", "s"},
    {"exec.self_s", "s"},
    {"exec.ns_per_decision", "ns"},
    {"exec.scheduling_points", "count"},
    {"exec.operator_invocations", "count"},
    {"exec.ns_per_operator_invocation", "ns"},
    {"exec.train_dispatches", "count"},
    {"exec.mean_train_tuples", "count"},
    {"exec.peak_queued_tuples", "count"},
    {"exec.tuples_offered", "count"},
    {"exec.tuples_shed", "count"},
    {"sched.self_s", "s"},
    {"sched.pick_calls", "count"},
    {"sched.pick_ns", "ns"},
    {"sched.enqueue_calls", "count"},
    {"sched.enqueue_ns", "ns"},
    {"sched.dequeue_calls", "count"},
    {"sched.dequeue_ns", "ns"},
    {"sched.priority_computations", "count"},
    {"sched.candidates_per_pick", "count"},
    {"sched.rekey_calls", "count"},
    {"sched.rekey_ns", "ns"},
    {"sched.calibration_epochs", "count"},
    {"sched.calibration_rekeys", "count"},
    {"metrics.outputs", "count"},
    {"metrics.record_ns", "ns"},
    {"metrics.snapshot_s", "s"},
    {"core.wall_s", "s"},
    {"core.shard_wall_sum_s", "s"},
    {"core.serial_s", "s"},
    {"core.parallel_efficiency", "fraction"},
    {"core.thread_speedup", "ratio"},
    {"core.load_imbalance", "ratio"},
    {"core.migrations", "count"},
    {"core.steals", "count"},
    {"core.routed_arrivals", "count"},
    {"obs.tracer_events", "count"},
    {"obs.tracer_overhead_ratio", "ratio"},
    {"trace.total_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.span_count", "count"},
    {"unattributed", "s"},
    {"unattributed_share", "fraction"},
}};

}  // namespace aqsios::perfbench

#endif  // AQSIOS_PERFBENCH_METRIC_TABLE_H_
