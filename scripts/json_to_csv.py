#!/usr/bin/env python3
"""Convert bench --json output into plot-ready CSV.

The sweep benches emit a machine-readable line when run with --json:

    JSON: [{"utilization":0.5,"policy":"RR","wall_ms":12.3,"qos":{...}}, ...]

and the unified driver (bench_sweep_all) writes a multi-figure report
(schema aqsios-bench-sweep/1) with the same cell arrays nested under
"figures". This script extracts one cell array (from a file or stdin; raw
JSON works too), pivots one metric into a utilization x policy grid, and
writes CSV — one row per utilization, one column per policy — ready for any
plotting tool.

Micro-benchmark reports (schema aqsios-bench-perf/1, written by
bench_micro_sched / bench_scaling / bench_stress --out BENCH_perf.json) are
detected automatically and emitted as a flat table — the pivot options do
not apply to them. Besides name,ns_per_op,ops,wall_ms the table carries the
optional per-cell columns: evals_per_pick (priority lines evaluated per
pick in the pick/ cells, a deterministic work counter), tuples_per_vsec
(deterministic virtual throughput of the batched sim cells), the
columnar-kernel cells'
tuples_per_wall_sec and speedup_vs_scalar
(kernel/{scalar,columnar}/<policy>/... cells, see docs/performance.md),
the shard-scaling curve's
tuples_per_wall_sec, speedup_vs_shards1 and load_imbalance
(scaling/<policy>/q=N/shards=K cells, see docs/scaling.md), the skewed
elastic cells' migrations, steals and speedup_vs_static
(scaling/skew/<mode>/... cells), and the
overload-stress frontier's shed_ratio, p99_slowdown, avg_slowdown,
peak_queued_tuples, tuples_emitted and admission_dropped
(stress/<policy>/... cells, see docs/overload.md), and the
statistics-drift cells' calibration_epochs, calibration_updates,
calibration_rekeys, est_cost_drift, est_sel_drift,
p99_slowdown_vs_static and calibration_overhead_pct
(drift/{static,calibrated,steady}/... cells, see docs/calibration.md).
Columns are empty for cells without the field.

Telemetry JSONL logs (schema aqsios-telemetry/1, written by the bench
binaries' --telemetry-jsonl flag, see docs/telemetry.md) are also detected
automatically and flattened to one CSV row per sample x shard, with the
sampler tick, wall clock, per-shard snapshot fields, and any watchdog
events fired that tick (kind names joined with "|").

For sweep reports the metric is looked up in the cell's "qos" object first (avg/max/l2
slowdown, the histogram quantiles p50/p95/p99/p999_slowdown, ...), then in
the cell itself (timing fields such as wall_ms / max_rss_kb), then in its
"counters", "decisions" (scheduling_points, mean_candidates,
mean_priority_computations) and "attribution" (mean_queue_wait_ms,
mean_sched_overhead_ms, mean_processing_ms, mean_dependency_delay_ms)
objects when present. Histogram summaries nested inside counters are
reachable with a dotted path, e.g. "counters.queue_length.p99".

Usage:
    build/bench/bench_fig5_avg_slowdown --json | \
        scripts/json_to_csv.py --metric avg_slowdown > fig5.csv
    scripts/json_to_csv.py --metric p999_slowdown --in sweep.json
    scripts/json_to_csv.py --metric mean_candidates --in sweep.json
    scripts/json_to_csv.py --metric mean_queue_wait_ms --in sweep.json
    scripts/json_to_csv.py --metric counters.exec_busy_seconds.p99 \
        --in sweep.json
    scripts/json_to_csv.py --metric wall_ms --figure fig8_9 \
        --in BENCH_sweep.json
    scripts/json_to_csv.py --in BENCH_perf.json
Standard library only.
"""

import argparse
import json
import sys


def extract_cells(text, figure=None):
    """Returns the requested sweep-cell array found in `text`.

    Accepts three shapes: bench output with a "JSON: [...]" line, a raw cell
    array, or a bench_sweep_all report (object with a "figures" array, in
    which case `figure` selects the grid — required when there are several).
    """
    data = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("JSON: "):
            data = json.loads(line[len("JSON: "):])
            break
    if data is None:
        data = json.loads(text)
    if (isinstance(data, dict)
            and str(data.get("schema", "")).startswith("aqsios-bench-perf/")):
        return data["benchmarks"]
    if isinstance(data, dict) and "figures" in data:
        names = [f.get("figure") for f in data["figures"]]
        if figure is None:
            if len(names) != 1:
                raise ValueError(
                    f"--figure required to pick one of: {', '.join(names)}")
            return data["figures"][0]["cells"]
        for entry in data["figures"]:
            if entry.get("figure") == figure:
                return entry["cells"]
        raise KeyError(
            f"figure '{figure}' not found; available: {', '.join(names)}")
    if not isinstance(data, list):
        raise ValueError("expected a JSON array of sweep cells")
    if figure is not None:
        raise ValueError("--figure only applies to bench_sweep_all reports")
    return data


TELEMETRY_SHARD_FIELDS = [
    "virtual_sec", "busy_sec", "queued_tuples", "tuples_executed",
    "tuples_emitted", "tuples_filtered", "tuples_shed", "tuples_offered",
    "scheduling_points", "routed", "admission_rejected", "migrations",
    "steals", "slowdown_mean", "slowdown_max", "calibration_updates",
    "calibration_rekeys", "calibration_cost_drift", "done"]


def telemetry_to_csv(lines):
    """Flattens an aqsios-telemetry/1 JSONL log: one row per sample x shard,
    watchdog events of the tick joined into the trailing column."""
    print(",".join(["sample", "wall_ms", "final", "shard"]
                   + TELEMETRY_SHARD_FIELDS + ["events"]))
    for line in lines:
        record = json.loads(line)
        events = "|".join(e["kind"] for e in record.get("events", []))
        for shard in record["shards"]:
            row = [str(record["sample"]), repr(record["wall_ms"]),
                   str(record["final"]), str(shard["shard"])]
            for field in TELEMETRY_SHARD_FIELDS:
                # Logs written before a field existed leave the column empty.
                value = shard.get(field)
                row.append("" if value is None else str(value))
            row.append(events)
            print(",".join(row))
    return 0


def cell_metric(cell, metric):
    """Looks up `metric` in qos, then the cell itself, then counters,
    decisions and attribution. Dotted metrics ("counters.queue_length.p99")
    descend from the cell root."""
    if "." in metric:
        value = cell
        for part in metric.split("."):
            if not isinstance(value, dict) or part not in value:
                raise KeyError(f"metric path '{metric}' not found at '{part}'")
            value = value[part]
        if isinstance(value, (dict, list)):
            raise KeyError(f"metric path '{metric}' is not scalar")
        return value
    scopes = (cell.get("qos", {}), cell, cell.get("counters", {}),
              cell.get("decisions", {}), cell.get("attribution", {}))
    for scope in scopes:
        value = scope.get(metric)
        if value is not None and not isinstance(value, (dict, list)):
            return value
    available = sorted(set().union(*scopes))
    raise KeyError(f"metric '{metric}' not found; available: {available}")


def pivot(cells, metric):
    """Pivots cells into (policies, {utilization: {policy: value}})."""
    policies = []
    grid = {}
    for cell in cells:
        policy = cell["policy"]
        if policy not in policies:
            policies.append(policy)
        grid.setdefault(cell["utilization"], {})[policy] = cell_metric(
            cell, metric)
    return policies, grid


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--metric", default="avg_slowdown",
                        help="field to pivot: a qos metric, a per-cell "
                             "timing field (wall_ms, max_rss_kb), or a "
                             "counter (default: avg_slowdown)")
    parser.add_argument("--figure", default=None,
                        help="grid to extract from a bench_sweep_all report "
                             "(e.g. fig5, fig8_9)")
    parser.add_argument("--in", dest="input", default="-",
                        help="input file ('-' = stdin)")
    args = parser.parse_args()

    text = (sys.stdin.read() if args.input == "-"
            else open(args.input, encoding="utf-8").read())
    lines = [line for line in text.splitlines() if line.strip()]
    if lines and lines[0].startswith('{"schema":"aqsios-telemetry/'):
        return telemetry_to_csv(lines[1:])
    cells = extract_cells(text, args.figure)
    if cells and isinstance(cells[0], dict) and "ns_per_op" in cells[0]:
        # aqsios-bench-perf/1 micro-benchmark rows: flat table, no pivot.
        optional = ["evals_per_pick", "tuples_per_vsec",
                    "tuples_per_wall_sec",
                    "speedup_vs_scalar",
                    "speedup_vs_shards1", "load_imbalance", "shed_ratio",
                    "p99_slowdown", "avg_slowdown", "peak_queued_tuples",
                    "tuples_emitted", "admission_dropped",
                    "migrations", "steals", "speedup_vs_static",
                    "telemetry_overhead_pct", "calibration_epochs",
                    "calibration_updates", "calibration_rekeys",
                    "est_cost_drift", "est_sel_drift",
                    "p99_slowdown_vs_static", "calibration_overhead_pct",
                    "healthy", "health"]
        print(",".join(["name", "ns_per_op", "ops", "wall_ms"] + optional))
        for bench in cells:
            row = [bench["name"], repr(bench["ns_per_op"]),
                   str(bench["ops"]), repr(bench["wall_ms"])]
            for field in optional:
                value = bench.get(field)
                row.append("" if value is None
                           else str(value) if isinstance(value, (str, bool))
                           else repr(value))
            print(",".join(row))
        return 0
    policies, grid = pivot(cells, args.metric)

    print(",".join(["utilization"] + policies))
    for utilization in sorted(grid):
        row = [str(utilization)]
        for policy in policies:
            value = grid[utilization].get(policy, "")
            row.append(repr(value) if value != "" else "")
        print(",".join(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
