#!/usr/bin/env python3
"""Compare two benchmark reports and flag perf regressions.

Accepts either report the repo's bench binaries write:

  * aqsios-bench-perf/1  (bench_micro_sched / bench_scaling / bench_stress
    --out BENCH_perf.json): benchmarks are matched by "name" and compared on
    ns_per_op. The shard-scaling cells (scaling/<policy>/q=N/shards=K) are
    additionally compared on the *inverse* of speedup_vs_shards1 under the
    synthetic key "<name>/speedup" — inverting keeps every compared number
    lower-is-better, so a shrinking shard speedup shows up as a REGRESSION
    like any slowdown would. The overload-stress cells
    (stress/<policy>/q=N/shed=F and .../admission=shards4) are additionally
    compared on p99_slowdown under "<name>/p99" — the frontier's QoS axis is
    a deterministic virtual quantity, so a worsening p99 at the same shed
    fraction is a real scheduling regression, not machine noise. The
    statistics-drift cells (drift/{static,calibrated}/<policy>/q=N from
    bench_drift) are compared on p99_slowdown the same way under
    "<name>/p99", and the candidate's drift/calibrated/ cells are
    additionally gated *within the report* against their drift/static/
    partner: calibrated p99 must stay at or below --max-drift-p99-ratio of
    the static cell's (both are deterministic virtual quantities from the
    same run, so the gate is machine-independent). The steady-state
    calibration pair (drift/steady/.../calibration=on) carries
    calibration_overhead_pct, gated absolutely against
    --max-calibration-overhead like the telemetry sampler overhead. The
    columnar-kernel cells (kernel/columnar/...) are additionally compared on
    the inverse of speedup_vs_scalar under "<name>/speedup", and the
    candidate's speedups are gated absolutely against --min-kernel-speedup:
    the speedup is measured within one report on one machine, so unlike raw
    ns_per_op it is robust to host differences and can be a hard floor.
  * aqsios-bench-sweep/1 (bench_sweep_all --out BENCH_sweep.json):
    cells are matched by (figure, utilization, policy) and compared on
    wall_ms.

Reports that record a "mode" in their header (bench_micro_sched writes
"quick" or "full"; --quick cells reuse the full-mode names at a fraction
of the size) are only compared like for like: when the two reports' modes
differ — a report without the field counts as "unrecorded" — the script
exits 2 before comparing anything, unless --allow-cross-mode is given.
The same holds for the host: bench_micro_sched records "cpu_model" and
"nproc" in its header, and when the two reports' hosts differ (a report
without them counts as "unrecorded") the script exits 2 unless
--allow-cross-host is given, since raw ns_per_op from different machines
measure the machines as much as the code.

For every matched entry the ratio new/old is printed; entries whose ratio
exceeds 1 + --threshold are regressions, entries below 1 - --threshold are
improvements, the rest are noise-level. Cells present in only one report are
coverage drift — a renamed or silently dropped benchmark looks exactly like
a fixed regression — and fail the comparison alongside regressions. Exit
status is 1 when any regression or coverage drift was found, unless
--warn-only (CI runners are noisy shared machines — the committed-baseline
check runs with --warn-only so it informs instead of flaking).

Usage:
    scripts/perf_compare.py old.json new.json
    scripts/perf_compare.py BENCH_perf.json /tmp/perf_new.json \
        --threshold 0.25 --warn-only
    scripts/perf_compare.py BENCH_sweep.json /tmp/sweep_new.json
    scripts/perf_compare.py BENCH_perf.json /tmp/perf_quick.json \
        --allow-cross-mode --allow-cross-host --warn-only

Standard library only.
"""

import argparse
import json
import sys


def load_entries(path, overheads=None, kernel_speedups=None,
                 skew_imbalances=None, drift_p99s=None,
                 calibration_overheads=None):
    """Returns (schema, mode, host, {key: value}) for one report file.

    `mode` is the header's "mode" field, or None when the report does not
    record one. `host` is the header's "cpu_model" and "nproc" as a string,
    or None when the report records neither.

    Keys are benchmark names (perf schema) or "figure/util/policy" strings
    (sweep schema); values are the compared metric (ns_per_op / wall_ms).
    When `overheads` is a dict, cells carrying telemetry_overhead_pct (the
    bench_scaling sampler-overhead pair) record it there by name. When
    `kernel_speedups` is a dict, cells carrying speedup_vs_scalar (the
    columnar-kernel cells) record it there by name. When `skew_imbalances`
    is a dict, the skewed scaling cells (scaling/skew/...) record their
    load_imbalance there by name. When `drift_p99s` is a dict, the
    statistics-drift cells (drift/...) record their p99_slowdown there by
    name; when `calibration_overheads` is a dict, cells carrying
    calibration_overhead_pct (the bench_drift steady-state pair) record it
    there by name.
    """
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    schema = report.get("schema", "")
    mode = report.get("mode")
    host = None
    if "cpu_model" in report or "nproc" in report:
        host = "{} x{}".format(report.get("cpu_model", "unknown CPU"),
                               report.get("nproc", "?"))
    entries = {}
    if schema.startswith("aqsios-bench-perf/"):
        for bench in report["benchmarks"]:
            entries[bench["name"]] = float(bench["ns_per_op"])
            # Scaling-curve cells also gate on the shard speedup itself,
            # inverted so lower stays better (see module docstring).
            speedup = bench.get("speedup_vs_shards1")
            if speedup:
                entries[bench["name"] + "/speedup"] = 1.0 / float(speedup)
            # Overload-stress cells also gate on the frontier's QoS axis
            # (deterministic virtual p99 slowdown, lower is better).
            if bench["name"].startswith("stress/"):
                p99 = bench.get("p99_slowdown")
                if p99 is not None:
                    entries[bench["name"] + "/p99"] = float(p99)
            # Statistics-drift cells gate on p99 the same way, and their
            # calibrated/static pairs are additionally gated within-report
            # (see main).
            if bench["name"].startswith("drift/"):
                p99 = bench.get("p99_slowdown")
                if p99 is not None:
                    entries[bench["name"] + "/p99"] = float(p99)
                    if drift_p99s is not None:
                        drift_p99s[bench["name"]] = float(p99)
            cal_pct = bench.get("calibration_overhead_pct")
            if cal_pct is not None and calibration_overheads is not None:
                calibration_overheads[bench["name"]] = float(cal_pct)
            # Columnar-kernel cells also gate on their within-report
            # wall-clock speedup over the paired scalar cell, inverted so
            # lower stays better; the candidate's speedups are additionally
            # gated absolutely (see module docstring).
            kernel = bench.get("speedup_vs_scalar")
            if kernel:
                entries[bench["name"] + "/speedup"] = 1.0 / float(kernel)
                if kernel_speedups is not None:
                    kernel_speedups[bench["name"]] = float(kernel)
            pct = bench.get("telemetry_overhead_pct")
            if pct is not None and overheads is not None:
                overheads[bench["name"]] = float(pct)
            # Skewed scaling cells also gate on the within-report ratio of
            # the elastic controller's load imbalance to the static
            # placement's (see main), a deterministic virtual quantity.
            if bench["name"].startswith("scaling/skew/"):
                imbalance = bench.get("load_imbalance")
                if imbalance is not None and skew_imbalances is not None:
                    skew_imbalances[bench["name"]] = float(imbalance)
    elif schema.startswith("aqsios-bench-sweep/"):
        for figure in report["figures"]:
            for cell in figure["cells"]:
                key = "{}/u={}/{}".format(
                    figure["figure"], cell["utilization"], cell["policy"])
                entries[key] = float(cell["wall_ms"])
    else:
        raise ValueError(
            f"{path}: unrecognized schema {schema!r} (expected "
            "aqsios-bench-perf/1 or aqsios-bench-sweep/1)")
    return schema, mode, host, entries


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old", help="baseline report (JSON)")
    parser.add_argument("new", help="candidate report (JSON)")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative change treated as noise "
                             "(default: 0.15 = +-15%%)")
    parser.add_argument("--warn-only", action="store_true",
                        help="always exit 0; report regressions as warnings")
    parser.add_argument("--max-telemetry-overhead", type=float, default=2.0,
                        help="absolute ceiling (in percent) for "
                             "telemetry_overhead_pct cells in the candidate "
                             "report (default: 2.0)")
    parser.add_argument("--min-kernel-speedup", type=float, default=1.5,
                        help="absolute floor for speedup_vs_scalar on the "
                             "candidate's kernel/columnar/ cells "
                             "(default: 1.5)")
    parser.add_argument("--max-skew-imbalance-ratio", type=float, default=0.5,
                        help="ceiling for the candidate's scaling/skew/"
                             "rebalance load_imbalance as a fraction of its "
                             "scaling/skew/static cell's (default: 0.5)")
    parser.add_argument("--max-drift-p99-ratio", type=float, default=0.67,
                        help="ceiling for the candidate's drift/calibrated/ "
                             "p99_slowdown as a fraction of its "
                             "drift/static/ cell's (default: 0.67, i.e. "
                             "calibration must beat static by >=1.5x)")
    parser.add_argument("--max-calibration-overhead", type=float, default=2.0,
                        help="absolute ceiling (in percent) for "
                             "calibration_overhead_pct on the candidate's "
                             "steady-state pair (default: 2.0)")
    parser.add_argument("--allow-cross-mode", action="store_true",
                        help="compare reports whose recorded modes differ "
                             "(e.g. a --quick run against the committed "
                             "full-mode baseline); their cells share names "
                             "but not sizes, so ratios are indicative only")
    parser.add_argument("--allow-cross-host", action="store_true",
                        help="compare reports whose recorded hosts (CPU "
                             "model, hardware threads) differ, e.g. a CI "
                             "runner against the committed baseline; "
                             "ratios then mix host and code effects")
    args = parser.parse_args()

    old_schema, old_mode, old_host, old_entries = load_entries(args.old)
    new_overheads = {}
    new_kernel_speedups = {}
    new_skew_imbalances = {}
    new_drift_p99s = {}
    new_calibration_overheads = {}
    new_schema, new_mode, new_host, new_entries = load_entries(
        args.new, overheads=new_overheads,
        kernel_speedups=new_kernel_speedups,
        skew_imbalances=new_skew_imbalances,
        drift_p99s=new_drift_p99s,
        calibration_overheads=new_calibration_overheads)
    if old_schema != new_schema:
        print(f"error: schema mismatch: {old_schema} vs {new_schema}",
              file=sys.stderr)
        return 2
    if old_mode != new_mode:
        modes = "{} vs {}".format(old_mode or "unrecorded",
                                  new_mode or "unrecorded")
        if not args.allow_cross_mode:
            print(f"error: mode mismatch: {modes} ({args.old} vs "
                  f"{args.new}); same-named cells measure different "
                  "workload sizes. Pass --allow-cross-mode to compare "
                  "anyway.", file=sys.stderr)
            return 2
        print(f"note: comparing across modes ({modes}); ratios are "
              "indicative only")
    if old_host != new_host:
        hosts = "{} vs {}".format(old_host or "unrecorded",
                                  new_host or "unrecorded")
        if not args.allow_cross_host:
            print(f"error: host mismatch: {hosts} ({args.old} vs "
                  f"{args.new}); timings from different machines are not "
                  "comparable. Pass --allow-cross-host to compare anyway.",
                  file=sys.stderr)
            return 2
        print(f"note: comparing across hosts ({hosts}); ratios mix host "
              "and code effects")

    shared = [k for k in old_entries if k in new_entries]
    only_old = sorted(k for k in old_entries if k not in new_entries)
    only_new = sorted(k for k in new_entries if k not in old_entries)

    regressions = []
    improvements = []
    width = max((len(k) for k in shared), default=0)
    for key in shared:
        old_value = old_entries[key]
        new_value = new_entries[key]
        if old_value <= 0.0:
            ratio = float("inf") if new_value > 0.0 else 1.0
        else:
            ratio = new_value / old_value
        if ratio > 1.0 + args.threshold:
            verdict = "REGRESSION"
            regressions.append(key)
        elif ratio < 1.0 - args.threshold:
            verdict = "improved"
            improvements.append(key)
        else:
            verdict = "ok"
        print(f"{key:<{width}}  {old_value:12.2f} -> {new_value:12.2f}  "
              f"x{ratio:.3f}  {verdict}")

    label = "warning" if args.warn_only else "error"
    for key in only_old:
        print(f"{key}: removed (only in {args.old})")
        print(f"{label}: cell {key} is in the baseline ({args.old}) but "
              f"missing from the candidate ({args.new})", file=sys.stderr)
    for key in only_new:
        print(f"{key}: added (only in {args.new})")
        print(f"{label}: cell {key} is in the candidate ({args.new}) but "
              f"missing from the baseline ({args.old})", file=sys.stderr)

    # Sampler overhead is gated absolutely, not against the baseline: the
    # live-telemetry contract is "attaching the sampler costs <= the bar",
    # whatever the machine.
    for key, pct in sorted(new_overheads.items()):
        if pct > args.max_telemetry_overhead:
            verdict = "REGRESSION"
            regressions.append(key + "/overhead")
        else:
            verdict = "ok"
        print(f"{key}: telemetry overhead {pct:.2f}% "
              f"(max {args.max_telemetry_overhead:.2f}%)  {verdict}")

    # Kernel speedup is gated absolutely too: the columnar train kernels
    # must beat the scalar pass by the floor on whatever machine ran the
    # candidate report.
    for key, speedup in sorted(new_kernel_speedups.items()):
        if speedup < args.min_kernel_speedup:
            verdict = "REGRESSION"
            regressions.append(key + "/kernel-speedup")
        else:
            verdict = "ok"
        print(f"{key}: columnar speedup {speedup:.2f}x "
              f"(min {args.min_kernel_speedup:.2f}x)  {verdict}")

    # The elastic rebalancer is gated within-report: its skewed cell's load
    # imbalance must stay at or below the configured fraction of the static
    # placement's. Both numbers are deterministic virtual quantities from
    # the same candidate run, so the gate is machine-independent.
    for key, imbalance in sorted(new_skew_imbalances.items()):
        if "/rebalance/" not in key:
            continue
        static_key = key.replace("/rebalance/", "/static/")
        static_imbalance = new_skew_imbalances.get(static_key)
        if static_imbalance is None:
            continue
        bound = args.max_skew_imbalance_ratio * static_imbalance
        if imbalance > bound:
            verdict = "REGRESSION"
            regressions.append(key + "/imbalance")
        else:
            verdict = "ok"
        print(f"{key}: load imbalance {imbalance:.3f} vs static "
              f"{static_imbalance:.3f} (max ratio "
              f"{args.max_skew_imbalance_ratio:.2f})  {verdict}")

    # Online calibration is gated within-report the same way: the calibrated
    # drift cell's p99 slowdown must stay at or below the configured
    # fraction of its static partner's — both deterministic virtual
    # quantities from the same candidate run.
    for key, p99 in sorted(new_drift_p99s.items()):
        if "/calibrated/" not in key:
            continue
        static_key = key.replace("/calibrated/", "/static/")
        static_p99 = new_drift_p99s.get(static_key)
        if static_p99 is None:
            continue
        bound = args.max_drift_p99_ratio * static_p99
        if p99 > bound:
            verdict = "REGRESSION"
            regressions.append(key + "/drift-p99")
        else:
            verdict = "ok"
        print(f"{key}: p99 slowdown {p99:.1f} vs static {static_p99:.1f} "
              f"(max ratio {args.max_drift_p99_ratio:.2f})  {verdict}")

    # Steady-state calibration overhead is gated absolutely, like the
    # telemetry sampler: leaving the calibrator on when nothing drifts must
    # cost <= the bar, whatever the machine.
    for key, pct in sorted(new_calibration_overheads.items()):
        if pct > args.max_calibration_overhead:
            verdict = "REGRESSION"
            regressions.append(key + "/calibration-overhead")
        else:
            verdict = "ok"
        print(f"{key}: calibration overhead {pct:.2f}% "
              f"(max {args.max_calibration_overhead:.2f}%)  {verdict}")

    print(f"\n{len(shared)} compared, {len(improvements)} improved, "
          f"{len(regressions)} regressed, {len(only_old)} missing, "
          f"{len(only_new)} extra (threshold +-"
          f"{args.threshold * 100:.0f}%)")
    if regressions:
        for key in regressions:
            print(f"{label}: regression in {key}", file=sys.stderr)
    if (regressions or only_old or only_new) and not args.warn_only:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
