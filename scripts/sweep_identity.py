#!/usr/bin/env python3
"""Check that two aqsios-bench-sweep/1 reports agree on every virtual field.

Sweep results are deterministic: every QoS number, counter and decision
statistic is a pure function of the workload, the policy and the sweep
point. Only host measurements may differ between runs, so those keys are
ignored wherever they appear:

  wall_ms, max_rss_kb, total_wall_ms, threads

Usage:
  python3 scripts/sweep_identity.py BENCH_sweep.json /tmp/sweep.json

Prints each differing path (up to --max-diffs) and exits 1 on any
difference, 2 on unreadable input, 0 when the reports match.
"""

import argparse
import json
import sys

HOST_KEYS = frozenset({"wall_ms", "max_rss_kb", "total_wall_ms", "threads"})


def diff(want, got, path, out):
    """Appends a line to `out` for each difference below `path`."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            if key in HOST_KEYS:
                continue
            sub = f"{path}.{key}" if path else key
            if key not in got:
                out.append(f"{sub}: missing from the second report")
            elif key not in want:
                out.append(f"{sub}: missing from the first report")
            else:
                diff(want[key], got[key], sub, out)
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            out.append(f"{path}: length {len(want)} != {len(got)}")
        for i, (w, g) in enumerate(zip(want, got)):
            diff(w, g, f"{path}[{i}]", out)
    elif type(want) is not type(got) or want != got:
        out.append(f"{path}: {want!r} != {got!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", help="reference sweep report")
    parser.add_argument("second", help="sweep report to check")
    parser.add_argument("--max-diffs", type=int, default=20,
                        help="differences to print before summarizing")
    args = parser.parse_args()
    reports = []
    for path in (args.first, args.second):
        try:
            with open(path, encoding="utf-8") as f:
                reports.append(json.load(f))
        except (OSError, ValueError) as err:
            print(f"sweep_identity: cannot read {path}: {err}",
                  file=sys.stderr)
            return 2
    diffs = []
    diff(reports[0], reports[1], "", diffs)
    if not diffs:
        print(f"sweep_identity: {args.second} matches {args.first} on "
              f"every non-host field")
        return 0
    for line in diffs[:args.max_diffs]:
        print(line)
    if len(diffs) > args.max_diffs:
        print(f"... and {len(diffs) - args.max_diffs} more")
    print(f"sweep_identity: {len(diffs)} difference(s)", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
