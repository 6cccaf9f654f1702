#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --held-out [--seed <n>] [--seconds <s>]

The first form builds perfbench_driver (CMake, Release) into the build
directory -- $CARGO_TARGET_DIR when it is set, else .bench_build, always
inside the checkout -- runs it, checks that the metric names and units it
printed are the ones BENCHMARK.json declares, and echoes its output. The
last line of stdout is the driver's result object. The exit code is 0 only
when the build succeeded and every output check passed.

The second form runs every workload's end-to-end pass on --seed and on a
held-out seed (--seed + HELD_OUT_OFFSET) and prints both side by side, so a
claim made while looking at one seed can be checked on another.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_OFFSET = 1000003
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    wanted = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.abspath(os.path.join(ROOT, wanted))
    if os.path.commonpath([path, ROOT]) != ROOT:
        path = os.path.join(ROOT, ".bench_build")
    return os.path.join(path, "perfbench")


def source_rev():
    """Git commit when the checkout is a repository, else a content hash of
    the sources the driver is built from."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to perfbench/ (expected src/CMakeLists.txt)")
    out_dir = build_dir()
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench_driver",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                result = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {' '.join(step)} failed: {e}")
            if result.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step {' '.join(step)} exited {result.returncode}")
    driver = os.path.join(out_dir, "perfbench_driver")
    if not os.path.isfile(driver):
        fail("build produced no perfbench_driver")
    return driver


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, [w["name"] for w in spec["workloads"]]


def run_driver(driver, workload, seed, seconds, trace, rev):
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--source-rev", rev]
    if trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans_dir, f"{workload}-seed{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(proc.stdout)
        fail(f"driver printed no result (exit code {proc.returncode})")
    return proc.returncode, lines[:-1], result


def validate(result, trace):
    """Problems with the result's shape or its metric names and units."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    declared, _ = declared_metrics(trace)
    printed = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(k for k in declared if k in printed and printed[k] != declared[k])
        problems.append(f"metrics differ from BENCHMARK.json: missing {missing}, "
                        f"extra {extra}, unit mismatch {units}")
    return problems


def held_out(driver, seed, seconds, rev):
    _, workloads = declared_metrics(0)
    seeds = (seed, seed + HELD_OUT_OFFSET)
    ok = True
    summary = {}
    for workload in workloads:
        rows = {}
        for s in seeds:
            code, _, result = run_driver(driver, workload, s, seconds, 0, rev)
            ok &= code == 0 and result.get("correct") is True
            rows[s] = {k: v["value"] for k, v in result["metrics"].items()}
        summary[workload] = {str(s): rows[s] for s in seeds}
        print(f"{workload}: seed {seeds[0]} | held-out seed {seeds[1]}")
        for name in rows[seeds[0]]:
            print(f"  {name:>18} {rows[seeds[0]][name]:>16.6g} | {rows[seeds[1]][name]:>16.6g}")
    print(json.dumps({"correct": ok, "held_out_offset": HELD_OUT_OFFSET,
                      "results": summary}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="run every workload on --seed and a held-out seed")
    args = parser.parse_args()
    if not args.held_out and not args.workload:
        parser.error("--workload is required (or --held-out)")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    driver = build()
    rev = source_rev()
    if args.held_out:
        return held_out(driver, args.seed, args.seconds, rev)
    code, lines, result = run_driver(driver, args.workload, args.seed,
                                     args.seconds, args.trace, rev)
    problems = validate(result, args.trace)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if problems:
        result["correct"] = False
        code = code or 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
