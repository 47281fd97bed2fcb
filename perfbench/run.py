#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (which compiles the
repository's libraries from src/) into $CARGO_TARGET_DIR or .bench_build,
runs the harness self-test, then one workload in one process, checks that
the result line names exactly the metrics and units BENCHMARK.json declares,
and prints the driver's output. The last line of stdout is the result JSON; everything else goes to
stderr. Exits non-zero, without a result line, when the build, the run or
the result check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def load_spec(path=os.path.join(ROOT, "BENCHMARK.json")):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def expected_metrics(spec, trace):
    """[(name, unit)] of the metrics a run prints: per-layer when traced,
    end-to-end otherwise, in file order."""
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, expected):
    """Returns None when `line` is a well-formed result naming exactly the
    `expected` [(name, unit)] metrics, else the reason it is not."""
    try:
        res = json.loads(line)
    except ValueError as e:
        return f"last line is not JSON: {e}"
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys must be correct, attempted, failed, metrics"
    if not isinstance(res["correct"], bool):
        return "correct must be a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool) or res[key] < 0:
            return f"{key} must be a non-negative integer"
    if res["attempted"] < 1:
        return "attempted must be at least 1"
    got = res["metrics"]
    if set(got) != {name for name, _ in expected}:
        return f"metric names differ from BENCHMARK.json: {sorted(set(got) ^ {n for n, _ in expected})}"
    for name, unit in expected:
        m = got[name]
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            return f"metric {name} must hold exactly value and unit"
        if m["unit"] != unit:
            return f"metric {name} has unit {m['unit']}, BENCHMARK.json says {unit}"
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            return f"metric {name} value is not a number"
    return None


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    for target in ("fpdt_perfbench", "perfbench_selftest"):
        subprocess.run(["cmake", "--build", build_dir, "--target", target, "-j", jobs],
                       stdout=sys.stderr, check=True)
    subprocess.run([os.path.join(build_dir, "perfbench_selftest")], stdout=sys.stderr,
                   check=True)
    return os.path.join(build_dir, "fpdt_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    try:
        spec = load_spec()
        workloads = [w["name"] for w in spec["workloads"]]
        expected = expected_metrics(spec, args.trace == "1")
    except (OSError, ValueError, KeyError, TypeError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    if args.workload not in workloads:
        log(f"unknown workload {args.workload}; BENCHMARK.json lists {workloads}")
        return 1

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    log(f"rev {git_rev()}")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build or self-test failed: {e}")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with code {proc.returncode}")
        return 1
    why = check_result(lines[-1], expected)
    if why is not None:
        log(f"malformed result: {why}")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
