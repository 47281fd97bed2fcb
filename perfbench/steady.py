#!/usr/bin/env python3
"""Steadiness tool for the repository benchmark.

    python3 perfbench/steady.py run --seeds 10 --out A.json [--workload W ...] [--trace 1]
    python3 perfbench/steady.py summary A.json
    python3 perfbench/steady.py compare A.json B.json

`run` repeats the benchmark command of BENCHMARK.json once per seed and
workload and saves every result line. `summary` prints, per workload and
metric, the median, the quartiles and the spread (quartile distance over the
median) against the metric's bound. `compare` checks a second set of runs
against a first: every spread except setup_s within its bound, and no median
worse than the first set's by more than the bound. Both exit non-zero when a
check fails. Run from the root of a checkout.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

from run import check_result, expected_metrics, load_spec

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def validate_spec(spec):
    """Returns the list of ways `spec` breaks the BENCHMARK.json format."""
    problems = []
    if not isinstance(spec, dict) or set(spec) != SPEC_KEYS:
        return [f"keys must be exactly {sorted(SPEC_KEYS)}"]
    cmd = spec["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32
            and all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        problems.append("command must be a list of 1-32 strings of at most 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in cmd):
        problems.append("command may not use absolute paths or ..")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16
            and all(isinstance(p, str) and PATH_RE.match(p) and not p.startswith("/")
                    and ".." not in p.split("/") for p in paths)):
        problems.append("paths must be 1-16 relative directories")
    rs = spec["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    names = []

    def check_named(items, keys, lo, hi, what):
        if not (isinstance(items, list) and lo <= len(items) <= hi):
            problems.append(f"{what} must hold {lo} to {hi} entries")
            return []
        good = []
        for item in items:
            if not isinstance(item, dict) or set(item) != keys:
                problems.append(f"{what} entries need exactly the keys {sorted(keys)}")
                continue
            if not isinstance(item["name"], str) or not NAME_RE.match(item["name"]):
                problems.append(f"bad {what} name {item['name']!r}")
                continue
            names.append(item["name"])
            good.append(item)
        return good

    for w in check_named(spec["workloads"], {"name", "why"}, 2, 8, "workloads"):
        if not isinstance(w["why"], str) or not w["why"] or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']} needs a one-line why of at most 200 characters")
    e2e = check_named(spec["end_to_end"], {"name", "unit", "better", "bound"}, 1, 16,
                      "end_to_end")
    layer = check_named(spec["per_layer"], {"name", "unit", "better"}, 1, 128, "per_layer")
    for m in e2e + layer:
        if not isinstance(m["unit"], str) or not UNIT_RE.match(m["unit"]):
            problems.append(f"bad unit for {m['name']}")
        if m["better"] not in ("lower", "higher"):
            problems.append(f"better must be lower or higher for {m['name']}")
    for m in e2e:
        b = m["bound"]
        if not (isinstance(b, (int, float)) and not isinstance(b, bool) and 0 < b <= 0.25):
            problems.append(f"bound of {m['name']} must be in (0, 0.25]")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif any(m["bound"] > setup[0]["bound"] for m in e2e):
        problems.append("setup_s must have the largest bound")
    if len(names) != len(set(names)):
        problems.append("names must be unique")
    return problems


def parse_result(stdout, expected):
    """The result object on the last line of a benchmark's stdout, checked
    against the `expected` [(name, unit)] metrics."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    why = check_result(lines[-1], expected)
    if why is not None:
        raise ValueError(why)
    return json.loads(lines[-1])


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median (0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def worsening(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`;
    negative when it is better."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return -change if better == "higher" else change


def values_by_metric(runs, workload):
    """{metric: [values]} over the saved runs of one workload."""
    out = {}
    for r in runs:
        if r["workload"] != workload:
            continue
        for name, m in r["result"]["metrics"].items():
            out.setdefault(name, []).append(m["value"])
    return out


def summarize(spec, runs, out=sys.stdout):
    """Prints one table per workload; returns the number of failed checks."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    failures = 0
    for w in spec["workloads"]:
        name = w["name"]
        mine = [r for r in runs if r["workload"] == name]
        if not mine:
            continue
        bad = [r for r in mine if not r["result"]["correct"] or r["result"]["failed"]]
        failures += len(bad)
        print(f"\n{name}: {len(mine)} runs, {len(bad)} incorrect or with failed operations",
              file=out)
        print(f"  {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'bound':>6}  verdict", file=out)
        for metric, vals in values_by_metric(mine, name).items():
            if len(vals) < 2:
                continue
            q1, q2, q3 = quartiles(vals)
            s = spread(vals)
            bound = bounds.get(metric, {}).get("bound")
            verdict = ""
            if bound is not None:
                if s <= bound / 3:
                    verdict = "steady"
                elif s <= bound or metric == "setup_s":
                    verdict = "within bound"
                else:
                    verdict = "TOO WIDE"
                    failures += 1
            print(f"  {metric:<28} {q2:>14.6g} {q1:>14.6g} {q3:>14.6g} {s:>8.4f} "
                  f"{'' if bound is None else bound:>6}  {verdict}", file=out)
    return failures


def compare(spec, first, second, out=sys.stdout):
    """Checks `second` against `first`; returns the number of failed checks."""
    failures = 0
    for w in spec["workloads"]:
        a = values_by_metric(first, w["name"])
        b = values_by_metric(second, w["name"])
        for m in spec["end_to_end"]:
            if m["name"] not in a or m["name"] not in b:
                continue
            va, vb = a[m["name"]], b[m["name"]]
            worse = worsening(statistics.median(va), statistics.median(vb), m["better"])
            spreads = [spread(v) for v in (va, vb) if len(v) >= 2]
            ok = worse <= m["bound"] and (
                m["name"] == "setup_s" or all(s <= m["bound"] for s in spreads))
            failures += not ok
            print(f"{w['name']:<16} {m['name']:<22} median {statistics.median(va):.6g} -> "
                  f"{statistics.median(vb):.6g} worse {worse:+.4f} spreads "
                  f"{', '.join(f'{s:.4f}' for s in spreads)} bound {m['bound']} "
                  f"{'ok' if ok else 'FAIL'}", file=out)
    return failures


def run_sets(spec, workloads, seeds, trace):
    expected = expected_metrics(spec, trace)
    runs = []
    for name in workloads:
        for seed in seeds:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed), "--seconds",
                                     str(spec["run_seconds"]), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            runs.append({"workload": name, "seed": seed, "trace": trace,
                         "result": parse_result(proc.stdout, expected)})
            print(f"{name} seed {seed}: {json.dumps(runs[-1]['result'])}", file=sys.stderr,
                  flush=True)
    return runs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", type=int, default=10)
    r.add_argument("--workload", action="append")
    r.add_argument("--trace", type=int, choices=[0, 1], default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("runs")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args(argv)

    spec = load_spec()
    problems = validate_spec(spec)
    for p in problems:
        print(f"BENCHMARK.json: {p}", file=sys.stderr)
    if problems:
        return 1
    if args.cmd == "run":
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        seeds = range(1, args.seeds + 1)
        runs = run_sets(spec, workloads, seeds, args.trace)
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"runs": runs}, f, indent=1)
        return 1 if summarize(spec, runs) else 0
    if args.cmd == "summary":
        with open(args.runs, encoding="utf-8") as f:
            return 1 if summarize(spec, json.load(f)["runs"]) else 0
    with open(args.first, encoding="utf-8") as f:
        first = json.load(f)["runs"]
    with open(args.second, encoding="utf-8") as f:
        second = json.load(f)["runs"]
    return 1 if compare(spec, first, second) else 0


if __name__ == "__main__":
    sys.exit(main())
