#!/usr/bin/env python3
"""Paired benchmark comparison of a base revision against this working tree.

    scripts/ab.py <base-rev> [workload...]

The base side is `git archive <base-rev>` unpacked into a temporary
directory; the change side is this checkout's working tree, uncommitted
edits included. Each side builds and runs its own perfbench/run.py, so
perfbench/ and BENCHMARK.json must be identical on both sides.

Everything else comes from BENCHMARK.json: the workloads (default: all),
the run length and each end-to-end metric's direction and bound. Every run
uses seed 1, so every run also checks perfbench/reference.json bit for bit.
Per workload: 10 pairs of runs, alternating which side goes first, then one
--trace 1 run per side for the exact work and history-lookup counters.

For each workload and end-to-end metric it prints each side's median
[q1, q3], the change/base ratio, the pairs the change won and lost (ties
count for neither), and the first verdict that applies:

    regression  the change's median is worse than the base's by more than
                the metric's bound
    gain, loss  the change won (lost) at least 9 of 10 pairs, and the medians
                differ by more than the base's interquartile range
    unresolved  the base's IQR/median exceeds the bound, unless every change
                run beats every base run
    same        otherwise

Counters that differ between the traced runs are marked; they do not fail
the comparison. One ecnd-ab-v1 line per workload is appended to
BENCH_history.jsonl.

Exit status: 0 when no metric regressed and every run is correct; 1 on a
regression or a run that is not correct (a run is correct only when none of
its operations failed); 2, before anything is built, on an unknown revision
or workload or on benchmark code that differs between the sides.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
USAGE = "usage: scripts/ab.py <base-rev> [workload...]"
PAIRS = 10
SEED = 1
COUNTERS = ("sim.events", "sim.pkt_tx", "fluid.rk4_steps", "fluid.rhs_evals",
            "fluid.delayed_lookups", "fluid.lookup_clamped",
            "fluid.hint_hit_ratio", "par.tasks")


def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive")


def score(base, change, better):
    """(pairs the change won, pairs it lost); base[i] and change[i] are pair i."""
    sign = 1 if better == "lower" else -1
    won = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    lost = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    return won, lost


def verdict(base, change, better, bound):
    """The first verdict of the module docstring that applies to one metric."""
    sign = 1 if better == "lower" else -1
    q1, mid, q3 = quartiles(base)
    worse_by = sign * (statistics.median(change) - mid)
    if worse_by > bound * mid:
        return "regression"
    won, lost = score(base, change, better)
    if abs(worse_by) > q3 - q1:
        if worse_by < 0 and won * 10 >= 9 * len(base):
            return "gain"
        if worse_by > 0 and lost * 10 >= 9 * len(base):
            return "loss"
    if q3 - q1 > bound * mid and not all(sign * (c - b) < 0
                                         for c in change for b in base):
        return "unresolved"
    return "same"


def fail_usage(message):
    print(f"ab.py: {message}\n{USAGE}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def run(side, command, workload, seconds, trace):
    """One perfbench run on `side`; its result line as a dict."""
    cmd = [*command, "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr[-4000:])
        print(f"ab.py: {' '.join(cmd)} failed in {side}", file=sys.stderr)
        sys.exit(1)
    return json.loads(lines[-1])


def fmt(x):
    return f"{x:.4g}"


def compare(workload, sides, bench):
    """Runs one workload's pairs; prints its table and returns its history
    record."""
    command, seconds = bench["command"], bench["run_seconds"]
    results = {"base": [], "change": []}
    for i in range(PAIRS):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            results[side].append(run(sides[side], command, workload, seconds, 0))
        print(f"  {workload}: pair {i + 1}/{PAIRS} done", file=sys.stderr, flush=True)
    traced = {side: run(sides[side], command, workload, seconds, 1) for side in sides}

    record = {"schema": "ecnd-ab-v1", "workload": workload, "seed": SEED,
              "seconds": seconds, "metrics": {}, "counters": {}}
    print(f"\n## {workload}\n")
    print("| metric | base median [q1, q3] | change median [q1, q3] | ratio "
          "| won/lost | verdict |")
    print("|---|---|---|---|---|---|")
    for m in bench["end_to_end"]:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]]
                  for side in results}
        v = verdict(values["base"], values["change"], m["better"], m["bound"])
        won, lost = score(values["base"], values["change"], m["better"])
        (bq1, bmid, bq3), (cq1, cmid, cq3) = (quartiles(values[s]) for s in results)
        print(f"| {name} | {fmt(bmid)} [{fmt(bq1)}, {fmt(bq3)}] "
              f"| {fmt(cmid)} [{fmt(cq1)}, {fmt(cq3)}] | {cmid / bmid:.3f} "
              f"| {won}/{lost} | {v} |")
        record["metrics"][name] = {**values, "verdict": v}

    print("\n| counter | base | change | |\n|---|---|---|---|")
    for name in COUNTERS:
        pair = [traced[side]["metrics"][name]["value"] for side in sides]
        print(f"| {name} | {pair[0]:.17g} | {pair[1]:.17g} | "
              f"{'' if pair[0] == pair[1] else 'DIFFERS'} |")
        record["counters"][name] = pair

    incorrect = [f"{side} run {i + 1}" for side in results
                 for i, r in enumerate(results[side] + [traced[side]])
                 if r["correct"] is not True]
    if incorrect:
        print(f"\nNOT CORRECT: {', '.join(incorrect)}")
    record["correct"] = not incorrect
    return record


def main(argv):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if not argv or argv[0].startswith("-"):
        fail_usage("expected a base revision")
    base_rev, workloads = argv[0], argv[1:] or names
    unknown = [w for w in workloads if w not in names]
    if unknown:
        fail_usage(f"unknown workload {unknown[0]} (known: {', '.join(names)})")
    sha = git("rev-parse", "--verify", "--quiet", base_rev + "^{commit}").stdout.strip()
    if not sha:
        fail_usage(f"unknown revision {base_rev}")
    bench_paths = ("perfbench", "BENCHMARK.json")
    if (git("diff", "--quiet", sha, "--", *bench_paths).returncode != 0
            or git("ls-files", "--others", "--exclude-standard", *bench_paths).stdout):
        fail_usage(f"perfbench/ or BENCHMARK.json differ between {base_rev} "
                   "and the working tree; a comparison needs identical benchmark code")

    head = git("rev-parse", "HEAD").stdout.strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout)
    print(f"# ab.py: base {sha[:12]} vs change {head[:12]}"
          f"{' + working-tree edits' if dirty else ''}")
    print(f"{PAIRS} pairs x {bench['run_seconds']} s per workload, seed {SEED}, "
          f"{platform.machine()}, {os.cpu_count()} hw threads")
    with tempfile.TemporaryDirectory(prefix="ecnd-ab-") as tmp:
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        sides = {"base": Path(tmp), "change": ROOT}
        records = [compare(w, sides, bench) for w in workloads]

    context = {"base": sha, "change": head, "dirty": dirty,
               "machine": {"arch": platform.machine(), "hw_threads": os.cpu_count()}}
    with open(ROOT / "BENCH_history.jsonl", "a") as f:
        for r in records:
            f.write(json.dumps({**r, **context}, sort_keys=True,
                               separators=(",", ":")) + "\n")
    regressed = [f"{r['workload']} {name}" for r in records
                 for name, m in r["metrics"].items() if m["verdict"] == "regression"]
    incorrect = [r["workload"] for r in records if not r["correct"]]
    print()
    for what, items in (("regression", regressed), ("not correct", incorrect)):
        if items:
            print(f"ab.py: {what}: {', '.join(items)}")
    print(f"ab.py: {'FAIL' if regressed or incorrect else 'ok'}")
    return 1 if regressed or incorrect else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
