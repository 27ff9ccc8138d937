#!/usr/bin/env python3
"""Paired benchmark gate: a tmx checkout against its base.

    python3 .github/perfgate.py BASE_DIR HEAD_DIR

BASE_DIR and HEAD_DIR are two tmx checkouts; CI passes a `git worktree`
of the commit before a push and the pushed commit.  The workloads and
the end-to-end metrics, with their direction (`better`) and `bound`,
come from BASE_DIR/BENCHMARK.json, so a change cannot loosen the gate it
is judged by.  For every workload the gate runs 5 pairs of 10-second
untraced runs of `perfbench/run.py`, one run in each checkout per pair,
both with the pair's seed; the checkout that runs first alternates from
pair to pair.  It prints every metric's median and quartiles on both
sides, and fails when

- a run is incorrect: a wrong answer, a failed operation or no result;
- the head fails a larger share of its operations than the base;
- a head median is worse than the base median by more than the metric's
  bound (relative) and by more than the base's interquartile range.

A metric whose interquartile range, on either side, is wider than its
bound is printed as "unresolved" instead: five runs cannot tell a
change of that size from noise, so the gate does not judge it, unless
every head run is worse than every base run and the medians differ by
more than the bound.  Both sides' spreads are looked at because five
runs estimate a spread loosely: on a 2-vCPU host, serve-replay's
setup_s spreads about as wide as its 25% bound, and with the base's
spread alone 2 of 4 A/A runs (the same commit on both sides) failed on
it.  Exit status: 0 pass,
1 regression or incorrect run, 2 bad usage.  Python 3 standard library
only; dune must be on PATH.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 5
SECONDS = 10


def run_once(checkout, workload, seed):
    """One untraced run; its JSON result, or None when it is incorrect."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not result or result.get("correct") is not True:
        sys.stdout.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    return result


def quartiles(xs):
    """(q1, median, q3).  Python's default (exclusive) method: of 5 runs
    the inclusive quartiles would be the 2nd and 4th values, whose
    distance understates the spread, so a metric as noisy as its bound
    would be judged rather than reported unresolved."""
    return statistics.quantiles(xs, n=4)


def judge(metric, base_runs, head_runs):
    """The verdict on one metric: "ok", "unresolved" or "REGRESSED"."""
    sign = 1 if metric["better"] == "lower" else -1
    base, head = quartiles(base_runs), quartiles(head_runs)
    b_q1, b_med, b_q3 = base
    beyond_bound = sign * (head[1] - b_med) > metric["bound"] * abs(b_med)
    if beyond_bound and all(sign * (h - b) > 0
                            for h in head_runs for b in base_runs):
        return "REGRESSED"
    if any(q3 - q1 > metric["bound"] * abs(med) > 0
           for q1, med, q3 in (base, head)):
        return "unresolved"
    if beyond_bound and sign * (head[1] - b_med) > b_q3 - b_q1:
        return "REGRESSED"
    return "ok"


def fmt(x):
    return f"{x:.4g}"


def gate_workload(base_dir, head_dir, workload, metrics):
    """Run the pairs of one workload; the list of its failures."""
    runs = {"base": [], "head": []}
    dirs = {"base": base_dir, "head": head_dir}
    failures = []
    for pair in range(PAIRS):
        seed = pair + 1
        order = ["base", "head"] if pair % 2 == 0 else ["head", "base"]
        for side in order:
            result = run_once(dirs[side], workload, seed)
            if result is None:
                failures.append(f"{workload}: {side} run with seed {seed} "
                                "is incorrect")
            else:
                runs[side].append(result)
    if failures:
        return failures

    def failed_share(side):
        attempted = sum(r["attempted"] for r in runs[side])
        return sum(r["failed"] for r in runs[side]) / max(attempted, 1)

    if failed_share("head") > failed_share("base"):
        failures.append(f"{workload}: the head fails {failed_share('head'):.3%}"
                        f" of operations, the base {failed_share('base'):.3%}")
    print(f"{workload} ({PAIRS} pairs of {SECONDS}-s runs)", flush=True)
    print(f"  {'metric':<12} {'base median [q1, q3]':>30} "
          f"{'head median [q1, q3]':>30} {'change':>8}  verdict")
    for metric in metrics:
        name = metric["name"]
        try:
            values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                      for side in runs}
        except KeyError:
            failures.append(f"{workload}: a run does not report {name}")
            continue
        q = {side: quartiles(values[side]) for side in values}
        b_med, h_med = q["base"][1], q["head"][1]
        change = f"{h_med / b_med - 1:+.1%}" if b_med else "n/a"
        verdict = judge(metric, values["base"], values["head"])
        cells = [f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]"
                 for q1, med, q3 in (q["base"], q["head"])]
        print(f"  {name:<12} {cells[0]:>30} {cells[1]:>30} {change:>8}  "
              f"{verdict}")
        if verdict == "REGRESSED":
            failures.append(
                f"{workload}: {name} median {fmt(h_med)} against {fmt(b_med)}"
                f" ({change}; {metric['better']} is better, bound "
                f"{metric['bound']:.0%})")
    return failures


def main():
    if len(sys.argv) != 3:
        print("usage: python3 .github/perfgate.py BASE_DIR HEAD_DIR",
              file=sys.stderr)
        return 2
    base_dir, head_dir = (os.path.abspath(d) for d in sys.argv[1:])
    with open(os.path.join(base_dir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in spec["workloads"]:
        failures += gate_workload(base_dir, head_dir, workload["name"],
                                  spec["end_to_end"])
    if failures:
        print("\nbenchmark gate FAILED:")
        for failure in failures:
            print("  " + failure)
        return 1
    print("\nbenchmark gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
