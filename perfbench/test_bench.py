#!/usr/bin/env python3
"""Self-test of the benchmark: a short run of every workload, untraced
and traced.

    python3 perfbench/test_bench.py

Checks that each run is correct and prints exactly the metrics
BENCHMARK.json lists, each with its unit: untraced, every end-to-end
metric, each a positive number; traced, every per-layer metric.  Then
checks that runs against corrupted reference answers fail.  Run from the
root of the checkout; takes about a minute.
"""

import json
import math
import os
import subprocess
import sys

RUN = [sys.executable, "perfbench/run.py"]
OUT = os.path.join("perfbench", "out")


def run(workload, trace, *extra):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "3",
                 "--trace", str(trace), *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
    return p.returncode, json.loads(last), p


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = [(m["name"], m["unit"]) for m in bench[key]]
        for w in bench["workloads"]:
            code, res, p = run(w["name"], trace)
            if code != 0 or not res.get("correct"):
                failures.append(f"{w['name']} trace {trace}: exit {code}\n{p.stdout[-2000:]}"
                                f"\n{p.stderr[-2000:]}")
                continue
            printed = [(n, m["unit"]) for n, m in res["metrics"].items()]
            if printed != wanted:
                failures.append(f"{w['name']} trace {trace}: printed {printed}, "
                                f"listed {wanted}")
            for n, m in res["metrics"].items():
                v = m["value"]
                if not isinstance(v, (int, float)) or math.isnan(v) or (
                        trace == 0 and not (0 < v < math.inf)):
                    failures.append(f"{w['name']} trace {trace}: {n} = {v}")

    # a corrupted answer must fail the run: first a verdict and a race
    # count, then only the outcome sets
    os.makedirs(OUT, exist_ok=True)
    bad = os.path.join(OUT, "corrupt-reference.txt")
    with open("perfbench/reference.txt") as f:
        good = f.read().splitlines()

    def corrupt(fields):
        if fields[:2] == ["cat", "privatization"]:
            fields[9] = str(int(fields[9]) + 1)  # racy executions
            fields[14] = "0"  # the paper's verdicts no longer pass

    def corrupt_outcomes(fields):
        if fields[0] == "cat":
            fields[4] = "0" * 32  # the digest of the outcome set

    for change in (corrupt, corrupt_outcomes):
        lines = []
        for line in good:
            fields = line.split()
            if not line.startswith("#"):
                change(fields)
            lines.append(" ".join(fields) if not line.startswith("#") else line)
        with open(bad, "w") as f:
            f.write("\n".join(lines) + "\n")
        for w in ("verify-corpus", "serve-replay"):
            code, res, _ = run(w, 0, "--reference", bad)
            if code == 0 or res.get("correct", True):
                failures.append(f"{w}: {change.__name__}: a corrupted reference answer "
                                "did not fail the run")
    os.remove(bad)

    for f in failures:
        print("FAIL", f)
    print("perfbench self-test:", "FAILED" if failures else "ok")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
