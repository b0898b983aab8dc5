#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

    python3 perfbench/spread.py --workloads addfriend,wire --seeds 1-10 [--out FILE] [--against FILE]

Runs the command BENCHMARK.json names once per workload and seed, and
prints for every end-to-end metric the median over the seeds,
the quartiles (Python's statistics.quantiles with n=4) and their distance
as a share of the median, next to a third of the metric's bound in
BENCHMARK.json. A metric is steady when that spread stays below a third
of its bound. --out appends every run's output lines, as JSON, to FILE.
--against reads such a FILE from an earlier set of runs and also prints
by how much each median got worse than that set's, as a share of the
earlier median; it must stay within the metric's bound. Exits 1 when a
spread or a drift is out of range.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--out")
    p.add_argument("--against")
    a = p.parse_args()
    earlier = {}
    if a.against:
        with open(a.against) as f:
            for line in f:
                rec = json.loads(line)
                earlier.setdefault(rec["workload"], []).append(json.loads(rec["output"][-1]))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    steady = True
    for w in a.workloads.split(","):
        runs = []
        for s in a.seeds:
            cmd = spec["command"] + ["--workload", w, "--seed", str(s),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.time() - t0
            if r.returncode != 0:
                sys.stderr.write(r.stderr[-2000:])
                sys.exit("%s seed %d: exit %d" % (w, s, r.returncode))
            lines = r.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append(result)
            print("%s seed %d: %.1f s wall, %s" % (w, s, wall, ", ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
            if a.out:
                with open(a.out, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": s, "wall": wall, "output": lines}) + "\n")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < m["bound"] / 3
            print("  %-26s median %-12.6g spread %6.2f%%  (a third of the bound: %5.2f%%) %s" % (
                m["name"], med, 100 * spread, 100 * m["bound"] / 3, "ok" if ok else "WIDE"))
            if w in earlier:
                before = statistics.median(r["metrics"][m["name"]]["value"] for r in earlier[w])
                worse = (med - before) / before if m["better"] == "lower" else (before - med) / before
                in_bound = worse <= m["bound"]
                ok = ok and in_bound
                print("  %-26s earlier median %-12.6g worse by %6.2f%%  (bound: %5.2f%%) %s" % (
                    "", before, 100 * worse, 100 * m["bound"], "ok" if in_bound else "DRIFT"))
            steady = steady and ok
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
