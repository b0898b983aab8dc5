#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--rounds R] [--domains D]

Builds perfbench/bench.exe with dune from the checkout this file sits in,
runs the workload there, checks that the result line names exactly the
metrics BENCHMARK.json lists for the mode (end_to_end for --trace 0,
per_layer for --trace 1) with their units, and echoes the program's
standard output, whose last line is the result. Exits non-zero when the
build, the run or a check fails; a build or run failure prints no result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ("addfriend", "dialing", "scale", "wire")
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: not a checkout of the repository" % ROOT)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def stop_group(pgid):
    """Kill whatever is left of the run's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run(args, timeout=RUN_TIMEOUT):
    """Run bench.exe in its own process group; return (exit code, stdout)."""
    proc = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail("run exceeded %d s" % timeout)
    stop_group(proc.pid)
    return proc.returncode, out.decode()


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        raise ValueError("failed must be a whole number")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra))
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int, help="run exactly this many timed rounds")
    p.add_argument("--domains", type=int, help="pool size (default: one domain)")
    a = p.parse_args()
    build()
    args = [a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.rounds is not None:
        args += ["--rounds", str(a.rounds)]
    if a.domains is not None:
        args += ["--domains", str(a.domains)]
    code, out = run(args)
    lines = out.rstrip("\n").split("\n")
    try:
        check_result(lines[-1], a.trace == 1)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        sys.stderr.write(out)
        fail("bad result line (exit %d): %s" % (code, e))
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
