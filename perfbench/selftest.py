#!/usr/bin/env python3
"""Self-test: the benchmark's per-round work counts repeat exactly.

    python3 perfbench/selftest.py [--seed N] [--rounds R] [--workloads a,b,...] [--domains D]

Runs every workload twice with --trace 1 on one seed, a fixed number of
timed rounds and one pool size (the benchmark's own, one domain, unless
--domains says otherwise), and compares the per-round work counts each
traced run prints on its info line: pairing.mont_mul, pkg.extractions, the
mixnet.* counts, the client.* trials and hits, mailbox.bytes_published,
the scale.* figures and rpc.calls. Only counts that repeat exactly may
carry a later gain claim.

On one domain every count must repeat. On more domains two may vary, and
are reported rather than failed: pairing.mont_mul, because the
fixed-argument pairing cache is per domain and which domain runs which
chunk of a parallel map varies from run to run, and scale.peak_words, a
GC heap high-water mark that depends on when each domain collects. Exits 1
when any other count differs or a run fails its own checks.
"""

import argparse
import json
import sys

import run as bench


VARY_ON_SEVERAL_DOMAINS = {"pairing.mont_mul", "scale.peak_words"}


def counts(workload, seed, rounds, domains):
    args = [workload, "--seed", str(seed), "--seconds", "60", "--trace", "1", "--rounds", str(rounds)]
    if domains is not None:
        args += ["--domains", str(domains)]
    code, out = bench.run(args)
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    info = next(json.loads(l)["info"] for l in lines if l.startswith('{"info"'))
    if code != 0 or not result["correct"]:
        sys.exit("%s: run failed (exit %d): %s" % (workload, code, info.get("problems")))
    return info["counts"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    p.add_argument("--domains", type=int, help="pool size (default: the benchmark's, one domain)")
    a = p.parse_args()
    bench.build()
    ok = True
    for w in a.workloads.split(","):
        first = counts(w, a.seed, a.rounds, a.domains)
        second = counts(w, a.seed, a.rounds, a.domains)
        for name in sorted(set(first) | set(second)):
            same = first.get(name) == second.get(name)
            allowed = (a.domains or 1) > 1 and name in VARY_ON_SEVERAL_DOMAINS
            ok = ok and (same or allowed)
            status = "same" if same else ("varies" if allowed else "DIFFERS")
            print("%-10s %-28s %-7s %s" % (w, name, status,
                  first.get(name) if same else (first.get(name), second.get(name))))
    print("self-test: " + ("all work counts repeat exactly" if ok else "work counts differ"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
