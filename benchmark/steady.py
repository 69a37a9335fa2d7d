#!/usr/bin/env python3
"""Steadiness tool for the capmem benchmark.

Runs sets of untraced runs of the same build on every workload, each run
with its own seed, interleaving the sets and alternating the workload order
from run to run so that slow phases of the host fall on every set alike.
For every end-to-end metric it reports each set's median and quartiles, the
spread (third minus first quartile, as a share of the median) beside the
metric's bound in BENCHMARK.json, and the shift of the second set's median
from the first's. Every spread, setup_s's too, must stay within its bound
(a spread above a third of the bound is marked WIDE: the target, not the
requirement), every shift within the bound, and the share of failed
operations must be the same in every run.

    python3 benchmark/steady.py --runs 10 --sets 2
    python3 benchmark/steady.py --digest    # traced vs untraced, same seed

--digest runs one short untraced and one short traced run per workload with
the same seed. Round 1 is the first traced round of the traced run, so the
digest of its simulated outputs must equal round 1's of the untraced run.
Exit status is 0 only when every requirement holds.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "benchmark", "run.py")]


def run_once(workload, seed, seconds, trace):
    p = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace",
                              str(trace)],
                       cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit("run failed (%s seed %d):\n%s" % (workload, seed,
                                                   p.stderr[-2000:]))
    result = json.loads(p.stdout.strip().splitlines()[-1])
    digest = re.search(r"round 1 traced %d simulated-output digest "
                       r"([0-9a-f]+)" % trace, p.stderr)
    return result, digest.group(1) if digest else None


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def check_digests(spec, seconds):
    ok = True
    for w in spec["workloads"]:
        _, plain = run_once(w["name"], 7, seconds, 0)
        _, traced = run_once(w["name"], 7, seconds, 1)
        same = plain is not None and plain == traced
        ok &= same
        print("%-16s round 1 untraced %s traced %s %s"
              % (w["name"], plain, traced, "ok" if same else "DIFFER"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated subset of the workloads")
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--digest", action="store_true")
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_out",
                                                  "steady.json"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    if args.digest:
        return 0 if check_digests(spec, 2) else 1
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    # results[workload][set] = list of run results
    results = {w: [[] for _ in range(args.sets)] for w in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else names[::-1]
        sets = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
        for s in sets:
            for w in order:
                seed = args.seed + i + 1000 * s
                r, _ = run_once(w, seed, seconds, 0)
                results[w][s].append(r)
                print("set %d run %d %-16s seed %-5d correct=%s failed=%d/%d"
                      % (s + 1, i + 1, w, seed, r["correct"], r["failed"],
                         r["attempted"]), flush=True)

    ok = True
    report = {}
    for w in names:
        print("\n== %s" % w)
        runs = [r for s in results[w] for r in s]
        if not all(r["correct"] for r in runs):
            ok = False
            print("  some runs were not correct")
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1:
            ok = False
            print("  failed share differs between runs: %s" % sorted(shares))
        for name, m in bounds.items():
            row = {"bound": m["bound"], "sets": []}
            line = "  %-22s bound %.2f" % (name, m["bound"])
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in results[w][s]]
                med, q1, q3, sp = spread(vals)
                row["sets"].append({"median": med, "q1": q1, "q3": q3,
                                    "spread": sp, "values": vals})
                ok &= sp <= m["bound"]
                mark = ("" if sp < m["bound"] / 3 else
                        " WIDE" if sp <= m["bound"] else " TOO WIDE")
                line += " | set%d med %.6g [%.6g, %.6g] spread %.3f%s" % (
                    s + 1, med, q1, q3, sp, mark)
            if args.sets > 1:
                a, b = row["sets"][0]["median"], row["sets"][1]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                row["shift"] = worse
                good = worse <= m["bound"]
                ok &= good
                line += " | shift %+.3f%s" % (worse, "" if good else " WORSE")
            report.setdefault(w, {})[name] = row
            print(line)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
    print("\n%s (report: %s)" % ("steady" if ok else "NOT steady", args.out))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
