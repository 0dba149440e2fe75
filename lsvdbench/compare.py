#!/usr/bin/env python3
"""Collects and compares sets of LSVD benchmark results.

Collect a result set (one run per workload and seed, each saved as the
benchmark's full standard output):

    python3 lsvdbench/compare.py collect --out DIR [--seeds 1-10]
        [--workloads W,...] [--seconds S] [--trace 0|1]

Report one set (median, quartiles and spread of every workload x metric
pair, and whether the spread is within the metric's bound), or compare two
sets of runs of the same benchmark (verdict of B against A for every pair):

    python3 lsvdbench/compare.py report DIR_A [DIR_B]

Bounds and better directions come from BENCHMARK.json. The spread is the
distance between the first and third quartiles as a share of the median.
A pair is "steady" when its spread is at most a third of its bound. B
"regressed" when its median is worse than A's by more than the bound, and is
"unresolved" when either spread exceeds the bound. The failed share of every
workload must be exactly equal in the two sets. Exit status: 0 when nothing
regressed and every failed share matches, 1 otherwise, 2 on bad usage.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def collect(args, spec):
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    for w in workloads:
        os.makedirs(os.path.join(args.out, w), exist_ok=True)
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(seconds),
                                     "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            path = os.path.join(args.out, w, "seed%d.txt" % seed)
            with open(path, "w") as f:
                f.write(out.stdout)
            status = "ok" if out.returncode == 0 else "exit %d" % out.returncode
            print("%s seed %d: %s -> %s" % (w, seed, status, path), flush=True)
    return 0


def load_set(directory):
    """{workload: [result dict, ...]} from a collected directory."""
    runs = {}
    for w in sorted(os.listdir(directory)):
        wdir = os.path.join(directory, w)
        if not os.path.isdir(wdir):
            continue
        for name in sorted(os.listdir(wdir)):
            with open(os.path.join(wdir, name)) as f:
                lines = f.read().strip().splitlines()
            if not lines:
                continue
            try:
                runs.setdefault(w, []).append(json.loads(lines[-1]))
            except json.JSONDecodeError:
                print("%s/%s: no result line" % (w, name))
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed, attempted


def report(args, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load_set(d) for d in args.dirs]
    bad = False
    for w in sorted(sets[0]):
        results = [s.get(w, []) for s in sets]
        if any(not r for r in results):
            print("%s: missing from one set" % w)
            bad = True
            continue
        print("== %s (%s runs)" % (w, " vs ".join(str(len(r)) for r in results)))
        for i, r in enumerate(results):
            f, a = failed_share(r)
            incorrect = sum(1 for x in r if not x["correct"])
            print("  set %s: failed %d of %d attempted (%.6f)%s" % (
                "AB"[i], f, a, f / a if a else 0,
                ", %d runs not correct" % incorrect if incorrect else ""))
            bad |= incorrect != 0
        if len(results) == 2:
            fa, aa = failed_share(results[0])
            fb, ab = failed_share(results[1])
            if fa * ab != fb * aa:
                print("  FAILED SHARE DIFFERS")
                bad = True
        names = [n for n in results[0][0]["metrics"]]
        for name in names:
            m = metrics.get(name, {})
            bound = m.get("bound")
            lower = m.get("better") == "lower"
            cols = []
            stats = []
            for r in results:
                vals = [x["metrics"][name]["value"] for x in r
                        if name in x["metrics"]]
                stats.append(summary(vals))
                med, q1, q3, spread = stats[-1]
                cols.append("med %14.6g q1 %14.6g q3 %14.6g spread %.4f" %
                            (med, q1, q3, spread))
            verdict = ""
            if bound is not None:
                spreads_ok = all(s[3] <= bound for s in stats)
                if len(stats) == 1:
                    verdict = ("steady" if stats[0][3] <= bound / 3 else
                               "within bound" if spreads_ok else "UNSTEADY")
                else:
                    a, b = stats[0][0], stats[1][0]
                    worse = (b - a) / abs(a) if a else 0.0
                    worse = worse if lower else -worse
                    if worse > bound:
                        verdict = "REGRESSED (%.1f%% worse, bound %.0f%%)" % (
                            100 * worse, 100 * bound)
                        bad = True
                    elif not spreads_ok:
                        verdict = "unresolved (spread above bound)"
                    elif worse == 0:
                        verdict = "ok (same)"
                    else:
                        verdict = "ok (%.1f%% %s)" % (
                            100 * abs(worse), "better" if worse < 0 else "worse")
            print("  %-36s %s  %s" % (name, "  |  ".join(cols), verdict))
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(allow_abbrev=False, description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", allow_abbrev=False)
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", default="")
    c.add_argument("--seconds", type=int, default=0)
    c.add_argument("--trace", type=int, choices=[0, 1], default=0)
    r = sub.add_parser("report", allow_abbrev=False)
    r.add_argument("dirs", nargs="+")
    args = p.parse_args()
    spec = load_spec()
    if args.cmd == "collect":
        return collect(args, spec)
    if len(args.dirs) > 2:
        p.error("report takes one or two result directories")
    return report(args, spec)


if __name__ == "__main__":
    sys.exit(main())
