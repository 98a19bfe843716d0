#!/usr/bin/env python3
"""Steadiness check: runs workloads in two interleaved batches of seeds.

    python3 perfbench/steady.py [--runs 10] [--seconds 10] [--trace 0]
                                [--workloads serve_zipf,bank_contended]

Each round runs every workload once for batch A and once for batch B, each
run with its own seed, so a host that drifts during the check moves both
batches alike. For every metric it prints the median, the quartiles, the
spread (IQR / median, quartiles as statistics.quantiles(values, n=4) gives
them) and the median of each batch, and flags a gated metric whose spread
exceeds a third of its BENCHMARK.json bound or whose batch medians differ
by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("%s seed %d failed" % (workload, seed))
    lines = proc.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-1]), json.loads(lines[-2][len("# env "):])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload (split over both batches)")
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    values = {w: {} for w in workloads}   # workload -> metric -> [values]
    batch = {w: {} for w in workloads}    # workload -> metric -> [A/B]
    seed = args.first_seed
    for i in range(args.runs):
        label = "AB"[i % 2]
        for w in workloads:
            result, env = run_once(w, seed, args.seconds, args.trace)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                batch[w].setdefault(name, []).append(label)
            print("# round %d batch %s %s seed %d: %s | host busy %.2f, "
                  "load %.2f" % (
                      i, label, w, seed,
                      " ".join("%s=%.4g" % (k, m["value"])
                               for k, m in result["metrics"].items()),
                      env["host_busy_share"], env["loadavg_end"]),
                  flush=True)
            seed += 1

    bad = 0
    for w in workloads:
        print("\n%s (%d runs, %g s each)" % (w, args.runs, args.seconds))
        print("%-36s %12s %12s %12s %8s %12s %12s" %
              ("metric", "q1", "median", "q3", "spread", "median A",
               "median B"))
        for name, vals in values[w].items():
            a = [v for v, l in zip(vals, batch[w][name]) if l == "A"]
            b = [v for v, l in zip(vals, batch[w][name]) if l == "B"]
            q1, q2, q3, s = spread(vals)
            ma, mb = statistics.median(a), statistics.median(b)
            flag = ""
            if name in bounds:
                bound = bounds[name]
                drift = abs(mb - ma) / ma if ma else float("inf")
                if name != "setup_s" and s > bound / 3:
                    flag = " SPREAD>bound/3"
                if drift > bound:
                    flag += " BATCHES DIFFER"
                bad += bool(flag)
            print("%-36s %12.6g %12.6g %12.6g %8.4f %12.6g %12.6g%s" %
                  (name, q1, q2, q3, s, ma, mb, flag))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
