#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs each workload on a range of seeds and reports, for every end-to-end
metric, the spread between the first and third quartile of its values as
a share of their median (statistics.quantiles(values, n=4)), next to the
metric's bound from BENCHMARK.json. With --sets 2 the same seeds run a
second time: the second median of every metric must not be worse than the
first by more than its bound, and every deterministic work counter must
repeat exactly for each seed. With --traced N it also makes N traced runs
per workload and prints the per-layer medians and the tracing overhead
(traced minus untraced ops_per_s).

    python3 perfbench/steady.py --workloads serve,fleet --seeds 10 --sets 2

Run from the repository root. Exits non-zero when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    counters = {}
    for line in lines:
        f = line.split()
        if len(f) == 3 and f[0] == "counter":
            counters[f[1]] = int(f[2])
    return result, counters


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse(first, second, better):
    return (second - first) / first if better == "lower" else (first - second) / first


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="sweep,characterize,serve,fleet")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--traced", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    ok = True
    for w in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in seeds:
                result, counters = run(w, seed, seconds, 0)
                m = result["metrics"]
                print(f"  {w} seed {seed}: " + " ".join(
                    f"{k} {m[k]['value']:.5g}" for k in ("ops_per_s", "op_p50_ms", "cpu_s_per_op")
                ) + f" grid_points {counters.get('registry.grid_points')}", flush=True)
                if not result["correct"] or result["failed"]:
                    print(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}")
                    ok = False
                runs.append((seed, result, counters))
            sets.append(runs)
        print(f"\n{w}: {args.seeds} seeds x {args.sets} set(s), run_seconds {seconds}")
        for name, m in e2e.items():
            row = f"  {name:16s}"
            medians = []
            for runs in sets:
                vals = [r["metrics"][name]["value"] for _, r, _ in runs]
                sp = spread(vals)
                medians.append(statistics.median(vals))
                flag = ""
                if name != "setup_s" and sp > m["bound"]:
                    flag, ok = " OVER BOUND", False
                elif name != "setup_s" and sp > m["bound"] / 3:
                    flag = " above bound/3"
                row += f" median {medians[-1]:12.5g} spread {sp:6.3f}{flag}"
            if len(medians) == 2:
                d = worse(medians[0], medians[1], m["better"])
                flag = " WORSE THAN BOUND" if d > m["bound"] else ""
                ok = ok and not flag
                row += f" | second worse by {d:+.3f} (bound {m['bound']}){flag}"
            print(row)
        if len(sets) == 2:
            drift = [(seed, a, b) for (seed, _, a), (_, _, b) in zip(*sets) if a != b]
            for seed, a, b in drift:
                diff = {k: (a.get(k), b.get(k)) for k in a if a.get(k) != b.get(k)}
                print(f"  counters drift at seed {seed}: {diff}")
            print(f"  counters repeat exactly on {args.seeds - len(drift)}/{args.seeds} seeds")
            ok = ok and not drift
        if args.traced:
            traced = [run(w, seed, seconds, 1)[0] for seed in list(seeds)[: args.traced]]
            untraced = statistics.median(r["metrics"]["ops_per_s"]["value"] for _, r, _ in sets[0])
            t_ops = statistics.median(r["metrics"]["traced.ops_per_s"]["value"] for r in traced)
            print(f"  tracing overhead: ops_per_s {untraced:.5g} untraced, {t_ops:.5g} traced "
                  f"({(t_ops - untraced) / untraced:+.1%})")
            for name in bench["per_layer"]:
                n = name["name"]
                vals = [r["metrics"][n]["value"] for r in traced]
                if any(vals):
                    print(f"  layer {n:26s} median {statistics.median(vals):12.5g} {name['unit']}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
