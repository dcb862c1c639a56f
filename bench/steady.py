"""Steadiness check: several sets of benchmark runs of the same commit.

    python3 bench/steady.py [--sets 2] [--runs 10]

Runs bench/run.py on every workload of BENCHMARK.json for its
run_seconds, --runs times per set and workload, each run with its own
seed (set k, run i uses seed 1000*k + i).  The sets are interleaved run
by run and the order of sets and of workloads alternates, so a slow
spell of the host falls on every set alike.  For each workload and
end-to-end metric it prints, per set, the median and quartiles, the
quartile spread as a share of the median, and the move of each median
from the first set's, against the metric's bound in BENCHMARK.json;
and the share of failed operations per set.  Exits 1 if a spread
exceeds its bound, a median worsens by more than its bound, or the
failed shares differ between sets.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import STAGE_METRICS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    with open(os.path.join(BENCH_DIR, "out", workload, "run_detail.json")) as fh:
        result["detail"] = json.load(fh)
    rounds = result["detail"]["rounds"]
    # raw stage seconds, reported beside the gated metrics but never gated
    for stage in rounds[0]:
        walls = [w for r in rounds for w, _ in r[stage]]
        result["metrics"]["raw:" + stage[:-4] + "_s"] = {"value": statistics.median(walls)}
    return result


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw_names = ["raw:" + m[:-4] + "_s" for m in STAGE_METRICS]

    results = {(w, s): [] for w in workloads for s in range(args.sets)}
    for i in range(args.runs):
        sets = list(range(args.sets))
        order = workloads if i % 2 == 0 else workloads[::-1]
        for s in sets if i % 2 == 0 else sets[::-1]:
            for w in order:
                res = _run(w, 1000 * s + i, spec["run_seconds"])
                results[(w, s)].append(res)
                print(f"set {s} run {i} {w}: correct {res['correct']} "
                      f"failed {res['failed']}/{res['attempted']}", flush=True)

    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    with open(os.path.join(BENCH_DIR, "out", "steady.json"), "w") as fh:
        json.dump({f"{w}/set{s}": runs for (w, s), runs in results.items()}, fh, indent=1)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<14}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>8}{'move':>8}{'bound':>7}")
        for name, bound in list(bounds.items()) + [(n, None) for n in raw_names]:
            first = None
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in results[(w, s)]]
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / q2
                first = q2 if first is None else first
                move = q2 / first - 1.0
                flag, shown = "", "-"
                if bound is not None:
                    shown = f"{bound:.2f}"
                    if spread > bound or move > bound:
                        flag, ok = "  OVER", False
                    elif spread > bound / 3:
                        flag = "  >1/3"
                print(f"  {name:<14}{s:>4}{q2:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                      f"{spread:>8.3f}{move:>+8.3f}{shown:>7}{flag}")
        shares = []
        for s in range(args.sets):
            runs = results[(w, s)]
            shares.append(sorted({(r["failed"], r["attempted"]) for r in runs}))
            bad = [r for r in runs if not r["correct"]]
            ok = ok and not bad
            print(f"  set {s}: failed/attempted {shares[-1]}  incorrect runs {len(bad)}")
        share_sets = [{f / a for f, a in sh} for sh in shares]
        if any(len(x) != 1 for x in share_sets) or len(set().union(*share_sets)) != 1:
            print("  failed share differs between runs")
            ok = False
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
