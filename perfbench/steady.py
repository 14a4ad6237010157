"""Steadiness: do two sets of runs of the same code agree within the bounds?

Usage (from the root of a checkout)::

    python3 perfbench/steady.py [--runs 5] [--first-seed 100] [--traced]

Runs ``--runs`` pairs of every workload in ``BENCHMARK.json``, each run
``run_seconds`` long, alternating which set goes first, each run on its
own seed.  For every end-to-end metric it prints each set's median and
quartiles, the spread of all runs (interquartile range over the median, as
the bound is defined), and whether both the spread and the second set's
median against the first's are within the metric's bound.  It also checks
that the share of failed operations is the same in both sets.  With
``--traced`` each pair adds a traced run, and the traced ratios against
the untraced ones give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from host import median, quartiles  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=5, help="runs per set (default 5)")
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--traced", action="store_true")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        traced = []
        seed = args.first_seed
        for i in range(args.runs):
            for name in ("AB" if i % 2 == 0 else "BA"):
                result = one_run(workload, seed, bench["run_seconds"], 0)
                sets[name].append(result)
                shown = " ".join(
                    f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items()))
                print(f"{workload} set {name} seed {seed}: {shown}", flush=True)
                seed += 1
            if args.traced:
                traced.append(one_run(workload, seed, bench["run_seconds"], 1))
                seed += 1
        print(f"\n{workload}: {'metric':14s} {'set A q1/med/q3':>30s} {'set B q1/med/q3':>30s}"
              f" {'spread':>7s} {'B-A':>7s} {'bound':>6s}")
        for metric, bound in bounds.items():
            a = [r["metrics"][metric]["value"] for r in sets["A"]]
            b = [r["metrics"][metric]["value"] for r in sets["B"]]
            q1, med, q3 = quartiles(a + b)
            spread = (q3 - q1) / med if med else float("inf")
            drift = (median(b) - median(a)) / median(a)
            agree = abs(drift) <= bound
            steady = spread <= bound
            ok &= agree and steady
            qa, qb = quartiles(a), quartiles(b)
            print(f"{'':10s}{metric:14s} {qa[0]:9.4g}/{qa[1]:9.4g}/{qa[2]:9.4g}"
                  f" {qb[0]:9.4g}/{qb[1]:9.4g}/{qb[2]:9.4g} {spread:7.3f} {drift:+7.3f}"
                  f" {bound:6.2f} {'ok' if agree and steady else 'NOT STEADY'}"
                  f"{'' if spread <= bound / 3 else '  (spread above a third of the bound)'}")
        shares = {k: sum(r["failed"] for r in v) / sum(r["attempted"] for r in v)
                  for k, v in sets.items()}
        same = shares["A"] == shares["B"]
        ok &= same
        print(f"{'':10s}failed share: A {shares['A']:.6f}  B {shares['B']:.6f}"
              f"  {'equal' if same else 'DIFFERENT'}")
        if traced:
            for metric in ("cold_x_floor", "warm_x_floor"):
                untraced = median(r["metrics"][metric]["value"] for r in sets["A"] + sets["B"])
                with_trace = median(r["metrics"]["traced." + metric]["value"] for r in traced)
                print(f"{'':10s}tracing overhead on {metric}: "
                      f"{100 * (with_trace / untraced - 1):+.1f}%")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
