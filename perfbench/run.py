"""The repository's benchmark: one command, four workloads.

Usage::

    python3 perfbench/run.py --workload <reproduce|multiply|chunked|serve>
        --seed N --seconds S --trace <0|1>
    python3 perfbench/run.py --tiny            # every workload in seconds, checks on
    python3 perfbench/run.py --self-test       # the checkers catch wrong output
    python3 perfbench/run.py --regenerate-grid # rewrite grid_reference.json

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics untraced, the per-layer metrics with ``--trace 1``).
Every timing is divided by an independent floor computed in the same run on
the same operands and timed right beside it, which keeps host drift out of
the ratios; raw seconds are reported per layer.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import host  # noqa: E402

WORKLOADS = ("reproduce", "multiply", "chunked", "serve")
#: Set-up is sampled this many times per run (this process plus children).
SETUP_SAMPLES = 5


def metric_units(kind: str) -> list[tuple[str, str]]:
    """``(name, unit)`` of every ``end_to_end`` or ``per_layer`` metric
    declared in ``BENCHMARK.json``: the names a run prints."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def program_importable() -> bool:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return False
    sys.path.insert(0, src)
    return True


def make_workload(name: str, seed: int, tiny: bool, workdir: str, traced: bool):
    if name == "reproduce":
        from reproduce import Reproduce

        return Reproduce(seed, tiny, workdir)
    if name == "multiply":
        from multiply import Multiply

        return Multiply(seed, tiny)
    if name == "chunked":
        from chunked import Chunked

        return Chunked(seed, tiny, workdir)
    from serving import Serve

    return Serve(seed, workdir, traced)


def close(workload) -> None:
    closer = getattr(workload, "close", None)
    if closer is not None:
        closer()


def setup_sample(args) -> float:
    """Set-up time of a fresh process: start until the first operation could run."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    for line in proc.stdout.splitlines():
        if line.startswith("setup_s "):
            return float(line.split()[1])
    raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-300:]}")


def run_workload(args, workdir: str) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    from repro import kernels

    steal0 = host.cpu_times()
    workload = make_workload(args.workload, args.seed, args.tiny, workdir, bool(args.trace))
    setup_times = [host.process_age()]
    if args.setup_only:
        close(workload)
        print(f"setup_s {setup_times[0]!r}", flush=True)
        return {}
    # Half the other set-up samples are taken before the measured work and
    # half after it, so that one slow spell of the host weighs on few.
    setup_times += [setup_sample(args) for _ in range((SETUP_SAMPLES - 1) // 2)]
    layers = None
    if args.trace:
        from layers import Layers, install_program_layers

        layers = Layers()
        install_program_layers(layers)
    try:
        out = workload.run(args.seconds, layers)
    finally:
        if layers is not None:
            layers.enabled = False
        close(workload)
    steal1 = host.cpu_times()
    setup_times += [setup_sample(args) for _ in range(SETUP_SAMPLES - len(setup_times))]

    series = dict(out)
    series["setup_s"] = setup_times
    series.setdefault("peak_rss_mib", [host.peak_rss_mib()])
    prov = host.provenance(kernels.active_name())
    prov["steal_pct"] = round(host.steal_pct(steal0, steal1), 3)
    prov["rounds"] = out["rounds"]
    print("# host " + json.dumps(prov, sort_keys=True), flush=True)

    if args.trace:
        series["host.steal_pct"] = [prov["steal_pct"]]
        for name in ("cold_x_floor", "warm_x_floor"):
            series["traced." + name] = series[name]
        rounds = max(1, out["rounds"])
        # What the wrappers accumulated is reported per round; what the
        # workload measured itself, as the median of its samples.  Workloads
        # that do not exercise a layer report 0 for it.
        metrics = {
            name: {
                "value": host.median(series[name]) if name in series
                else layers.values.get(name, 0.0) / rounds,
                "unit": unit,
            }
            for name, unit in metric_units("per_layer")
        }
    else:
        metrics = {
            name: {"value": host.median(series[name]), "unit": unit}
            for name, unit in metric_units("end_to_end")
        }
    return {
        "correct": True,
        "attempted": int(out["attempted"]),
        "failed": int(out.get("failed", 0)),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs; without --workload, runs every workload briefly")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--self-test", action="store_true",
                   help="feed each checker wrong output and expect it to be caught")
    p.add_argument("--regenerate-grid", action="store_true",
                   help="rewrite the simulated-grid reference from the simulator")
    args = p.parse_args(argv)

    if not program_importable():
        print("error: run from the root of a checkout that holds src/repro", file=sys.stderr)
        return 2
    if args.self_test:
        from selftest import main as self_test

        return self_test()
    if args.regenerate_grid:
        import oracle
        from reproduce import regenerate_grid

        n = regenerate_grid(oracle.GRID_REFERENCE)
        print(f"wrote {n} cells to {oracle.GRID_REFERENCE}")
        return 0
    if args.workload is None:
        if not args.tiny:
            p.error("--workload is required (or --tiny for a quick pass over all)")
        return tiny_all(args)

    workdir = os.path.join(ROOT, ".perfbench-tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    # Spills, caches and child processes' temporary files stay in the checkout.
    os.environ["TMPDIR"] = workdir
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    import oracle

    try:
        result = run_workload(args, workdir)
    except oracle.CheckError as exc:
        print(f"error: {args.workload}: wrong output: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    if result:
        print(json.dumps(result, sort_keys=True))
    return 0


def tiny_all(args) -> int:
    """Every workload with small inputs and every check on, in seconds."""
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--tiny",
                   "--seed", str(args.seed), "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=False)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                result = {}
            ok = proc.returncode == 0 and result.get("correct") is True and not result.get("failed")
            bad += not ok
            print(f"{name:9s} trace={trace} {'ok' if ok else 'FAILED'}  "
                  f"attempted={result.get('attempted')} metrics={len(result.get('metrics', {}))}")
            if not ok:
                print(proc.stderr.strip()[-2000:], file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
