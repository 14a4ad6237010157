"""Workload ``reproduce``: the paper's path, as ``repro compare`` runs it.

A round visits a fixed catalog slice in catalog order.  For each dataset
it clears the in-process caches (a user pays them on every ``repro
compare``), then times a *cold* pass (load, ``MultiplyContext`` and its
symbolic product, then lower and simulate all seven schemes on the three
Table I GPUs) and a *warm* pass (the same grid with the context cached, as
a second scheme or GPU in one process pays it).  A scipy floor of the same
product is timed before, between and after the two passes, on the
program's own operands rather than on copies held for the run (the first
floor between the cold pass's load and the rest of it).  The simulated grid is
checked in the run; the products are checked against the scipy oracle after
the timed rounds, in a child process (``reproduce_verify.py``), so the peak
RSS this process reports belongs to the program and not to the oracle.

The slice mixes power-law stand-ins where B-Splitting fires, banded
stand-ins where B-Gathering fires, the R-MAT ``A@B`` pair ``ab15`` and
Table III's ``p1``, whose pass is dominated by lowering and simulation.
"""

from __future__ import annotations

import gc
import hashlib
import os
import subprocess
import sys

import numpy as np

import oracle
from host import geomean, now

DATASETS = ("as_caida", "loc_gowalla", "youtube", "harbor", "protein", "poisson3da", "ab15", "p1")
TINY_DATASETS = ("poisson3da", "ab15")
#: The warm pass is timed this many times; its median counts.  One pass of
#: a stand-in takes about 0.1 s, too short to time once on a busy host.
WARM_PASSES = 3


def simulate_grid(ctx, gpus, algorithms) -> list:
    """Lower and simulate every scheme on every GPU: ``(scheme, gpu, stats)``."""
    from repro.gpusim.simulator import GPUSimulator

    out = []
    for gpu in gpus:
        sim = GPUSimulator(gpu)
        for algo in algorithms:
            out.append((algo.name, gpu.name, sim.run(algo.lower(ctx, gpu).to_trace())))
    return out


def row_digest(row_nnz) -> str:
    return hashlib.sha256(np.ascontiguousarray(row_nnz, dtype=np.int64).tobytes()).hexdigest()


class Reproduce:
    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        from repro.bench import runner
        from repro.gpusim.config import ALL_GPUS

        self.rng = np.random.default_rng(seed)
        self.names = TINY_DATASETS if tiny else DATASETS
        self.gpus = list(ALL_GPUS)
        self.algorithms = runner.paper_algorithms()
        self.reference = oracle.load_grid_reference()
        self.verify_dir = os.path.join(workdir, "verify")
        os.makedirs(self.verify_dir)
        self.digests: dict[str, tuple[str, str]] = {}

    def grid(self, ctx) -> list:
        return simulate_grid(ctx, self.gpus, self.algorithms)

    @staticmethod
    def floor(operands: tuple) -> float:
        # Timed once: repeated scipy products here raised the peak RSS by
        # 40 MiB, which the program's own peak must not include.
        t0 = now()
        oracle.floor_product(*operands)
        return now() - t0

    def check(self, name: str, ctx, cells: list) -> None:
        """Check the grid now; keep what the oracle checks after the run.

        The first round saves the symbolic row counts and the product's
        digest for ``reproduce_verify.py``; later rounds must reproduce both.
        """
        oracle.check_grid(
            {f"{name}/{algo}/{gpu}": oracle.stats_record(s) for algo, gpu, s in cells},
            self.reference,
        )
        seen = (oracle.digest(ctx.reference_c), row_digest(ctx.c_row_nnz))
        if name not in self.digests:
            self.digests[name] = seen
            np.save(os.path.join(self.verify_dir, name + ".npy"), ctx.c_row_nnz)
            with open(os.path.join(self.verify_dir, name + ".sha"), "w") as fh:
                fh.write(seen[0])
        elif seen != self.digests[name]:
            raise oracle.CheckError(f"{name}: symbolic product changed between rounds")

    def round(self, layers) -> dict:
        """One pass over the slice; per dataset, its times and floors (s)."""
        from repro.bench import runner
        from repro.datasets import loader

        # The catalog fixes the matrices and, for a steady peak RSS, the
        # order; the seed orders the GPUs.
        self.rng.shuffle(self.gpus)
        passes = []
        for name in self.names:
            loader.clear_cache()
            runner.clear_context_cache()
            # The collector stays on: a pass this long frees its own cyclic
            # garbage as it goes.
            gc.collect()
            # The cold pass is timed in two parts, the load and the rest,
            # with the first floor between them on the loaded operands; the
            # loader keeps the dataset for the context, as in one piece.
            t0 = now()
            ds = loader.load(name)
            load = now() - t0
            operands = (oracle.to_scipy(ds.a), oracle.to_scipy(ds.b))
            del ds
            f0 = self.floor(operands)
            t0 = now()
            ctx = runner.get_context(name)
            cold_cells = self.grid(ctx)
            t1 = now()
            # The cold pass's garbage is not the warm pass's to collect.
            gc.collect()
            f1 = self.floor(operands)
            warm = []
            for _ in range(WARM_PASSES):
                t2 = now()
                ctx = runner.get_context(name)
                warm_cells = self.grid(ctx)
                warm.append(now() - t2)
                self.check(name, ctx, warm_cells)
            f2 = self.floor(operands)
            del operands
            # Each pass is bracketed by the floors timed just before and after.
            passes.append({"cold": load + t1 - t0, "warm": float(np.median(warm)),
                           "cold_floor": (f0 + f1) / 2, "warm_floor": (f1 + f2) / 2})
            self.check(name, ctx, cold_cells)
        loader.clear_cache()
        runner.clear_context_cache()
        return passes

    def run(self, seconds: float, layers) -> dict:
        rounds = []
        start = now()
        while not rounds or now() - start < seconds:
            rounds.append(self.round(layers))
        self.verify()

        def per_round(kind):
            # Geometric mean over the slice: every dataset weighs the same,
            # and one dataset's noisy pass moves the round by its eighth.
            return [geomean(p[kind] / p[kind + "_floor"] for p in r) for r in rounds]

        return {
            "attempted": (1 + WARM_PASSES) * len(self.names) * len(rounds),
            "cold_x_floor": per_round("cold"),
            "warm_x_floor": per_round("warm"),
            "raw.cold_ms": [1e3 * sum(p["cold"] for p in r) for r in rounds],
            "raw.warm_ms": [1e3 * sum(p["warm"] for p in r) for r in rounds],
            "floor.scipy_ms": [1e3 * sum(p["cold_floor"] for p in r) for r in rounds],
            "rounds": len(rounds),
        }

    def verify(self) -> None:
        """Check every dataset's product in a child process (see module doc)."""
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reproduce_verify.py")
        proc = subprocess.run([sys.executable, script, self.verify_dir], capture_output=True,
                              text=True, timeout=150, check=False)
        if proc.returncode != 0:
            raise oracle.CheckError(
                "reproduce verification failed: "
                + (proc.stderr.strip().splitlines() or ["?"])[-1]
            )


def regenerate_grid(path: str) -> int:
    """Rewrite the reference grid from the simulator; returns the cell count."""
    import json

    from repro.bench import runner
    from repro.gpusim.config import ALL_GPUS

    cells = {}
    for name in sorted(set(DATASETS) | set(TINY_DATASETS)):
        ctx = runner.get_context(name)
        for algo, gpu, stats in simulate_grid(ctx, ALL_GPUS, runner.paper_algorithms()):
            cells[f"{name}/{algo}/{gpu}"] = oracle.stats_record(stats)
        runner.clear_context_cache()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"cells": cells}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return len(cells)
