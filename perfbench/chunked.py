"""Workload ``chunked``: ``Runtime.multiply_chunked_operands`` under a budget.

One power-law and one banded operand, from the seed, are multiplied by
row-product through the out-of-core executor with a budget small enough to
force hundreds of panels with spills, with ``exec_workers`` set to the
available CPUs.  At this budget no panel's primitive is large enough for
the exec pool, so the exec plane runs each call serially and the pool never
starts (a larger budget, where it does, was too unsteady to gate; see the
README).  A round multiplies both operands with fresh values.  Rounds
alternate: an even round runs on a fresh runtime, which sees both
structures for the first time (cold); the odd round after it repeats them
on that runtime (warm).  Each multiply is timed between in-memory scipy
floors of the same product.

Only this workload exercises ``repro.oocore`` and ``repro.exec``.  It runs
in its own process, so the peak RSS it reports belongs to this path; the
in-memory reference products the checks need are computed afterwards in a
child process (``chunked_verify.py``) for the same reason.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys

import numpy as np

import oracle
from host import available_cpus, now

SCHEME = "row-product"
#: The in-memory product is timed this many times just before and as many
#: just after each chunked multiply, and the median of them all is its
#: floor: with one timing after it, one hiccup moved a run's
#: ``cold_x_floor`` by a third.
FLOOR_REPEATS = 2


def operands(seed: int, tiny: bool) -> dict:
    """The two operand structures, a pure function of the seed."""
    from repro.sparse.random import banded_regular, power_law

    if tiny:
        return {
            "power_law": power_law(1200, 5000, seed, alpha=1.2, max_degree_fraction=0.2,
                                   col_bias=3.0).to_csr(),
            "banded": banded_regular(600, 20, seed + 1).to_csr(),
        }
    return {
        "power_law": power_law(8000, 40000, seed, alpha=1.2, max_degree_fraction=0.2,
                               col_bias=3.0).to_csr(),
        "banded": banded_regular(2000, 30, seed + 1).to_csr(),
    }


def budget(tiny: bool) -> int:
    return (256 << 10) if tiny else (1 << 20)


class Chunked:
    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        self.seed, self.tiny = seed, tiny
        self.rng = np.random.default_rng(seed)
        self.operands = operands(seed, tiny)
        self.spill_dir = os.path.join(workdir, "spill")
        os.makedirs(self.spill_dir)
        self.verify_dir = os.path.join(workdir, "verify")
        os.makedirs(self.verify_dir)
        self.runtime = None
        self.new_runtime(None)
        self.ops = 0
        self.resident_peak = 0.0

    def new_runtime(self, layers) -> None:
        """Replace the runtime by a fresh one, folding the old one's exec
        counters into the per-layer metrics."""
        from repro.runtime import Runtime, RuntimeConfig

        self.close(layers)
        self.runtime = Runtime(RuntimeConfig(
            use_result_cache=False,
            exec_workers=available_cpus(),
            mem_budget=budget(self.tiny),
            spill_dir=self.spill_dir,
        ))

    def close(self, layers=None) -> None:
        if self.runtime is None:
            return
        stats = self.runtime.exec_stats() if layers is not None else None
        if stats is not None:
            for key in ("parallel_calls", "serial_calls", "partitions", "fallbacks",
                        "publish_misses"):
                layers.values[f"exec.{key}"] += getattr(stats, key)
        self.runtime.close()
        self.runtime = None

    @staticmethod
    def floor(a_sp) -> list[float]:
        times = []
        for _ in range(FLOOR_REPEATS):
            t0 = now()
            oracle.floor_product(a_sp, a_sp)
            times.append(now() - t0)
        return times

    def op(self, name: str, layers) -> tuple[float, float, dict]:
        from repro.sparse.csr import CSRMatrix

        base = self.operands[name]
        a = CSRMatrix(base.shape, base.indptr, base.indices, self.rng.random(base.nnz) + 0.5)
        a_sp = oracle.to_scipy(a)
        # The collector stays on: a multiply this long frees its own cyclic
        # garbage (and the shared memory it holds) as it goes.
        gc.collect()
        floors = self.floor(a_sp)
        t0 = now()
        c, stats = self.runtime.multiply_chunked_operands(SCHEME, a)
        t1 = now()
        floors += self.floor(a_sp)
        leaked = os.listdir(self.spill_dir)
        if leaked:
            raise oracle.CheckError(f"spill files left behind: {leaked[:3]}")
        # The in-memory reference is computed later in a child process; the
        # values and the chunked product's digest are all it needs.
        np.save(os.path.join(self.verify_dir, f"{self.ops:04d}-{name}.npy"), a.data)
        with open(os.path.join(self.verify_dir, f"{self.ops:04d}-{name}.sha"), "w") as fh:
            fh.write(oracle.digest(c))
        self.ops += 1
        return t1 - t0, float(np.median(floors)), stats

    def round(self, layers) -> tuple[float, float]:
        spent = floors = 0.0
        for name in ("power_law", "banded"):
            t, f, stats = self.op(name, layers)
            spent += t
            floors += f
            if layers is not None:
                v = layers.values
                v["oocore.panels"] += stats.n_panels
                v["oocore.spills"] += stats.spill_count
                v["oocore.spilled_mib"] += stats.bytes_spilled / 2**20
                v["oocore.merge_rounds"] += stats.merge_rounds
            self.resident_peak = max(self.resident_peak, stats.resident_peak_bytes / 2**20)
        return spent, floors

    def run(self, seconds: float, layers) -> dict:
        rounds = []
        start = now()
        while not rounds or now() - start < seconds:
            if rounds and len(rounds) % 2 == 0:
                self.new_runtime(layers)
            rounds.append(self.round(layers))
        self.close(layers)
        self.verify()
        cold, warm = rounds[0::2], rounds[1::2] or rounds
        return {
            "attempted": 2 * len(rounds),
            "cold_x_floor": [t / f for t, f in cold],
            "warm_x_floor": [t / f for t, f in warm],
            "raw.cold_ms": [t * 1e3 for t, _ in cold],
            "raw.warm_ms": [t * 1e3 for t, _ in warm],
            "floor.scipy_ms": [f * 1e3 for _, f in rounds],
            "oocore.resident_peak_mib": [self.resident_peak],
            "rounds": len(rounds),
        }

    def verify(self) -> None:
        """Check every chunked product in a child process (see module doc)."""
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "chunked_verify.py")
        args = [sys.executable, script, self.verify_dir, str(self.seed), str(int(self.tiny)),
                SCHEME]
        proc = subprocess.run(args, capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            raise oracle.CheckError(
                "chunked verification failed: " + (proc.stderr.strip().splitlines() or ["?"])[-1]
            )
