"""Workload ``multiply``: a warm serial ``Runtime`` fed a seeded stream.

A round sends, for each of the seven schemes, one operand pair of a
structure the runtime has never seen (cold: validate, lower, expand,
merge, capture the replay recipe), then ``REPLAYS`` passes over the seven
schemes' latest structures carrying fresh values (replay), then one
``Runtime.pagerank`` to tol 1e-10 on a fixed power-law graph with fresh
weights.  Structures cycle through power-law, banded and R-MAT families.
Every multiply is timed next to a scipy floor of the same product and every
PageRank next to a scipy power iteration to the same tolerance.

The plan cache, the runtime and the kernels do all the work here and the
GPU simulator none.  Cold and replay use the kernels in opposite ways
(argsort-heavy expansion against gather-multiply-sum), so a gain on one
bought at the other's cost shows.
"""

from __future__ import annotations

import gc

import numpy as np

import oracle
from host import geomean, no_gc, now, untraced

REPLAYS = 4
DAMPING, TOL, MAX_ITER = 0.85, 1e-10, 200


def _families(tiny: bool):
    from repro.sparse.random import banded_regular, power_law
    from repro.sparse.rmat import rmat_graph500

    if tiny:
        return (
            lambda s: power_law(400, 2000, s),
            lambda s: banded_regular(400, 6, s),
            lambda s: rmat_graph500(8, 4, s),
        )
    return (
        lambda s: power_law(3000, 15000, s),
        lambda s: banded_regular(3000, 12, s),
        lambda s: rmat_graph500(11, 6, s),
    )


class Multiply:
    def __init__(self, seed: int, tiny: bool) -> None:
        from repro.runtime import Runtime, RuntimeConfig
        from repro.sparse.random import power_law

        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.families = _families(tiny)
        # The default config is the single-threaded baseline; the persistent
        # result cache is bypassed so nothing is served from an earlier run.
        self.runtime = Runtime(RuntimeConfig(use_result_cache=False))
        self.schemes = list(self.runtime.algorithms())
        self.graph = power_law(2000 if tiny else 20000, 10000 if tiny else 100000, seed).to_csr()
        self.latest: dict[str, tuple] = {}
        self.structures = 0
        # The first PageRank on a structure lowers it; users of a warm
        # runtime pay that once, so it belongs to set-up.
        self.pagerank(self.fresh_values(self.graph))

    def close(self) -> None:
        self.runtime.close()

    def fresh_values(self, m):
        from repro.sparse.csr import CSRMatrix

        data = self.rng.random(m.nnz) + 0.5
        return CSRMatrix(m.shape, m.indptr, m.indices, data)

    def new_structure(self, round_index: int, scheme_index: int):
        family = self.families[(round_index + scheme_index) % len(self.families)]
        self.structures += 1
        a = family(self.seed * 100_003 + self.structures).to_csr()
        return self.fresh_values(a)

    def pagerank(self, adjacency):
        return self.runtime.pagerank(
            "row-product", adjacency, damping=DAMPING, tol=TOL, max_iter=MAX_ITER
        )

    def timed_multiply(self, scheme: str, a, record: list):
        a_sp = oracle.to_scipy(a)
        with no_gc():
            t0 = now()
            c = self.runtime.multiply(scheme, a).result
            t1 = now()
            floor = oracle.floor_product(a_sp, a_sp)
            t2 = now()
        record.append((t1 - t0, t2 - t1))
        return c, floor

    def round(self, round_index: int, layers) -> dict:
        cold, warm, pagerank = [], [], []
        checks = []
        gc.collect()
        for i, scheme in enumerate(self.schemes):
            a = self.new_structure(round_index, i)
            c, floor = self.timed_multiply(scheme, a, cold)
            o = oracle.ProductOracle(a)
            self.latest[scheme] = (a, o)
            checks.append((c, a, o, floor))
        last_replay = {}
        for _ in range(REPLAYS):
            for scheme in self.schemes:
                a, o = self.latest[scheme]
                a = self.fresh_values(a)
                c, floor = self.timed_multiply(scheme, a, warm)
                checks.append((c, a, o, floor))
                last_replay[scheme] = (c, a)

        adjacency = self.fresh_values(self.graph)
        adj_sp = oracle.to_scipy(adjacency)
        with no_gc():
            t0 = now()
            result = self.pagerank(adjacency)
            t1 = now()
            ref, _ = oracle.scipy_pagerank(adj_sp, DAMPING, TOL, MAX_ITER)
            t2 = now()
        pagerank.append((t1 - t0, t2 - t1))

        if layers is not None:
            layers.values["apps.pagerank_iterations"] += result.iterations
        for c, a, o, floor in checks:
            o.check(c, a, value_product=floor)
        oracle.check_pagerank(result.scores, ref)
        # Replay must equal a cold multiply of the same operands bit for bit;
        # one scheme per round, in turn, is re-run without the plan cache.
        scheme = self.schemes[round_index % len(self.schemes)]
        with untraced(layers):
            self.check_replay(scheme, *last_replay[scheme])
        return {"cold": cold, "warm": warm, "pagerank": pagerank}

    def check_replay(self, scheme: str, served, a) -> None:
        from repro.spgemm.base import MultiplyContext

        cold = self.runtime.algorithm(scheme).multiply(MultiplyContext.build(a))
        oracle.check_identical(served, cold, f"{scheme} replay vs cold")

    def run(self, seconds: float, layers) -> dict:
        before = self.runtime.stats().plan_cache
        ops = {"cold": [], "warm": [], "pagerank": []}
        rounds = 0
        start = now()
        # Whole cycles of the families, so every (scheme, family) pair runs
        # cold equally often in every run.
        while not rounds or now() - start < seconds:
            for _ in self.families:
                for key, values in self.round(rounds, layers).items():
                    ops[key].extend(values)
                rounds += 1
        after = self.runtime.stats().plan_cache
        if layers is not None:
            for key in ("lookups", "hits", "lowers"):
                layers.values[f"plan.{key}"] += getattr(after, key) - getattr(before, key)
        return {
            "attempted": rounds * (len(self.schemes) * (1 + REPLAYS) + 1),
            # Geometric means: each op kind mixes 21 (scheme, family) pairs
            # whose ratios differ up to 4x, and a median of such a mixture
            # jumps between its parts from run to run.
            "cold_x_floor": [geomean([t / f for t, f in ops["cold"]])],
            "warm_x_floor": [geomean([t / f for t, f in ops["warm"]])],
            "pagerank_x_floor": [t / f for t, f in ops["pagerank"]],
            "raw.cold_ms": [t * 1e3 for t, _ in ops["cold"]],
            "raw.warm_ms": [t * 1e3 for t, _ in ops["warm"]],
            "raw.pagerank_ms": [t * 1e3 for t, _ in ops["pagerank"]],
            "floor.scipy_ms": [f * 1e3 for _, f in ops["cold"] + ops["warm"]],
            "rounds": rounds,
        }
