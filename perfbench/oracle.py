"""Correctness checks made apart from the program under test.

Products are checked against scipy, not against saved program output:

* structure must equal scipy's product of the all-ones patterns, which
  cannot cancel (scipy drops exact-zero sums, the program keeps explicit
  zeros, so the value product's structure is not the reference);
* every value must lie within ``2 * g(m - 1) * (|A| |B|)_ij`` of scipy's
  value, where ``m`` is the entry's product count, ``u`` the unit roundoff
  and ``g(k) = k u / (1 - k u)``.  A sum of ``m`` terms in any order is
  within ``g(m - 1) * sum|terms|`` of the exact sum, and scipy's value is
  one such sum, so any correct order meets the bound; an entry of one
  product (``m = 1``) must match exactly.

PageRank scores must sum to 1 and lie within 1e-9 (L1) of a scipy power
iteration.  The simulated GPU grid is the one copy-based check, because
cycles come from the simulator alone: ``grid_reference.json`` holds one
record per (dataset, scheme, GPU) and ``run.py --regenerate-grid`` rewrites it.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import scipy.sparse as sp

UNIT_ROUNDOFF = 2.0 ** -53
PAGERANK_L1 = 1e-9
GRID_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "grid_reference.json")


class CheckError(AssertionError):
    """An output of the program disagrees with the oracle."""


def to_scipy(m) -> sp.csr_matrix:
    """View a program CSR matrix as scipy CSR (no copy of the arrays)."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape, copy=False)


def floor_product(a_sp: sp.csr_matrix, b_sp: sp.csr_matrix) -> sp.csr_matrix:
    """The timed floor: scipy's product with its column indices sorted."""
    c = a_sp @ b_sp
    c.sort_indices()
    return c


class ProductOracle:
    """Reference structure and error bound for one operand structure.

    The pattern product (entry counts ``m``) depends only on structure, so
    one oracle serves every multiply that reuses it with fresh values.
    """

    def __init__(self, a, b=None) -> None:
        b = a if b is None else b
        ones_a = sp.csr_matrix((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape)
        ones_b = sp.csr_matrix((np.ones(b.nnz), b.indices, b.indptr), shape=b.shape)
        pattern = floor_product(ones_a, ones_b)
        self.shape = pattern.shape
        self.indptr = pattern.indptr.astype(np.int64)
        self.indices = pattern.indices.astype(np.int64)
        self.counts = pattern.data
        rows = np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))
        self.keys = rows * np.int64(self.shape[1]) + self.indices

    @property
    def row_nnz(self) -> np.ndarray:
        return np.diff(self.indptr)

    def _aligned(self, c: sp.csr_matrix) -> np.ndarray:
        """``c``'s values placed on the pattern's entries (0 where absent)."""
        c = c.tocsr()
        c.sort_indices()
        if np.array_equal(c.indptr, self.indptr) and np.array_equal(c.indices, self.indices):
            return np.asarray(c.data, dtype=np.float64)
        rows = np.repeat(np.arange(c.shape[0], dtype=np.int64), np.diff(c.indptr))
        keys = rows * np.int64(c.shape[1]) + c.indices.astype(np.int64)
        pos = np.searchsorted(self.keys, keys)
        if len(keys) and (pos.max() >= len(self.keys) or (self.keys[pos] != keys).any()):
            raise CheckError("scipy's value product has an entry outside the pattern")
        out = np.zeros(len(self.keys))
        out[pos] = c.data
        return out

    def check(self, c, a, b=None, value_product: sp.csr_matrix | None = None) -> None:
        """Raise :class:`CheckError` unless ``c`` is ``a @ b`` within the bound.

        ``value_product`` may pass the floor's scipy product of the same
        operands, so the check does not multiply again.
        """
        b = a if b is None else b
        if tuple(c.shape) != tuple(self.shape):
            raise CheckError(f"shape {tuple(c.shape)} != {tuple(self.shape)}")
        if len(c.indptr) != len(self.indptr) or not np.array_equal(c.indptr, self.indptr):
            raise CheckError(
                f"row counts differ from the pattern product "
                f"(nnz {len(c.indices)} vs {len(self.indices)})"
            )
        if not np.array_equal(c.indices, self.indices):
            bad = int(np.flatnonzero(c.indices != self.indices)[0])
            raise CheckError(f"column index differs at entry {bad}")
        a_sp, b_sp = to_scipy(a), to_scipy(b)
        if value_product is None:
            value_product = floor_product(a_sp, b_sp)
        want = self._aligned(value_product)
        if (a.data < 0).any() or (b.data < 0).any():
            magnitude = self._aligned(floor_product(abs(a_sp), abs(b_sp)))
        else:
            magnitude = want
        k = (self.counts - 1.0) * UNIT_ROUNDOFF
        gamma = k / (1.0 - k)
        # Twice the one-sum bound: both the program and scipy round; the
        # magnitude is itself a rounded sum, hence the last factor.
        bound = 2.0 * gamma * magnitude / (1.0 - gamma)
        got = np.asarray(c.data)
        diff = np.abs(got - want)
        bad = ~(diff <= bound)  # also catches NaN
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise CheckError(
                f"{int(bad.sum())} values outside the rounding bound; entry {i}: "
                f"got {got[i]!r}, scipy {want[i]!r}, bound {bound[i]!r}"
            )


def check_identical(x, y, what: str) -> None:
    """Bit-for-bit equality of two program products (structure and float64)."""
    same = (
        tuple(x.shape) == tuple(y.shape)
        and np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.indices, y.indices)
        and np.asarray(x.data).tobytes() == np.asarray(y.data).tobytes()
    )
    if not same:
        raise CheckError(f"{what}: not bit-identical")


def digest(m) -> str:
    """sha256 of a product's shape, structure and float64 bits."""
    h = hashlib.sha256()
    h.update(np.asarray(m.shape, dtype=np.int64).tobytes())
    for arr, dtype in ((m.indptr, np.int64), (m.indices, np.int64), (m.data, np.float64)):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# PageRank
# ----------------------------------------------------------------------
def scipy_pagerank(adj: sp.csr_matrix, damping: float, tol: float, max_iter: int):
    """Damped power iteration in scipy; returns ``(scores, iterations)``.

    Same model as the program: column-stochastic transition matrix from
    row strengths, dangling mass spread uniformly, L1 residual stopping.
    """
    n = adj.shape[0]
    strength = np.asarray(adj.sum(axis=1)).ravel()
    inv = np.where(strength > 0, 1.0 / np.where(strength > 0, strength, 1.0), 0.0)
    p = (sp.diags(inv) @ adj).T.tocsr()
    dangling = strength == 0
    scores = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for iteration in range(1, max_iter + 1):
        updated = damping * (p @ scores + scores[dangling].sum() / n) + teleport
        residual = float(np.abs(updated - scores).sum())
        scores = updated
        if residual < tol:
            return scores, iteration
    return scores, max_iter


def check_pagerank(scores: np.ndarray, reference: np.ndarray) -> None:
    total = float(np.sum(scores))
    if not abs(total - 1.0) <= 1e-9:
        raise CheckError(f"PageRank scores sum to {total!r}, not 1")
    l1 = float(np.abs(np.asarray(scores) - reference).sum())
    if not l1 <= PAGERANK_L1:
        raise CheckError(f"PageRank is {l1:.3e} (L1) from the scipy power iteration")


# ----------------------------------------------------------------------
# Simulated GPU grid
# ----------------------------------------------------------------------
def _array_digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).hexdigest()[:16]


def stats_record(stats) -> dict:
    """Every field of a ``KernelStats`` in a JSON form that round-trips exactly."""
    return {
        "kernel_cycles": float(stats.kernel_cycles),
        "host_seconds": float(stats.host_seconds),
        "device_setup_cycles": float(stats.device_setup_cycles),
        "phases": [
            [
                p.name, p.stage, int(p.n_blocks), float(p.makespan_cycles),
                int(p.total_ops), float(p.dram_bytes), float(p.l2_read_bytes),
                float(p.l2_write_bytes), float(p.sync_stall_cycles),
                float(p.busy_cycles), int(p.residency), float(p.l2_hit),
                float(p.l1_hit), _array_digest(p.sm_busy_cycles),
                _array_digest(p.sm_finish_cycles),
            ]
            for p in stats.phases
        ],
    }


def load_grid_reference() -> dict:
    with open(GRID_REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["cells"]


def check_grid(observed: dict, reference: dict) -> None:
    """Every simulated cell must equal its reference record exactly."""
    for cell, record in observed.items():
        want = reference.get(cell)
        if want is None:
            raise CheckError(f"grid cell {cell} has no reference record")
        if json.loads(json.dumps(record)) != want:
            raise CheckError(f"simulated stats of {cell} differ from the reference grid")
