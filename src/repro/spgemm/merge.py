"""Numeric merge: coalesce C-hat triplets into the final matrix C.

The merge we *execute* is a vectorised sort-based coalesce (stable and exact
in float64 given a deterministic summation order); the merge the simulator
*times* is the paper's dense-accumulator-with-atomics algorithm, whose costs
the trace builders model per output row.  Both produce identical values —
the test suite asserts it against both our reference and SciPy.

The merge factors into a *symbolic* half (sort permutation, duplicate
grouping, output structure — a pure function of the triplet coordinates) and
a *numeric* half (gather + segmented sum).  :func:`plan_merge` captures the
symbolic half as a reusable :class:`MergeRecipe` so iterative workloads with
a fixed sparsity structure pay for the sort once; :func:`merge_triplets`
remains the one-shot convenience wrapper over both halves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.errors import ShapeMismatchError
from repro.sparse.csr import CSRMatrix

__all__ = ["MergeRecipe", "plan_merge", "merge_triplets", "row_nnz_of_triplets"]


def _sorted_keys(
    rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Return (sort order, sorted flat keys) for triplet coordinates."""
    n_rows, n_cols = shape
    if len(rows) and (rows.max() >= n_rows or cols.max() >= n_cols):
        raise ShapeMismatchError("triplet coordinate out of range")
    keys = rows.astype(np.int64) * np.int64(n_cols) + cols
    order = np.argsort(keys, kind="stable")
    return order, keys[order]


@dataclass(frozen=True)
class MergeRecipe:
    """The symbolic half of a merge: structure-only, reusable across values.

    Captures everything :func:`merge_triplets` derives from the triplet
    *coordinates* alone — the stable sort permutation, the duplicate
    grouping, and the output CSR structure — so that repeated merges of
    streams with identical coordinates (iterative workloads on a fixed
    sparsity pattern) can re-run only the numeric half via :meth:`apply`.

    Attributes:
        shape: output matrix shape.
        order: stable sort permutation over the triplet stream.
        group: output-entry id of each *sorted* triplet (summation target).
        n_groups: number of unique output coordinates.
        indptr: output CSR row pointers.
        indices: output CSR column indices (one per unique coordinate).
    """

    shape: tuple[int, int]
    order: np.ndarray
    group: np.ndarray
    n_groups: int
    indptr: np.ndarray
    indices: np.ndarray

    def apply(self, vals: np.ndarray) -> CSRMatrix:
        """Numeric half: sum ``vals`` into the captured output structure.

        Summation order is exactly :func:`merge_triplets`'s (stable sort then
        in-order accumulation), so the result is bit-identical to a cold
        merge of the same stream.
        """
        summed = kernels.active().segmented_sum(
            vals, self.order, self.group, self.n_groups
        )
        return CSRMatrix(self.shape, self.indptr.copy(), self.indices.copy(), summed)


def plan_merge(
    rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]
) -> MergeRecipe:
    """Capture the symbolic half of merging the given triplet coordinates."""
    n_rows, n_cols = shape
    if len(rows) == 0:
        zi = np.zeros(0, dtype=np.int64)
        return MergeRecipe(
            shape, zi, zi.copy(), 0, np.zeros(n_rows + 1, dtype=np.int64), zi.copy()
        )
    if rows.max() >= n_rows or cols.max() >= n_cols:
        raise ShapeMismatchError("triplet coordinate out of range")
    order, group, n_groups, indptr, indices = kernels.active().merge_symbolic(
        rows, cols, n_rows, n_cols
    )
    return MergeRecipe(shape, order, group, n_groups, indptr, indices)


def merge_triplets(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    shape: tuple[int, int],
    *,
    drop_zeros: bool = False,
) -> CSRMatrix:
    """Sum duplicate coordinates and return canonical CSR.

    ``drop_zeros`` is off by default: GPU merge kernels keep explicit zeros
    produced by cancellation, and so do we, so that nnz(C) accounting matches
    the work the kernels actually did.
    """
    if len(rows) == 0:
        return CSRMatrix.empty(shape)
    out = plan_merge(rows, cols, shape).apply(vals)
    if drop_zeros:
        keep = out.data != 0.0
        out_rows = np.repeat(np.arange(out.n_rows, dtype=np.int64), out.row_nnz())
        indptr = np.zeros(out.n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(out_rows[keep], minlength=out.n_rows), out=indptr[1:])
        return CSRMatrix(shape, indptr, out.indices[keep], out.data[keep])
    return out


def row_nnz_of_triplets(
    rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]
) -> np.ndarray:
    """Per-row count of *unique* coordinates — the symbolic phase.

    This is ``nnz(c_{i*})`` for every output row, which the trace builders
    need to model atomic collisions (``k_r - u_r``) and which B-Limiting's
    row classification uses.
    """
    n_rows, _ = shape
    if len(rows) == 0:
        return np.zeros(n_rows, dtype=np.int64)
    _, keys = _sorted_keys(rows, cols, shape)
    boundaries = np.empty(len(keys), dtype=bool)
    boundaries[0] = True
    boundaries[1:] = keys[1:] != keys[:-1]
    unique_rows = (keys[boundaries] // shape[1]).astype(np.int64)
    return np.bincount(unique_rows, minlength=n_rows).astype(np.int64)
