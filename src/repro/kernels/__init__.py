"""repro.kernels — pluggable backends for the numeric primitives.

Every numeric path in the library reduces to five primitives: the two
symbolic expansions (outer-product and Gustavson row-product), the coalescing
merge's symbolic half, and the two segmented reductions (the merge's
segmented sum and recipe replay's gather-multiply-sum).  A sixth, the k-way
merge of sorted key streams, is no longer called by any library path; it
stays in every backend, verified like the others, because
``perfbench/layers.py`` wraps each primitive of the active backend by name.
This package owns their implementations as swappable *backends*:

* ``numpy`` — the always-available vectorised reference
  (:mod:`repro.kernels.numpy_backend`); the ground truth.
* ``numba`` — optional compiled loops (:mod:`repro.kernels.numba_backend`);
  selected only when the wheels are installed **and** the backend passes a
  bit-identity verification against the reference at selection time.

Selection is ambient, like :mod:`repro.obs`: the kernel bodies in
:mod:`repro.spgemm.expansion`, :mod:`repro.spgemm.merge` and
:mod:`repro.plan.cache` call :func:`active` and dispatch through whichever
backend is installed.  Drivers choose via the
``REPRO_KERNEL_BACKEND`` environment variable (read lazily, once), the
``--kernel-backend`` CLI flag, or programmatically::

    from repro import kernels

    kernels.select("numba")          # verified, process-wide
    with kernels.use("numba"):       # verified, scoped
        c = algo.multiply(ctx)

Because verification requires exact equality of every primitive's output on
a non-trivial problem — integer structure *and* float64 sums — a selected
backend cannot change any numeric result, only wall-clock.  A backend that
is unavailable or fails verification raises
:class:`~repro.errors.KernelBackendError` and is never installed.
"""

from __future__ import annotations

import importlib.util
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import KernelBackendError
from repro.kernels import numpy_backend

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "KernelBackend",
    "active",
    "active_name",
    "available",
    "get_backend",
    "select",
    "use",
    "verify_backend",
]

ENV_VAR = "REPRO_KERNEL_BACKEND"
DEFAULT_BACKEND = "numpy"
BACKEND_NAMES = ("numpy", "numba")


@dataclass(frozen=True)
class KernelBackend:
    """One implementation of the numeric primitives.

    All functions take and return plain NumPy arrays; signatures are
    documented on the reference implementations in
    :mod:`repro.kernels.numpy_backend`.  ``verified`` records whether this
    backend passed the selection-time bit-identity check (the reference
    itself is trivially verified).
    """

    name: str
    expand_outer_indices: Callable
    expand_row_indices: Callable
    merge_symbolic: Callable
    segmented_sum: Callable
    gather_multiply_sum: Callable
    kway_merge: Callable
    verified: bool = False


NUMPY_BACKEND = KernelBackend(
    name="numpy",
    expand_outer_indices=numpy_backend.expand_outer_indices,
    expand_row_indices=numpy_backend.expand_row_indices,
    merge_symbolic=numpy_backend.merge_symbolic,
    segmented_sum=numpy_backend.segmented_sum,
    gather_multiply_sum=numpy_backend.gather_multiply_sum,
    kway_merge=numpy_backend.kway_merge,
    verified=True,
)

_BACKENDS: dict[str, KernelBackend] = {"numpy": NUMPY_BACKEND}
_ACTIVE: KernelBackend | None = None


def available(name: str) -> bool:
    """Can ``name`` be selected on this host (dependencies installed)?"""
    if name == "numpy":
        return True
    if name == "numba":
        return importlib.util.find_spec("numba") is not None
    return False


def get_backend(name: str, *, verify: bool = True) -> KernelBackend:
    """Build (or reuse) the named backend, verifying bit-identity once.

    Raises :class:`~repro.errors.KernelBackendError` for unknown names,
    missing optional dependencies, or a verification mismatch.
    """
    if name in _BACKENDS:
        return _BACKENDS[name]
    if name not in BACKEND_NAMES:
        raise KernelBackendError(
            f"unknown kernel backend {name!r}; known: {list(BACKEND_NAMES)}"
        )
    if name == "numba":
        try:
            from repro.kernels import numba_backend

            table = numba_backend.load()
        except ImportError as exc:
            raise KernelBackendError(
                "kernel backend 'numba' is unavailable: numba is not "
                f"installed ({exc}); the 'numpy' reference backend is always "
                "available"
            ) from None
        backend = KernelBackend(name="numba", verified=False, **table)
    else:  # pragma: no cover - unreachable while BACKEND_NAMES is fixed
        raise KernelBackendError(f"backend {name!r} has no loader")
    if verify:
        verify_backend(backend)
        backend = KernelBackend(
            **{**backend.__dict__, "verified": True}  # type: ignore[arg-type]
        )
    _BACKENDS[name] = backend
    return backend


def active() -> KernelBackend:
    """The installed backend (resolving ``REPRO_KERNEL_BACKEND`` lazily)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = get_backend(os.environ.get(ENV_VAR) or DEFAULT_BACKEND)
    return _ACTIVE


def active_name() -> str:
    """Name of the installed backend."""
    return active().name


def select(name: str) -> KernelBackend:
    """Install the named backend process-wide (verified); returns it."""
    global _ACTIVE
    _ACTIVE = get_backend(name)
    return _ACTIVE


@contextmanager
def use(name: str | None):
    """Scoped backend selection; ``None`` is a no-op scope.

    The previous backend (or the lazy-unresolved state) is restored on exit,
    so tests and CLI invocations cannot leak a selection.
    """
    global _ACTIVE
    if name is None:
        yield active()
        return
    previous = _ACTIVE
    _ACTIVE = get_backend(name)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous


def _reset() -> None:
    """Testing hook: drop the installed backend and built non-reference
    backends so environment resolution runs fresh."""
    global _ACTIVE
    _ACTIVE = None
    for name in list(_BACKENDS):
        if name != "numpy":
            del _BACKENDS[name]


# ----------------------------------------------------------------------
# Selection-time verification
# ----------------------------------------------------------------------
def _verification_problem():
    """A small deterministic multiply with duplicates, empty rows/cols and a
    hub column — enough structure to exercise every primitive's edge paths."""
    rng = np.random.default_rng(20200417)
    dense_a = (rng.random((17, 13)) < 0.3) * rng.standard_normal((17, 13))
    dense_b = (rng.random((13, 11)) < 0.35) * rng.standard_normal((13, 11))
    dense_a[4, :] = 0.0  # empty row
    dense_b[:, 6] = 0.0  # empty output column
    dense_a[:, 2] = rng.standard_normal(17)  # hub pair: dense A column
    dense_b[2, :] = rng.standard_normal(11)  # ... meeting a dense B row

    def csr_arrays(dense):
        rows, cols = np.nonzero(dense)
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=dense.shape[0]), out=indptr[1:])
        return indptr, cols.astype(np.int64), dense[rows, cols].astype(np.float64)

    a_csr = csr_arrays(dense_a)
    b_csr = csr_arrays(dense_b)
    # CSC of A: CSR of the transpose, with data in column-major order.
    a_csc = csr_arrays(dense_a.T)
    return a_csr, a_csc, b_csr, dense_a.shape, dense_b.shape


def _require_equal(name: str, primitive: str, got, want) -> None:
    got_t = got if isinstance(got, tuple) else (got,)
    want_t = want if isinstance(want, tuple) else (want,)
    for i, (g, w) in enumerate(zip(got_t, want_t)):
        same = g == w if np.isscalar(w) else np.array_equal(np.asarray(g), w)
        if not same:
            raise KernelBackendError(
                f"kernel backend {name!r} failed bit-identity verification: "
                f"{primitive} output {i} differs from the NumPy reference"
            )


def verify_backend(backend: KernelBackend) -> None:
    """Assert every primitive matches the NumPy reference bit for bit.

    Runs the candidate and the reference over a deterministic multiply and
    requires exact equality — integer structure and float64 sums.  Raises
    :class:`~repro.errors.KernelBackendError` naming the first primitive
    that diverges; success means the backend cannot change any result.
    """
    ref = NUMPY_BACKEND
    (a_indptr, a_indices, a_data), (ac_indptr, ac_indices, ac_data), (
        b_indptr, b_indices, b_data,
    ), a_shape, b_shape = _verification_problem()

    want_outer = ref.expand_outer_indices(ac_indptr, ac_indices, b_indptr, b_indices)
    _require_equal(
        backend.name, "expand_outer_indices",
        backend.expand_outer_indices(ac_indptr, ac_indices, b_indptr, b_indices),
        want_outer,
    )
    want_row = ref.expand_row_indices(a_indptr, a_indices, b_indptr, b_indices)
    _require_equal(
        backend.name, "expand_row_indices",
        backend.expand_row_indices(a_indptr, a_indices, b_indptr, b_indices),
        want_row,
    )
    rows, cols, a_idx, b_idx = want_row
    n_rows, n_cols = a_shape[0], b_shape[1]
    want_merge = ref.merge_symbolic(rows, cols, n_rows, n_cols)
    _require_equal(
        backend.name, "merge_symbolic",
        backend.merge_symbolic(rows, cols, n_rows, n_cols),
        want_merge,
    )
    order, group, n_groups = want_merge[0], want_merge[1], want_merge[2]
    vals = a_data[a_idx] * b_data[b_idx]
    _require_equal(
        backend.name, "segmented_sum",
        backend.segmented_sum(vals, order, group, n_groups),
        ref.segmented_sum(vals, order, group, n_groups),
    )
    _require_equal(
        backend.name, "gather_multiply_sum",
        backend.gather_multiply_sum(
            a_data, b_data, a_idx[order], b_idx[order], group, n_groups
        ),
        ref.gather_multiply_sum(
            a_data, b_data, a_idx[order], b_idx[order], group, n_groups
        ),
    )
    # k-way merge: three interleaved (hence individually ascending, mutually
    # overlapping, duplicate-bearing) slices of the sorted product stream.
    sorted_keys, sorted_vals = (
        (rows.astype(np.int64) * np.int64(n_cols) + cols)[order], vals[order]
    )
    streams = [(sorted_keys[s::3], sorted_vals[s::3]) for s in range(3)]
    m_keys = np.concatenate([k for k, _ in streams])
    m_vals = np.concatenate([v for _, v in streams])
    starts = np.zeros(4, dtype=np.int64)
    np.cumsum([len(k) for k, _ in streams], out=starts[1:])
    _require_equal(
        backend.name, "kway_merge",
        backend.kway_merge(m_keys, m_vals, starts),
        ref.kway_merge(m_keys, m_vals, starts),
    )
