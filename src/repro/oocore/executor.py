"""The chunked out-of-core executor: panel multiplies concatenated in row order.

:func:`chunked_multiply` computes ``C = A·B`` under a memory budget that the
full intermediate expansion would blow through.  It cuts A into row panels
sized by the paper's precalculated workload sums (:mod:`repro.oocore.panels`),
runs each panel through the scheme's own ``multiply``, and keeps each
panel's slice of C — per-row counts, column indices and values.  Slices
that would push the resident set over budget are spilled to disk through a
crash-safe :class:`~repro.oocore.spill.SpillStore`.  At the end the slices
are streamed, in panel order, into one preallocated CSR.

Bit-identity: row panels of A produce disjoint, row-ordered slices of C
(Liu & Vinter's partition algebra, PAPERS.md), and within a panel the
product stream is the full stream's restriction to those rows in the same
relative order — so every output entry is the same sequence of float64
additions as the in-memory path, and combining the slices is a plain
concatenation that never re-associates a sum.  ``chunked_multiply`` is
therefore bit-identical to ``algo.multiply`` on every scheme; the oocore CI
leg and ``repro compare --mem-budget`` assert exactly that.

Per-panel work records ``oocore.panel[i]`` observability spans and the
returned :class:`OocStats` carries the spill and peak-RSS counters that
:func:`repro.metrics.oocprof.format_ooc_stats` renders.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.oocore.budget import parse_mem_budget, products_for_budget
from repro.oocore.panels import Panel, plan_panels, slice_rows
from repro.oocore.spill import SpillStore
from repro.runtime import lifecycle
from repro.sparse.csr import CSRMatrix
from repro.spgemm.base import MultiplyContext, SpGEMMAlgorithm, validate_operands

__all__ = ["OocStats", "chunked_multiply"]


def _peak_rss_bytes() -> int:
    """Lifetime peak resident set of this process (Linux ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@dataclass
class OocStats:
    """Counters from one chunked multiply (all deterministic except RSS).

    ``merge_rounds`` is always 0: panels are concatenated, never merged.  It
    stays for callers written against the earlier merge-tree combiner.
    """

    budget_bytes: int
    max_products: int
    n_panels: int = 0
    n_oversized: int = 0
    total_products: int = 0
    spill_count: int = 0
    bytes_spilled: int = 0
    merge_rounds: int = 0
    resident_peak_bytes: int = 0
    peak_rss_bytes: int = 0
    panels: list[Panel] = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-able summary (panel list reduced to its row ranges)."""
        return {
            "budget_bytes": self.budget_bytes,
            "max_products": self.max_products,
            "n_panels": self.n_panels,
            "n_oversized": self.n_oversized,
            "total_products": self.total_products,
            "spill_count": self.spill_count,
            "bytes_spilled": self.bytes_spilled,
            "resident_peak_bytes": self.resident_peak_bytes,
            "peak_rss_bytes": self.peak_rss_bytes,
            "panel_rows": [[p.row_start, p.row_stop] for p in self.panels],
        }


class _Partial:
    """One panel's slice of C — per-row counts, column indices and values —
    resident or spilled."""

    __slots__ = ("arrays", "ticket", "nnz", "nbytes")

    def __init__(self, c_panel: CSRMatrix) -> None:
        self.arrays = (np.diff(c_panel.indptr), c_panel.indices, c_panel.data)
        self.ticket: str | None = None
        self.nnz = c_panel.nnz
        self.nbytes = sum(x.nbytes for x in self.arrays)

    @property
    def resident(self) -> bool:
        return self.arrays is not None

    def spill_to(self, store: SpillStore) -> None:
        self.ticket = store.spill(*self.arrays)
        self.arrays = None

    def load(self, store: SpillStore | None) -> tuple[np.ndarray, ...]:
        if self.arrays is not None:
            return self.arrays
        assert store is not None and self.ticket is not None
        return store.read(self.ticket)


def chunked_multiply(
    algo: SpGEMMAlgorithm,
    a: CSRMatrix,
    b: CSRMatrix | None = None,
    *,
    mem_budget: int | str,
    spill_dir: str | None = None,
) -> tuple[CSRMatrix, OocStats]:
    """Compute ``A·B`` with ``algo`` under ``mem_budget`` bytes; see module doc.

    Returns the product (bit-identical to ``algo.multiply`` on the same
    operands) and the run's :class:`OocStats`.  ``spill_dir`` hosts the
    crash-safe spill store (``$TMPDIR`` by default).  Deliberately does
    *not* take a plan cache: caching one recipe per panel would retain
    budget-sized gather arrays per LRU entry, defeating the budget.
    """
    b = a if b is None else b
    validate_operands(a, b)
    budget_bytes = parse_mem_budget(mem_budget)
    max_products = products_for_budget(budget_bytes)
    n_rows, n_cols = a.n_rows, b.n_cols
    stats = OocStats(budget_bytes=budget_bytes, max_products=max_products)

    store: SpillStore | None = None
    try:
        with obs.span(f"oocore.chunked[{algo.name}]", "oocore") as root:
            with obs.span("oocore.plan_panels", "oocore") as sp:
                panels = plan_panels(a, b, max_products)
                stats.panels = panels
                stats.n_panels = len(panels)
                stats.n_oversized = sum(p.oversized for p in panels)
                stats.total_products = sum(p.products for p in panels)
                sp.add(
                    panels=stats.n_panels,
                    oversized=stats.n_oversized,
                    products=stats.total_products,
                )

            partials: list[_Partial] = []
            resident_bytes = 0
            for panel in panels:
                with obs.span(f"oocore.panel[{panel.index}]", "oocore") as sp:
                    a_panel = slice_rows(a, panel.row_start, panel.row_stop)
                    ctx = MultiplyContext.build(a_panel, b)
                    c_panel = algo.multiply(ctx)
                    part = _Partial(c_panel)
                    partials.append(part)
                    resident_bytes += part.nbytes
                    stats.resident_peak_bytes = max(stats.resident_peak_bytes, resident_bytes)
                    sp.add(
                        rows=panel.n_rows,
                        products=panel.products,
                        nnz=c_panel.nnz,
                        spilled=0,
                    )
                    # Over budget: spill oldest-first until resident again (the
                    # newest partial may itself go if it alone overshoots).
                    while resident_bytes > budget_bytes:
                        victim = next((p for p in partials if p.resident), None)
                        if victim is None:  # pragma: no cover - defensive
                            break
                        if store is None:
                            store = SpillStore(spill_dir)
                        victim.spill_to(store)
                        resident_bytes -= victim.nbytes
                        sp.add(spilled=1)

            with obs.span("oocore.concat", "oocore") as sp:
                c = _concatenate(panels, partials, store, (n_rows, n_cols))
                sp.add(nnz=c.nnz)
            if store is not None:
                stats.spill_count = store.spill_count
                stats.bytes_spilled = store.bytes_spilled
            stats.peak_rss_bytes = _peak_rss_bytes()
            root.add(panels=stats.n_panels, spills=stats.spill_count)
    finally:
        if store is not None:
            lifecycle.uninstall(store)

    return c, stats


def _concatenate(
    panels: list[Panel],
    partials: list[_Partial],
    store: SpillStore | None,
    shape: tuple[int, int],
) -> CSRMatrix:
    """Stream the panels' slices of C, in row order, into one CSR."""
    nnz = sum(p.nnz for p in partials)
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    indices = np.empty(nnz, dtype=np.int64)
    data = np.empty(nnz, dtype=np.float64)
    start = 0
    for panel, part in zip(panels, partials):
        row_nnz, cols, vals = part.load(store)
        rows = indptr[panel.row_start + 1 : panel.row_stop + 1]
        np.cumsum(row_nnz, out=rows)
        rows += start
        stop = start + len(cols)
        indices[start:stop] = cols
        data[start:stop] = vals
        start = stop
    return CSRMatrix(shape, indptr, indices, data)
