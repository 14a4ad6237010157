"""Self-test: every checker accepts right output and catches wrong output.

Run with ``python3 perfbench/run.py --self-test``.  Each case takes a
correct product from the program, breaks it one way, and expects the
oracle to raise; the unbroken product must pass, including an explicit
zero that scipy's own product drops.
"""

from __future__ import annotations

import copy

import numpy as np

import oracle


def _expect_caught(what: str, fn) -> bool:
    try:
        fn()
    except oracle.CheckError as exc:
        print(f"ok      {what}: caught ({exc})")
        return True
    print(f"FAILED  {what}: not caught")
    return False


def _expect_passes(what: str, fn) -> bool:
    try:
        fn()
    except oracle.CheckError as exc:
        print(f"FAILED  {what}: rejected correct output ({exc})")
        return False
    print(f"ok      {what}: accepted")
    return True


def _with(m, indptr=None, indices=None, data=None):
    from repro.sparse.csr import CSRMatrix

    return CSRMatrix(
        m.shape,
        m.indptr.copy() if indptr is None else indptr,
        m.indices.copy() if indices is None else indices,
        m.data.copy() if data is None else data,
    )


def _drop_entry(m, k: int):
    row = int(np.searchsorted(m.indptr, k, side="right") - 1)
    indptr = m.indptr.copy()
    indptr[row + 1:] -= 1
    keep = np.ones(m.nnz, dtype=bool)
    keep[k] = False
    return _with(m, indptr=indptr, indices=m.indices[keep], data=m.data[keep])


def main() -> int:
    from repro.runtime import Runtime, RuntimeConfig
    from repro.sparse.csr import CSRMatrix
    from repro.sparse.random import power_law

    results = []
    with Runtime(RuntimeConfig(use_result_cache=False)) as rt:
        a = power_law(300, 1500, 7).to_csr()
        c = rt.multiply("block-reorganizer", a).result
        o = oracle.ProductOracle(a)
        results.append(_expect_passes("correct product", lambda: o.check(c, a)))

        # Off by more than the bound: an entry of many products, pushed by
        # far more ulps than its (m - 1) u |A||B| allowance.
        k = int(np.argmax(o.counts))
        data = c.data.copy()
        data[k] = data[k] * (1 + 1e-9)
        results.append(_expect_caught(
            "value off by more than the bound", lambda: o.check(_with(c, data=data), a)))
        single = int(np.flatnonzero(o.counts == 1)[0])
        data = c.data.copy()
        data[single] = np.nextafter(data[single], np.inf)
        results.append(_expect_caught(
            "one-product entry off by one ulp", lambda: o.check(_with(c, data=data), a)))
        results.append(_expect_caught(
            "dropped entry", lambda: o.check(_drop_entry(c, c.nnz // 2), a)))

        # An exact cancellation: the program keeps C[0, 0] = 0 explicitly.
        z_a = CSRMatrix((1, 2), np.array([0, 2]), np.array([0, 1]), np.array([1.0, 1.0]))
        z_b = CSRMatrix((2, 2), np.array([0, 2, 3]), np.array([0, 1, 0]),
                        np.array([2.0, 1.0, -2.0]))
        z_c = rt.multiply("row-product", z_a, z_b).result
        z_o = oracle.ProductOracle(z_a, z_b)
        results.append(_expect_passes(
            "explicit zero kept", lambda: z_o.check(z_c, z_a, z_b)))
        zero = int(np.flatnonzero(z_c.data == 0.0)[0])
        results.append(_expect_caught(
            "removed explicit zero", lambda: z_o.check(_drop_entry(z_c, zero), z_a, z_b)))

        results.append(_expect_caught(
            "replay differs from cold by one ulp",
            lambda: oracle.check_identical(
                c, _with(c, data=np.nextafter(c.data, np.inf)), "replay vs cold")))

    ref = oracle.scipy_pagerank(oracle.to_scipy(a), 0.85, 1e-10, 200)[0]
    results.append(_expect_passes("PageRank reference", lambda: oracle.check_pagerank(ref, ref)))
    skewed = ref.copy()
    skewed[0] += 1e-8
    skewed[1] -= 1e-8
    results.append(_expect_caught(
        "PageRank 2e-8 away in L1", lambda: oracle.check_pagerank(skewed, ref)))

    reference = oracle.load_grid_reference()
    cell = sorted(reference)[0]
    results.append(_expect_passes(
        "reference grid cell", lambda: oracle.check_grid({cell: reference[cell]}, reference)))
    altered = copy.deepcopy(reference[cell])
    altered["phases"][0][3] += 1.0  # makespan_cycles of the first phase
    results.append(_expect_caught(
        "altered simulated-cycle field", lambda: oracle.check_grid({cell: altered}, reference)))

    failed = results.count(False)
    print(f"{len(results) - failed}/{len(results)} self-test cases behaved")
    return 1 if failed else 0
