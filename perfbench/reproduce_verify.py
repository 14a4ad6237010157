"""Check the ``reproduce`` workload's products in a process of their own.

Usage: ``reproduce_verify.py <dir>``.  ``<dir>`` holds, per dataset, the
symbolic row counts the run saw (``<dataset>.npy``) and its product's digest
(``<dataset>.sha``).  Each product is rebuilt through the program's own
path (``repro.bench.runner.get_context``) and checked against the scipy
oracle: the row counts must equal the pattern product's, the product must
lie within the oracle's bound, and its digest must equal the run's.  Exits
1 on the first disagreement.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import oracle  # noqa: E402


def check(directory: str, name: str) -> None:
    from repro.bench import runner

    ctx = runner.get_context(name)
    o = oracle.ProductOracle(ctx.a_csr, ctx.b_csr)
    if not np.array_equal(np.load(os.path.join(directory, name + ".npy")), o.row_nnz):
        raise oracle.CheckError("symbolic row counts differ from scipy's")
    o.check(ctx.reference_c, ctx.a_csr, ctx.b_csr)
    with open(os.path.join(directory, name + ".sha"), encoding="ascii") as fh:
        if fh.read().strip() != oracle.digest(ctx.reference_c):
            raise oracle.CheckError("the run's product differs from the one checked here")
    runner.clear_context_cache()


def main(argv: list[str]) -> int:
    from repro.datasets import loader

    directory = argv[0]
    names = sorted(f[:-4] for f in os.listdir(directory) if f.endswith(".sha"))
    if not names:
        print("no products to verify", file=sys.stderr)
        return 1
    for name in names:
        try:
            check(directory, name)
        except oracle.CheckError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        loader.clear_cache()
    print(f"verified {len(names)} products")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
