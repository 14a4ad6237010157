"""Check the ``chunked`` workload's products in a process of their own.

Usage: ``chunked_verify.py <dir> <seed> <tiny> <scheme>``.  ``<dir>`` holds,
per chunked multiply, the operand values (``NNNN-<operand>.npy``) and the
chunked product's digest (``NNNN-<operand>.sha``).  Each product is rebuilt
in memory through a ``Runtime`` (the first sight of a structure cold, later
ones by replay), checked against the scipy oracle, and its digest must equal
the chunked one: chunked equals in-memory bit for bit.  Exits 1 on the
first disagreement.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
from chunked import operands  # noqa: E402


def main(argv: list[str]) -> int:
    from repro.runtime import Runtime, RuntimeConfig
    from repro.sparse.csr import CSRMatrix

    directory, seed, tiny, scheme = argv[0], int(argv[1]), bool(int(argv[2])), argv[3]
    bases = operands(seed, tiny)
    oracles = {name: oracle.ProductOracle(m) for name, m in bases.items()}
    names = sorted(f[:-4] for f in os.listdir(directory) if f.endswith(".npy"))
    if not names:
        print("no chunked products to verify", file=sys.stderr)
        return 1
    with Runtime(RuntimeConfig(use_result_cache=False)) as runtime:
        for stem in names:
            operand = stem.split("-", 1)[1]
            base = bases[operand]
            a = CSRMatrix(base.shape, base.indptr, base.indices,
                          np.load(os.path.join(directory, stem + ".npy")))
            c = runtime.multiply(scheme, a).result
            try:
                oracles[operand].check(c, a)
                with open(os.path.join(directory, stem + ".sha"), encoding="ascii") as fh:
                    if fh.read().strip() != oracle.digest(c):
                        raise oracle.CheckError("chunked product is not bit-identical to in-memory")
            except oracle.CheckError as exc:
                print(f"{stem}: {exc}", file=sys.stderr)
                return 1
    print(f"verified {len(names)} chunked products")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
