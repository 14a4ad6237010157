"""Error-hierarchy tests: one base class catches everything."""

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DatasetError,
    IndexOverflowError,
    ReproError,
    ShapeMismatchError,
    SimulationError,
    SparseFormatError,
)
from repro.oocore import chunked_multiply
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.spgemm.base import validate_operands
from repro.spgemm.rowproduct import RowProductSpGEMM


@pytest.mark.parametrize(
    "exc",
    [
        SparseFormatError,
        ShapeMismatchError,
        DatasetError,
        SimulationError,
        ConfigurationError,
        IndexOverflowError,
    ],
)
def test_all_derive_from_base(exc):
    assert issubclass(exc, ReproError)
    with pytest.raises(ReproError):
        raise exc("boom")


def test_base_catches_library_errors():
    from repro.sparse.coo import COOMatrix
    import numpy as np

    bad = COOMatrix((2, 2), np.array([5]), np.array([0]), np.array([1.0]))
    with pytest.raises(ReproError):
        bad.validate()


def _ids(*values):
    return np.array(values, dtype=np.int64)


class TestFlatKeyOverflow:
    """``row * n_cols + col`` must fit int64: shapes are checked up front."""

    def test_square_2_32_operand_is_refused_before_any_kernel(self):
        # A well-formed (2**32, 2**32) CSR would need a 32 GiB indptr, so this
        # operand carries only the first rows' pointers: the shape check must
        # fire before anything reads the structure.
        n = 2**32
        a = CSRMatrix((n, n), _ids(0, 1, 2, 3), _ids(7, n - 1, 12), np.ones(3))
        with pytest.raises(IndexOverflowError, match="2\\*\\*63"):
            validate_operands(a, a)
        with pytest.raises(IndexOverflowError):
            chunked_multiply(RowProductSpGEMM(), a, mem_budget="1M")

    def test_thin_operands_with_a_2_32_square_product(self):
        # Well-formed operands, a few nonzeros, C of shape (2**32, 2**32).
        n = 2**32
        a = CSCMatrix((n, 3), _ids(0, 1, 2, 3), _ids(0, n - 1, 5), np.ones(3))
        b = CSRMatrix((3, n), _ids(0, 1, 2, 3), _ids(n - 1, 0, 9), np.ones(3))
        with pytest.raises(IndexOverflowError):
            validate_operands(a, b)

    def test_exactly_2_63_cells_is_accepted(self):
        a = CSCMatrix((2**32, 2), _ids(0, 1, 2), _ids(0, 2**32 - 1), np.ones(2))
        b = CSRMatrix((2, 2**31), _ids(0, 1, 2), _ids(2**31 - 1, 0), np.ones(2))
        validate_operands(a, b)  # max key 2**63 - 1 still fits
