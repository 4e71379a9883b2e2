"""Reconstruction-matrix construction and its algebraic properties."""

import numpy as np
import pytest

from oracles import gather_rows
from refdata import MREC_3DP
from wavemask.errors import ShapeError
from wavemask.wavelet import make_filter, reconstruct_component
from wavemask.wrm import build_wrm

D4 = make_filter("daubechies", 2)
DB3 = make_filter("daubechies", 3)
HAAR = make_filter("haar", 1)

SIZES = [(8, 1), (8, 3), (16, 2), (32, 3), (64, 1), (64, 5), (4096, 2)]
FILTERS = pytest.mark.parametrize("filters", [HAAR, D4, DB3], ids=["haar", "d4", "db3"])


def test_matches_displayed_matrix():
    wrm = build_wrm(16, 2, D4)
    assert wrm.shape == (16, 4)
    assert np.max(np.abs(gather_rows(wrm) - MREC_3DP)) < 1e-3


def test_haar_length4_level1():
    # the -1 phase wraps the second tap of the last coefficient to row 1
    wrm = build_wrm(4, 1, HAAR)
    r = 1 / np.sqrt(2.0)
    expected = np.array([[r, 0.0], [0.0, r], [0.0, r], [r, 0.0]])
    assert np.allclose(gather_rows(wrm), expected, atol=1e-12)


@pytest.mark.parametrize("length,level", SIZES)
@FILTERS
def test_columns_are_unit_reconstructions(length, level, filters):
    # the operator is held as one impulse response; every column, row and
    # product must still match the synthesis pyramid run per column
    wrm = build_wrm(length, level, filters)
    units = np.eye(length >> level)
    columns = np.column_stack([reconstruct_component(u, "approx", level, length, filters) for u in units])
    assert np.allclose(gather_rows(wrm), columns, rtol=0, atol=1e-12)
    coeffs = np.random.default_rng(length + level).normal(size=(3, units.shape[0]))
    for c in coeffs:
        assert np.allclose(wrm.apply(c), columns @ c, rtol=0, atol=1e-12)
    row, column, value = wrm.row_entries(np.arange(1, length + 1))
    rows = np.zeros_like(columns)
    rows[row, column] = value
    assert np.allclose(rows, columns, rtol=0, atol=1e-12)


@pytest.mark.parametrize("length,level", SIZES)
@FILTERS
def test_column_sums_and_orthonormality(length, level, filters):
    wrm = build_wrm(length, level, filters)
    matrix = gather_rows(wrm)
    assert np.allclose(matrix.sum(axis=0), 2.0 ** (level / 2.0), atol=1e-9)
    gram = matrix.T @ matrix
    assert np.allclose(gram, np.eye(length >> level), atol=1e-9)


def test_column_support_d4_level2():
    wrm = build_wrm(16, 2, D4)
    nonzeros = (np.abs(gather_rows(wrm)) > 1e-12).sum(axis=0)
    assert nonzeros.tolist() == [10, 10, 10, 10]


def test_apply_agrees_with_iterative_reconstruction():
    wrm = build_wrm(16, 2, D4)
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.normal(size=4) * 100.0
        direct = reconstruct_component(a, "approx", 2, 16, D4)
        assert np.allclose(wrm.apply(a), direct, atol=1e-12)
        assert np.allclose(gather_rows(wrm) @ a, direct, atol=1e-12)


def entry_bytes(wrm, positions) -> list:
    return [part.tobytes() for part in wrm.row_entries(positions)]


def test_row_accessor_is_one_based():
    wrm = build_wrm(16, 2, D4)
    row, column, value = wrm.row_entries([1, 16])
    dense = gather_rows(wrm)
    assert np.array_equal(value, dense[[0, 15]][row, column])
    assert np.count_nonzero(dense[[0, 15]]) == value.size
    with pytest.raises(ShapeError):
        wrm.row_entries([0])
    with pytest.raises(ShapeError):
        wrm.row_entries([3, 17])


def test_row_positions_must_be_integers():
    wrm = build_wrm(16, 2, HAAR)
    for positions in ([1.5], [2.0], np.array([1.0, 3.0]), [True], np.array([True, False]), [1, 2.5]):
        with pytest.raises(ShapeError, match="integers"):
            wrm.row_entries(positions)
    assert entry_bytes(wrm, np.array([3, 1], dtype=np.int32)) == entry_bytes(wrm, [3, 1])
    assert entry_bytes(wrm, np.array([16], dtype=np.uint8)) == entry_bytes(wrm, (16,))
    assert all(part.size == 0 for part in wrm.row_entries([]))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_rows_match_modulo_gather_bitwise(order):
    """``row_entries`` are the non-zeros of the rows impulse[(i - 1 - j * 2**level) mod m],
    row-major, down to the value bits, in any position order.

    Lengths run from 2**level (one column) to 256 * 2**level, and the
    shortest wrap the impulse's support around the rows.  No impulse holds
    -0.0, so a dense row rebuilt from the entries (the `wrm` dump's) has the
    gathered row's bytes.
    """
    filters = make_filter("daubechies", order)
    rng = np.random.default_rng(order)
    cases = 0
    for level in range(1, 7):
        for length in sorted({1 << level, 2 << level, 3 << level, 5 << level, 16 << level, 256 << level, 4096}):
            wrm = build_wrm(length, level, filters)
            assert not np.any(np.signbit(wrm.impulse) & (wrm.impulse == 0.0))
            positions = rng.integers(1, length + 1, size=min(length, 128))
            positions = np.append(positions, positions[::3])  # unsorted, with repeats
            every_row = np.array_split(np.arange(1, length + 1), -(-length // 256)) if length <= 4096 else []
            for chunk in [*every_row, positions]:
                want = gather_rows(wrm, chunk)
                row, column = np.nonzero(want)
                got_row, got_column, got_value = wrm.row_entries(chunk)
                assert got_row.tolist() == row.tolist() and got_column.tolist() == column.tolist()
                assert got_value.tobytes() == want[row, column].tobytes()
            for outside in (0, length + 1):
                with pytest.raises(ShapeError):
                    wrm.row_entries(np.append(positions, outside))
            cases += 1
    assert cases == 41


def test_shape_errors():
    with pytest.raises(ShapeError):
        build_wrm(10, 2, D4)
    with pytest.raises(ShapeError):
        build_wrm(16, 0, D4)
    wrm = build_wrm(16, 2, D4)
    with pytest.raises(ShapeError):
        wrm.apply(np.zeros(5))
