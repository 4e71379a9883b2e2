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
    assert np.max(np.abs(wrm.entries - MREC_3DP)) < 1e-3


def test_haar_length4_level1():
    # the -1 phase wraps the second tap of the last coefficient to row 1
    wrm = build_wrm(4, 1, HAAR)
    r = 1 / np.sqrt(2.0)
    expected = np.array([[r, 0.0], [0.0, r], [0.0, r], [r, 0.0]])
    assert np.allclose(wrm.entries, expected, atol=1e-12)


@pytest.mark.parametrize("length,level", SIZES)
@FILTERS
def test_columns_are_unit_reconstructions(length, level, filters):
    # the operator is held as one impulse response; every column, row and
    # product must still match the synthesis pyramid run per column
    wrm = build_wrm(length, level, filters)
    units = np.eye(length >> level)
    columns = np.column_stack([reconstruct_component(u, "approx", level, length, filters) for u in units])
    assert np.allclose(wrm.entries, columns, rtol=0, atol=1e-12)
    coeffs = np.random.default_rng(length + level).normal(size=(3, units.shape[0]))
    for c in coeffs:
        assert np.allclose(wrm.apply(c), columns @ c, rtol=0, atol=1e-12)
    rows = np.stack([wrm.rows([i])[0] for i in range(1, length + 1)])
    assert np.allclose(rows, columns, rtol=0, atol=1e-12)


@pytest.mark.parametrize("length,level", SIZES)
@FILTERS
def test_column_sums_and_orthonormality(length, level, filters):
    wrm = build_wrm(length, level, filters)
    assert np.allclose(wrm.entries.sum(axis=0), 2.0 ** (level / 2.0), atol=1e-9)
    gram = wrm.entries.T @ wrm.entries
    assert np.allclose(gram, np.eye(length >> level), atol=1e-9)


def test_column_support_d4_level2():
    wrm = build_wrm(16, 2, D4)
    nonzeros = (np.abs(wrm.entries) > 1e-12).sum(axis=0)
    assert nonzeros.tolist() == [10, 10, 10, 10]


def test_apply_agrees_with_iterative_reconstruction():
    wrm = build_wrm(16, 2, D4)
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.normal(size=4) * 100.0
        direct = reconstruct_component(a, "approx", 2, 16, D4)
        assert np.allclose(wrm.apply(a), direct, atol=1e-12)
        assert np.allclose(wrm.entries @ a, direct, atol=1e-12)


def test_row_accessor_is_one_based():
    wrm = build_wrm(16, 2, D4)
    assert np.allclose(wrm.rows([1, 16]), wrm.entries[[0, 15]], atol=0)
    assert not wrm.rows([1]).flags.writeable
    with pytest.raises(ShapeError):
        wrm.rows([0])
    with pytest.raises(ShapeError):
        wrm.rows([3, 17])


def test_row_positions_must_be_integers():
    wrm = build_wrm(16, 2, HAAR)
    for positions in ([1.5], [2.0], np.array([1.0, 3.0]), [True], np.array([True, False]), [1, 2.5]):
        with pytest.raises(ShapeError, match="integers"):
            wrm.rows(positions)
    assert wrm.rows(np.array([3, 1], dtype=np.int32)).tobytes() == wrm.rows([3, 1]).tobytes()
    assert wrm.rows(np.array([16], dtype=np.uint8)).tobytes() == wrm.rows((16,)).tobytes()
    assert wrm.rows([]).shape == (0, 4)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_rows_match_modulo_gather_bitwise(order):
    """Stacked rows equal impulse[(i - 1 - j * 2**level) mod m] to the bit, in any position order."""
    filters = make_filter("daubechies", order)
    rng = np.random.default_rng(order)
    cases = 0
    for level in range(1, 7):
        for length in sorted({2 << level, 3 << level, 5 << level, 16 << level, 4096}):
            wrm = build_wrm(length, level, filters)
            for chunk in np.array_split(np.arange(1, length + 1), -(-length // 256)):
                assert wrm.rows(chunk).tobytes() == gather_rows(wrm, chunk).tobytes()
            positions = rng.integers(1, length + 1, size=min(length, 128))
            positions = np.append(positions, positions[::3])  # unsorted, with repeats
            assert wrm.rows(positions).tobytes() == gather_rows(wrm, positions).tobytes()
            for outside in (0, length + 1):
                with pytest.raises(ShapeError):
                    wrm.rows(np.append(positions, outside))
            cases += 1
    assert cases == 30


def test_shape_errors():
    with pytest.raises(ShapeError):
        build_wrm(10, 2, D4)
    with pytest.raises(ShapeError):
        build_wrm(16, 0, D4)
    wrm = build_wrm(16, 2, D4)
    with pytest.raises(ShapeError):
        wrm.apply(np.zeros(5))
