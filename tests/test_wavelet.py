"""Filter construction, pyramid analysis/synthesis, and signal file I/O."""

import numpy as np
import pytest

from oracles import analysis_matrix, decompose_dense, random_lowpass, reconstruct_component_add_at, synthesis_step_add_at
from refdata import A1_2DP, A2_3DP, Q16
from wavemask.errors import ConfigurationError, DataError, ShapeError
from wavemask.wavelet import (
    Decomposition,
    FilterPair,
    _check_divisible,
    analysis_step,
    as_signal,
    decompose,
    derive_highpass,
    make_filter,
    read_signal,
    reconstruct_component,
    reconstruct_signal,
    synthesis_step,
    write_signal,
)

ROOT2 = np.sqrt(2.0)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_filter_invariants(order):
    filt = make_filter("daubechies", order)
    assert abs(filt.lowpass.sum() - ROOT2) < 1e-12
    assert abs(filt.highpass.sum()) < 1e-12
    assert abs(filt.lowpass @ filt.lowpass - 1.0) < 1e-12
    assert abs(filt.highpass @ filt.highpass - 1.0) < 1e-12
    assert abs(filt.lowpass @ filt.highpass) < 1e-12
    assert filt.length == 2 * order


def test_order_two_closed_form():
    filt = make_filter("daubechies", 2)
    root3 = np.sqrt(3.0)
    expected = np.array([1 + root3, 3 + root3, 3 - root3, 1 - root3]) / (4 * ROOT2)
    assert np.allclose(filt.lowpass, expected, atol=1e-15)
    assert np.allclose(filt.lowpass, [0.482963, 0.836516, 0.224144, -0.129410], atol=1e-6)


def test_order_one_is_haar():
    filt = make_filter("daubechies", 1)
    assert np.allclose(filt.lowpass, [1 / ROOT2, 1 / ROOT2], atol=1e-15)
    assert np.allclose(filt.highpass, [1 / ROOT2, -1 / ROOT2], atol=1e-15)
    assert make_filter("haar", 1).name == filt.name


def test_make_filter_rejects_unknown():
    with pytest.raises(ConfigurationError):
        make_filter("coiflet", 2)
    with pytest.raises(ConfigurationError):
        make_filter("daubechies", 0)
    with pytest.raises(ConfigurationError):
        make_filter("daubechies", 4)
    with pytest.raises(ConfigurationError, match="haar takes order 1 only, got 3"):
        make_filter("haar", 3)


def test_derive_highpass_reverses_with_alternating_signs():
    lo = make_filter("daubechies", 2).lowpass
    hi = derive_highpass(lo)
    assert np.allclose(hi, [lo[3], -lo[2], lo[1], -lo[0]], atol=1e-15)


def test_derive_highpass_random_lowpass_filters():
    rng = np.random.default_rng(7)
    for _ in range(50):
        lo = random_lowpass(rng)
        hi = derive_highpass(lo)
        assert abs(hi.sum()) < 1e-12
        assert abs(lo @ hi) < 1e-12
        # the pair must pass full validation too
        FilterPair(lowpass=lo, highpass=hi, name="random:4")


def test_filter_pair_validation_rejects_bad_taps():
    with pytest.raises(ConfigurationError):
        FilterPair(lowpass=np.array([1.0, 1.0]), highpass=np.array([1.0, -1.0]), name="bad")


@pytest.mark.parametrize("length", [4, 8, 16])
@pytest.mark.parametrize("order", [1, 2])
def test_analysis_of_constant_signal(length, order):
    filt = make_filter("daubechies", order)
    signal = np.full(length, 3.7)
    assert np.allclose(analysis_step(signal, filt.lowpass), 3.7 * ROOT2, atol=1e-12)
    assert np.allclose(analysis_step(signal, filt.highpass), 0.0, atol=1e-12)


def test_analysis_rejects_odd_length():
    with pytest.raises(ShapeError):
        analysis_step(np.arange(5.0), make_filter("haar", 1).lowpass)


@pytest.mark.parametrize("length", [4, 8, 16, 32])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_analysis_matches_dense_oracle(length, order):
    filt = make_filter("daubechies", order)
    rng = np.random.default_rng(length * 10 + order)
    for _ in range(5):
        x = rng.normal(size=length)
        assert np.allclose(analysis_step(x, filt.lowpass), analysis_matrix(filt.lowpass, length) @ x, atol=1e-12)
        assert np.allclose(analysis_step(x, filt.highpass), analysis_matrix(filt.highpass, length) @ x, atol=1e-12)


def test_first_level_of_worked_example():
    filt = make_filter("daubechies", 2)
    a1 = analysis_step(Q16, filt.lowpass)
    oracle = analysis_matrix(filt.lowpass, 16) @ Q16
    assert np.allclose(a1, oracle, atol=1e-9)
    # displayed values are 2-decimal approximations, not exact roundings
    assert np.allclose(a1, A1_2DP, atol=8e-3)
    # a second pass must land on the level-2 coefficients, pinning the phase
    assert np.allclose(analysis_step(a1, filt.lowpass), A2_3DP, atol=1e-3)


def test_decompose_shapes_and_golden_values():
    filt = make_filter("daubechies", 2)
    dec = decompose(Q16, filt, 2)
    assert dec.level == 2 and dec.length == 16
    assert dec.approx.shape == (4,)
    assert [d.shape for d in dec.details] == [(8,), (4,)]
    assert np.allclose(dec.approx, A2_3DP, atol=1e-3)


def test_decompose_constant_haar():
    dec = decompose(np.ones(4), make_filter("haar", 1), 1)
    assert np.allclose(dec.approx, [ROOT2, ROOT2], atol=1e-12)
    assert np.allclose(dec.details[0], 0.0, atol=1e-12)


def test_decompose_rejects_indivisible_length():
    with pytest.raises(ShapeError):
        decompose(np.arange(6.0), make_filter("haar", 1), 2)


@pytest.mark.parametrize("m,level,ok", [(8, 3, True), (8, 4, False), (16, 4, True), (16, 5, False), (2**62, 62, True),
                                        (2**62, 63, False), (8, 100_000_000_000, False), (8, 2**70, False)])
def test_check_divisible_compares_the_level_before_any_shift(m, level, ok):
    # a level of 1e11 used to build the integer 2**level first: 12.5 GB, and a MemoryError
    if ok:
        _check_divisible(m, level)
    else:
        with pytest.raises(ShapeError, match=f"signal length {m} is not divisible by 2\\*\\*{level}$"):
            _check_divisible(m, level)


@pytest.mark.parametrize("order,length,level", [(1, 8, 2), (2, 16, 2), (2, 32, 3)])
def test_decompose_matches_dense_oracle(order, length, level):
    filt = make_filter("daubechies", order)
    rng = np.random.default_rng(order * 100 + length)
    for _ in range(5):
        x = rng.normal(size=length)
        dec = decompose(x, filt, level)
        a_ref, d_ref = decompose_dense(x, filt.lowpass, filt.highpass, level)
        assert np.allclose(dec.approx, a_ref, atol=1e-12)
        for got, ref in zip(dec.details, d_ref):
            assert np.allclose(got, ref, atol=1e-12)


def test_reconstruct_zero_coefficients():
    filt = make_filter("daubechies", 2)
    assert np.allclose(reconstruct_component(np.zeros(4), "approx", 2, 16, filt), 0.0, atol=0)
    assert np.allclose(reconstruct_component(np.zeros(8), "detail", 1, 16, filt), 0.0, atol=0)


def test_reconstruct_rejects_bad_shapes():
    filt = make_filter("daubechies", 2)
    with pytest.raises(ShapeError):
        reconstruct_component(np.zeros(5), "approx", 2, 16, filt)
    with pytest.raises(ConfigurationError):
        reconstruct_component(np.zeros(4), "sideways", 2, 16, filt)


@pytest.mark.parametrize("length", [4, 8, 16, 32])
@pytest.mark.parametrize("order", [1, 2])
def test_synthesis_is_adjoint_of_analysis(length, order):
    """The dense synthesis operator must be the transpose of the analysis one."""
    filt = make_filter("daubechies", order)
    for band in (filt.lowpass, filt.highpass):
        forward = analysis_matrix(band, length)
        back = np.zeros((length, length // 2))
        for j in range(length // 2):
            unit = np.zeros(length // 2)
            unit[j] = 1.0
            back[:, j] = synthesis_step(unit, band)
        assert np.allclose(back, forward.T, atol=1e-12)


@pytest.mark.parametrize("length,level", [(8, 1), (8, 3), (16, 2), (32, 3), (64, 2), (256, 3)])
@pytest.mark.parametrize("order", [1, 2])
def test_perfect_reconstruction(length, level, order):
    filt = make_filter("daubechies", order)
    rng = np.random.default_rng(length + level + order)
    for _ in range(5):
        x = rng.uniform(-100.0, 100.0, size=length)
        rebuilt = reconstruct_signal(decompose(x, filt, level))
        assert np.max(np.abs(rebuilt - x)) <= 1e-9 * (1.0 + np.max(np.abs(x)))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_energy_conservation(order):
    filt = make_filter("daubechies", order)
    rng = np.random.default_rng(order)
    for _ in range(10):
        x = rng.normal(size=32) * 50.0
        dec = decompose(x, filt, 3)
        pieces = float(dec.approx @ dec.approx) + sum(float(d @ d) for d in dec.details)
        assert abs(pieces - float(x @ x)) <= 1e-9 * float(x @ x)


def test_constant_capture():
    filt = make_filter("daubechies", 2)
    x = np.full(16, 42.0)
    dec = decompose(x, filt, 2)
    for d in dec.details:
        assert np.max(np.abs(d)) < 1e-12
    approx = reconstruct_component(dec.approx, "approx", 2, 16, filt)
    assert np.allclose(approx, x, atol=1e-11)


def test_synthesis_step_matches_add_at_bitwise():
    """Strided adds sum each output's taps in np.add.at's order, wrap included, for every even m up to 4096."""
    rng = np.random.default_rng(41)
    for order in (1, 2, 3):
        filters = make_filter("daubechies", order)
        for m in range(2, 4097, 2):
            c = rng.normal(size=m // 2) * 10.0 ** rng.integers(-8, 9)
            c[rng.random(c.size) < 0.1] = -0.0
            for band in (filters.lowpass, filters.highpass):
                assert synthesis_step(c, band).tobytes() == synthesis_step_add_at(c, band).tobytes()


@pytest.mark.parametrize("order", [1, 2, 3])
def test_reconstruction_matches_add_at_bitwise(order):
    """decompose then reconstruct_component, per band, equals the np.add.at pyramid to the bit."""
    filters = make_filter("daubechies", order)
    rng = np.random.default_rng(order)
    for length, level in ((2, 1), (4, 2), (6, 1), (8, 3), (16, 2), (64, 5), (96, 4), (2048, 2), (4096, 3), (4096, 12)):
        dec = decompose(rng.lognormal(3.0, 1.5, length).round(), filters, level)
        bands = [("approx", level, dec.approx)] + [("detail", j + 1, d) for j, d in enumerate(dec.details)]
        for kind, band_level, coeffs in bands:
            got = reconstruct_component(coeffs, kind, band_level, length, filters)
            assert got.tobytes() == reconstruct_component_add_at(coeffs, kind, band_level, filters).tobytes()


def test_reconstruct_signal_drops_zeroed_details():
    filt = make_filter("daubechies", 2)
    dec = decompose(Q16, filt, 2)
    zeroed = Decomposition(
        level=dec.level,
        approx=dec.approx,
        details=tuple(np.zeros_like(d) for d in dec.details),
        length=dec.length,
        filters=dec.filters,
    )
    approx_only = reconstruct_component(dec.approx, "approx", 2, 16, filt)
    assert np.allclose(reconstruct_signal(zeroed), approx_only, atol=1e-12)


def test_as_signal_validation():
    with pytest.raises(ShapeError):
        as_signal(3.0)
    with pytest.raises(ShapeError):
        as_signal([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ShapeError):
        as_signal([1.0])
    with pytest.raises(DataError):
        as_signal([1.0, np.nan])
    with pytest.raises(DataError):
        as_signal([1.0, np.inf])


def test_signal_file_round_trip(tmp_path):
    path = tmp_path / "sig.txt"
    write_signal(path, [1.0, -2.5, 300.0])
    text = path.read_text()
    assert text == "1\n-2.5\n300\n"
    assert np.allclose(read_signal(path), [1.0, -2.5, 300.0], atol=0)


def test_signal_file_comments_and_errors(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text("# heading\n\n10\n  20 \n# tail\n30\n")
    assert np.allclose(read_signal(path), [10.0, 20.0, 30.0], atol=0)

    bad = tmp_path / "bad.txt"
    bad.write_text("10\nbanana\n30\n")
    with pytest.raises(DataError, match="line 2"):
        read_signal(bad)

    short = tmp_path / "short.txt"
    short.write_text("10\n")
    with pytest.raises(DataError):
        read_signal(short)
