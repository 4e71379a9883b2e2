"""Periodized orthogonal wavelet analysis and synthesis (Mallat pyramid).

All transforms use circular (periodic) boundary extension and one fixed
indexing convention:

    analysis:   out[i] = sum_j f[j] * in[(2*i - 1 + j) mod M],  i = 0 .. M/2-1

Synthesis is the exact adjoint (transpose) of that map, which guarantees
perfect reconstruction for orthonormal filter pairs and pins the dense
reconstruction operator uniquely.  The -1 phase offset is deliberate and
calibrated by golden tests; do not change it without re-running those.

Everything here is a pure function of its inputs; the dataclasses freeze
their arrays so instances can be shared across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError, ShapeError

ATOL = 1e-12  # filter invariant tolerance
INTP_MAX = int(np.iinfo(np.intp).max)


def _frozen(values: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def as_signal(values) -> np.ndarray:
    """Validate and return a signal as a 1-D float64 array.

    A signal must have at least two samples and contain only finite values.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError(f"signal must be one-dimensional, got shape {arr.shape}")
    if arr.size < 2:
        raise ShapeError(f"signal needs at least 2 samples, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise DataError("signal contains NaN or infinite values")
    return arr.copy()


@dataclass(frozen=True)
class FilterPair:
    """Orthonormal lowpass/highpass analysis filter pair.

    Invariants (checked on construction, all within 1e-12): the lowpass sums
    to sqrt(2), the highpass sums to 0, both have unit energy, and the two
    are orthogonal.
    """

    lowpass: np.ndarray
    highpass: np.ndarray
    name: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "lowpass", _frozen(self.lowpass))
        object.__setattr__(self, "highpass", _frozen(self.highpass))
        lo, hi = self.lowpass, self.highpass
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size < 2 or lo.size % 2:
            raise ConfigurationError(
                f"filters must be equal-length 1-D arrays of even length, got {lo.shape}/{hi.shape}"
            )
        checks = [
            ("lowpass sum", lo.sum() - math.sqrt(2.0)),
            ("highpass sum", hi.sum()),
            ("lowpass energy", (lo @ lo) - 1.0),
            ("highpass energy", (hi @ hi) - 1.0),
            ("cross orthogonality", lo @ hi),
        ]
        for label, err in checks:
            if abs(err) > ATOL:
                raise ConfigurationError(f"invalid filter pair: {label} off by {err:.3e}")

    @property
    def length(self) -> int:
        return self.lowpass.size


def derive_highpass(lowpass) -> np.ndarray:
    """Quadrature-mirror highpass from a lowpass: h[j] = (-1)**j * l[n-1-j]."""
    lo = np.asarray(lowpass, dtype=np.float64)
    n = lo.size
    signs = (-1.0) ** np.arange(n)
    return signs * lo[::-1]


def _daubechies_lowpass(order: int) -> np.ndarray:
    # Closed forms; all invariants then hold to machine precision.
    if order == 1:
        return np.array([1.0, 1.0]) / math.sqrt(2.0)
    if order == 2:
        s3 = math.sqrt(3.0)
        return np.array([1.0 + s3, 3.0 + s3, 3.0 - s3, 1.0 - s3]) / (4.0 * math.sqrt(2.0))
    if order == 3:
        s10 = math.sqrt(10.0)
        a = math.sqrt(5.0 + 2.0 * s10)
        raw = np.array(
            [
                1.0 + s10 + a,
                5.0 + s10 + 3.0 * a,
                10.0 - 2.0 * s10 + 2.0 * a,
                10.0 - 2.0 * s10 - 2.0 * a,
                5.0 + s10 - 3.0 * a,
                1.0 + s10 - a,
            ]
        ) / 16.0
        return raw / math.sqrt(2.0)
    raise ConfigurationError(f"Daubechies order {order} not supported (available: 1, 2, 3)")


def make_filter(family: str, order: int) -> FilterPair:
    """Build a named orthonormal filter pair.

    Supported: family "daubechies" (alias "db"), orders 1-3, and "haar",
    order 1 only, which is the Daubechies order 1 pair.
    """
    fam = family.strip().lower()
    if fam == "haar" and order != 1:
        raise ConfigurationError(f"haar takes order 1 only, got {order}")
    if fam not in ("daubechies", "db", "haar"):
        raise ConfigurationError(f"unsupported wavelet family {family!r}")
    lo = _daubechies_lowpass(order)
    return FilterPair(lowpass=lo, highpass=derive_highpass(lo), name=f"daubechies:{order}")


def _analysis_index(half: int, taps: int, m: int) -> np.ndarray:
    # (2i - 1 + j) mod M for the full (i, j) grid; the -1 phase is normative.
    return (2 * np.arange(half)[:, None] - 1 + np.arange(taps)[None, :]) % m


def analysis_step(values, filt) -> np.ndarray:
    """One filter-and-decimate pass: length M (even) down to M/2.

    Periodic extension: indices wrap modulo M, so inputs shorter than the
    filter are fine as long as M is even.
    """
    x = np.asarray(values, dtype=np.float64)
    f = np.asarray(filt, dtype=np.float64)
    m = x.size
    if m < 2 or m % 2:
        raise ShapeError(f"analysis step needs an even input length >= 2, got {m}")
    idx = _analysis_index(m // 2, f.size, m)
    return x[idx] @ f


def synthesis_step(coeffs, filt) -> np.ndarray:
    """Adjoint of analysis_step: length M/2 up to M, same filter.

    Output n sums c[i] * f[j] over (2i - 1 + j) mod M = n in (i, j) order, as
    np.add.at would: one strided add per tap, j descending, then the outputs a
    wrapping i reaches are summed again.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    f = np.asarray(filt, dtype=np.float64)
    half, taps = c.size, f.size
    products = f[None, :] * c[:, None]
    out = np.zeros(2 * half)
    for j in reversed(range(taps)):
        lands = out[(j - 1) % 2 :: 2]  # product i lands on lands[(i + shift) mod half]
        shift = (j - 1) // 2 % half
        lands[shift:] += products[: half - shift, j]
        lands[:shift] += products[half - shift :, j]
    for n in {*range(min(taps - 3, out.size)), out.size - 1}:
        total = 0.0
        for i, j in sorted(((n + 1 - j) // 2 % half, j) for j in range((n + 1) % 2, taps, 2)):
            total += products[i, j]
        out[n] = total
    return out


@dataclass(frozen=True)
class Decomposition:
    """Level-k pyramid: approximation coefficients plus one detail band per level.

    ``details[j]`` holds the level j+1 band of length m / 2**(j+1); ``approx``
    has length m / 2**level.
    """

    level: int
    approx: np.ndarray
    details: tuple[np.ndarray, ...]
    length: int
    filters: FilterPair = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "approx", _frozen(self.approx))
        object.__setattr__(self, "details", tuple(_frozen(d) for d in self.details))


def _check_divisible(m: int, level: int) -> None:
    if level < 1:
        raise ShapeError(f"decomposition level must be >= 1, got {level}")
    if level >= int(m).bit_length() or m % (1 << level):  # compared first, so a huge level builds no huge 2**level
        raise ShapeError(f"signal length {m} is not divisible by 2**{level}")


def decompose(signal, filters: FilterPair, level: int) -> Decomposition:
    """Run the analysis pyramid for ``level`` stages.

    Each stage splits the running approximation into a new approximation
    (lowpass) and a detail band (highpass).
    """
    s = as_signal(signal)
    _check_divisible(s.size, level)
    approx = s
    details = []
    for _ in range(level):
        details.append(analysis_step(approx, filters.highpass))
        approx = analysis_step(approx, filters.lowpass)
    return Decomposition(
        level=level, approx=approx, details=tuple(details), length=s.size, filters=filters
    )


def reconstruct_component(coeffs, kind: str, level: int, length: int, filters: FilterPair) -> np.ndarray:
    """Map one coefficient band back to signal length.

    ``kind`` is "approx" or "detail"; ``level`` is the band's pyramid level.
    The first synthesis stage uses the highpass for a detail band and the
    lowpass for the approximation; every later stage uses the lowpass.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    _check_divisible(length, level)
    expected = length >> level
    if c.ndim != 1 or c.size != expected:
        raise ShapeError(f"{kind} band at level {level} of a length-{length} signal must have {expected} coefficients, got {c.shape}")
    if kind == "approx":
        out = synthesis_step(c, filters.lowpass)
    elif kind == "detail":
        out = synthesis_step(c, filters.highpass)
    else:
        raise ConfigurationError(f"unknown band kind {kind!r}")
    for _ in range(level - 1):
        out = synthesis_step(out, filters.lowpass)
    return out


def reconstruct_signal(dec: Decomposition) -> np.ndarray:
    """Sum the reconstructed approximation and every reconstructed detail band."""
    out = reconstruct_component(dec.approx, "approx", dec.level, dec.length, dec.filters)
    for j, band in enumerate(dec.details, start=1):
        out = out + reconstruct_component(band, "detail", j, dec.length, dec.filters)
    return out


def read_signal(path) -> np.ndarray:
    """Read a signal file: one decimal number per line, '#' lines ignored."""
    values = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    values.append(float(text))
                except ValueError:
                    raise DataError(f"{path}: line {lineno}: not a number: {text!r}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if len(values) < 2:
        raise DataError(f"{path}: signal file needs at least 2 values, got {len(values)}")
    return as_signal(values)


def write_signal(path, values) -> None:
    """Write one number per line; integers are written without a decimal point."""
    arr = np.asarray(values)
    with open(path, "w", encoding="utf-8") as fh:
        for v in arr:
            fv = float(v)
            fh.write(f"{int(fv)}\n" if fv.is_integer() else f"{fv!r}\n")
