"""Wavelet reconstruction operator: approximation coefficients -> approximation.

The transform is periodized, so column j of the operator is column 0 rolled
down by j * 2**level.  Only column 0, the impulse response, is kept: O(m) to
build and store.  Rows are read off its support as their non-zero entries
(``row_entries``), the one row form the package uses: the goal LP's rows and
the `wrm` dump are built from them.  Products run the synthesis pyramid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .wavelet import INTP_MAX, FilterPair, _check_divisible, _frozen, reconstruct_component


@dataclass(frozen=True)
class ReconstructionMatrix:
    """m x (m / 2**level) operator mapping coefficient vectors to approximations."""

    impulse: np.ndarray
    length: int
    level: int
    filters: FilterPair = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "impulse", _frozen(self.impulse))

    @property
    def shape(self) -> tuple[int, int]:
        return self.length, self.length >> self.level

    def row_entries(self, positions) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Non-zero (row, column, value) entries of the rows at 1-based positions, row-major.

        Row r is the row at positions[r].  Column j of the row at position i
        is impulse[(i - 1 - j * 2**level) mod m]: each support point whose
        offset from i - 1 is a multiple of 2**level gives one column.
        """
        index = np.asarray(positions)
        if index.size and index.dtype.kind not in "iu":
            raise ShapeError(f"row positions must be integers, got {index.dtype}")
        index = index.astype(np.int64) - 1
        if np.any((index < 0) | (index >= self.length)):
            raise ShapeError(f"row positions must lie in 1..{self.length}")
        offset = np.sort((index[:, None] - np.flatnonzero(self.impulse)) % self.length, axis=1)
        row, at = np.nonzero(offset % (1 << self.level) == 0)
        offset = offset[row, at]
        return row, offset >> self.level, self.impulse[(index[row] - offset) % self.length]

    def apply(self, coeffs) -> np.ndarray:
        """Operator-vector product by the synthesis pyramid, which checks the shape."""
        return reconstruct_component(coeffs, "approx", self.level, self.length, self.filters)


def build_wrm(length: int, level: int, filters: FilterPair) -> ReconstructionMatrix:
    """Build the approximation-band operator from its impulse response (column 0)."""
    if not 2 <= length <= INTP_MAX // 8:  # checked before allocating: numpy holds no larger float64 array
        raise ShapeError(f"length must be >= 2 and at most {INTP_MAX // 8}, got {length}")
    _check_divisible(length, level)
    unit = np.zeros(length >> level)
    unit[0] = 1.0
    impulse = reconstruct_component(unit, "approx", level, length, filters)
    return ReconstructionMatrix(impulse=impulse, length=length, level=level, filters=filters)
