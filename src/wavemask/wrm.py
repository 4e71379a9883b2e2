"""Wavelet reconstruction operator: approximation coefficients -> approximation.

The transform is periodized, so column j of the operator is column 0 rolled
down by j * 2**level.  Only column 0, the impulse response, is kept: O(m) to
build and store.  Rows are gathered from it, products run the synthesis
pyramid, and the dense matrix is built only on request (the `wrm` dump).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .wavelet import FilterPair, _frozen, reconstruct_component


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

    def _gather(self, rows: np.ndarray) -> np.ndarray:
        # entry (i, j) is impulse[(i - j * 2**level) mod m], rows 0-based
        shifts = np.arange(self.shape[1]) << self.level
        return self.impulse[(rows[..., None] - shifts) % self.length]

    @property
    def entries(self) -> np.ndarray:
        """The dense matrix, built on each access: O(m^2 / 2**level) memory."""
        return self._gather(np.arange(self.length))

    def apply(self, coeffs) -> np.ndarray:
        """Operator-vector product by the synthesis pyramid, which checks the shape."""
        return reconstruct_component(coeffs, "approx", self.level, self.length, self.filters)

    def row(self, index: int) -> np.ndarray:
        """One row, 1-based to match signal positions."""
        if not 1 <= index <= self.length:
            raise ShapeError(f"row index {index} outside 1..{self.length}")
        return self._gather(np.asarray(index - 1))


def build_wrm(length: int, level: int, filters: FilterPair) -> ReconstructionMatrix:
    """Build the approximation-band operator from its impulse response (column 0)."""
    if level < 1:
        raise ShapeError(f"level must be >= 1, got {level}")
    if length < 2:
        raise ShapeError(f"length must be >= 2, got {length}")
    if length % (1 << level):
        raise ShapeError(f"length {length} is not divisible by 2**{level}")
    unit = np.zeros(length >> level)
    unit[0] = 1.0
    impulse = reconstruct_component(unit, "approx", level, length, filters)
    return ReconstructionMatrix(impulse=impulse, length=length, level=level, filters=filters)
