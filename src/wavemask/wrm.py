"""Wavelet reconstruction operator: approximation coefficients -> approximation.

The transform is periodized, so column j of the operator is column 0 rolled
down by j * 2**level.  Only column 0, the impulse response, is kept: O(m) to
build and store.  Stacked rows are read from it (``rows(positions)``),
products run the synthesis pyramid, and the dense matrix is built only on
request (the `wrm` dump).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError
from .wavelet import FilterPair, _check_divisible, _frozen, reconstruct_component


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

    def rows(self, positions) -> np.ndarray:
        """Read-only rows at 1-based positions, stacked in the given order.

        Row i is a window of the reversed, doubled polyphase component
        (i - 1) mod 2**level of the impulse, so no index array is built.
        """
        index = np.asarray(positions, dtype=np.int64) - 1
        if np.any((index < 0) | (index >= self.length)):
            raise ShapeError(f"row positions must lie in 1..{self.length}")
        step, width = 1 << self.level, self.shape[1]
        reversed_phases = self.impulse.reshape(width, step).T[:, ::-1]
        windows = sliding_window_view(np.concatenate((reversed_phases, reversed_phases), axis=1), width, axis=1)
        out = windows[index % step, width - 1 - index // step]
        out.setflags(write=False)
        return out

    @property
    def entries(self) -> np.ndarray:
        """The dense matrix, built on each access: O(m^2 / 2**level) memory."""
        return self.rows(np.arange(1, self.length + 1))

    def apply(self, coeffs) -> np.ndarray:
        """Operator-vector product by the synthesis pyramid, which checks the shape."""
        return reconstruct_component(coeffs, "approx", self.level, self.length, self.filters)


def build_wrm(length: int, level: int, filters: FilterPair) -> ReconstructionMatrix:
    """Build the approximation-band operator from its impulse response (column 0)."""
    _check_divisible(length, level)
    if length < 2:
        raise ShapeError(f"length must be >= 2, got {length}")
    unit = np.zeros(length >> level)
    unit[0] = 1.0
    impulse = reconstruct_component(unit, "approx", level, length, filters)
    return ReconstructionMatrix(impulse=impulse, length=length, level=level, filters=filters)
