"""Compensated floating-point accumulation helpers.

Long sums are built block by block: within a block numpy's pairwise
``sum`` is already accurate, and the running carry across blocks is kept
in a Neumaier (sum, compensation) pair so the cross-block chain loses
nothing to rounding.
"""

from __future__ import annotations

import numpy as np


class NeumaierSum:
    """Running compensated scalar sum (Kahan with Neumaier's branch)."""

    __slots__ = ("total", "comp")

    def __init__(self, total: float = 0.0, comp: float = 0.0):
        self.total = total
        self.comp = comp

    def add(self, value: float) -> None:
        t = self.total + value
        if abs(self.total) >= abs(value):
            self.comp += (self.total - t) + value
        else:
            self.comp += (value - t) + self.total
        self.total = t

    @property
    def value(self) -> float:
        return self.total + self.comp


def kahan_slice_add(out: np.ndarray, comp: np.ndarray, sl, addend: np.ndarray) -> None:
    """In-place ``out[sl] += addend`` with per-element Kahan compensation.

    ``sl`` is a slice and ``addend`` a fresh float64 array, which is
    overwritten with y = addend - comp[sl]; t = out[sl] + y is the one
    temporary, and comp[sl] = (t - out[sl]) - y is formed in place.
    """
    y = np.subtract(addend, comp[sl], out=addend)
    t = out[sl] + y
    c = np.subtract(t, out[sl], out=comp[sl])
    c -= y
    out[sl] = t

