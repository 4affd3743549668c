"""The full hyperfine matrix over the pure coupled-spin basis and the
coefficient vector as numpy arrays, the oracle that the analytic block
solver and the coefficient fit are checked against."""

from dataclasses import dataclass

import numpy as np

from h2plus.angular import HalfInt
from h2plus.hyperfine import (
    F_HALF,
    F_THREE_HALF,
    HyperfineCoefficients,
    hfs_matrix_entries,
)


@dataclass(frozen=True)
class SpinBasisState:
    """A pure coupled state |L, S_e=1/2, I, F, J> (no projection)."""

    L: int
    I: int
    F: HalfInt
    J: HalfInt

    def __str__(self) -> str:
        return f"|L={self.L} I={self.I} F={self.F} J={self.J}>"


def allowed_spin_states(L: int) -> list[SpinBasisState]:
    """The pure coupled basis of a level with orbital momentum L.

    Even L (I=0): F=1/2, J = L -/+ 1/2 (J=-1/2 dropped at L=0).
    Odd L (I=1): F=1/2 with J = L -/+ 1/2 and F=3/2 with J = L-3/2 ... L+3/2
    (J = L-3/2 dropped at L=1).  Ordered by descending J, then descending F.
    """
    if L < 0:
        raise ValueError(f"L must be non-negative, got {L}")
    tl = 2 * L
    states: list[SpinBasisState] = []
    if L % 2 == 0:
        for tj in (tl + 1, tl - 1):
            if tj >= 0:
                states.append(SpinBasisState(L, 0, F_HALF, HalfInt(tj)))
    else:
        candidates = [
            (tl + 3, F_THREE_HALF),
            (tl + 1, F_THREE_HALF),
            (tl + 1, F_HALF),
            (tl - 1, F_THREE_HALF),
            (tl - 1, F_HALF),
            (tl - 3, F_THREE_HALF),
        ]
        for tj, f in candidates:
            if tj >= 0:
                states.append(SpinBasisState(L, 1, f, HalfInt(tj)))
    return states


def build_hfs_matrix(L: int, c: HyperfineCoefficients) -> np.ndarray:
    """Full block-diagonal matrix of `hfs_matrix_entries` (5x5 for L=1,
    6x6 for L>=3), over the same ordered basis as `allowed_spin_states`."""
    e = hfs_matrix_entries(L, c)
    n = 5 if L == 1 else 6
    h = np.zeros((n, n))
    h[0, 0] = e["A"]
    h[1, 1], h[2, 2] = e["B"], e["D"]
    h[1, 2] = h[2, 1] = e["C"]
    h[3, 3], h[4, 4] = e["E"], e["H"]
    h[3, 4] = h[4, 3] = e["G"]
    if n == 6:
        h[5, 5] = e["K"]
    return h


def coefficient_array(c: HyperfineCoefficients) -> np.ndarray:
    """(b_F, c_e, c_I, d_1, d_2), the order of the `HyperfineCoefficients`
    fields."""
    return np.array([c.b_f, c.c_e, c.c_i, c.d1, c.d2])
