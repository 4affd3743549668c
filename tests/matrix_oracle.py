"""The full hyperfine matrix and the coefficient vector as numpy arrays, the
oracle that the analytic block solver and the coefficient fit are checked
against."""

import numpy as np

from h2plus.hyperfine import HyperfineCoefficients, hfs_matrix_entries


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
    """(b_F, c_e, c_I, d_1, d_2), the order `HyperfineCoefficients.from_array`
    reads."""
    return np.array([c.b_f, c.c_e, c.c_i, c.d1, c.d2])
