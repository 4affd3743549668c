"""Reduced matrices of the electron and nuclear spin operators over the
coupled-spin basis, the oracle that the hyperfine matrix-entry tests build
L.S and L.I blocks from, and the projection range and phase helpers that
the magnetic-sublevel sums and tensor-algebra reconstructions use."""

import math
from enum import Enum

from h2plus.angular import HalfInt, HalfIntLike


class SpinOperator(Enum):
    """Which rank-1 spin operator a reduced matrix element refers to."""

    ELECTRON_SPIN = "electron_spin"
    NUCLEAR_SPIN = "nuclear_spin"


# Reduced matrices over the ordered coupled-spin basis (F=3/2, F=1/2) for an
# electron spin 1/2 coupled to a total nuclear spin 1.  Rows are the bra F,
# columns the ket F'.
_ELECTRON_SPIN_REDUCED = (
    (math.sqrt(15.0) / 3.0, -2.0 / math.sqrt(3.0)),
    (2.0 / math.sqrt(3.0), -math.sqrt(6.0) / 6.0),
)
_NUCLEAR_SPIN_REDUCED = (
    (2.0 * math.sqrt(15.0) / 3.0, 2.0 / math.sqrt(3.0)),
    (-2.0 / math.sqrt(3.0), 2.0 * math.sqrt(6.0) / 3.0),
)

_F_INDEX = {3: 0, 1: 1}  # twice F -> row/column


def spin_reduced_matrix(
    operator: SpinOperator, f: HalfIntLike, f_prime: HalfIntLike
) -> float:
    """Entry <F||op||F'> of the fixed reduced spin matrices.

    Both F and F' must be 1/2 or 3/2, the only totals an electron spin 1/2
    coupled to a nuclear spin 1 can form.
    """
    tf = HalfInt.of(f).twice
    tfp = HalfInt.of(f_prime).twice
    try:
        row, col = _F_INDEX[tf], _F_INDEX[tfp]
    except KeyError:
        bad = HalfInt(tf) if tf not in _F_INDEX else HalfInt(tfp)
        raise ValueError(f"F must be 1/2 or 3/2, got {bad}") from None
    table = (
        _ELECTRON_SPIN_REDUCED
        if operator is SpinOperator.ELECTRON_SPIN
        else _NUCLEAR_SPIN_REDUCED
    )
    return table[row][col]


def projections(j: HalfIntLike) -> list[HalfInt]:
    """All projections m = -j ... +j in unit steps."""
    tj = HalfInt.of(j).twice
    if tj < 0:
        raise ValueError("magnitude j must be non-negative")
    return [HalfInt(tm) for tm in range(-tj, tj + 1, 2)]


def minus_one_pow(*values: HalfIntLike) -> int:
    """(-1) raised to the sum of the arguments, which must be an integer."""
    total = sum(HalfInt.of(v).twice for v in values)
    if total % 2:
        raise ValueError("phase exponent is not an integer")
    return -1 if (total // 2) % 2 else 1
