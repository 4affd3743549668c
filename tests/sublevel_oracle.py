"""Magnetic-sublevel quantities the package does not compute, the oracles
that its sublevel-averaged path is checked against: the 3j symbol and the
Clebsch-Gordan coefficient for given projections, the two-photon matrix
element between two magnetic sublevels, and the reduced orbital elements
assembled from the three sums over intermediate states.  The 3j symbol is
the term-by-term `Fraction` sum of `racah_oracle`, so nothing here shares
angular code with the package beyond `HalfInt`."""

import math
from typing import NamedTuple

from h2plus.angular import HalfInt, HalfIntLike
from h2plus.hyperfine import HyperfineEigenstate, RoVibLevel
from h2plus.twophoton import (
    OrbitalReducedElements,
    PolarizationPair,
    SelectionRuleError,
    hyperfine_reduced_q,
)
from racah_oracle import three_j


def _twice_pairs(*js_and_ms: HalfIntLike) -> list[int]:
    """2j, 2m of each (j, m) pair in the arguments, a ValueError for a
    negative magnitude or a j/m parity mismatch."""
    twice = [HalfInt.of(x).twice for x in js_and_ms]
    for tj, tm in zip(twice[::2], twice[1::2]):
        if tj < 0:
            raise ValueError(f"magnitude j must be non-negative, got {tj}/2")
        if (tj + tm) % 2:
            raise ValueError(
                f"projection m={HalfInt(tm)} and j={HalfInt(tj)} differ by a non-integer"
            )
    return twice


def wigner3j(
    j1: HalfIntLike,
    j2: HalfIntLike,
    j3: HalfIntLike,
    m1: HalfIntLike,
    m2: HalfIntLike,
    m3: HalfIntLike,
) -> float:
    """Wigner 3j symbol (j1 j2 j3 / m1 m2 m3).

    Returns exactly 0.0 when the triangle rule or m1+m2+m3 = 0 fails.
    Raises ValueError for a negative magnitude or a j/m parity mismatch.
    """
    tj1, tm1, tj2, tm2, tj3, tm3 = _twice_pairs(j1, m1, j2, m2, j3, m3)
    return three_j(tj1, tj2, tj3, tm1, tm2, tm3)


def clebsch_gordan(
    j1: HalfIntLike,
    m1: HalfIntLike,
    j2: HalfIntLike,
    m2: HalfIntLike,
    j: HalfIntLike,
    m: HalfIntLike,
) -> float:
    """Clebsch-Gordan coefficient <j1 m1 j2 m2 | j m>
    = (-1)^(j1-j2+m) sqrt(2j+1) 3j(j1, j2, j; m1, m2, -m), zero unless
    m = m1 + m2."""
    tj1, tm1, tj2, tm2, tj, tm = _twice_pairs(j1, m1, j2, m2, j, m)
    sign = -1 if ((tj1 - tj2 + tm) // 2) % 2 else 1
    return sign * math.sqrt(tj + 1.0) * three_j(tj1, tj2, tj, tm1, tm2, -tm)


def polarization_weights(pair: PolarizationPair) -> tuple[float, float]:
    """(a00, a(2)_q) = (<1 q1 1 q2 | 0 0>, <1 q1 1 q2 | 2 q>), q = q1+q2."""
    a00 = clebsch_gordan(1, pair.q1, 1, pair.q2, 0, 0)
    return a00, clebsch_gordan(1, pair.q1, 1, pair.q2, 2, pair.q1 + pair.q2)


def polarized_matrix_element(
    lower: HyperfineEigenstate,
    m_lower: HalfInt,
    upper: HyperfineEigenstate,
    m_upper: HalfInt,
    pair: PolarizationPair,
    orb: OrbitalReducedElements,
) -> float:
    """Two-photon matrix element between specific magnetic sublevels:

        sum_k a(k)_q <J' k M' q | J M> <gJ||Q(k)||eJ'> / sqrt(2J+1).

    Zero unless M = M' + q1 + q2.
    """
    m_lower = HalfInt.of(m_lower)
    m_upper = HalfInt.of(m_upper)
    if abs(m_lower.twice) > lower.j.twice or abs(m_upper.twice) > upper.j.twice:
        raise ValueError("projection exceeds its angular momentum")
    q = pair.q1 + pair.q2
    if m_lower.twice != m_upper.twice + 2 * q:
        return 0.0
    total = 0.0
    for k, amplitude in zip((0, 2), polarization_weights(pair)):
        if amplitude == 0.0:
            continue
        geometry = clebsch_gordan(upper.j, m_upper, k, q, lower.j, m_lower)
        if geometry == 0.0:
            continue
        total += amplitude * geometry * hyperfine_reduced_q(k, lower, upper, orb)
    return total / math.sqrt(lower.j.twice + 1.0)


class IntermediateSums(NamedTuple):
    """The three partial sums over intermediate states with orbital momentum
    L-1, L, L+1, in atomic units."""

    a_minus: float
    a_zero: float
    a_plus: float


def reduced_from_intermediate_sums(
    sums: IntermediateSums, lower: RoVibLevel, upper: RoVibLevel
) -> OrbitalReducedElements:
    """Assemble <vL||Q(k)||v'L'> from the three intermediate-state sums.

    For L' = L both ranks contribute; for L' = L -/+ 2 only the rank-2
    element survives and involves a_minus / a_plus alone.
    """
    L, Lp = lower.L, upper.L
    root = math.sqrt(2 * L + 1)
    am, a0, ap = sums.a_minus, sums.a_zero, sums.a_plus
    if Lp == L:
        q0 = -root * math.sqrt(3.0) / 3.0 * (am + a0 + ap)
        if L == 0:
            q2 = 0.0
        else:
            q2 = (
                -root
                / math.sqrt(6.0)
                * math.sqrt((2 * L + 3) * (2 * L - 1) * L * (L + 1))
                * (
                    am / (L * (2 * L - 1))
                    - a0 / (L * (L + 1))
                    + ap / ((2 * L + 3) * (L + 1))
                )
            )
    elif Lp == L - 2:
        q0 = 0.0
        q2 = -root * math.sqrt((2 * L - 3) / (2 * L - 1)) * am
    elif Lp == L + 2:
        q0 = 0.0
        q2 = -root * math.sqrt((2 * L + 5) / (2 * L + 3)) * ap
    else:
        raise SelectionRuleError(f"|L - L'| must be 0 or 2, got L={L}, L'={Lp}")
    return OrbitalReducedElements(lower=lower, upper=upper, q0=q0, q2=q2)
