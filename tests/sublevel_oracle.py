"""Magnetic-sublevel quantities the package does not compute, the oracles
that its sublevel-averaged path is checked against: the 3j symbol for given
projections, the two-photon matrix element between two magnetic sublevels,
and the reduced orbital elements assembled from the three sums over
intermediate states."""

import math
from typing import NamedTuple

from h2plus.angular import HalfInt, HalfIntLike, _check_pair, _three_j, clebsch_gordan
from h2plus.hyperfine import HyperfineEigenstate, RoVibLevel
from h2plus.twophoton import (
    OrbitalReducedElements,
    PolarizationPair,
    SelectionRuleError,
    hyperfine_reduced_q,
    tensor_coefficients,
)


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
    tj = tuple(HalfInt.of(j).twice for j in (j1, j2, j3))
    tm = tuple(HalfInt.of(m).twice for m in (m1, m2, m3))
    for a, b in zip(tj, tm):
        _check_pair(a, b)
    return _three_j(tj[0], tj[1], tj[2], tm[0], tm[1], tm[2])


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
    coeffs = tensor_coefficients(pair)
    q = coeffs.q_total
    if m_lower.twice != m_upper.twice + 2 * q:
        return 0.0
    total = 0.0
    for k, amplitude in ((0, coeffs.a00), (2, coeffs.a2_at(q))):
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
