"""Two-photon transition amplitudes between hyperfine states.

The symmetrized two-photon operator for standard polarizations q1, q2 in
{-1, 0, +1} decomposes into irreducible tensors of rank 0 and 2 only (the
rank-1 part cancels under symmetrization).  Matrix elements between
hyperfine states factor through the Wigner-Eckart theorem into polarization
coefficients, Clebsch-Gordan geometry, and reduced orbital elements
<vL||Q(k)||v'L'> that are ingested as data in atomic units.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from functools import cache
from typing import NamedTuple

from .angular import HalfInt, _six_j, clebsch_gordan
from .hyperfine import HyperfineEigenstate, RoVibLevel

__all__ = [
    "PolarizationPair",
    "TensorCoeffs",
    "OrbitalReducedElements",
    "IntermediateSums",
    "SelectionRuleError",
    "tensor_coefficients",
    "polarization_weights",
    "averaged_from_reduced",
    "reduced_from_intermediate_sums",
    "hyperfine_reduced_q",
    "averaged_sq_matrix_element",
    "polarized_matrix_element",
    "PI_PI",
    "SIGMA_PLUS_SIGMA_PLUS",
    "SIGMA_PLUS_SIGMA_MINUS",
]

_COMPONENT_NAMES = {-1: "sm", 0: "pi", 1: "sp"}


class SelectionRuleError(ValueError):
    """A requested coupling violates a structural selection rule."""


class PolarizationPair:
    """Standard polarization components (q1, q2) of the two absorbed photons:
    sigma- (q=-1), pi (q=0), sigma+ (q=+1).

    The nine pairs are built once at import and are immutable; construction,
    `from_token`, pickle and copy return one of them.  So equality and
    hashing are the inherited identity ones, which run in C.
    """

    __slots__ = ("q1", "q2", "token")
    q1: int
    q2: int
    token: str

    def __new__(cls, q1: int, q2: int) -> "PolarizationPair":
        try:
            return _PAIRS[q1, q2]
        except (KeyError, TypeError):
            bad = next(q for q in (q1, q2) if q not in (-1, 0, 1))
            raise ValueError(
                f"polarization component must be -1, 0 or +1, got {bad}"
            ) from None

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return PolarizationPair, (self.q1, self.q2)

    @property
    def q_total(self) -> int:
        return self.q1 + self.q2

    @classmethod
    def from_token(cls, token: str) -> "PolarizationPair":
        """Parse tokens like 'pipi', 'spsp', 'spsm', 'pisp'."""
        try:
            return _PAIRS_BY_TOKEN[token.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown polarization token {token!r}") from None

    def swapped(self) -> "PolarizationPair":
        return _PAIRS[self.q2, self.q1]

    def __repr__(self) -> str:
        return f"PolarizationPair(q1={self.q1}, q2={self.q2})"

    def __str__(self) -> str:
        return self.token


def _make_pair(q1: int, q2: int) -> PolarizationPair:
    pair = object.__new__(PolarizationPair)
    object.__setattr__(pair, "q1", q1)
    object.__setattr__(pair, "q2", q2)
    object.__setattr__(pair, "token", _COMPONENT_NAMES[q1] + _COMPONENT_NAMES[q2])
    return pair


_PAIRS = {(q1, q2): _make_pair(q1, q2) for q1 in (-1, 0, 1) for q2 in (-1, 0, 1)}
_PAIRS_BY_TOKEN = {pair.token: pair for pair in _PAIRS.values()}

PI_PI = PolarizationPair(0, 0)
SIGMA_PLUS_SIGMA_PLUS = PolarizationPair(1, 1)
SIGMA_PLUS_SIGMA_MINUS = PolarizationPair(1, -1)


class TensorCoeffs(NamedTuple):
    """Rank-2 and rank-0 weights of the symmetrized two-photon operator for
    one polarization pair: a2[q] for q = -2..2 and the scalar weight a00.

    Only the entry at q = q1+q2 can be nonzero, and a00 requires q1+q2 = 0.
    """

    a2: tuple[float, float, float, float, float]
    a00: float
    q_total: int

    def a2_at(self, q: int) -> float:
        if not -2 <= q <= 2:
            return 0.0
        return self.a2[q + 2]

    def norm_sq(self) -> float:
        return sum(a * a for a in self.a2) + self.a00 * self.a00


class OrbitalReducedElements(NamedTuple("OrbitalReducedElements", [
    ("lower", RoVibLevel), ("upper", RoVibLevel), ("q0", float), ("q2", float),
])):
    """Reduced orbital elements <vL||Q(0)||v'L'> and <vL||Q(2)||v'L'> in
    atomic units for one ro-vibrational transition."""

    __slots__ = ()

    def __new__(cls, lower: RoVibLevel, upper: RoVibLevel, q0: float,
                q2: float) -> "OrbitalReducedElements":
        if lower == upper:
            raise ValueError("lower and upper levels must differ")
        delta_l = abs(upper.L - lower.L)
        if delta_l not in (0, 2):
            raise SelectionRuleError(
                f"two-photon operator cannot couple L={lower.L} to L={upper.L}"
            )
        if delta_l != 0 and q0 != 0.0:
            raise ValueError("Q(0) must vanish unless L = L'")
        return super().__new__(cls, lower, upper, q0, q2)

    def element(self, k: int) -> float:
        if k == 0:
            return self.q0
        if k == 2:
            return self.q2
        raise ValueError(f"rank must be 0 or 2, got {k}")


class IntermediateSums(NamedTuple):
    """The three partial sums over intermediate states with orbital momentum
    L-1, L, L+1, in atomic units."""

    a_minus: float
    a_zero: float
    a_plus: float


def tensor_coefficients(pair: PolarizationPair) -> TensorCoeffs:
    """Polarization weights a(k)_q = <1 1 q1 q2 | k q> for k = 0 and 2."""
    q = pair.q_total
    a2 = [0.0] * 5
    a2[q + 2] = clebsch_gordan(1, pair.q1, 1, pair.q2, 2, q)
    a00 = clebsch_gordan(1, pair.q1, 1, pair.q2, 0, 0) if q == 0 else 0.0
    return TensorCoeffs(a2=tuple(a2), a00=a00, q_total=q)


@cache
def polarization_weights(pair: PolarizationPair) -> tuple[float, float]:
    """The two weights a pair can carry: (a00, a(2)_q) with q = q1+q2.

    Computed once per pair and process; there are nine pairs."""
    coeffs = tensor_coefficients(pair)
    return coeffs.a00, coeffs.a2_at(coeffs.q_total)


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


def _check_levels(
    lower: HyperfineEigenstate, upper: HyperfineEigenstate, orb: OrbitalReducedElements
) -> None:
    if (lower.level.L, upper.level.L) != (orb.lower.L, orb.upper.L):
        raise ValueError(
            f"orbital elements are for L={orb.lower.L}->L'={orb.upper.L}, "
            f"got states with L={lower.level.L}->L'={upper.level.L}"
        )


def hyperfine_reduced_q(
    k: int,
    lower: HyperfineEigenstate,
    upper: HyperfineEigenstate,
    orb: OrbitalReducedElements,
) -> float:
    """Reduced element <g J||Q(k)||e J'> between (possibly mixed) hyperfine
    states, as a mixing-weighted sum over the shared pure-F channels.

    Each channel carries C_F(g) * C_F(e) * (-1)^(J'+L+F+k) *
    sqrt((2J+1)(2J'+1)) * {L k L'; J' F J} * <vL||Q(k)||v'L'>.  Violated
    triangles vanish through the 6j symbol; states of different total
    nuclear spin give exactly zero.  The channel sum runs on 2j integers.
    """
    if k not in (0, 2):
        raise ValueError(f"rank must be 0 or 2, got {k}")
    if lower.level.nuclear_spin != upper.level.nuclear_spin:
        return 0.0
    _check_levels(lower, upper, orb)
    orbital = orb.element(k)
    if orbital == 0.0:
        return 0.0

    tl, tlp, tk = 2 * lower.level.L, 2 * upper.level.L, 2 * k
    tj, tjp = lower.j.twice, upper.j.twice
    # (2F, C_F(g) * C_F(e)) per channel; F = 3/2 exists only for I = 1
    channels = [(1, lower.c1 * upper.c1)]
    if lower.level.nuclear_spin == 1:
        channels.append((3, lower.c3 * upper.c3))
    total = 0.0
    for tf, weight in channels:
        if weight == 0.0:
            continue
        six = _six_j(tl, tk, tlp, tjp, tf, tj)
        if six == 0.0:
            continue
        phase = -1 if ((tjp + tl + tf + tk) // 2) % 2 else 1
        total += weight * phase * six
    return total * math.sqrt((tj + 1.0) * (tjp + 1.0)) * orbital


def averaged_from_reduced(
    a00: float, a2: float, reduced0: float, reduced2: float, twice_j: int
) -> float:
    """Sublevel-averaged squared element from the polarization weights and
    the rank-0/2 reduced elements: (|a00 R0|^2 + |a2 R2|^2 / 5) / (2J+1)."""
    return ((a00 * reduced0) ** 2 + (a2 * reduced2) ** 2 / 5) / (twice_j + 1.0)


def averaged_sq_matrix_element(
    lower: HyperfineEigenstate,
    upper: HyperfineEigenstate,
    pair: PolarizationPair,
    orb: OrbitalReducedElements,
) -> float:
    """Squared two-photon matrix element averaged over the magnetic sublevels
    of an unpolarized initial state, in atomic units:

        (1/(2J+1)) * sum_k |a(k)_q <gJ||Q(k)||eJ'>|^2 / (2k+1),  q = q1+q2.

    Each call computes each reduced element with a nonzero weight once.
    Line lists go through `spectrum.two_photon_spectrum`, which shares
    `polarization_weights` and `averaged_from_reduced` but computes the
    reduced elements once per line.
    """
    a00, a2 = polarization_weights(pair)
    reduced0 = hyperfine_reduced_q(0, lower, upper, orb) if a00 != 0.0 else 0.0
    reduced2 = hyperfine_reduced_q(2, lower, upper, orb) if a2 != 0.0 else 0.0
    return averaged_from_reduced(a00, a2, reduced0, reduced2, lower.j.twice)


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
