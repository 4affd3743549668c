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
from typing import NamedTuple

from .angular import _six_j
from .hyperfine import HyperfineEigenstate, RoVibLevel

__all__ = [
    "PolarizationPair",
    "OrbitalReducedElements",
    "SelectionRuleError",
    "polarization_weights",
    "averaged_from_reduced",
    "hyperfine_reduced_q",
    "averaged_sq_matrix_element",
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

    @classmethod
    def from_token(cls, token: str) -> "PolarizationPair":
        """Parse tokens like 'pipi', 'spsp', 'spsm', 'pisp'."""
        try:
            return _PAIRS_BY_TOKEN[token.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown polarization token {token!r}") from None

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


# The weights (a00, a(2)_q) = (<1 q1 1 q2 | 0 0>, <1 q1 1 q2 | 2 q>), q = q1+q2,
# of each pair (Edmonds 1957): 0 or +-1/sqrt(3), and 1, 1/sqrt(2),
# 1/sqrt(6) or sqrt(2/3).  Each is the float that sqrt(2k+1) times the
# correctly rounded 3j symbol gives, so 1/sqrt(6) is 0.408248290463863,
# 1 ulp above math.sqrt(6.0) / 6.0.
_WEIGHTS = {
    _PAIRS_BY_TOKEN[token]: weights
    for token, weights in {
        "smsm": (0.0, 1.0),
        "smpi": (0.0, 0.7071067811865476),
        "smsp": (0.5773502691896257, 0.408248290463863),
        "pism": (0.0, 0.7071067811865476),
        "pipi": (-0.5773502691896257, 0.816496580927726),
        "pisp": (0.0, 0.7071067811865476),
        "spsm": (0.5773502691896257, 0.408248290463863),
        "sppi": (0.0, 0.7071067811865476),
        "spsp": (0.0, 1.0),
    }.items()
}


def polarization_weights(pair: PolarizationPair) -> tuple[float, float]:
    """The two weights a pair can carry: (a00, a(2)_q) with q = q1+q2."""
    return _WEIGHTS[pair]


def _orbital_elements(
    lower: RoVibLevel, upper: RoVibLevel, orb: OrbitalReducedElements
) -> tuple[float, float]:
    """(<vL||Q(0)||v'L'>, <vL||Q(2)||v'L'>) as they enter the hyperfine
    reduced elements between two levels: both zero when the levels differ in
    total nuclear spin, a ValueError when orb is for another L -> L'."""
    if lower.nuclear_spin != upper.nuclear_spin:
        return 0.0, 0.0
    if (lower.L, upper.L) != (orb.lower.L, orb.upper.L):
        raise ValueError(
            f"orbital elements are for L={orb.lower.L}->L'={orb.upper.L}, "
            f"got states with L={lower.L}->L'={upper.L}"
        )
    return orb.q0, orb.q2


def _channel_sum(
    tl: int, tk: int, tlp: int, tj: int, tjp: int, w1: float, w3: float, orbital: float
) -> float:
    """The pure-F channel sum of `hyperfine_reduced_q` on 2j integers, with
    the channel weights w1 = C_1/2(g) C_1/2(e) and w3 = C_3/2(g) C_3/2(e)
    (zero for I = 0) already formed."""
    total = 0.0
    for tf, weight in ((1, w1), (3, w3)):
        if weight == 0.0:
            continue
        six = _six_j(tl, tk, tlp, tjp, tf, tj)
        if six == 0.0:
            continue
        phase = -1 if ((tjp + tl + tf + tk) // 2) % 2 else 1
        total += weight * phase * six
    return total * math.sqrt((tj + 1.0) * (tjp + 1.0)) * orbital


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
    orbital = _orbital_elements(lower.level, upper.level, orb)[k // 2]
    if orbital == 0.0:
        return 0.0
    # F = 3/2 exists only for I = 1
    w3 = lower.c3 * upper.c3 if lower.level.nuclear_spin == 1 else 0.0
    return _channel_sum(2 * lower.level.L, 2 * k, 2 * upper.level.L, lower.j.twice,
                        upper.j.twice, lower.c1 * upper.c1, w3, orbital)


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
