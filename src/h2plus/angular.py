"""Exact angular-momentum algebra over half-integer quantum numbers.

Wigner 3j/6j symbols and Clebsch-Gordan coefficients are evaluated with the
Racah sum formula using exact integer factorials and rational arithmetic;
each value is the correctly rounded square root of a rational, so no
cancellation error accumulates.  Couplings that violate a triangle or
projection rule return exactly 0.0, which lets selection rules emerge from
the algebra; only structurally malformed inputs (negative magnitudes, a j/m
parity mismatch) raise ValueError.

Phases follow the Condon-Shortley convention, with the 6j symbol defined
through the usual Racah W-coefficient relation.

All functions are pure; the internal memo caches are append-only and safe
for concurrent use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Union

__all__ = [
    "HalfInt",
    "HalfIntLike",
    "wigner3j",
    "wigner6j",
    "clebsch_gordan",
]


class HalfInt(NamedTuple("HalfInt", [("twice", int)])):
    """A half-integer quantum number, stored as twice its value.

    Storing 2j keeps every j in {0, 1/2, 1, 3/2, ...} exact, so triangle and
    parity checks are integer comparisons.  Projections m may be negative.
    """

    __slots__ = ()

    def __new__(cls, twice: int) -> "HalfInt":
        if not isinstance(twice, int):
            raise TypeError(f"twice must be an int, got {type(twice).__name__}")
        return super().__new__(cls, twice)

    @classmethod
    def of(cls, value: "HalfIntLike") -> "HalfInt":
        """Coerce an int, exact multiple of 1/2, Fraction or HalfInt."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, bool):
            raise TypeError("bool is not a quantum number")
        if isinstance(value, int):
            return cls(2 * value)
        if isinstance(value, Fraction):
            doubled = 2 * value
            if doubled.denominator != 1:
                raise ValueError(f"{value} is not a multiple of 1/2")
            return cls(int(doubled))
        if isinstance(value, float):
            doubled = 2.0 * value
            if doubled != round(doubled):
                raise ValueError(f"{value} is not a multiple of 1/2")
            return cls(int(round(doubled)))
        raise TypeError(f"cannot interpret {value!r} as a half-integer")

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """Parse strings like '2', '-1/2' or '3/2'."""
        s = text.strip()
        if "/" in s:
            num, den = s.split("/", 1)
            if den.strip() != "2":
                raise ValueError(f"cannot parse half-integer from {text!r}")
            return cls(int(num))
        return cls(2 * int(s))

    def __float__(self) -> float:
        return self.twice / 2.0

    def __int__(self) -> int:
        if self.twice % 2:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def __add__(self, other: "HalfIntLike") -> "HalfInt":
        return HalfInt(self.twice + HalfInt.of(other).twice)

    __radd__ = __add__

    def __sub__(self, other: "HalfIntLike") -> "HalfInt":
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __rsub__(self, other: "HalfIntLike") -> "HalfInt":
        return HalfInt(HalfInt.of(other).twice - self.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self})"


HalfIntLike = Union[HalfInt, int, float, Fraction]


def _check_magnitude(tj: int, name: str) -> None:
    if tj < 0:
        raise ValueError(f"magnitude {name} must be non-negative, got {tj}/2")


def _check_pair(tj: int, tm: int) -> None:
    if tj < 0:
        raise ValueError(f"magnitude j must be non-negative, got {tj}/2")
    if (tj + tm) % 2:
        raise ValueError(
            f"projection m={HalfInt(tm)} and j={HalfInt(tj)} differ by a non-integer"
        )


def _triangle_ok(ta: int, tb: int, tc: int) -> bool:
    # integer perimeter and |a-b| <= c <= a+b, all in doubled units
    if (ta + tb + tc) % 2:
        return False
    return abs(ta - tb) <= tc <= ta + tb


def _delta_sq(ta: int, tb: int, tc: int) -> Fraction:
    return Fraction(
        math.factorial((ta + tb - tc) // 2)
        * math.factorial((ta - tb + tc) // 2)
        * math.factorial((-ta + tb + tc) // 2),
        math.factorial((ta + tb + tc) // 2 + 1),
    )


@lru_cache(maxsize=None)
def _three_j(tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int) -> float:
    if tm1 + tm2 + tm3 != 0:
        return 0.0
    if not _triangle_ok(tj1, tj2, tj3):
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3:
        return 0.0

    # Racah sum; every factorial argument below is a non-negative integer
    # once the screens above have passed.
    k1 = (tj1 + tj2 - tj3) // 2
    k2 = (tj1 - tm1) // 2
    k3 = (tj2 + tm2) // 2
    k4 = (tj3 - tj2 + tm1) // 2
    k5 = (tj3 - tj1 - tm2) // 2
    t_min = max(0, -k4, -k5)
    t_max = min(k1, k2, k3)
    total = Fraction(0)
    for t in range(t_min, t_max + 1):
        den = (
            math.factorial(t)
            * math.factorial(k1 - t)
            * math.factorial(k2 - t)
            * math.factorial(k3 - t)
            * math.factorial(k4 + t)
            * math.factorial(k5 + t)
        )
        total += Fraction(-1 if t % 2 else 1, den)
    if total == 0:
        return 0.0

    m_fac = (
        math.factorial((tj1 + tm1) // 2)
        * math.factorial((tj1 - tm1) // 2)
        * math.factorial((tj2 + tm2) // 2)
        * math.factorial((tj2 - tm2) // 2)
        * math.factorial((tj3 + tm3) // 2)
        * math.factorial((tj3 - tm3) // 2)
    )
    magnitude_sq = _delta_sq(tj1, tj2, tj3) * m_fac * total * total
    sign = 1 if total > 0 else -1
    if ((tj1 - tj2 - tm3) // 2) % 2:
        sign = -sign
    return sign * math.sqrt(float(magnitude_sq))


@lru_cache(maxsize=None)
def _six_j(tj1: int, tj2: int, tj3: int, tj4: int, tj5: int, tj6: int) -> float:
    triads = (
        (tj1, tj2, tj3),
        (tj1, tj5, tj6),
        (tj4, tj2, tj6),
        (tj4, tj5, tj3),
    )
    for ta, tb, tc in triads:
        if not _triangle_ok(ta, tb, tc):
            return 0.0

    s1 = (tj1 + tj2 + tj3) // 2
    s2 = (tj1 + tj5 + tj6) // 2
    s3 = (tj4 + tj2 + tj6) // 2
    s4 = (tj4 + tj5 + tj3) // 2
    q1 = (tj1 + tj2 + tj4 + tj5) // 2
    q2 = (tj2 + tj3 + tj5 + tj6) // 2
    q3 = (tj3 + tj1 + tj6 + tj4) // 2
    total = Fraction(0)
    for t in range(max(s1, s2, s3, s4), min(q1, q2, q3) + 1):
        num = math.factorial(t + 1)
        den = (
            math.factorial(t - s1)
            * math.factorial(t - s2)
            * math.factorial(t - s3)
            * math.factorial(t - s4)
            * math.factorial(q1 - t)
            * math.factorial(q2 - t)
            * math.factorial(q3 - t)
        )
        total += Fraction(-num if t % 2 else num, den)
    if total == 0:
        return 0.0

    magnitude_sq = (
        _delta_sq(*triads[0])
        * _delta_sq(*triads[1])
        * _delta_sq(*triads[2])
        * _delta_sq(*triads[3])
        * total
        * total
    )
    sign = 1 if total > 0 else -1
    return sign * math.sqrt(float(magnitude_sq))


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


def wigner6j(
    j1: HalfIntLike,
    j2: HalfIntLike,
    j3: HalfIntLike,
    j4: HalfIntLike,
    j5: HalfIntLike,
    j6: HalfIntLike,
) -> float:
    """Wigner 6j symbol {j1 j2 j3 / j4 j5 j6}.

    Returns exactly 0.0 when any of the four triads (j1 j2 j3), (j1 j5 j6),
    (j4 j2 j6), (j4 j5 j3) violates the triangle rule.
    """
    tj = tuple(HalfInt.of(j).twice for j in (j1, j2, j3, j4, j5, j6))
    for i, a in enumerate(tj, start=1):
        _check_magnitude(a, f"j{i}")
    return _six_j(*tj)


def clebsch_gordan(
    j1: HalfIntLike,
    m1: HalfIntLike,
    j2: HalfIntLike,
    m2: HalfIntLike,
    j: HalfIntLike,
    m: HalfIntLike,
) -> float:
    """Clebsch-Gordan coefficient <j1 j2 m1 m2 | j m>.

    Evaluated through the 3j conversion
    (-1)^(j1-j2+m) * sqrt(2j+1) * 3j(j1, j2, j; m1, m2, -m);
    zero whenever m != m1 + m2.
    """
    tj1, tm1 = HalfInt.of(j1).twice, HalfInt.of(m1).twice
    tj2, tm2 = HalfInt.of(j2).twice, HalfInt.of(m2).twice
    tj, tm = HalfInt.of(j).twice, HalfInt.of(m).twice
    _check_pair(tj1, tm1)
    _check_pair(tj2, tm2)
    _check_pair(tj, tm)
    if tm1 + tm2 != tm:
        return 0.0
    three = _three_j(tj1, tj2, tj, tm1, tm2, -tm)
    if three == 0.0:
        return 0.0
    exponent = (tj1 - tj2 + tm) // 2
    sign = -1 if exponent % 2 else 1
    return sign * math.sqrt(tj + 1.0) * three
