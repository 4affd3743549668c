"""Exact angular-momentum algebra over half-integer quantum numbers.

Wigner 6j symbols and Clebsch-Gordan coefficients (through the 3j symbol)
are evaluated with the Racah sum formula on plain integers: each alternating
series is summed exactly as one integer numerator over a common factorial
denominator, and each value is the square root of the correctly rounded
quotient of two exact integers, so no cancellation error accumulates.
Couplings that violate a triangle or projection rule return exactly 0.0,
which lets selection rules emerge from the algebra; only structurally
malformed inputs (negative magnitudes, a j/m parity mismatch) raise
ValueError.

Phases follow the Condon-Shortley convention, with the 6j symbol defined
through the usual Racah W-coefficient relation.

Quantum numbers enter as a HalfInt or an int (see `HalfInt.of`), and
labels as text only through `HalfInt.parse`.  All functions are pure;
the internal memo caches are append-only and safe for concurrent use.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from typing import NamedTuple, Union

__all__ = [
    "HalfInt",
    "HalfIntLike",
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
        if type(twice) is not int:
            raise TypeError(f"twice must be an int, got {type(twice).__name__}")
        return super().__new__(cls, twice)

    @classmethod
    def of(cls, value: "HalfIntLike") -> "HalfInt":
        """A HalfInt as it is, or an int j as HalfInt(2 * j).  Anything else,
        a bool, float or string included, is a TypeError."""
        if isinstance(value, HalfInt):
            return value
        if type(value) is int:
            return cls(2 * value)
        raise TypeError(f"cannot interpret {value!r} as a half-integer")

    @classmethod
    def parse(cls, text: str) -> "HalfInt":
        """The HalfInt of a label as `str` writes it for j >= 0: '0', '2' or
        '3/2'.  Anything else is a ValueError (see `_label`)."""
        num, slash, _ = _label(text).partition("/")
        return cls(int(num) if slash else 2 * int(num))

    # No arithmetic: a tuple's + and * would concatenate or repeat it.
    __add__ = __radd__ = __mul__ = __rmul__ = None

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self})"


HalfIntLike = Union[HalfInt, int]

# The one spelling of a non-negative half-integer label: ASCII digits with
# no sign, space or leading zero, and a numerator over 2 only when it ends
# in an odd digit (the lookbehind).
_LABEL = re.compile(r"[1-9][0-9]*(?<=[13579])/2|[1-9][0-9]*|0")


def _label(text) -> str:
    """`text` if it is a label `HalfInt.parse` reads, else a ValueError."""
    if not isinstance(text, str) or not _LABEL.fullmatch(text):
        raise ValueError(f"expected a half-integer such as '3/2', got {text!r}")
    return text


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


def _factorials(*args: int) -> int:
    """Product of the factorials of the arguments."""
    product = 1
    for n in args:
        product *= math.factorial(n)
    return product


def _delta_sq(ta: int, tb: int, tc: int) -> tuple[int, int]:
    """Squared triangle coefficient as a (numerator, denominator) pair."""
    return (_factorials((ta + tb - tc) // 2, (ta - tb + tc) // 2, (-ta + tb + tc) // 2),
            math.factorial((ta + tb + tc) // 2 + 1))


@lru_cache(maxsize=None)
def _three_j(tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int) -> float:
    if tm1 + tm2 + tm3 != 0:
        return 0.0
    if not _triangle_ok(tj1, tj2, tj3):
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3:
        return 0.0

    # Racah sum; every factorial argument below is a non-negative integer
    # once the screens above have passed.  The six arguments sum to
    # j1 + j2 + j3 for every t, so each term's denominator divides that
    # factorial exactly: the series is one integer over `common`.
    k1 = (tj1 + tj2 - tj3) // 2
    k2 = (tj1 - tm1) // 2
    k3 = (tj2 + tm2) // 2
    k4 = (tj3 - tj2 + tm1) // 2
    k5 = (tj3 - tj1 - tm2) // 2
    t_min = max(0, -k4, -k5)
    t_max = min(k1, k2, k3)
    common = math.factorial((tj1 + tj2 + tj3) // 2)
    total = 0
    for t in range(t_min, t_max + 1):
        term = common // _factorials(t, k1 - t, k2 - t, k3 - t, k4 + t, k5 + t)
        total += -term if t % 2 else term
    if total == 0:
        return 0.0

    m_fac = _factorials((tj1 + tm1) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2,
                        (tj2 - tm2) // 2, (tj3 + tm3) // 2, (tj3 - tm3) // 2)
    delta_num, delta_den = _delta_sq(tj1, tj2, tj3)
    sign = 1 if total > 0 else -1
    if ((tj1 - tj2 - tm3) // 2) % 2:
        sign = -sign
    return sign * math.sqrt(delta_num * m_fac * total * total / (delta_den * common * common))


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
    # The seven factorial arguments in the denominator sum to t, so each
    # term is (t + 1) times a multinomial coefficient: an integer.
    total = 0
    for t in range(max(s1, s2, s3, s4), min(q1, q2, q3) + 1):
        term = math.factorial(t + 1) // _factorials(
            t - s1, t - s2, t - s3, t - s4, q1 - t, q2 - t, q3 - t)
        total += -term if t % 2 else term
    if total == 0:
        return 0.0

    deltas = [_delta_sq(*triad) for triad in triads]
    num = math.prod(n for n, _ in deltas) * total * total
    den = math.prod(d for _, d in deltas)
    sign = 1 if total > 0 else -1
    return sign * math.sqrt(num / den)


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
