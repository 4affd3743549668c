"""The Racah sums for the 3j and 6j symbols in exact `Fraction` arithmetic,
term by term.  The 6j sum is the oracle that the package's integer sum is
checked against for equality; the 3j sum is the one 3j symbol of the tests
(see `sublevel_oracle`).  Arguments are twice the quantum numbers, as in
`h2plus.angular._six_j`."""

import math
from fractions import Fraction


def _triangle_ok(ta: int, tb: int, tc: int) -> bool:
    return (ta + tb + tc) % 2 == 0 and abs(ta - tb) <= tc <= ta + tb


def _delta_sq(ta: int, tb: int, tc: int) -> Fraction:
    return Fraction(
        math.factorial((ta + tb - tc) // 2)
        * math.factorial((ta - tb + tc) // 2)
        * math.factorial((-ta + tb + tc) // 2),
        math.factorial((ta + tb + tc) // 2 + 1),
    )


def three_j(tj1: int, tj2: int, tj3: int, tm1: int, tm2: int, tm3: int) -> float:
    if tm1 + tm2 + tm3 != 0 or not _triangle_ok(tj1, tj2, tj3):
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3:
        return 0.0
    k1 = (tj1 + tj2 - tj3) // 2
    k2 = (tj1 - tm1) // 2
    k3 = (tj2 + tm2) // 2
    k4 = (tj3 - tj2 + tm1) // 2
    k5 = (tj3 - tj1 - tm2) // 2
    total = Fraction(0)
    for t in range(max(0, -k4, -k5), min(k1, k2, k3) + 1):
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


def six_j(tj1: int, tj2: int, tj3: int, tj4: int, tj5: int, tj6: int) -> float:
    triads = ((tj1, tj2, tj3), (tj1, tj5, tj6), (tj4, tj2, tj6), (tj4, tj5, tj3))
    if not all(_triangle_ok(*triad) for triad in triads):
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
    magnitude_sq = total * total
    for triad in triads:
        magnitude_sq *= _delta_sq(*triad)
    sign = 1 if total > 0 else -1
    return sign * math.sqrt(float(magnitude_sq))
