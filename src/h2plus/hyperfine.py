"""Hyperfine structure of a ro-vibrational level (v, L) of H2+.

The effective spin Hamiltonian couples the electron spin S_e = 1/2, the
total nuclear spin I (0 for even L, 1 for odd L by Pauli symmetry in the
ground electronic state) and the orbital angular momentum L through five
constants b_F, c_e, c_I, d_1, d_2 in MHz.  Angular momenta are coupled as
F = S_e + I, J = L + F; the Hamiltonian is block diagonal in J, and every
block is at most 2x2, so the diagonalization is fully analytic.

Energies are M_J independent throughout; no operation takes a projection.
All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
import sys
from functools import cache
from operator import mul
from typing import NamedTuple

from .angular import HalfInt

__all__ = [
    "RoVibLevel",
    "HyperfineCoefficients",
    "HyperfineEigenstate",
    "HyperfineSolution",
    "FitError",
    "FitResult",
    "hfs_matrix_entries",
    "diagonalize_even",
    "diagonalize_odd",
    "fit_coefficients",
    "fit_even_coefficient",
    "PURE_STATE_THRESHOLD",
]

F_HALF = HalfInt(1)
F_THREE_HALF = HalfInt(3)

# A mixing amplitude below this is snapped to exactly zero and the state is
# treated as pure.
PURE_STATE_THRESHOLD = 1e-12


class FitError(RuntimeError):
    """Coefficient fit did not converge or exceeded its residual budget."""


class RoVibLevel(NamedTuple("RoVibLevel", [("v", int), ("L", int)])):
    """A ro-vibrational level, identified by (v, L)."""

    __slots__ = ()

    def __new__(cls, v: int, L: int) -> "RoVibLevel":
        if v < 0 or L < 0:
            raise ValueError(f"v and L must be non-negative, got ({v}, {L})")
        return super().__new__(cls, v, L)

    @property
    def nuclear_spin(self) -> int:
        """Total nuclear spin: 0 for even L, 1 for odd L."""
        return self.L % 2


class HyperfineCoefficients(NamedTuple("HyperfineCoefficients", [
    ("b_f", float), ("c_e", float), ("c_i", float), ("d1", float), ("d2", float),
])):
    """The five effective-Hamiltonian constants of one (v, L) level, MHz.

    For even L only c_e enters; the other four are ignored.
    """

    __slots__ = ()

    def __new__(cls, b_f: float = 0.0, c_e: float = 0.0, c_i: float = 0.0,
                d1: float = 0.0, d2: float = 0.0) -> "HyperfineCoefficients":
        self = super().__new__(cls, b_f, c_e, c_i, d1, d2)
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise ValueError(f"coefficient {name} must be finite")
        return self

    @classmethod
    def from_array(cls, values) -> "HyperfineCoefficients":
        b_f, c_e, c_i, d1, d2 = (float(x) for x in values)
        return cls(b_f, c_e, c_i, d1, d2)


class HyperfineEigenstate(NamedTuple):
    """One hyperfine sublevel with its energy shift and mixing amplitudes.

    c1 and c3 are the amplitudes on the (F=1/2, F=3/2) pure basis
    states of the same J.  F_tilde labels the dominant F.
    """

    level: RoVibLevel
    f_tilde: HalfInt
    j: HalfInt
    shift_mhz: float
    c1: float
    c3: float

    def label(self) -> str:
        return f"(F~={self.f_tilde}, J={self.j})"


class HyperfineSolution(NamedTuple):
    """All hyperfine sublevels of one (v, L), ordered by descending J then
    descending F_tilde."""

    level: RoVibLevel
    states: tuple[HyperfineEigenstate, ...]

    def state(self, f_tilde: HalfInt, j: HalfInt) -> HyperfineEigenstate:
        for s in self.states:
            if s.f_tilde == f_tilde and s.j == j:
                return s
        raise KeyError(f"no state (F~={f_tilde}, J={j}) in level {self.level}")


def hfs_matrix_entries(L: int, c: HyperfineCoefficients) -> dict[str, float]:
    """Closed-form entries of the odd-L effective Hamiltonian.

    Keys A..K name the entries of the block-diagonal matrix over the basis
    (F=3/2, J=L+3/2), (3/2, L+1/2), (1/2, L+1/2), (3/2, L-1/2),
    (1/2, L-1/2), (3/2, L-3/2):

        [[A, 0, 0, 0, 0, 0],
         [0, B, C, 0, 0, 0],
         [0, C, D, 0, 0, 0],
         [0, 0, 0, E, G, 0],
         [0, 0, 0, G, H, 0],
         [0, 0, 0, 0, 0, K]]

    K is absent for L=1.
    """
    if L < 1 or L % 2 == 0:
        raise ValueError(f"odd L required, got {L}")
    b, ce, ci, d1, d2 = c.b_f, c.c_e, c.c_i, c.d1, c.d2
    d_plus = 2.0 * d1 + d2
    d_minus = d1 - d2
    up = 2 * L + 3
    dn = 2 * L - 1
    entries = {
        "A": b / 2 + L / 2 * (ce + 2 * ci - d_plus / (3 * up)),
        "B": b / 2 + (L - 3) / 6 * (ce + 2 * ci) + (L + 3) / 6 * d_plus / up,
        "C": math.sqrt(L * up) / 3 * (ce - ci) - math.sqrt(L) / (6 * math.sqrt(up)) * d_minus,
        "D": -b - L / 6 * (ce - 4 * ci),
        "E": b / 2 - (L + 4) / 6 * (ce + 2 * ci) + (L - 2) / 6 * d_plus / dn,
        "G": math.sqrt((L + 1) * dn) / 3 * (ce - ci)
        + math.sqrt(L + 1) / (6 * math.sqrt(dn)) * d_minus,
        "H": -b + (L + 1) / 6 * (ce - 4 * ci),
    }
    if L >= 3:
        entries["K"] = b / 2 - (L + 1) / 2 * (ce + 2 * ci + d_plus / (3 * dn))
    return entries


def diagonalize_even(L: int, c_e: float, v: int = 0) -> HyperfineSolution:
    """Hyperfine solution for an even-L level, where only c_e contributes.

    Shifts are +L/2 * c_e for J = L+1/2 and -(L+1)/2 * c_e for J = L-1/2
    (the latter state does not exist at L=0).  All states are pure F=1/2.
    """
    if L % 2:
        raise ValueError(f"even L required, got {L}")
    level = RoVibLevel(v, L)
    states = [
        HyperfineEigenstate(level, F_HALF, HalfInt(2 * L + 1), L / 2 * c_e, 1.0, 0.0)
    ]
    if L > 0:
        states.append(
            HyperfineEigenstate(
                level, F_HALF, HalfInt(2 * L - 1), -(L + 1) / 2 * c_e, 1.0, 0.0
            )
        )
    return HyperfineSolution(level, tuple(states))


def _solve_block(m33: float, m11: float, m31: float):
    """Analytic eigenpairs of the symmetric block [[m33, m31], [m31, m11]]
    over the (F=3/2, F=1/2) basis.

    Returns ((shift, c1, c3) for the F~=3/2 state, same for F~=1/2).  The
    F~=3/2 eigenvector is normalized with C3 > 0 and the F~=1/2 partner is
    its orthogonal complement (C1 = -C3+, C3 = C1+), which reproduces the
    sign pattern of the published mixing coefficients.
    """
    half_sum = 0.5 * (m33 + m11)
    half_diff = 0.5 * (m33 - m11)
    radius = math.hypot(half_diff, m31)

    if abs(m31) < PURE_STATE_THRESHOLD * max(1.0, radius):
        return (m33, 0.0, 1.0), (m11, 1.0, 0.0)

    # Eigenvector of the F=3/2 dominant eigenvalue, cancellation-free branch.
    if half_diff >= 0.0:
        lam_32, lam_12 = half_sum + radius, half_sum - radius
        v3, v1 = half_diff + radius, m31
    else:
        lam_32, lam_12 = half_sum - radius, half_sum + radius
        v3, v1 = half_diff - radius, m31
    norm = math.hypot(v3, v1)
    c3_plus, c1_plus = v3 / norm, v1 / norm
    if c3_plus < 0.0:
        c3_plus, c1_plus = -c3_plus, -c1_plus
    if abs(c1_plus) < PURE_STATE_THRESHOLD:
        c1_plus = 0.0
        c3_plus = 1.0
    return (lam_32, c1_plus, c3_plus), (lam_12, -c3_plus, c1_plus)


def diagonalize_odd(L: int, c: HyperfineCoefficients, v: int = 0) -> HyperfineSolution:
    """Hyperfine solution for an odd-L level.

    The J = L +/- 3/2 states are pure F=3/2 with shifts A and K; each
    J = L +/- 1/2 pair mixes F=1/2 and F=3/2 and is solved in closed form.
    """
    if L % 2 == 0:
        raise ValueError(f"odd L required, got {L}")
    level = RoVibLevel(v, L)
    e = hfs_matrix_entries(L, c)
    tl = 2 * L

    states = [HyperfineEigenstate(level, F_THREE_HALF, HalfInt(tl + 3), e["A"], 0.0, 1.0)]
    upper_32, upper_12 = _solve_block(e["B"], e["D"], e["C"])
    states.append(HyperfineEigenstate(level, F_THREE_HALF, HalfInt(tl + 1), *upper_32))
    states.append(HyperfineEigenstate(level, F_HALF, HalfInt(tl + 1), *upper_12))
    lower_32, lower_12 = _solve_block(e["E"], e["H"], e["G"])
    states.append(HyperfineEigenstate(level, F_THREE_HALF, HalfInt(tl - 1), *lower_32))
    states.append(HyperfineEigenstate(level, F_HALF, HalfInt(tl - 1), *lower_12))
    if L >= 3:
        states.append(
            HyperfineEigenstate(level, F_THREE_HALF, HalfInt(tl - 3), e["K"], 0.0, 1.0)
        )
    return HyperfineSolution(level, tuple(states))


class FitResult(NamedTuple):
    """Outcome of a coefficient fit, with its residual diagnostics."""

    coefficients: HyperfineCoefficients
    max_shift_residual_mhz: float


# Weight that puts a mixing-amplitude residual on the same footing as a
# shift residual in MHz (1e-5 in amplitude ~ 1e-3 MHz in shift budget).
_MIXING_WEIGHT = 100.0

_SHIFT_RESIDUAL_LIMIT_MHZ = 1e-3

# Largest mixing-amplitude residual a fit may leave: the tolerance that
# `validate` holds the bundled mixing coefficients to.
_MIXING_RESIDUAL_LIMIT = 1e-5

# Gauss-Newton steps allowed before the fit counts as not converged.
_MAX_STEPS = 20


def _dot(a, b) -> float:
    return math.fsum(map(mul, a, b))


def _least_squares(columns: list[list[float]], rhs: list[float]) -> list[float]:
    """Least-squares x minimizing |sum_j x[j] * columns[j] - rhs|.

    Householder QR without column pivoting, every inner product summed with
    math.fsum.  Raises FitError when a pivot vanishes to working precision,
    i.e. when the columns are linearly dependent.
    """
    cols = [list(c) for c in columns]
    b = list(rhs)
    n = len(cols)
    for k, col in enumerate(cols):
        tail = col[k:]
        norm = math.sqrt(_dot(tail, tail))
        if not norm > len(b) * sys.float_info.epsilon * math.sqrt(_dot(columns[k], columns[k])):
            raise FitError(f"least-squares system is rank deficient at column {k}")
        alpha = -math.copysign(norm, tail[0])
        v = [tail[0] - alpha, *tail[1:]]
        vv = _dot(v, v)
        for other in (*cols[k + 1:], b):
            scale = 2.0 * _dot(v, other[k:]) / vv
            other[k:] = [o - scale * vi for o, vi in zip(other[k:], v)]
        col[k] = alpha
    x = [0.0] * n
    for k in reversed(range(n)):
        x[k] = (b[k] - math.fsum(cols[j][k] * x[j] for j in range(k + 1, n))) / cols[k][k]
    return x


def _reconstruct_entries(L: int, observed: HyperfineSolution) -> dict[str, float]:
    """Rebuild the matrix entries A..K from observed shifts and mixings."""
    tl = 2 * L
    entries = {"A": observed.state(F_THREE_HALF, HalfInt(tl + 3)).shift_mhz}

    for key33, key11, key31, tj in (("B", "D", "C", tl + 1), ("E", "H", "G", tl - 1)):
        hi = observed.state(F_THREE_HALF, HalfInt(tj))
        lo = observed.state(F_HALF, HalfInt(tj))
        norm_hi = math.hypot(hi.c3, hi.c1)
        norm_lo = math.hypot(lo.c3, lo.c1)
        hi3, hi1 = hi.c3 / norm_hi, hi.c1 / norm_hi
        lo3, lo1 = lo.c3 / norm_lo, lo.c1 / norm_lo
        entries[key33] = hi.shift_mhz * hi3 * hi3 + lo.shift_mhz * lo3 * lo3
        entries[key11] = hi.shift_mhz * hi1 * hi1 + lo.shift_mhz * lo1 * lo1
        entries[key31] = hi.shift_mhz * hi3 * hi1 + lo.shift_mhz * lo3 * lo1
    if L >= 3:
        entries["K"] = observed.state(F_THREE_HALF, HalfInt(tl - 3)).shift_mhz
    return entries


@cache
def _unit_entries(L: int) -> tuple[dict[str, float], ...]:
    """Matrix entries A..K of each unit coefficient vector, in the order
    b_F, c_e, c_I, d_1, d_2.

    The entries are linear in the five constants, so these are also their
    derivatives dM/dp_j, the same at every point.
    """
    units = ([1.0 if i == j else 0.0 for i in range(5)] for j in range(5))
    return tuple(
        hfs_matrix_entries(L, HyperfineCoefficients.from_array(unit)) for unit in units
    )


def _linear_fit(L: int, observed: HyperfineSolution) -> list[float]:
    """Least-squares coefficients from the linearity of the matrix entries."""
    target = _reconstruct_entries(L, observed)
    keys = sorted(target)
    design = [[entries[k] for k in keys] for entries in _unit_entries(L)]
    return _least_squares(design, [target[k] for k in keys])


def _canonical_states(solution: HyperfineSolution) -> list[HyperfineEigenstate]:
    return sorted(solution.states, key=lambda s: (-s.j.twice, -s.f_tilde.twice))


def _observation_vector(solution: HyperfineSolution) -> list[float]:
    states = _canonical_states(solution)
    obs = [s.shift_mhz for s in states]
    for s in states:
        if s.j.twice in (2 * solution.level.L + 1, 2 * solution.level.L - 1):
            small = s.c1 if s.f_tilde == F_THREE_HALF else s.c3
            obs.append(_MIXING_WEIGHT * small)
    return obs


def _jacobian(L: int, solution: HyperfineSolution) -> list[list[float]] | None:
    """Columns d(observation vector)/dp_j of a `diagonalize_odd` solution,
    in closed form.

    In each J block, with the F~=3/2 eigenvector (C3, C1) over the
    (F=3/2, F=1/2) basis and gap = lambda_3/2 - lambda_1/2, first-order
    perturbation theory gives

        dlambda_3/2 = C3^2 dM33 + C1^2 dM11 + 2 C3 C1 dM31
        dlambda_1/2 = C1^2 dM33 + C3^2 dM11 - 2 C1 C3 dM31
        dC1 = -C3 (C1 C3 (dM33 - dM11) + (C1^2 - C3^2) dM31) / gap

    Both mixing observations of a block are C1 of its F~=3/2 state (the
    F~=1/2 partner's C3 is that same number), so both rows get dC1.  The
    pure J = L +/- 3/2 shifts are the entries A and K themselves.  Returns
    None when a block is degenerate (gap 0): its eigenvectors have no
    derivative there.
    """
    # diagonalize_odd orders its states as _canonical_states does
    _, up_hi, up_lo, dn_hi, dn_lo = solution.states[:5]
    blocks = []
    for keys, hi, lo in ((("B", "D", "C"), up_hi, up_lo), (("E", "H", "G"), dn_hi, dn_lo)):
        gap = hi.shift_mhz - lo.shift_mhz
        if gap == 0.0:
            return None
        blocks.append((*keys, hi.c3, hi.c1, gap))
    columns = []
    for d in _unit_entries(L):
        shifts = [d["A"]]
        mixings = []
        for k33, k11, k31, c3, c1, gap in blocks:
            d33, d11, d31 = d[k33], d[k11], d[k31]
            shifts.append(c3 * c3 * d33 + c1 * c1 * d11 + 2.0 * c3 * c1 * d31)
            shifts.append(c1 * c1 * d33 + c3 * c3 * d11 - 2.0 * c1 * c3 * d31)
            dc1 = -c3 * (c1 * c3 * (d33 - d11) + (c1 * c1 - c3 * c3) * d31) / gap
            mixings += [_MIXING_WEIGHT * dc1] * 2
        if L >= 3:
            shifts.append(d["K"])
        columns.append(shifts + mixings)
    return columns


def fit_coefficients(L: int, observed: HyperfineSolution) -> FitResult:
    """Recover the five Hamiltonian constants from an observed solution.

    The observed solution must contain all hyperfine sublevels of the odd-L
    level (shifts plus mixing coefficients).  A linear reconstruction of the
    matrix entries seeds a Gauss-Newton polish on the shifts and on the
    small mixing amplitudes.  Each step solves the linearized least-squares
    problem with the closed-form Jacobian of `_jacobian`, taken from the
    one diagonalization that evaluated the current constants, and is kept
    only if it lowers the residual norm; the first step that does not ends
    the polish, so the result is deterministic.  Raises FitError if the
    residual norm is still falling after _MAX_STEPS steps, if a
    least-squares system is rank deficient, if a shift residual exceeds
    _SHIFT_RESIDUAL_LIMIT_MHZ, or if a mixing-amplitude residual exceeds
    _MIXING_RESIDUAL_LIMIT.
    """
    if L % 2 == 0:
        raise ValueError("fit_coefficients handles odd L; use fit_even_coefficient")
    expected_n = 5 if L == 1 else 6
    if len(observed.states) != expected_n:
        raise FitError(
            f"need all {expected_n} sublevels of L={L}, got {len(observed.states)}"
        )

    target = _observation_vector(observed)

    def evaluate(params):
        predicted = diagonalize_odd(L, HyperfineCoefficients.from_array(params),
                                    v=observed.level.v)
        return predicted, [p - t for p, t in zip(_observation_vector(predicted), target)]

    params = _linear_fit(L, observed)
    solution, res = evaluate(params)
    for _ in range(_MAX_STEPS):
        jac = _jacobian(L, solution)
        if jac is None:
            break  # no step is defined, so none can lower the residual
        step = _least_squares(jac, [-r for r in res])
        trial_params = [p + s for p, s in zip(params, step)]
        trial_solution, trial = evaluate(trial_params)
        if not _dot(trial, trial) < _dot(res, res):
            break
        params, solution, res = trial_params, trial_solution, trial
    else:
        raise FitError(f"coefficient fit did not converge in {_MAX_STEPS} Gauss-Newton steps")

    n_shift = len(observed.states)
    shift_res = tuple(abs(r) for r in res[:n_shift])
    mixing_res = max((abs(r) / _MIXING_WEIGHT for r in res[n_shift:]), default=0.0)
    max_shift = max(shift_res)
    if max_shift > _SHIFT_RESIDUAL_LIMIT_MHZ:
        raise FitError(
            f"fit residual {max_shift:.6f} MHz exceeds {_SHIFT_RESIDUAL_LIMIT_MHZ} MHz; "
            f"per-state residuals (MHz): {['%.6f' % r for r in shift_res]}"
        )
    if mixing_res > _MIXING_RESIDUAL_LIMIT:
        raise FitError(
            f"mixing-amplitude residual {mixing_res:.2e} exceeds {_MIXING_RESIDUAL_LIMIT:.0e}"
        )
    return FitResult(
        coefficients=HyperfineCoefficients.from_array(params),
        max_shift_residual_mhz=max_shift,
    )


def fit_even_coefficient(L: int, shift_upper_j: float, shift_lower_j: float | None = None) -> FitResult:
    """Invert c_e from the even-L shifts.

    The J = L+1/2 shift determines c_e = 2*shift/L; the J = L-1/2 shift, when
    given, only enters the residual as a consistency check.  L=0 carries no
    information and returns c_e = 0.
    """
    if L % 2:
        raise ValueError(f"even L required, got {L}")
    if L == 0:
        c_e = 0.0
        residual = abs(shift_upper_j)
    else:
        c_e = 2.0 * shift_upper_j / L
        residual = 0.0
        if shift_lower_j is not None:
            residual = abs(shift_lower_j - (-(L + 1) / 2 * c_e))
    return FitResult(
        coefficients=HyperfineCoefficients(c_e=c_e),
        max_shift_residual_mhz=residual,
    )
