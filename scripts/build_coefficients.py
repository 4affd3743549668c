#!/usr/bin/env python3
"""Regenerate the fitted hyperfine-coefficient data file.

Reads the published level shifts and mixing coefficients of this checkout,
src/h2plus/data/reference/, and inverts them with the package's fitting
routines, writing src/h2plus/data/hyperfine_coefficients.json in the same
data directory with the fit residuals recorded alongside each record.

With --check it writes nothing: it refits, prints the worst relative
deviation of each level's constants from the shipped file, and exits 1 if
any exceeds 2e-6 (a constant shipped as exactly zero must refit to exactly
zero) or the levels differ, 0 otherwise.  An unreadable data file or a
failed fit exits 1 in either mode.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from h2plus import DataError
from h2plus.datafiles import (
    load_coefficients,
    load_reference_levels_even,
    load_reference_levels_odd,
)
from h2plus.hyperfine import FitError, FitResult, fit_coefficients, fit_even_coefficient

ODD_PROVENANCE = (
    "least-squares fit to published hyperfine level shifts and mixing coefficients"
)
EVEN_PROVENANCE = "inverted from the published J = L+1/2 level shift"
L0_PROVENANCE = (
    "c_e unconstrained at L=0 (no orbital coupling; the single level is unshifted)"
)

COEFFICIENTS = REPO / "src" / "h2plus" / "data" / "hyperfine_coefficients.json"
CONSTANTS = ("b_F", "c_e", "c_I", "d_1", "d_2")

# Largest relative difference between a refit constant and the shipped one
# that --check accepts; the refit differs from the shipped fit by ~1e-6 at
# most on the bundled levels.
CHECK_RELATIVE_BOUND = 2e-6


def _record(v: int, L: int, fit: FitResult, provenance: str) -> dict:
    c = fit.coefficients
    return {"v": v, "L": L, "b_F": c.b_f, "c_e": c.c_e, "c_I": c.c_i, "d_1": c.d1,
            "d_2": c.d2, "units": "MHz", "provenance": provenance,
            "fit_residual_MHz": fit.max_shift_residual_mhz}


def fit_records() -> list[dict]:
    """One coefficient record per reference level, sorted by (v, L)."""
    records = []
    for entry in load_reference_levels_even(COEFFICIENTS.parent):
        L = entry["L"]
        fit = fit_even_coefficient(L, entry["shift_upper_J_MHz"], entry.get("shift_lower_J_MHz"))
        records.append(_record(entry["v"], L, fit, L0_PROVENANCE if L == 0 else EVEN_PROVENANCE))
    for observed in load_reference_levels_odd(COEFFICIENTS.parent):
        level = observed.level
        records.append(_record(level.v, level.L, fit_coefficients(level.L, observed),
                               ODD_PROVENANCE))
    records.sort(key=lambda r: (r["v"], r["L"]))
    return records


def _relative_deviation(fitted: float, shipped: float) -> float:
    if shipped == 0.0:
        return 0.0 if fitted == 0.0 else math.inf
    return abs(fitted - shipped) / abs(shipped)


def check(records: list[dict]) -> int:
    """Compare refit records with the shipped file; 0 if all agree."""
    try:
        shipped = load_coefficients(COEFFICIENTS.parent)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ok = True
    for r in records:
        entry = shipped.pop((r["v"], r["L"]), None)
        if entry is None:
            print(f"  (v={r['v']}, L={r['L']}): missing from {COEFFICIENTS}")
            ok = False
            continue
        worst = max(_relative_deviation(r[name], value)
                    for name, value in zip(CONSTANTS, entry.coefficients))
        within = worst <= CHECK_RELATIVE_BOUND
        ok = ok and within
        print(f"  (v={r['v']}, L={r['L']}): worst relative deviation {worst:.2e}"
              f"{'' if within else ' FAIL'}")
    for level in shipped:
        print(f"  (v={level.v}, L={level.L}): in {COEFFICIENTS} but not refit")
        ok = False
    print(f"{'ok' if ok else 'FAIL'}: refit against {COEFFICIENTS}, "
          f"bound {CHECK_RELATIVE_BOUND:.0e} relative")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="compare a refit with the shipped file and write nothing")
    args = parser.parse_args()
    try:
        records = fit_records()
    except (DataError, FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.check:
        return check(records)
    payload = {
        "units": "MHz",
        "description": (
            "Effective spin-Hamiltonian constants per ro-vibrational level (v, L), "
            "recovered from the published hyperfine structure."
        ),
        "coefficients": records,
    }
    COEFFICIENTS.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {COEFFICIENTS} ({len(records)} records)")
    for r in records:
        print(
            f"  (v={r['v']}, L={r['L']}): b_F={r['b_F']:.6f} c_e={r['c_e']:.6f} "
            f"c_I={r['c_I']:.6f} d_1={r['d_1']:.6f} d_2={r['d_2']:.6f} "
            f"residual={r['fit_residual_MHz']:.2e} MHz"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
