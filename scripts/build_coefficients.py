#!/usr/bin/env python3
"""Regenerate the fitted hyperfine-coefficient data file.

Reads the published level shifts and mixing coefficients bundled under
src/h2plus/data/reference/ and inverts them with the package's fitting
routines, writing src/h2plus/data/hyperfine_coefficients.json with the fit
residuals recorded alongside each record.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from h2plus.datafiles import load_reference_levels_even, load_reference_levels_odd
from h2plus.hyperfine import fit_coefficients, fit_even_coefficient

ODD_PROVENANCE = (
    "least-squares fit to published hyperfine level shifts and mixing coefficients"
)
EVEN_PROVENANCE = "inverted from the published J = L+1/2 level shift"
L0_PROVENANCE = (
    "c_e unconstrained at L=0 (no orbital coupling; the single level is unshifted)"
)


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    records = []
    for entry in load_reference_levels_even():
        L, v = entry["L"], entry["v"]
        fit = fit_even_coefficient(
            L, entry["shift_upper_J_MHz"], entry.get("shift_lower_J_MHz")
        )
        c = fit.coefficients
        records.append(
            {
                "v": v,
                "L": L,
                "b_F": c.b_f,
                "c_e": c.c_e,
                "c_I": c.c_i,
                "d_1": c.d1,
                "d_2": c.d2,
                "units": "MHz",
                "provenance": L0_PROVENANCE if L == 0 else EVEN_PROVENANCE,
                "fit_residual_MHz": fit.max_shift_residual_mhz,
            }
        )
    for observed in load_reference_levels_odd():
        fit = fit_coefficients(observed.level.L, observed)
        c = fit.coefficients
        records.append(
            {
                "v": observed.level.v,
                "L": observed.level.L,
                "b_F": c.b_f,
                "c_e": c.c_e,
                "c_I": c.c_i,
                "d_1": c.d1,
                "d_2": c.d2,
                "units": "MHz",
                "provenance": ODD_PROVENANCE,
                "fit_residual_MHz": fit.max_shift_residual_mhz,
            }
        )
    records.sort(key=lambda r: (r["v"], r["L"]))
    payload = {
        "units": "MHz",
        "description": (
            "Effective spin-Hamiltonian constants per ro-vibrational level (v, L), "
            "recovered from the published hyperfine structure."
        ),
        "coefficients": records,
    }
    out = REPO / "src" / "h2plus" / "data" / "hyperfine_coefficients.json"
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(records)} records)")
    for r in records:
        print(
            f"  (v={r['v']}, L={r['L']}): b_F={r['b_F']:.6f} c_e={r['c_e']:.6f} "
            f"c_I={r['c_I']:.6f} d_1={r['d_1']:.6f} d_2={r['d_2']:.6f} "
            f"residual={r['fit_residual_MHz']:.2e} MHz"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
