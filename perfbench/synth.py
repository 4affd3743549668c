"""Seeded synthetic data directory for the large-L spectrum workload.

Writes the three data files the program reads (hyperfine coefficients,
reduced orbital elements, center frequencies) for v = 0, 1 and
L = 0..l_max, with orbital elements for every (0, L) -> (1, L') with
L' - L in {0, -2, +2}.  Values follow smooth trends anchored on the bundled
L = 1..3 constants, with a seeded jitter of a few percent, so that the
level structure stays physical while no two seeds give the same numbers.
The same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

COEFFICIENTS_FILE = "hyperfine_coefficients.json"
ORBITAL_FILE = "orbital_reduced_elements.json"
CENTERS_FILE = "center_frequencies.json"

DEFAULT_L_MAX = 41


def _jitter(rng: random.Random, value: float, spread: float = 0.03) -> float:
    return value * (1.0 + rng.uniform(-spread, spread))


def coefficient_records(rng: random.Random, l_max: int) -> list[dict]:
    records = []
    for v in (0, 1):
        vib = 1.0 - 0.055 * v
        for L in range(l_max + 1):
            rot = 1.0 - 0.0006 * L * (L + 1) / (1.0 + 0.002 * L * (L + 1))
            c_e = _jitter(rng, 42.4 * vib * rot) if L else 0.0
            record = {"v": v, "L": L, "b_F": 0.0, "c_e": c_e, "c_I": 0.0,
                      "d_1": 0.0, "d_2": 0.0}
            if L % 2:
                record.update(
                    b_F=_jitter(rng, 923.0 * vib * rot, 0.01),
                    c_I=_jitter(rng, -0.0417 * vib * rot),
                    d_1=_jitter(rng, 128.5 * vib * rot),
                    d_2=_jitter(rng, -0.298 * vib * rot),
                )
            record.update(
                units="MHz",
                provenance="synthetic, seeded (see the file's seed)",
                fit_residual_MHz=0.0,
            )
            records.append(record)
    return records


def orbital_records(rng: random.Random, l_max: int) -> list[dict]:
    records = []
    for L in range(l_max + 1):
        for Lp in (L - 2, L, L + 2):
            if not 0 <= Lp <= l_max:
                continue
            if Lp == L:
                q0 = _jitter(rng, 0.7255 + 0.41 * L ** 0.5)
                q2 = _jitter(rng, 0.62 + 0.12 * L ** 0.5) if L else 0.0
            else:
                q0 = 0.0
                q2 = _jitter(rng, 0.05 + 0.004 * min(L, Lp))
            records.append({"v": 0, "L": L, "v_prime": 1, "L_prime": Lp,
                            "Q0": q0, "Q2": q2})
    return records


def center_records(rng: random.Random, l_max: int) -> list[dict]:
    records = []
    for L in range(l_max + 1):
        nu = _jitter(rng, 32844161.844 - 22970.0 * L * (L + 1), 1e-4)
        records.append({"L": L, "nu_2ph_MHz": nu, "lambda_um": 299792458.0 / nu})
    return records


def write_data_dir(path: Path, seed: int, l_max: int = DEFAULT_L_MAX) -> Path:
    """Write a complete synthetic data directory for `seed` and return it."""
    if l_max < 1:
        raise ValueError(f"l_max must be at least 1, got {l_max}")
    rng = random.Random(seed)
    path.mkdir(parents=True, exist_ok=True)
    payloads = {
        COEFFICIENTS_FILE: {"units": "MHz", "seed": seed,
                            "coefficients": coefficient_records(rng, l_max)},
        ORBITAL_FILE: {"units": "a.u.", "seed": seed,
                       "elements": orbital_records(rng, l_max)},
        CENTERS_FILE: {"seed": seed, "centers": center_records(rng, l_max)},
    }
    for name, payload in payloads.items():
        (path / name).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path
