"""Command-line front end.

Subcommands: `levels` prints the hyperfine structure of one (v, L) level,
`spectrum` the hyperfine-resolved two-photon line list of a transition,
`rate` and `cavity` the experimental estimates, and `validate` the full
regression against the bundled published data.

Exit codes: 0 success, 1 usage error, 2 missing or malformed data,
3 validation failure, 141 (128 + SIGPIPE) standard output closed before
all of it was written.  All numeric output uses locale-independent
formatting with fixed precision, so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

from . import DataError, __version__

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VALIDATION = 3
EXIT_PIPE = 141

DEFAULT_POLS = "pipi,spsp,spsm"
# `validate` prints at most this many details per check, then counts the rest
MAX_DETAILS = 10


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1."""

    def error(self, message):
        raise _UsageError(message)


def _parse_level(text: str) -> tuple[int, int]:
    try:
        v_str, l_str = text.split(",")
        v, L = int(v_str), int(l_str)
    except ValueError:
        raise _UsageError(f"level must be 'v,L' with integers, got {text!r}") from None
    if v < 0 or L < 0:
        raise _UsageError(f"v and L must be non-negative, got {text!r}")
    return v, L


def _parse_pols(text: str) -> tuple:
    from .twophoton import PolarizationPair

    pols = []
    for token in text.split(","):
        try:
            pols.append(PolarizationPair.from_token(token))
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    if len(set(pols)) < len(pols):
        raise _UsageError(f"repeated polarization token in {text!r}")
    return tuple(pols)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="h2plus",
        description="Hyperfine structure and two-photon spectra of the H2+ molecular ion.",
    )
    parser.add_argument("--version", action="version", version=f"h2plus {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    levels = sub.add_parser("levels", help="hyperfine structure of one (v, L) level")
    levels.add_argument("--v", type=int, required=True, help="vibrational quantum number")
    levels.add_argument("--L", type=int, required=True, help="orbital angular momentum")
    levels.add_argument("--data-dir", default=None)
    levels.add_argument("--format", choices=("table", "csv", "json"), default="table")

    spectrum = sub.add_parser("spectrum", help="two-photon line list of a transition")
    spectrum.add_argument("--lower", required=True, metavar="v,L")
    spectrum.add_argument("--upper", required=True, metavar="v,L")
    spectrum.add_argument("--pol", default=DEFAULT_POLS,
                          help=f"comma-separated polarization tokens (default {DEFAULT_POLS})")
    spectrum.add_argument("--absolute", action="store_true",
                          help="add an absolute per-photon frequency column")
    spectrum.add_argument("--data-dir", default=None)
    spectrum.add_argument("--format", choices=("table", "csv", "json"), default="table")

    rate = sub.add_parser("rate", help="on-resonance two-photon transition rate")
    rate.add_argument("--power", type=float, required=True, help="incident power on the ions (W)")
    rate.add_argument("--waist", type=float, required=True, help="beam waist (m)")
    rate.add_argument("--linewidth", type=float, required=True,
                      help="instrumental linewidth Gamma_f / 2pi (Hz)")
    rate.add_argument("--qsq", type=float, required=True,
                      help="averaged squared matrix element (a.u.)")
    rate.add_argument("--transverse", action="store_true",
                      help="apply the 50/25/25 transverse-field decomposition to the pi component")

    cavity = sub.add_parser("cavity", help="Fabry-Perot transmission and isolation")
    cavity.add_argument("--reflectivity", type=float, required=True)
    cavity.add_argument("--losses", type=float, required=True)

    validate = sub.add_parser("validate", help="regression against the bundled published data")
    validate.add_argument("--check", action="append", default=None,
                          help="run only the named check (repeatable)")
    validate.add_argument("--data-dir", default=None)
    return parser


def cmd_levels(args) -> int:
    from .datafiles import DataSet
    from .hyperfine import RoVibLevel
    from .spectrum import format_shift

    if args.v < 0 or args.L < 0:
        raise _UsageError(f"v and L must be non-negative, got v={args.v}, L={args.L}")
    solution = DataSet(args.data_dir).solve(RoVibLevel(args.v, args.L))
    if args.format == "json":
        payload = {
            "v": args.v,
            "L": args.L,
            "I": solution.level.nuclear_spin,
            "units": "MHz",
            "states": [
                {
                    "F_tilde": str(s.f_tilde),
                    "J": str(s.j),
                    "shift_MHz": round(s.shift_mhz, 4),
                    "C1": round(s.c1, 6),
                    "C3": round(s.c3, 6),
                }
                for s in solution.states
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK
    rows = [
        (str(s.f_tilde), str(s.j), format_shift(s.shift_mhz), f"{s.c1:.6f}", f"{s.c3:.6f}")
        for s in solution.states
    ]
    if args.format == "csv":
        print("v,L,F_tilde,J,shift_MHz,C1,C3")
        for row in rows:
            print(f"{args.v},{args.L}," + ",".join(row))
        return EXIT_OK
    print(f"hyperfine structure of (v={args.v}, L={args.L}), I={solution.level.nuclear_spin}")
    print(f"{'F~':>4} {'J':>4} {'shift (MHz)':>14} {'C1':>10} {'C3':>10}")
    for f_tilde, j, shift, c1, c3 in rows:
        print(f"{f_tilde:>4} {j:>4} {shift:>14} {c1:>10} {c3:>10}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    from .datafiles import DataSet
    from .hyperfine import RoVibLevel
    from .spectrum import format_intensity, format_shift, spectrum_to_csv, spectrum_to_json

    v_lo, l_lo = _parse_level(args.lower)
    v_up, l_up = _parse_level(args.upper)
    pols = _parse_pols(args.pol)
    lower, upper = RoVibLevel(v_lo, l_lo), RoVibLevel(v_up, l_up)
    data = DataSet(args.data_dir)
    data.coefficients  # read first: a missing directory names this file
    data.elements(lower, upper)  # then the orbital file, before the centers
    center = data.center(lower, upper)
    if args.absolute and center is None:
        raise DataError(
            f"no center frequency available for ({v_lo},{l_lo})->({v_up},{l_up})"
        )

    result = data.spectrum(lower, upper, pols, center_frequency_mhz=center)
    if args.format == "json":
        print(spectrum_to_json(result, absolute=args.absolute))
    elif args.format == "csv":
        sys.stdout.write(spectrum_to_csv(result, absolute=args.absolute))
    else:
        print(f"two-photon spectrum ({v_lo},{l_lo}) -> ({v_up},{l_up})")
        if center is not None:
            print(f"per-photon center frequency: {center:.3f} MHz")
        header = f"{'lower':>12} {'upper':>12} {'delta_f (MHz)':>14}"
        header += "".join(f" {('[' + p.token + ']'):>12}" for p in pols)
        print(header)
        for line in result.lines:
            row = (
                f"({line.lower_f},{line.lower_j})".rjust(12)
                + f"({line.upper_f},{line.upper_j})".rjust(13)
                + format_shift(line.delta_f_mhz).rjust(15)
            )
            row += "".join(format_intensity(line.intensity[p]).rjust(13) for p in pols)
            print(row)
    return EXIT_OK


def cmd_rate(args) -> int:
    from .experiment import (
        LaserParams,
        beam_axis_intensity,
        rate_at_resonance,
        transverse_field_decomposition,
    )

    if args.power < 0 or args.waist <= 0 or args.linewidth <= 0 or args.qsq < 0:
        raise _UsageError("power/qsq must be >= 0 and waist/linewidth > 0")
    if not math.isfinite(args.qsq):
        raise _UsageError(f"qsq must be finite, got {args.qsq}")
    gamma_f = 2.0 * math.pi * args.linewidth
    try:
        intensity = beam_axis_intensity(LaserParams(args.power, args.waist, gamma_f))
        i_pi, i_sm, i_sp = transverse_field_decomposition(intensity)
        rate = rate_at_resonance(i_pi if args.transverse else intensity, gamma_f, args.qsq)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    print(f"beam-axis intensity: {intensity:.4e} W/m^2")
    if args.transverse:
        print(f"transverse-field split (pi, sigma-, sigma+): "
              f"{i_pi:.4e} {i_sm:.4e} {i_sp:.4e} W/m^2")
        print(f"rate (pi component): {rate:.4f} 1/s")
    else:
        print(f"rate: {rate:.4f} 1/s")
    return EXIT_OK


def cmd_cavity(args) -> int:
    from .experiment import CavityParams, cavity_isolation_db, cavity_transmission

    try:
        cavity = CavityParams(args.reflectivity, args.losses)
        transmission = cavity_transmission(cavity)
        isolation = cavity_isolation_db(cavity)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    print(f"mirror transmission: {cavity.transmission:.6f}")
    print(f"resonant transmission: {transmission:.4f}")
    print(f"off-resonance isolation: {isolation:.2f} dB")
    return EXIT_OK


def cmd_validate(args) -> int:
    from .validate import run_checks, selected_checks

    try:
        names = selected_checks(args.check)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    results = run_checks(names, data_dir=args.data_dir)
    for result in results:
        print(result.summary())
        for detail in result.details[:MAX_DETAILS]:
            print(f"    {detail}")
        if len(result.details) > MAX_DETAILS:
            print(f"    ... and {len(result.details) - MAX_DETAILS} more")
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed")
        return EXIT_VALIDATION
    print(f"all {len(results)} checks passed")
    return EXIT_OK


_COMMANDS = {
    "levels": cmd_levels,
    "spectrum": cmd_spectrum,
    "rate": cmd_rate,
    "cavity": cmd_cavity,
    "validate": cmd_validate,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        # The "Note on SIGPIPE" recipe of the `signal` docs: send what is
        # still buffered to devnull, so the flush at exit is silent too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
