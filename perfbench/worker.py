"""One benchmark session in a fresh process: set up one workload, then run
timed ops until the time share is spent, and print one JSON result line.

    python3 perfbench/worker.py --workload NAME --seed N (--seconds S | --rounds R)
                                [--trace 0|1|2] [--spawned-at T] [--l-max L]

`run.py` starts the sessions one at a time and aggregates them; the
self-test starts them with `--rounds 1`.  A session with `--rounds 0` only
sets up, which `run.py` uses for extra set-up samples.  Ops are timed with the wall clock
around the call into the program only; each op's gate runs after its timer
stops, and a failed gate or a raised exception counts the op as failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / ".work"
sys.path.insert(0, str(ROOT / "src"))

import gates  # noqa: E402
import synth  # noqa: E402
from tracing import Tracer  # noqa: E402

CLI_TIMEOUT_S = 120
GRID_POINTS = 200_000
GRID_MARGIN_MHZ = 500.0
PROFILE_FWHM_HZ = 1e6
CONVOLVE_TOKEN = "pipi"


def _tokens_for(seed: int) -> list[str]:
    tokens = list(gates.ALL_TOKENS)
    random.Random(seed).shuffle(tokens)
    return tokens


class Workload:
    """Set-up plus a round of ops; `op` returns what the gate checks."""

    round_size = 1
    root_name = "op"
    forks = False  # each op runs in a forked child that times itself
    in_process = True  # ops call into the package inside this process

    def __init__(self, seed: int, l_max: int, tracer: Tracer):
        self.seed = seed
        self.l_max = l_max
        self.tr = tracer
        self.work = WORK_DIR / f"{type(self).__name__}-{os.getpid()}"

    def setup(self) -> None:
        pass

    def op(self, r: int, k: int):
        raise NotImplementedError

    def gate(self, out) -> None:
        pass

    def produced(self, out) -> int:
        """Line x polarization intensities produced by the op."""
        return 0

    def processes(self, out) -> int:
        """Program processes the op started."""
        return 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# --- cli-cold ----------------------------------------------------------------


class CliCold(Workload):
    """Each op is one round of 17 fresh `python -m h2plus.cli` processes:
    `levels` for one of the 8 bundled levels (picked by the seed and the
    round's index in its session), `spectrum` for each of the 4 bundled
    transitions with the default 3 polarizations as a table and with all 9
    as CSV and as JSON, `validate`, `rate` with and without `--transverse`,
    and `cavity`.  The seed fixes the order of the calls and of the
    polarization tokens."""

    in_process = False
    levels = [(v, L) for L in range(4) for v in (0, 1)]

    def setup(self):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("H2PLUS_DATA_DIR", None)
        self.ref_lines = gates.reference_lines()
        self.ref_levels = gates.reference_levels()
        self.order = list(range(len(self.calls(0))))
        random.Random(self.seed).shuffle(self.order)
        # Warm-up: one call, so the first timed round does not read the
        # program's files from disk.
        self.check(self.run_call(self.calls(0)[0]))

    def calls(self, r: int) -> list[tuple[str, list[str], object]]:
        """(subcommand, CLI arguments, what the gate needs) of every call of round r."""
        v, L = self.levels[(r + self.seed) % len(self.levels)]
        out = [("levels", ["levels", "--v", str(v), "--L", str(L)], (v, L))]
        all_pols = ",".join(_tokens_for(self.seed))
        for L in range(4):
            base = ["spectrum", "--lower", f"0,{L}", "--upper", f"1,{L}"]
            out.append(("spectrum", base, (L, "table")))
            for fmt in ("csv", "json"):
                out.append(("spectrum", base + ["--pol", all_pols, "--format", fmt], (L, fmt)))
        out.append(("validate", ["validate"], None))
        rate = ["rate", "--power", "10", "--waist", "1e-3", "--linewidth", "2600"]
        out.append(("rate", rate + ["--qsq", "0.02"], False))
        out.append(("rate", rate + ["--qsq", "0.2", "--transverse"], True))
        out.append(("cavity", ["cavity", "--reflectivity", "0.98", "--losses", "0.001"], None))
        return out

    def run_call(self, call):
        sub, args, detail = call
        with self.tr.span(f"cli.{sub}"):
            proc = subprocess.run(
                [sys.executable, "-m", "h2plus.cli", *args], env=self.env, cwd=ROOT,
                capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            )
        return (sub, detail), proc

    def op(self, r, k):
        calls = self.calls(r)
        return [self.run_call(calls[i]) for i in self.order]

    def gate(self, out):
        for call in out:
            self.check(call)

    def check(self, call):
        (kind, detail), proc = call
        gates.require(proc.returncode == 0,
                       f"{kind} exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        text = proc.stdout
        if kind == "levels":
            gates.check_levels(gates.parse_levels_table(text), self.ref_levels[detail],
                               printed=True)
        elif kind == "spectrum":
            L, fmt = detail
            rows = {"table": gates.parse_spectrum_table, "csv": gates.parse_spectrum_csv,
                    "json": gates.parse_spectrum_json}[fmt](text)
            gates.check_reference(rows, self.ref_lines[L], printed=True)
            gates.check_mirrors(rows)
        elif kind == "validate":
            gates.check_validate(text)
        elif kind == "rate":
            gates.check_rate(text, transverse=detail)
        else:
            gates.check_cavity(text)

    def produced(self, out):
        return sum(len(self.ref_lines[detail[0]]) * (3 if detail[1] == "table" else 9)
                   for (kind, detail), _ in out if kind == "spectrum")

    def processes(self, out):
        return len(out)


# --- in-process spectrum workloads --------------------------------------------


class _Spectrum(Workload):
    """Shared pass over a set of transitions: solve both levels, assemble the
    line list for all nine polarizations, gate it with the sum rule and the
    mirror-token equalities."""

    def load(self, data_dir):
        from h2plus.datafiles import (load_center_frequencies, load_coefficients,
                                      load_orbital_elements)
        from h2plus.twophoton import PolarizationPair

        with self.tr.span("datafiles.load"):
            self.coefficients = load_coefficients(data_dir)
            self.orbital = load_orbital_elements(data_dir)
            self.centers = load_center_frequencies(data_dir)
        raw = json.loads((Path(data_dir) / synth.ORBITAL_FILE).read_text(encoding="utf-8"))
        self.q = {(e["v"], e["L"], e["v_prime"], e["L_prime"]): (e["Q0"], e["Q2"])
                  for e in raw["elements"]}
        self.pols = [PolarizationPair.from_token(t) for t in _tokens_for(self.seed)]
        self.transitions = sorted(self.orbital)

    def assemble(self, lower, upper):
        from h2plus.datafiles import solve_level
        from h2plus.spectrum import two_photon_spectrum

        with self.tr.span("hyperfine.solve"):
            lo = solve_level(lower.v, lower.L, coefficients=self.coefficients)
            up = solve_level(upper.v, upper.L, coefficients=self.coefficients)
        center = self.centers.get(lower.L, {}).get("nu_2ph_MHz") if lower.L == upper.L else None
        with self.tr.span("spectrum.assemble"):
            result = two_photon_spectrum(lo, up, self.orbital[(lower, upper)], self.pols,
                                         center_frequency_mhz=center)
        self.tr.record("spectrum.lines", len(result.lines))
        return result

    def check_transition(self, lower, upper, rows):
        q0, q2 = self.q[(lower.v, lower.L, upper.v, upper.L)]
        gates.check_sum_rule(rows, lower.L, q0, q2)
        gates.check_mirrors(rows)

    def produced(self, out):
        return sum(len(result.lines) * len(result.pols) for _, result in out["results"])


class SpectrumBundled(_Spectrum):
    """All four bundled (0,L)->(1,L) transitions x 9 polarizations, rendered
    as CSV and JSON, in a warm process."""

    def setup(self):
        self.load(gates.BUNDLED_DATA_DIR)
        rng = random.Random(self.seed)
        rng.shuffle(self.transitions)
        self.ref_lines = gates.reference_lines()
        self.gate(self.op(0, 0))

    def op(self, r, k):
        from h2plus.spectrum import spectrum_to_csv, spectrum_to_json

        results = []
        for lower, upper in self.transitions:
            result = self.assemble(lower, upper)
            with self.tr.span("spectrum.render"):
                rendered = spectrum_to_csv(result) + spectrum_to_json(result)
            self.tr.record("spectrum.output_bytes", len(rendered.encode()))
            results.append(((lower, upper), result))
        return {"results": results}

    def gate(self, out):
        for (lower, upper), result in out["results"]:
            rows = gates.rows_from_result(result)
            self.check_transition(lower, upper, rows)
            gates.check_reference(rows, self.ref_lines[lower.L])


class SpectrumLargeL(_Spectrum):
    """Every synthetic (0,L)->(1,L') transition, L <= l_max, dL in {0, +-2},
    x 9 polarizations, then one Lorentzian profile on a 2e5-point grid.
    Each op runs in a child forked from a process that has only imported
    the package and read the data, so every memo cache starts empty."""

    forks = True

    def setup(self):
        data_dir = synth.write_data_dir(self.work / "data", self.seed, self.l_max)
        self.load(data_dir)

    def op(self, r, k):
        return run_forked(self.child_op)

    def child_op(self) -> dict:
        from h2plus.spectrum import FrequencyGrid, convolve_profile
        from h2plus.twophoton import PolarizationPair

        tracer = Tracer(prefix=f"{os.getpid()}.")
        tracer.enabled = self.tr.enabled
        self.tr = tracer
        before = _cache_counts()
        start = time.perf_counter()
        with tracer.span("op") as root:
            results = [((lo, up), self.assemble(lo, up)) for lo, up in self.transitions]
            widest = max(results, key=lambda item: len(item[1].lines))[1]
            shifts = [line.delta_f_mhz for line in widest.lines]
            lo_f, hi_f = min(shifts) - GRID_MARGIN_MHZ, max(shifts) + GRID_MARGIN_MHZ
            grid = FrequencyGrid(lo_f, hi_f, (hi_f - lo_f) / (GRID_POINTS - 1))
            gamma = 2.0 * math.pi * PROFILE_FWHM_HZ
            with tracer.span("spectrum.convolve"):
                freqs, samples = convolve_profile(
                    widest.lines, PolarizationPair.from_token(CONVOLVE_TOKEN), gamma, grid)
        elapsed = time.perf_counter() - start
        out = {"op_s": elapsed, "error": None,
               "produced": sum(len(res.lines) * len(res.pols) for _, res in results)}
        try:
            for (lower, upper), result in results:
                self.check_transition(lower, upper, gates.rows_from_result(result))
            gates.check_convolution(freqs, samples, gates.rows_from_result(widest),
                                    CONVOLVE_TOKEN, PROFILE_FWHM_HZ / 2e6)
        except gates.GateError as exc:
            out["error"] = str(exc)
        if root is not None:
            root["values"].update(_cache_values(before, _cache_counts()))
        out["spans"] = tracer.spans
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return out


def run_forked(fn) -> dict:
    """Run `fn` in a forked child and return the dict it returns (sent back
    as JSON through a pipe).  The child never returns into the caller."""
    sys.stdout.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            payload = json.dumps(fn()).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"forked op exited with status {status}")
    return json.loads(payload)


def _cache_counts():
    """(6j hits, 6j misses, 3j misses) of the Wigner memo caches, or None
    when the program keeps no such caches."""
    from h2plus import angular

    six = getattr(getattr(angular, "_six_j", None), "cache_info", None)
    three = getattr(getattr(angular, "_three_j", None), "cache_info", None)
    if six is None or three is None:
        return None
    s, t = six(), three()
    return s.hits, s.misses, t.misses


def _cache_values(before, after) -> dict:
    """Cache statistics of the work between two `_cache_counts` readings;
    -1 where the program keeps no memo cache."""
    if before is None or after is None:
        return {"angular.six_j_misses": -1, "angular.six_j_hit_ratio": -1,
                "angular.three_j_misses": -1}
    hits, misses = after[0] - before[0], after[1] - before[1]
    return {"angular.six_j_misses": misses,
            "angular.six_j_hit_ratio": hits / (hits + misses) if hits + misses else -1,
            "angular.three_j_misses": after[2] - before[2]}


# --- refit --------------------------------------------------------------------


class Refit(Workload):
    """Fit every reference level, write a data directory, load it back and
    run the full regression against it."""

    def setup(self):
        from h2plus.datafiles import (load_reference_levels_even,
                                      load_reference_levels_odd)

        with self.tr.span("datafiles.load"):
            self.odd = load_reference_levels_odd()
            self.even = load_reference_levels_even()
        rng = random.Random(self.seed)
        rng.shuffle(self.odd)
        rng.shuffle(self.even)
        self.ref_levels = gates.reference_levels()
        self.data = self.work / "data"
        shutil.copytree(gates.BUNDLED_DATA_DIR, self.data)
        self.gate(self.op(0, 0))

    def op(self, r, k):
        from h2plus.datafiles import (load_center_frequencies, load_coefficients,
                                      load_orbital_elements)
        from h2plus.hyperfine import fit_coefficients, fit_even_coefficient
        from h2plus.validate import run_checks

        with self.tr.span("hyperfine.fit"):
            fits = [((s.level.v, s.level.L), fit_coefficients(s.level.L, s)) for s in self.odd]
            fits += [((e["v"], e["L"]), fit_even_coefficient(
                e["L"], e["shift_upper_J_MHz"], e.get("shift_lower_J_MHz"))) for e in self.even]
        with self.tr.span("refit.write"):
            records = [
                {"v": v, "L": L, "b_F": f.coefficients.b_f, "c_e": f.coefficients.c_e,
                 "c_I": f.coefficients.c_i, "d_1": f.coefficients.d1, "d_2": f.coefficients.d2,
                 "units": "MHz", "provenance": "perfbench refit",
                 "fit_residual_MHz": f.max_shift_residual_mhz}
                for (v, L), f in sorted(fits, key=lambda item: item[0])
            ]
            (self.data / synth.COEFFICIENTS_FILE).write_text(
                json.dumps({"units": "MHz", "coefficients": records}, indent=1) + "\n",
                encoding="utf-8")
        with self.tr.span("datafiles.load"):
            coefficients = load_coefficients(self.data)
            load_orbital_elements(self.data)
            load_center_frequencies(self.data)
        with self.tr.span("validate.run_checks"):
            checks = run_checks(data_dir=self.data)
        return {"fits": fits, "coefficients": coefficients, "checks": checks}

    def gate(self, out):
        from h2plus.datafiles import solve_level

        for (v, L), fit in out["fits"]:
            gates.require(fit.max_shift_residual_mhz < gates.FIT_RESIDUAL_LIMIT_MHZ,
                           f"fit residual of ({v},{L}) is {fit.max_shift_residual_mhz} MHz")
        for (v, L), reference in self.ref_levels.items():
            solution = solve_level(v, L, coefficients=out["coefficients"])
            gates.check_levels(gates.states_from_solution(solution), reference)
        failed = [c.name for c in out["checks"] if not c.passed]
        gates.require(bool(out["checks"]) and not failed, f"checks failed: {failed}")


# --- import and kernel probes (traced runs only) -------------------------------------

IMPORT_CODE = (
    "import sys, time; n = len(sys.modules); t = time.perf_counter(); import h2plus.cli; "
    "print(time.perf_counter() - t, len(sys.modules) - n)"
)


def outermost_import_ms(importtime_log: str, package: str) -> float:
    """Summed cumulative time (ms) of the `package` entries of a
    `-X importtime` log that are not nested in another entry of it."""
    entries = []
    for line in importtime_log.splitlines():
        fields = line.split("|")
        if len(fields) != 3 or not fields[0].startswith("import time:"):
            continue
        try:
            cumulative = int(fields[1])
        except ValueError:  # the header line
            continue
        name = fields[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(), cumulative))
    total, stack = 0, []
    for depth, name, cumulative in reversed(entries):  # parents precede children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        mine = name == package or name.startswith(package + ".")
        if mine and not any(n == package or n.startswith(package + ".") for _, n in stack):
            total += cumulative
        stack.append((depth, name))
    return total / 1e3


def six_j_symbols(solve, orbital) -> list[tuple[int, ...]]:
    """Distinct (2j1..2j6) arguments of the 6j symbols that the reduced
    elements of every transition need: {L k L'; J' F J} for each rank with a
    nonzero orbital element and each F both states share."""
    symbols = set()
    for (lower, upper), orb in orbital.items():
        lo, up = solve(lower), solve(upper)
        for k, element in ((0, orb.q0), (2, orb.q2)):
            if element == 0.0:
                continue
            for s in lo.states:
                for u in up.states:
                    for tf, weight in ((1, s.c1 * u.c1), (3, s.c3 * u.c3)):
                        if weight != 0.0:
                            symbols.add((2 * lower.L, 2 * k, 2 * upper.L,
                                         u.j.twice, tf, s.j.twice))
    return sorted(symbols)


class Probe(Workload):
    """Import weight in fresh interpreters, the 6j symbols of the large-L
    workload computed cold in a forked child, and the reduced elements of
    the bundled transitions called directly."""

    root_name = "probe"
    round_size = 14
    in_process = False

    def setup(self):
        from h2plus.datafiles import load_coefficients, load_orbital_elements, solve_level
        from h2plus.twophoton import PolarizationPair

        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        data_dir = synth.write_data_dir(self.work / "data", self.seed, self.l_max)
        coefficients = load_coefficients(data_dir)
        self.symbols = six_j_symbols(
            lambda lv: solve_level(lv.v, lv.L, coefficients=coefficients),
            load_orbital_elements(data_dir))
        coefficients = load_coefficients()
        self.pairs = [
            (s, u, orb)
            for (lower, upper), orb in sorted(load_orbital_elements().items())
            for s in solve_level(lower.v, lower.L, coefficients=coefficients).states
            for u in solve_level(upper.v, upper.L, coefficients=coefficients).states
        ]
        self.pols = [PolarizationPair.from_token(t) for t in gates.ALL_TOKENS]

    def op(self, r, k):
        if k < 3:
            with self.tr.span("import.startup"):
                subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True)
        elif k < 6:
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CODE],
                                  env=self.env, capture_output=True, text=True, check=True)
            seconds, modules = proc.stdout.split()
            self.tr.record("import.h2plus_cli_ms", float(seconds) * 1e3)
            self.tr.record("import.modules_loaded", int(modules))
            self.tr.record("import.numpy_ms", outermost_import_ms(proc.stderr, "numpy"))
            self.tr.record("import.scipy_ms", outermost_import_ms(proc.stderr, "scipy"))
        elif k < 9:
            out = run_forked(self.cold_six_j)
            self.tr.record("angular.cold_6j_ms", out["ms"])
            self.tr.record("angular.cold_6j_symbols", len(self.symbols))
        else:
            from h2plus.twophoton import averaged_sq_matrix_element

            with self.tr.span("twophoton.reduce"):
                for s, u, orb in self.pairs:
                    for pol in self.pols:
                        averaged_sq_matrix_element(s, u, pol, orb)
            self.tr.record("twophoton.calls", len(self.pairs) * len(self.pols))

    def cold_six_j(self) -> dict:
        from h2plus.angular import HalfInt, wigner6j

        args = [tuple(HalfInt(t) for t in symbol) for symbol in self.symbols]
        start = time.perf_counter()
        for symbol in args:
            wigner6j(*symbol)
        return {"ms": (time.perf_counter() - start) * 1e3}


WORKLOADS = {
    "cli-cold": CliCold,
    "spectrum-bundled": SpectrumBundled,
    "spectrum-large-L": SpectrumLargeL,
    "refit": Refit,
    "probe": Probe,
}


# --- session loop ---------------------------------------------------------------


def run_session(args) -> dict:
    tracer = Tracer(prefix=f"{os.getpid()}.")
    tracer.enabled = bool(args.trace)
    workload = WORKLOADS[args.workload](args.seed, args.l_max, tracer)
    result = {"op_ms": [], "op_ms_traced": [], "attempted": 0, "failed": 0,
              "failures": [], "produced": 0, "calls": 0, "maxrss_kb": 0}
    try:
        with tracer.span("setup"):
            workload.setup()
        # Set-up objects live for the whole session; frozen, they are not
        # rescanned by every full collection during the timed ops.
        gc.freeze()
        first = time.perf_counter()
        result["setup_s"] = first - args.spawned_at if args.spawned_at else None

        def finished(r: int) -> bool:
            if args.rounds is not None:
                return r >= args.rounds
            # With --trace 1, every op of a round runs traced and untraced.
            return (r >= (2 if args.trace == 1 else 1)
                    and time.perf_counter() - first >= args.seconds)

        r = 0
        while not finished(r):
            for k in range(workload.round_size):
                traced = args.trace == 2 or (args.trace == 1 and (r + k) % 2 == 0)
                tracer.enabled = traced
                run_op(workload, tracer, r, k, traced, result)
            r += 1
    finally:
        workload.close()
    result["rounds"] = r
    result["spans"] = tracer.spans
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["maxrss_kb"] = max(own, children, result["maxrss_kb"])
    return result


def run_op(workload, tracer, r, k, traced, result) -> None:
    result["attempted"] += 1
    error = None
    out = None
    span = nullcontext() if workload.forks else tracer.span(workload.root_name)
    start = time.perf_counter()
    try:
        with span as root:
            counting = root is not None and workload.in_process
            before = _cache_counts() if counting else None
            out = workload.op(r, k)
            if counting:
                root["values"].update(_cache_values(before, _cache_counts()))
    except Exception:  # an op that raises counts as failed; the session goes on
        error = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    if isinstance(out, dict) and "op_s" in out:  # timed inside a forked child
        elapsed = out["op_s"]
        error = error or out["error"]
        tracer.spans.extend(out["spans"])
        result["maxrss_kb"] = max(result["maxrss_kb"], out["maxrss_kb"])
        result["produced"] += out["produced"]
    elif error is None:
        try:
            workload.gate(out)
        except gates.GateError as exc:
            error = str(exc)
        except Exception:  # a gate that cannot read the output is a failed op
            error = traceback.format_exc(limit=3)
        if error is None:
            result["produced"] += workload.produced(out)
    (result["op_ms_traced"] if traced else result["op_ms"]).append(elapsed * 1e3)
    if out is not None and not traced:
        result["calls"] += workload.processes(out)
    if error is not None:
        result["failed"] += 1
        if len(result["failures"]) < 5:
            result["failures"].append(error)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1, 2), default=0,
                        help="0: no spans; 1: every other op traced; 2: every op traced")
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--l-max", type=int, default=synth.DEFAULT_L_MAX)
    args = parser.parse_args(argv)
    if (args.seconds is None) == (args.rounds is None):
        parser.error("give exactly one of --seconds and --rounds")
    result = run_session(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
