"""Quick self-test of the benchmark (about a minute; not part of the test suite).

    python3 perfbench/selftest.py

Runs one traced round of every workload and of the probe session at the
smallest sizes with every gate on, checks that each gate rejects a
corrupted output, that the large-L cache counters agree with the distinct
6j symbols the probe enumerates, and that run.py refuses to run in a
directory without the program's sources.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import worker  # noqa: E402
from tracing import medians, per_root  # noqa: E402

SMALL_L_MAX = 5


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def expect_gate_error(what: str, fn, *args, **kwargs) -> None:
    try:
        fn(*args, **kwargs)
    except gates.GateError:
        return
    fail(f"gate accepted a corrupted {what}")


def run_sessions() -> dict[str, dict]:
    results = {}
    for name in worker.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", "5",
             "--rounds", "1", "--trace", "2", "--l-max", str(SMALL_L_MAX)],
            capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            fail(f"{name} session exited {proc.returncode}: {proc.stderr[-1000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["attempted"] < 1 or result["failed"]:
            fail(f"{name}: {result['failed']} of {result['attempted']} ops failed: "
                 f"{result['failures']}")
        print(f"ok  {name:<17} {result['attempted']} ops, {len(result['spans'])} spans")
        results[name] = result
    return results


def check_counters(results: dict[str, dict]) -> None:
    large = medians(per_root(results["spectrum-large-L"]["spans"], "op"))
    probe = medians(per_root(results["probe"]["spans"], "probe"))
    misses = large["angular.six_j_misses"][0]
    symbols = probe["angular.cold_6j_symbols"][0]
    if misses != -1 and misses != symbols:
        fail(f"cold large-L op missed {misses} 6j symbols, probe enumerates {symbols}")
    print(f"ok  6j misses of a cold large-L op = distinct symbols = {symbols}")


def check_gates() -> None:
    from h2plus.datafiles import load_coefficients, load_orbital_elements, solve_level
    from h2plus.spectrum import spectrum_to_csv, two_photon_spectrum
    from h2plus.twophoton import PolarizationPair

    coefficients = load_coefficients()
    orbital = load_orbital_elements()
    (lower, upper), orb = max(orbital.items(), key=lambda item: item[0][0].L)
    pols = [PolarizationPair.from_token(t) for t in gates.ALL_TOKENS]
    result = two_photon_spectrum(solve_level(lower.v, lower.L, coefficients=coefficients),
                                 solve_level(upper.v, upper.L, coefficients=coefficients),
                                 orb, pols)
    rows = gates.rows_from_result(result)
    reference = gates.reference_lines()[lower.L]
    gates.check_sum_rule(rows, lower.L, orb.q0, orb.q2)
    gates.check_mirrors(rows)
    gates.check_reference(rows, reference)
    gates.check_reference(gates.parse_spectrum_csv(spectrum_to_csv(result)), reference,
                          printed=True)

    strongest = max(range(len(rows)), key=lambda i: rows[i][5]["pipi"])

    def changed(token: str, value: float) -> list[tuple]:
        out = list(rows)
        out[strongest] = rows[strongest][:5] + ({**rows[strongest][5], token: value},)
        return out

    pipi, smsm = rows[strongest][5]["pipi"], rows[strongest][5]["smsm"]
    expect_gate_error("sum rule", gates.check_sum_rule, changed("pipi", pipi + 1e-10),
                      lower.L, orb.q0, orb.q2)
    expect_gate_error("mirror pair", gates.check_mirrors,
                      changed("smsm", math.nextafter(smsm, math.inf)))
    expect_gate_error("published line", gates.check_reference, changed("pipi", pipi + 1e-3),
                      reference)
    expect_gate_error("line list", gates.check_reference, rows[1:], reference)

    levels = gates.reference_levels()[(0, 3)]
    states = gates.states_from_solution(solve_level(0, 3, coefficients=coefficients))
    gates.check_levels(states, levels)
    key = next(iter(states))
    shifted = {**states, key: (states[key][0] + 2e-4,) + states[key][1:]}
    expect_gate_error("level shift", gates.check_levels, shifted, levels)
    expect_gate_error("rate", gates.check_rate, "rate: 0.5000 1/s", transverse=False)
    expect_gate_error("cavity", gates.check_cavity,
                      "resonant transmission: 0.9000\noff-resonance isolation: 30.00 dB")
    expect_gate_error("validate", gates.check_validate,
                      "spectra   FAIL  max deviation\n0 of 1 checks passed")
    print("ok  every gate rejects a corrupted output")


def check_refuses_without_sources() -> None:
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench" / path.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "refit", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("run.py printed a result in a directory without the program's sources")
    print(f"ok  run.py exits {proc.returncode} without the program's sources")


def main() -> int:
    check_gates()
    results = run_sessions()
    check_counters(results)
    check_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
