"""h2plus benchmark: one command, every workload, correctness-gated.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  Each run starts SESSIONS fresh worker
processes, one at a time (see worker.py); each sets up the workload, which
is timed as set-up, and runs ops for its share of --seconds.  cli-cold
instead runs a fixed number of ops, spread over its sessions; the others
only set up.  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it runs the ops alternately traced and untraced, adds one probe
session per other workload and one for the import and kernel probes, and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Results, the
environment and the spans are also written under perfbench/out/.  NOTES.md
says why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

from tracing import medians, per_root, per_span  # noqa: E402

# cli-cold and spectrum-large-L are not in BENCHMARK.json (too few ops per
# run to gate on the shared host, see NOTES.md); they run on request and as
# probe sessions in every traced run.
WORKLOADS = ("cli-cold", "spectrum-bundled", "spectrum-large-L", "refit")
SESSIONS = 5  # set-ups per run; setup_s is their median
# Ops per run of workloads whose op is too long to run until --seconds is
# spent: a fixed count keeps the sample count, and with it the percentile
# op_tail_ms reads, independent of the program's speed.
FIXED_OPS = {"cli-cold": 2}
RUN_DEADLINE_S = 170.0  # per workload; a single-workload run ends within 180 s
# Environment of every process the benchmark starts: single-threaded BLAS
# on the 2-core box, and no data-directory override from the caller.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# End-to-end metrics in BENCHMARK.json.  The op median, the throughputs
# and failed_frac are printed as well but not gated: on the shared host,
# in-process op times switch between a fast and a slow state for tens of
# seconds at a time, so a run's median moves with the share of time spent
# in each, while the tail reads the slow state (see NOTES.md).
END_TO_END = (
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metric -> (unit, session that supplies it, root span it is
# read from, what the median is over).  The session is a workload ("own"
# for the traced workload), or "probe" for the import and kernel probes.
# Each metric has this one source whichever workload is traced; in a
# traced run of another workload, that workload's probe session supplies
# it.  The median is over root spans (the metric summed per op, set-up or
# probe) or over single spans (one CLI process each).
PER_LAYER = {
    "import.startup_ms": ("ms", "probe", "probe", "root"),
    "import.h2plus_cli_ms": ("ms", "probe", "probe", "root"),
    "import.numpy_ms": ("ms", "probe", "probe", "root"),
    "import.scipy_ms": ("ms", "probe", "probe", "root"),
    "import.modules_loaded": ("count", "probe", "probe", "root"),
    "cli.levels_ms": ("ms", "cli-cold", "op", "span"),
    "cli.spectrum_ms": ("ms", "cli-cold", "op", "span"),
    "cli.validate_ms": ("ms", "cli-cold", "op", "span"),
    "cli.rate_ms": ("ms", "cli-cold", "op", "span"),
    "cli.cavity_ms": ("ms", "cli-cold", "op", "span"),
    "datafiles.load_ms": ("ms", "spectrum-bundled", "setup", "root"),
    "hyperfine.solve_ms": ("ms", "spectrum-large-L", "op", "root"),
    "hyperfine.fit_ms": ("ms", "refit", "op", "root"),
    "twophoton.reduce_ms": ("ms", "probe", "probe", "root"),
    "twophoton.calls": ("count", "probe", "probe", "root"),
    "angular.six_j_misses": ("count", "spectrum-large-L", "op", "root"),
    "angular.six_j_hit_ratio": ("ratio", "spectrum-large-L", "op", "root"),
    "angular.three_j_misses": ("count", "spectrum-large-L", "op", "root"),
    "angular.cold_6j_ms": ("ms", "probe", "probe", "root"),
    "angular.cold_6j_symbols": ("count", "probe", "probe", "root"),
    "spectrum.assemble_ms": ("ms", "spectrum-bundled", "op", "root"),
    "spectrum.lines": ("count", "spectrum-bundled", "op", "root"),
    "spectrum.render_ms": ("ms", "spectrum-bundled", "op", "root"),
    "spectrum.output_bytes": ("count", "spectrum-bundled", "op", "root"),
    "spectrum.convolve_ms": ("ms", "spectrum-large-L", "op", "root"),
    "validate.run_checks_ms": ("ms", "refit", "op", "root"),
    "op.self_ms": ("ms", "own", "op", "root"),
    "trace.overhead_ms": ("ms", "own", "op", "root"),
}


class SessionError(RuntimeError):
    """A worker session crashed or returned no result."""


def environment(seed: int) -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def run_worker(argv: list[str], deadline: float) -> dict:
    """Start one worker session, wait for it, and return its result."""
    env = dict(os.environ, **CHILD_ENV)
    env.pop("H2PLUS_DATA_DIR", None)
    spawned_at = time.perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), *argv, "--spawned-at", repr(spawned_at)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SessionError(f"session {argv} exceeded the run deadline") from None
    if proc.returncode != 0 or not stdout.strip():
        raise SessionError(f"session {argv} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least ten
    samples beyond it; with fewer than eleven samples, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload: str, sessions: list[dict]) -> tuple[dict, list[str]]:
    ops = [t for s in sessions for t in s["op_ms"]]
    setups = [s["setup_s"] for s in sessions]
    tail_ms, tail_pct = tail(ops)
    seconds = sum(ops) / 1e3
    produced = sum(s["produced"] for s in sessions)
    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions)
    gated = {
        "op_tail_ms": (tail_ms, f"p{tail_pct:.1f}, n={len(ops)} ops"),
        "setup_s": (statistics.median(setups), f"median of n={len(setups)} sessions"),
        "peak_rss_mb": (max(s["maxrss_kb"] for s in sessions) / 1024.0,
                        f"max over n={len(sessions)} sessions and their children"),
    }
    reported = [
        ("op_p50_ms", statistics.median(ops), "ms", f"n={len(ops)} ops"),
        ("ops_per_s", len(ops) / seconds, "1/s", f"n={len(ops)} ops over {seconds:.2f} s of timed work"),
    ]
    if workload.startswith("spectrum-"):
        reported.append(("intensities_per_s", produced / seconds, "1/s",
                         f"{produced} line x polarization intensities in n={len(ops)} ops"))
    if workload == "cli-cold":
        calls = sum(s["calls"] for s in sessions)
        reported.append(("cli_calls_per_s", calls / seconds, "1/s", f"n={calls} CLI processes"))
    reported.append(("failed_frac", failed / attempted, "", f"{failed} of {attempted} attempted ops"))
    lines = [f"{name:<22} {gated[name][0]:>14.4f} {unit:<6} {gated[name][1]}"
             for name, unit in END_TO_END]
    lines += [f"{name:<22} {value:>14.4f} {unit:<6} {note} (reported, not gated)"
              for name, value, unit, note in reported]
    return {name: value for name, (value, _) in gated.items()}, lines


def per_layer(workload: str, sessions: list[dict], probes: dict[str, list[dict]]) -> tuple[dict, list[str]]:
    traced = [t for s in sessions for t in s["op_ms_traced"]]
    untraced = [t for s in sessions for t in s["op_ms"]]
    found = {("overhead",): {"trace.overhead_ms": (
        statistics.median(traced) - statistics.median(untraced), min(len(traced), len(untraced)))}}
    values, lines = {}, []
    for name, (unit, home, root, over) in PER_LAYER.items():
        source = "own" if home == workload else home
        key = ("overhead",) if name == "trace.overhead_ms" else (source, root, over)
        if key not in found:
            group = sessions if source == "own" else probes[source]
            spans = [sp for s in group for sp in s["spans"]]
            found[key] = medians((per_root if over == "root" else per_span)(spans, root))
        value = found[key].get(name)
        if value is None:
            raise SessionError(f"traced run produced no {name}")
        values[name] = value[0]
        what = f"{root}s" if over == "root" else f"calls in {root}s"
        where = f"{workload} {what}" if source == "own" else f"{source} session, {what}"
        lines.append(f"{name:<26} {value[0]:>14.4f} {unit:<6} median over n={value[1]} {where}")
    return values, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    if workload in FIXED_OPS:
        # Spread the sessions that run ops among the set-up-only ones; with
        # --trace 1 each runs one traced and one untraced op.
        n = FIXED_OPS[workload]
        runs_ops = [i * n // SESSIONS != (i + 1) * n // SESSIONS for i in range(SESSIONS)]
        session_args = [base + ["--rounds", str((1 + trace) * ops)] for ops in runs_ops]
    else:
        share = seconds / SESSIONS / (2 if trace else 1)
        session_args = [base + ["--seconds", repr(share)]] * SESSIONS
    sessions = [run_worker(argv, deadline) for argv in session_args]
    op_sessions = [s for s in sessions if s["attempted"]]
    probes: dict[str, list[dict]] = {}
    if trace:
        for other in (*WORKLOADS, "probe"):
            if other != workload:
                probes[other] = [run_worker(["--workload", other, "--seed", str(seed),
                                             "--trace", "2", "--rounds", "1"], deadline)]
    everything = sessions + [s for group in probes.values() for s in group]
    attempted = sum(s["attempted"] for s in everything)
    failed = sum(s["failed"] for s in everything)
    if trace:
        values, lines = per_layer(workload, op_sessions, probes)
        units = {name: unit for name, (unit, *_) in PER_LAYER.items()}
    else:
        values, lines = end_to_end(workload, sessions)
        units = dict(END_TO_END)
    failures = [f for s in everything for f in s["failures"]]
    return {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:5],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        "lines": lines,
        "spans": [sp for s in everything for sp in s["spans"]] if trace else [],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="h2plus benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "h2plus" / "cli.py").is_file():
        print(f"error: no h2plus sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.perf_counter() + RUN_DEADLINE_S * len(workloads)
    env = environment(args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    results = []
    try:
        for workload in workloads:
            results.append(run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                        deadline))
    except SessionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    for result in results:
        print(f"[{result['workload']}]")
        for line in result["lines"]:
            print("  " + line)
        for failure in result["failures"]:
            print("  failure: " + failure.strip().replace("\n", " | "))
        stem = f"{result['workload']}-seed{args.seed}-trace{args.trace}"
        (OUT_DIR / f"{stem}.json").write_text(json.dumps(
            {"env": env, "seconds": args.seconds,
             **{k: v for k, v in result.items() if k != "spans"}}, indent=1) + "\n")
        if args.trace:
            (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(result["spans"]) + "\n")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in results for name, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
