"""Golden transcript of the whole `h2plus` command line.

For each invocation tests/golden/cli_transcript.json holds its argv, stdout,
stderr and exit code.  The cases cover every subcommand and output format on
the bundled data, `--version`, the usage errors (exit 1), data errors on
edited copies of the data directory (exit 2) and validation failures
(exit 3).

A case whose argv names `<TMP>` runs against a fresh temporary directory
that holds a copy of the bundled data under `data/`, changed by the case's
edit function.  `<TMP>` stands for that directory in the recorded argv and
output, so the file is the same on every machine.  After an intended change
of output, rewrite it with

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from h2plus.cli import main
from h2plus.datafiles import default_data_dir

TRANSCRIPT_PATH = Path(__file__).parent / "golden" / "cli_transcript.json"
TMP = "<TMP>"
DATA = f"{TMP}/data"
ALL_TOKENS = "smsm,smpi,smsp,pism,pipi,pisp,spsm,sppi,spsp"
RATE = ["rate", "--power", "10", "--waist", "1e-3", "--linewidth", "2600", "--qsq", "0.02"]
COEFFICIENTS = "hyperfine_coefficients.json"
ORBITAL = "orbital_reduced_elements.json"
CENTERS = "center_frequencies.json"


def _edit_json(name, change):
    """An edit that applies `change` to the payload of data/<name>; what
    `change` returns, if anything, replaces the payload."""
    def edit(data: Path):
        path = data / name
        payload = json.loads(path.read_text())
        path.write_text(json.dumps(change(payload) or payload))
    return edit


def _write(name, content: bytes):
    """An edit that replaces data/<name> with `content`."""
    return lambda data: (data / name).write_bytes(content)


def _scale_c_e(payload):
    for record in payload["coefficients"]:
        if (record["v"], record["L"]) == (0, 1):
            record["c_e"] *= 1.02


def _overflow_l2_line_shifts(payload):
    for record in payload["coefficients"]:
        if record["L"] == 2:
            record["c_e"] = 1e308 if record["v"] else -1e308


def _keep_four_l3_lines(payload):
    transition = next(t for t in payload["transitions"] if t["L_lower"] == 3)
    del transition["lines"][4:]


def _levels(v, L):
    return [
        (f"levels-{v}{L}-{fmt}", ["levels", "--v", str(v), "--L", str(L), "--format", fmt], None)
        for fmt in ("table", "csv", "json")
    ]


def _spectrum(L, *extra):
    return ["spectrum", "--lower", f"0,{L}", "--upper", f"1,{L}", *extra]


# (name, argv, edit of the data copy or None)
CASES = [
    ("version", ["--version"], None),
    *_levels(0, 0), *_levels(0, 1), *_levels(1, 2), *_levels(1, 3),
    *[(f"spectrum-L0-{fmt}", _spectrum(0, "--format", fmt), None)
      for fmt in ("table", "csv", "json")],
    ("spectrum-L1-json-absolute", _spectrum(1, "--format", "json", "--absolute"), None),
    ("spectrum-L2-table-absolute", _spectrum(2, "--absolute"), None),
    ("spectrum-L3-csv-absolute-one-pol",
     _spectrum(3, "--format", "csv", "--absolute", "--pol", "spsm"), None),
    ("spectrum-L3-table-all-pols", _spectrum(3, "--pol", ALL_TOKENS), None),
    ("rate", RATE, None),
    ("rate-transverse", [*RATE, "--transverse"], None),
    ("cavity", ["cavity", "--reflectivity", "0.98", "--losses", "0.001"], None),
    ("validate", ["validate"], None),
    ("validate-two-checks", ["validate", "--check", "tensor-coefficients",
                             "--check", "even-levels"], None),
    ("validate-data-copy", ["validate", "--data-dir", DATA], None),
    # usage errors: exit 1
    ("usage-no-command", [], None),
    ("usage-unknown-command", ["frobnicate"], None),
    ("usage-unknown-option", ["levels", "--v", "0", "--L", "1", "--bogus"], None),
    ("usage-levels-missing-L", ["levels", "--v", "0"], None),
    ("usage-levels-non-integer", ["levels", "--v", "x", "--L", "1"], None),
    ("usage-levels-negative", ["levels", "--v", "0", "--L=-1"], None),
    ("usage-levels-format", ["levels", "--v", "0", "--L", "1", "--format", "xml"], None),
    ("usage-spectrum-level-syntax", ["spectrum", "--lower", "0:1", "--upper", "1,1"], None),
    ("usage-spectrum-negative-level", ["spectrum", "--lower", "0,-1", "--upper", "1,1"], None),
    ("usage-spectrum-pol-token", _spectrum(1, "--pol", "left"), None),
    ("usage-spectrum-repeated-pol", _spectrum(3, "--pol", "pipi,smsp,PIPI"), None),
    ("usage-rate-zero-waist", [*RATE, "--waist", "0"], None),
    ("usage-rate-nan-qsq", [*RATE, "--qsq=nan"], None),
    ("usage-rate-inf-power", [*RATE, "--power=inf"], None),
    ("usage-rate-overflow", [*RATE, "--waist=1e-200"], None),
    ("usage-rate-not-a-float", [*RATE, "--power", "abc"], None),
    ("usage-cavity-reflectivity", ["cavity", "--reflectivity", "1.5", "--losses", "0"], None),
    ("usage-cavity-nan", ["cavity", "--reflectivity=nan", "--losses", "0"], None),
    ("usage-cavity-no-transmission",
     ["cavity", "--reflectivity", "0.5", "--losses", "0.5"], None),
    ("usage-cavity-negative-transmission",
     ["cavity", "--reflectivity", "0.6", "--losses", "0.5"], None),
    ("usage-validate-unknown-check", ["validate", "--check", "bogus"], None),
    ("usage-validate-repeated-check",
     ["validate", "--check", "spectra", "--check", "spectra"], None),
    # data errors: exit 2
    ("data-unknown-level", ["levels", "--v", "7", "--L", "0"], None),
    ("data-unknown-transition", ["spectrum", "--lower", "0,1", "--upper", "1,3"], None),
    ("data-missing-dir", ["levels", "--v", "0", "--L", "1", "--data-dir", f"{TMP}/nope"], None),
    ("data-missing-dir-validate", ["validate", "--data-dir", f"{TMP}/nope"], None),
    ("data-coefficients-syntax", ["levels", "--v", "0", "--L", "1", "--data-dir", DATA],
     _write(COEFFICIENTS, b'{"units": "MHz",')),
    ("data-coefficients-non-utf8", ["levels", "--v", "0", "--L", "1", "--data-dir", DATA],
     _write(COEFFICIENTS, b'{"units": "MHz\xff"}')),
    ("data-orbital-huge-integer", [*_spectrum(1), "--data-dir", DATA],
     _write(ORBITAL, b'{"elements": [' + b"1" * 5000 + b"]}")),
    ("data-reference-deep-nesting", ["validate", "--data-dir", DATA],
     _write("reference/levels_odd.json", b"[" * 100_000 + b"]" * 100_000)),
    ("data-coefficients-list", ["levels", "--v", "0", "--L", "1", "--data-dir", DATA],
     _edit_json(COEFFICIENTS, lambda p: [p])),
    ("data-coefficients-units", ["levels", "--v", "0", "--L", "1", "--data-dir", DATA],
     _edit_json(COEFFICIENTS, lambda p: p.update(units="GHz"))),
    ("data-coefficients-empty", ["levels", "--v", "0", "--L", "1", "--data-dir", DATA],
     _edit_json(COEFFICIENTS, lambda p: p.update(coefficients=[]))),
    ("data-coefficient-nan", ["levels", "--v", "0", "--L", "1", "--data-dir", DATA],
     _edit_json(COEFFICIENTS, lambda p: p["coefficients"][1].update(b_F=float("nan")))),
    ("data-coefficient-missing", ["levels", "--v", "0", "--L", "1", "--data-dir", DATA],
     _edit_json(COEFFICIENTS, lambda p: p["coefficients"][1].pop("c_e") and None)),
    ("data-coefficients-repeated", ["levels", "--v", "0", "--L", "1", "--data-dir", DATA],
     _edit_json(COEFFICIENTS, lambda p: p["coefficients"].append(p["coefficients"][1]))),
    ("data-coefficients-float-level", ["levels", "--v", "0", "--L", "1", "--data-dir", DATA],
     _edit_json(COEFFICIENTS, lambda p: p["coefficients"][1].update(L=1.9))),
    ("data-coefficient-overflow", ["levels", "--v", "0", "--L", "1", "--data-dir", DATA],
     _edit_json(COEFFICIENTS, lambda p: p["coefficients"][1].update(c_I=1.7e308))),
    ("data-line-shift-overflow", [*_spectrum(2), "--data-dir", DATA],
     _edit_json(COEFFICIENTS, _overflow_l2_line_shifts)),
    ("data-orbital-string", [*_spectrum(0), "--data-dir", DATA],
     _edit_json(ORBITAL, lambda p: p["elements"][0].update(Q0="abc"))),
    ("data-orbital-selection-rule", [*_spectrum(0), "--data-dir", DATA],
     _edit_json(ORBITAL, lambda p: p["elements"][0].update(L_prime=1))),
    ("data-orbital-intensity-overflow", [*_spectrum(0, "--format", "csv"), "--data-dir", DATA],
     _edit_json(ORBITAL, lambda p: p["elements"][0].update(Q0=1e200))),
    ("data-orbital-missing", ["validate", "--data-dir", DATA],
     _edit_json(ORBITAL, lambda p: p["elements"].pop(1) and None)),
    ("data-center-missing", [*_spectrum(1, "--absolute"), "--data-dir", DATA],
     _edit_json(CENTERS, lambda p: p["centers"].pop(1) and None)),
    ("data-center-repeated", [*_spectrum(1), "--data-dir", DATA],
     _edit_json(CENTERS, lambda p: p["centers"].append(p["centers"][1]))),
    ("data-reference-even-string", ["validate", "--data-dir", DATA],
     _edit_json("reference/levels_even.json",
                lambda p: p["levels"][2].update(shift_upper_J_MHz="abc"))),
    ("data-reference-odd-missing-c1", ["validate", "--data-dir", DATA],
     _edit_json("reference/levels_odd.json",
                lambda p: p["levels"][0]["states"][0].pop("C1") and None)),
    ("data-reference-line-label", ["validate", "--data-dir", DATA],
     _edit_json("reference/two_photon_lines.json",
                lambda p: p["transitions"][1]["lines"][0].update(J_upper="x/2"))),
    # validation failures: exit 3
    ("validate-unknown-state", ["validate", "--data-dir", DATA],
     _edit_json("reference/levels_odd.json",
                lambda p: p["levels"][0]["states"][0].update(J="9/2"))),
    ("validate-shifted-coefficient", ["validate", "--data-dir", DATA],
     _edit_json(COEFFICIENTS, _scale_c_e)),
    ("validate-truncated-lines", ["validate", "--check", "spectra", "--data-dir", DATA],
     _edit_json("reference/two_photon_lines.json", _keep_four_l3_lines)),
    ("validate-repeated-even-level", ["validate", "--data-dir", DATA],
     _edit_json("reference/levels_even.json",
                lambda p: p["levels"].__setitem__(0, p["levels"][1]))),
]


def run_case(argv, edit, tmp: Path) -> dict:
    """Run `main` on argv with `<TMP>` standing for `tmp`, after copying the
    bundled data to tmp/data and applying `edit` to the copy."""
    shutil.copytree(default_data_dir(), tmp / "data")
    if edit is not None:
        edit(tmp / "data")
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main([arg.replace(TMP, str(tmp)) for arg in argv])
        except SystemExit as exc:  # --version
            code = exc.code
    return {
        "argv": argv,
        "exit": code,
        "stdout": stdout.getvalue().replace(str(tmp), TMP),
        "stderr": stderr.getvalue().replace(str(tmp), TMP),
    }


def test_transcript_holds_every_case():
    transcript = json.loads(TRANSCRIPT_PATH.read_text())
    assert list(transcript) == [name for name, _, _ in CASES]


@pytest.mark.parametrize("name,argv,edit", CASES, ids=[case[0] for case in CASES])
def test_cli_matches_transcript(tmp_path, name, argv, edit):
    expected = json.loads(TRANSCRIPT_PATH.read_text())[name]
    assert run_case(argv, edit, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    transcript = {}
    for name, argv, edit in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            transcript[name] = run_case(argv, edit, Path(tmp))
    TRANSCRIPT_PATH.write_text(json.dumps(transcript, indent=1) + "\n")
