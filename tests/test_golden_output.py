"""Byte-identical `h2plus spectrum` output for the four bundled transitions,
all nine polarization pairs, in every output format, plus the absolute
frequency column in CSV and JSON and an unsorted token list.

The files under tests/golden/ were written by the per-pair kernel that
called `averaged_sq_matrix_element` once per line and polarization, and by
the `json.dumps`/`csv.writer` renderers.  After an intended change of
output, rewrite them with

    PYTHONPATH=src python tests/test_golden_output.py
"""

from pathlib import Path

import pytest

from h2plus.cli import EXIT_OK, main

GOLDEN_DIR = Path(__file__).parent / "golden"
ALL_TOKENS = "smsm,smpi,smsp,pism,pipi,pisp,spsm,sppi,spsp"
UNSORTED_TOKENS = "smsp,pipi,spsp"
EXTENSIONS = {"table": "txt", "csv": "csv", "json": "json"}

# (golden file name, L, format, --pol, --absolute)
CASES = [
    (f"spectrum_L{L}.{EXTENSIONS[fmt]}", L, fmt, ALL_TOKENS, False)
    for L in range(4)
    for fmt in EXTENSIONS
] + [
    ("spectrum_L1_absolute.csv", 1, "csv", ALL_TOKENS, True),
    ("spectrum_L1_absolute.json", 1, "json", ALL_TOKENS, True),
    ("spectrum_L3_unsorted_pols.csv", 3, "csv", UNSORTED_TOKENS, False),
    ("spectrum_L3_unsorted_pols.json", 3, "json", UNSORTED_TOKENS, False),
]


def _argv(L, fmt, pols, absolute):
    argv = ["spectrum", "--lower", f"0,{L}", "--upper", f"1,{L}",
            "--pol", pols, "--format", fmt]
    return argv + ["--absolute"] if absolute else argv


@pytest.mark.parametrize(
    "name,L,fmt,pols,absolute", CASES, ids=[case[0] for case in CASES]
)
def test_spectrum_output_is_byte_identical(capsys, name, L, fmt, pols, absolute):
    assert main(_argv(L, fmt, pols, absolute)) == EXIT_OK
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    import contextlib
    import io

    for name, *case in CASES:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(_argv(*case)) == EXIT_OK
        (GOLDEN_DIR / name).write_bytes(buffer.getvalue().encode("utf-8"))
