"""Byte-identical `h2plus spectrum` output for the four bundled transitions,
all nine polarization pairs, in every output format.

The files under tests/golden/ were written by the per-pair kernel that
called `averaged_sq_matrix_element` once per line and polarization.  After
an intended change of output, rewrite them with

    PYTHONPATH=src python tests/test_golden_output.py
"""

from pathlib import Path

import pytest

from h2plus.cli import EXIT_OK, main

GOLDEN_DIR = Path(__file__).parent / "golden"
ALL_TOKENS = "smsm,smpi,smsp,pism,pipi,pisp,spsm,sppi,spsp"
EXTENSIONS = {"table": "txt", "csv": "csv", "json": "json"}
CASES = [(L, fmt, False) for L in range(4) for fmt in EXTENSIONS] + [(1, "csv", True)]


def _argv(L, fmt, absolute):
    argv = ["spectrum", "--lower", f"0,{L}", "--upper", f"1,{L}",
            "--pol", ALL_TOKENS, "--format", fmt]
    return argv + ["--absolute"] if absolute else argv


def _golden_path(L, fmt, absolute):
    suffix = "_absolute" if absolute else ""
    return GOLDEN_DIR / f"spectrum_L{L}{suffix}.{EXTENSIONS[fmt]}"


@pytest.mark.parametrize(
    "L,fmt,absolute", CASES, ids=[_golden_path(*case).name for case in CASES]
)
def test_spectrum_output_is_byte_identical(capsys, L, fmt, absolute):
    assert main(_argv(L, fmt, absolute)) == EXIT_OK
    out = capsys.readouterr().out
    assert out.encode("utf-8") == _golden_path(L, fmt, absolute).read_bytes()


if __name__ == "__main__":
    import contextlib
    import io

    for case in CASES:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(_argv(*case)) == EXIT_OK
        _golden_path(*case).write_bytes(buffer.getvalue().encode("utf-8"))
