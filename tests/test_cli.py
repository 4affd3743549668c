"""Command-line interface: outputs, exit codes, determinism."""

import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from h2plus.cli import EXIT_DATA, EXIT_OK, EXIT_PIPE, EXIT_USAGE, EXIT_VALIDATION, main
from h2plus.datafiles import default_data_dir
from h2plus.validate import run_checks


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLevels:
    def test_odd_level_table(self, capsys):
        code, out, _ = run(capsys, "levels", "--v", "0", "--L", "1")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert "(v=0, L=1), I=1" in lines[0]
        assert len(lines) == 2 + 5
        assert "474.1063" in out
        assert "-930.4332" in out
        assert "0.015612" in out

    def test_l0_single_unshifted_row(self, capsys):
        code, out, _ = run(capsys, "levels", "--v", "0", "--L", "0")
        assert code == EXIT_OK
        rows = out.splitlines()[2:]
        assert len(rows) == 1
        assert "0.0000" in rows[0]

    def test_negative_l_is_usage_error(self, capsys):
        code, _, err = run(capsys, "levels", "--v", "0", "--L=-1")
        assert code == EXIT_USAGE
        assert "non-negative" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "levels", "--v", "1", "--L", "3", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["I"] == 1
        assert len(payload["states"]) == 6
        assert payload["states"][0]["shift_MHz"] == pytest.approx(492.3817, abs=1e-4)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "levels", "--v", "0", "--L", "2", "--format", "csv")
        assert code == EXIT_OK
        rows = out.splitlines()
        assert rows[0] == "v,L,F_tilde,J,shift_MHz,C1,C3"
        assert len(rows) == 3

    def test_missing_coefficients_is_data_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "levels", "--v", "0", "--L", "1", "--data-dir", str(tmp_path)
        )
        assert code == EXIT_DATA
        assert "data error" in err

    def test_unknown_level_is_data_error(self, capsys):
        code, _, err = run(capsys, "levels", "--v", "7", "--L", "0")
        assert code == EXIT_DATA
        assert "available" in err


class TestSpectrum:
    def test_csv_matches_published_rows(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--lower", "0,2", "--upper", "1,2", "--format", "csv",
            "--pol", "pipi,spsp,spsm",
        )
        assert code == EXIT_OK
        rows = out.splitlines()
        assert rows[0].startswith("L,v,F_lower,J_lower,")
        assert len(rows) == 1 + 4
        assert rows[1].split(",")[6] == "-50.7600"

    def test_single_dark_polarization(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--lower", "0,0", "--upper", "1,0",
            "--pol", "spsp", "--format", "csv",
        )
        assert code == EXIT_OK
        rows = out.splitlines()
        assert len(rows) == 2
        assert rows[1].endswith("0.000e+00")

    def test_unavailable_transition_is_data_error(self, capsys):
        code, _, err = run(capsys, "spectrum", "--lower", "0,1", "--upper", "1,3")
        assert code == EXIT_DATA
        assert "no orbital elements" in err

    def test_level_without_coefficients_is_data_error(self, capsys, tmp_path):
        workdir = tmp_path / "data"
        shutil.copytree(default_data_dir(), workdir)
        path = workdir / "hyperfine_coefficients.json"
        payload = json.loads(path.read_text())
        payload["coefficients"] = [
            r for r in payload["coefficients"] if (r["v"], r["L"]) != (1, 1)
        ]
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "spectrum", "--lower", "0,1", "--upper", "1,1",
                           "--data-dir", str(workdir))
        assert code == EXIT_DATA
        assert "no hyperfine coefficients for (v=1, L=1)" in err

    def test_bad_level_syntax_is_usage_error(self, capsys):
        code, _, err = run(capsys, "spectrum", "--lower", "0:1", "--upper", "1,1")
        assert code == EXIT_USAGE

    def test_bad_polarization_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "spectrum", "--lower", "0,1", "--upper", "1,1", "--pol", "left"
        )
        assert code == EXIT_USAGE
        assert "polarization" in err

    def test_absolute_column_uses_center(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--lower", "0,0", "--upper", "1,0",
            "--format", "csv", "--absolute",
        )
        assert code == EXIT_OK
        rows = out.splitlines()
        assert rows[0].endswith("absolute_f_MHz")
        assert rows[1].endswith("32844161.8440")

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--lower", "0,3", "--upper", "1,3", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["lines"]) == 36

    def test_byte_identical_reruns(self, capsys):
        args = ("spectrum", "--lower", "0,1", "--upper", "1,1", "--format", "csv")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize("pols", ["pipi,pipi", "pipi,smsp,pipi", "spsm,SPSM"])
    def test_repeated_polarization_is_usage_error(self, capsys, pols):
        code, out, err = run(
            capsys, "spectrum", "--lower", "0,3", "--upper", "1,3", "--pol", pols,
            "--format", "csv",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "repeated polarization token" in err


RATE_FLAGS = {"--power": "10", "--waist": "1e-3", "--linewidth": "2600", "--qsq": "0.02"}


class TestRateAndCavity:
    def test_rate_output(self, capsys):
        code, out, _ = run(
            capsys, "rate", "--power", "10", "--waist", "1e-3",
            "--linewidth", "2600", "--qsq", "0.02",
        )
        assert code == EXIT_OK
        assert "6.3662e+06" in out
        assert "0.6885 1/s" in out

    def test_rate_transverse(self, capsys):
        code, out, _ = run(
            capsys, "rate", "--power", "10", "--waist", "1e-3",
            "--linewidth", "2600", "--qsq", "0.2", "--transverse",
        )
        assert code == EXIT_OK
        assert "transverse-field split" in out
        assert "1.7214 1/s" in out

    def test_rate_invalid_usage(self, capsys):
        code, _, err = run(
            capsys, "rate", "--power", "10", "--waist", "0",
            "--linewidth", "2600", "--qsq", "0.02",
        )
        assert code == EXIT_USAGE

    def test_cavity_output(self, capsys):
        code, out, _ = run(capsys, "cavity", "--reflectivity", "0.98", "--losses", "0.001")
        assert code == EXIT_OK
        assert "0.9025" in out
        assert "40.36 dB" in out

    def test_cavity_invalid(self, capsys):
        code, _, err = run(capsys, "cavity", "--reflectivity", "1.5", "--losses", "0.0")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command,flag",
        [("rate", flag) for flag in ("--power", "--waist", "--linewidth", "--qsq")]
        + [("cavity", flag) for flag in ("--reflectivity", "--losses")],
    )
    def test_non_finite_float_is_usage_error(self, capsys, command, flag, value):
        valid = {
            "rate": {"--power": "10", "--waist": "1e-3", "--linewidth": "2600", "--qsq": "0.02"},
            "cavity": {"--reflectivity": "0.98", "--losses": "0.001"},
        }[command]
        argv = [command] + [f"{name}={value if name == flag else default}"
                            for name, default in valid.items()]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"--waist": "1e-200"},
            {"--power": "1e200"},
            {"--power": "1e308", "--waist": "1e-10"},
            {"--linewidth": "1e-310"},
        ],
        ids=["tiny-waist", "huge-power", "huge-intensity", "tiny-linewidth"],
    )
    def test_overflowing_rate_is_usage_error(self, capsys, overrides):
        flags = {**RATE_FLAGS, **overrides}
        code, out, err = run(capsys, "rate", *(f"{k}={v}" for k, v in flags.items()))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("flag", sorted(RATE_FLAGS))
    @settings(max_examples=100, deadline=None)
    @given(value=st.floats(), transverse=st.booleans())
    @example(value=math.nan, transverse=False)
    @example(value=math.inf, transverse=False)
    @example(value=-math.inf, transverse=True)
    @example(value=5e-324, transverse=False)
    @example(value=-5e-324, transverse=True)
    @example(value=1e308, transverse=False)
    @example(value=-1e308, transverse=True)
    def test_any_rate_float_exits_cleanly(self, flag, value, transverse):
        flags = {**RATE_FLAGS, flag: repr(value)}
        argv = ["rate", *(f"{k}={v}" for k, v in flags.items())]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv + (["--transverse"] if transverse else []))
        out, err = stdout.getvalue(), stderr.getvalue()
        assert code in (EXIT_OK, EXIT_USAGE)
        if code == EXIT_OK:
            assert "inf" not in out and "nan" not in out
        else:
            assert out == "" and err.startswith("error: ")


def _drop_c1(payload):
    del payload["levels"][0]["states"][0]["C1"]


def _overflow_l2_line_shifts(payload):
    """Finite c_e whose (0,2)->(1,2) line shifts exceed the float range."""
    for record in payload["coefficients"]:
        if record["L"] == 2:
            record["c_e"] = 1e308 if record["v"] else -1e308


class TestMalformedData:
    @pytest.mark.parametrize(
        "name,corrupt,argv",
        [
            ("hyperfine_coefficients.json",
             lambda p: p["coefficients"][1].update(b_F=float("nan")),
             ["levels", "--v", "0", "--L", "1"]),
            ("hyperfine_coefficients.json", lambda p: [p],
             ["levels", "--v", "0", "--L", "1"]),
            ("orbital_reduced_elements.json", lambda p: p["elements"][0].update(Q0="abc"),
             ["spectrum", "--lower", "0,0", "--upper", "1,0"]),
            ("orbital_reduced_elements.json",
             lambda p: p["elements"][1].update(Q2=float("nan")),
             ["spectrum", "--lower", "0,1", "--upper", "1,1"]),
            ("orbital_reduced_elements.json", lambda p: p["elements"][0].update(L_prime=1),
             ["spectrum", "--lower", "0,0", "--upper", "1,0"]),
            ("center_frequencies.json", lambda p: p["centers"].__setitem__(0, [1, 2]),
             ["spectrum", "--lower", "0,0", "--upper", "1,0", "--absolute"]),
            ("center_frequencies.json", lambda p: p["centers"][0].update(L=[1, 2]),
             ["spectrum", "--lower", "0,0", "--upper", "1,0", "--absolute"]),
            ("reference/levels_odd.json", _drop_c1, ["validate"]),
            ("orbital_reduced_elements.json", lambda p: p["elements"][0].update(v_prime=0),
             ["spectrum", "--lower", "0,0", "--upper", "0,0"]),
            ("hyperfine_coefficients.json",
             lambda p: p["coefficients"].append(
                 dict(p["coefficients"][1], b_F=p["coefficients"][1]["b_F"] + 100.0)),
             ["levels", "--v", "0", "--L", "1"]),
            ("orbital_reduced_elements.json",
             lambda p: p["elements"].append(dict(p["elements"][1])),
             ["spectrum", "--lower", "0,1", "--upper", "1,1"]),
            ("center_frequencies.json", lambda p: p["centers"].append(dict(p["centers"][1])),
             ["spectrum", "--lower", "0,1", "--upper", "1,1"]),
        ],
        ids=["coefficient-nan", "coefficients-top-level-list", "orbital-string",
             "orbital-nan", "orbital-selection-rule", "center-list-record", "center-list-value",
             "reference-missing-c1", "orbital-same-level", "coefficients-repeated",
             "orbital-repeated", "center-repeated"],
    )
    def test_malformed_value_is_data_error(self, capsys, tmp_path, name, corrupt, argv):
        self._assert_data_error(capsys, tmp_path, name, corrupt, argv)

    @pytest.mark.parametrize(
        "name,corrupt",
        [
            ("levels_even.json", lambda p: p["levels"][2].update(shift_upper_J_MHz="abc")),
            ("levels_even.json", lambda p: p["levels"][2].update(shift_lower_J_MHz=math.nan)),
            ("levels_even.json", lambda p: p["levels"][0].update(L=-2)),
            ("levels_even.json", lambda p: p["levels"].__setitem__(0, [0, 0])),
            ("two_photon_lines.json", lambda p: p["transitions"].__setitem__(0, 5)),
            ("two_photon_lines.json", lambda p: p["transitions"][0].update(L_lower="x")),
            ("two_photon_lines.json", lambda p: p["transitions"][0].pop("lines") and None),
            ("two_photon_lines.json",
             lambda p: p["transitions"][1]["lines"][0].update(delta_f_MHz="abc")),
            ("two_photon_lines.json", lambda p: p["transitions"][1]["lines"][0].update(F_lower=0.5)),
            ("two_photon_lines.json", lambda p: p["transitions"][1]["lines"][0].update(J_upper="x/2")),
            ("two_photon_lines.json",
             lambda p: p["transitions"][1]["lines"][0].update(intensity=[0.1])),
            ("two_photon_lines.json",
             lambda p: p["transitions"][1]["lines"][0]["intensity"].update(pipi="abc")),
            ("two_photon_lines.json",
             lambda p: p["transitions"][1]["lines"][0]["intensity"].update(spsm=math.nan)),
        ],
        ids=["even-shift-string", "even-shift-nan", "even-negative-L", "even-list-record",
             "transition-number", "transition-level-string", "transition-missing-lines",
             "line-shift-string", "line-label-number", "line-label-malformed",
             "line-intensity-list", "line-intensity-string", "line-intensity-nan"],
    )
    def test_malformed_reference_value_is_data_error(self, capsys, tmp_path, name, corrupt):
        self._assert_data_error(capsys, tmp_path, f"reference/{name}", corrupt, ["validate"])

    @pytest.mark.parametrize("value", [1.9, "1", True], ids=["float", "string", "bool"])
    @pytest.mark.parametrize(
        "name,corrupt,argv",
        [
            ("orbital_reduced_elements.json",
             lambda p, x: p["elements"][1].update(L=x, L_prime=x),
             ["spectrum", "--lower", "0,1", "--upper", "1,1"]),
            ("hyperfine_coefficients.json", lambda p, x: p["coefficients"][1].update(L=x),
             ["levels", "--v", "0", "--L", "1"]),
            ("center_frequencies.json", lambda p, x: p["centers"][1].update(L=x),
             ["spectrum", "--lower", "0,1", "--upper", "1,1", "--absolute"]),
        ],
        ids=["orbital", "coefficients", "center"],
    )
    def test_non_integer_level_is_data_error(self, capsys, tmp_path, name, corrupt, argv, value):
        self._assert_data_error(capsys, tmp_path, name, lambda p: corrupt(p, value), argv)

    @pytest.mark.parametrize(
        "name,corrupt,argv,where",
        [
            ("orbital_reduced_elements.json", lambda p: p["elements"][0].update(Q0=1e200),
             ["spectrum", "--lower", "0,0", "--upper", "1,0", "--format", "csv"],
             "(0,0)->(1,0)"),
            ("orbital_reduced_elements.json", lambda p: p["elements"][0].update(Q0=1e200),
             ["validate"], "(0,0)->(1,0)"),
            ("hyperfine_coefficients.json", lambda p: p["coefficients"][1].update(c_I=1.7e308),
             ["levels", "--v", "0", "--L", "1"], "(v=0, L=1)"),
            ("hyperfine_coefficients.json", lambda p: p["coefficients"][1].update(c_I=1.7e308),
             ["spectrum", "--lower", "0,1", "--upper", "1,1", "--format", "csv"], "(v=0, L=1)"),
            ("hyperfine_coefficients.json", _overflow_l2_line_shifts,
             ["spectrum", "--lower", "0,2", "--upper", "1,2"], "(0,2)->(1,2)"),
        ],
        ids=["orbital-spectrum", "orbital-validate", "coefficients-levels",
             "coefficients-spectrum", "coefficients-line-shift"],
    )
    def test_out_of_range_value_is_data_error(self, capsys, tmp_path, name, corrupt, argv, where):
        """Finite data that drive a shift, mixing or intensity out of float
        range exit 2 naming the file and the level or transition."""
        err = self._assert_data_error(capsys, tmp_path, name, corrupt, argv)
        assert where in err

    @pytest.mark.parametrize(
        "name,content,argv",
        [
            ("hyperfine_coefficients.json", b'{"units": "MHz\xff"}',
             ["levels", "--v", "0", "--L", "1"]),
            ("orbital_reduced_elements.json", b'{"elements": [' + b"1" * 5000 + b"]}",
             ["spectrum", "--lower", "0,1", "--upper", "1,1"]),
            ("reference/levels_odd.json", b"[" * 100_000 + b"]" * 100_000, ["validate"]),
        ],
        ids=["non-utf8", "huge-integer", "deep-nesting"],
    )
    def test_unparsable_file_is_data_error(self, capsys, tmp_path, name, content, argv):
        workdir = tmp_path / "data"
        shutil.copytree(default_data_dir(), workdir)
        (workdir / name).write_bytes(content)
        code, out, err = run(capsys, *argv, "--data-dir", str(workdir))
        assert (code, out) == (EXIT_DATA, "")
        assert err.startswith(f"data error: cannot read {workdir / name}: ")

    @staticmethod
    def _assert_data_error(capsys, tmp_path, name, corrupt, argv):
        workdir = tmp_path / "data"
        shutil.copytree(default_data_dir(), workdir)
        path = workdir / name
        payload = json.loads(path.read_text())
        payload = corrupt(payload) or payload
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, *argv, "--data-dir", str(workdir))
        assert code == EXIT_DATA
        assert err.startswith("data error: ")
        assert name.split("/")[-1] in err
        assert "Traceback" not in err
        return err


class TestValidate:
    def test_default_data_passes(self, capsys):
        code, out, _ = run(capsys, "validate")
        assert code == EXIT_OK
        assert "all 6 checks passed" in out
        assert out.count("PASS") == 6

    def test_check_filter(self, capsys):
        code, out, _ = run(capsys, "validate", "--check", "tensor-coefficients")
        assert code == EXIT_OK
        assert "all 1 checks passed" in out

    def test_unknown_check_is_usage_error(self, capsys):
        code, out, err = run(capsys, "validate", "--check", "bogus")
        assert code == EXIT_USAGE
        assert out == ""
        assert "bogus" in err
        for name in ("even-levels", "odd-levels", "tensor-coefficients", "spectra",
                     "orbital-elements", "center-frequencies"):
            assert name in err

    def test_value_error_inside_a_check_propagates(self, monkeypatch):
        """Only the check names are usage errors: a ValueError raised by a
        check is a fault of the program, not of the command line."""
        from h2plus import validate

        def broken(_active, _bundled):
            raise ValueError("raised inside a check")

        monkeypatch.setitem(validate._CHECKS, "tensor-coefficients", broken)
        with pytest.raises(ValueError, match="raised inside a check"):
            main(["validate", "--check", "tensor-coefficients"])

    def test_repeated_check_is_usage_error(self, capsys):
        code, out, err = run(capsys, "validate", "--check", "spectra", "--check", "spectra")
        assert code == EXIT_USAGE
        assert out == ""
        assert "repeated check" in err

    def test_missing_orbital_elements_is_data_error(self, capsys, tmp_path):
        workdir = tmp_path / "data"
        shutil.copytree(default_data_dir(), workdir)
        path = workdir / "orbital_reduced_elements.json"
        payload = json.loads(path.read_text())
        del payload["elements"][1]
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "validate", "--data-dir", str(workdir))
        assert code == EXIT_DATA
        assert err.startswith("data error: no orbital elements for (0,1)->(1,1); available: ")

    def test_corrupted_data_fails(self, capsys, tmp_path):
        workdir = tmp_path / "data"
        shutil.copytree(default_data_dir(), workdir)
        path = workdir / "hyperfine_coefficients.json"
        payload = json.loads(path.read_text())
        for record in payload["coefficients"]:
            if (record["v"], record["L"]) == (0, 1):
                record["c_e"] *= 1.02
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "validate", "--data-dir", str(workdir))
        assert code == EXIT_VALIDATION
        assert "FAIL" in out

    @pytest.mark.parametrize(
        "name,truncate",
        [
            ("levels_odd.json", lambda p: p["levels"].pop()),
            ("levels_odd.json", lambda p: p["levels"][0]["states"].pop()),
            ("levels_odd.json", lambda p: p["levels"][0]["states"][0].update(J="11/2")),
            ("levels_even.json", lambda p: p["levels"].pop()),
            ("levels_even.json", lambda p: p["levels"][-1].pop("shift_lower_J_MHz")),
            ("two_photon_lines.json", lambda p: p["transitions"].pop(0)),
            ("two_photon_lines.json", lambda p: p["transitions"][-1]["lines"].pop()),
            ("two_photon_lines.json",
             lambda p: p["transitions"][1]["lines"][0]["intensity"].pop("spsp")),
        ],
        ids=["odd-level", "odd-state", "odd-unknown-state", "even-level", "even-shift",
             "transition", "line", "line-token"],
    )
    def test_truncated_or_mismatched_fixture_fails(self, capsys, tmp_path, name, truncate):
        workdir = tmp_path / "data"
        shutil.copytree(default_data_dir(), workdir)
        path = workdir / "reference" / name
        payload = json.loads(path.read_text())
        truncate(payload)
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "validate", "--data-dir", str(workdir))
        assert code == EXIT_VALIDATION
        assert "1 of 6 checks failed" in out

    @pytest.mark.parametrize(
        "name,rows,copied,missing,repeated",
        [
            ("levels_even.json", lambda p: p["levels"], 1,
             "even level (v, L) (0, 0)", "even level (v, L) (1, 0)"),
            ("levels_odd.json", lambda p: p["levels"], 2,
             "odd level (v, L) (0, 1)", "odd level (v, L) (1, 1)"),
            ("two_photon_lines.json", lambda p: p["transitions"][2]["lines"], 1,
             "(0, 1)->(1, 1) line (F, J, F', J') ('3/2', '3/2', '1/2', '3/2')",
             "(0, 1)->(1, 1) line (F, J, F', J') ('3/2', '5/2', '1/2', '3/2')"),
        ],
        ids=["even-level", "odd-level", "line-label"],
    )
    def test_repeated_fixture_row_fails(self, capsys, tmp_path, name, rows, copied, missing,
                                        repeated):
        # Overwriting row 0 with a copy of another keeps the row count, so only
        # a check by key sees that row 0 is gone.
        workdir = tmp_path / "data"
        shutil.copytree(default_data_dir(), workdir)
        path = workdir / "reference" / name
        payload = json.loads(path.read_text())
        rows(payload)[0] = rows(payload)[copied]
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "validate", "--data-dir", str(workdir))
        assert code == EXIT_VALIDATION
        assert "1 of 6 checks failed" in out
        assert f"    reference fixture lacks {missing}\n" in out
        assert f"    reference fixture repeats {repeated} (2 rows)\n" in out

    def test_dropped_details_are_counted(self, capsys, tmp_path):
        # The (0,3)->(1,3) list keeps 4 of its 36 rows: 32 details, 10 printed.
        workdir = tmp_path / "data"
        shutil.copytree(default_data_dir(), workdir)
        path = workdir / "reference" / "two_photon_lines.json"
        payload = json.loads(path.read_text())
        transition = next(t for t in payload["transitions"] if t["L_lower"] == 3)
        del transition["lines"][4:]
        path.write_text(json.dumps(payload))
        (failed,) = run_checks(["spectra"], data_dir=workdir)
        assert len(failed.details) == 32
        code, out, _ = run(capsys, "validate", "--data-dir", str(workdir), "--check", "spectra")
        assert code == EXIT_VALIDATION
        printed = out.splitlines()
        assert printed[1:11] == [f"    {detail}" for detail in failed.details[:10]]
        assert printed[11] == "    ... and 22 more"
        assert printed[12] == "1 of 1 checks failed"

    def test_missing_data_dir_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", "--data-dir", str(tmp_path / "nope"))
        assert code == EXIT_DATA


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_env_var_data_dir(self, capsys, monkeypatch, tmp_path):
        from h2plus.datafiles import DATA_DIR_ENV_VAR

        monkeypatch.setenv(DATA_DIR_ENV_VAR, str(tmp_path))
        code, _, err = run(capsys, "levels", "--v", "0", "--L", "1")
        assert code == EXIT_DATA


SRC_DIR = Path(__file__).resolve().parents[1] / "src"
ALL_TOKENS = "smsm,smpi,smsp,pism,pipi,pisp,spsm,sppi,spsp"


def _env_with_path(*entries):
    path = os.pathsep.join(filter(None, [*entries, str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture(scope="module")
def numpy_blocked_env(tmp_path_factory):
    """An environment whose first PYTHONPATH entry is a `numpy` package
    that raises ImportError, so a process that imports numpy fails."""
    shadow = tmp_path_factory.mktemp("no_numpy")
    (shadow / "numpy").mkdir()
    (shadow / "numpy" / "__init__.py").write_text('raise ImportError("numpy is blocked")\n')
    env = _env_with_path(str(shadow))
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True)
    assert probe.returncode != 0
    return env


NO_NUMPY_ARGV = {
    "levels-table": ["levels", "--v", "0", "--L", "1"],
    "levels-json": ["levels", "--v", "1", "--L", "3", "--format", "json"],
    **{
        f"spectrum-{fmt}": ["spectrum", "--lower", "0,3", "--upper", "1,3",
                            "--pol", ALL_TOKENS, "--format", fmt]
        for fmt in ("table", "csv", "json")
    },
    "validate": ["validate"],
    "rate": ["rate", *(item for pair in RATE_FLAGS.items() for item in pair), "--transverse"],
    "cavity": ["cavity", "--reflectivity", "0.98", "--losses", "0.001"],
}


@pytest.mark.parametrize("argv", NO_NUMPY_ARGV.values(), ids=NO_NUMPY_ARGV.keys())
def test_cli_runs_without_numpy(capsys, numpy_blocked_env, argv):
    proc = subprocess.run([sys.executable, "-m", "h2plus.cli", *argv],
                          env=numpy_blocked_env, capture_output=True)
    assert proc.returncode == EXIT_OK, proc.stderr.decode()
    assert main(argv) == EXIT_OK
    assert proc.stdout == capsys.readouterr().out.encode("utf-8")


# Runs `cli.main` on the arguments and prints the modules loaded.
MODULE_PROBE = (
    "import contextlib, io, sys\n"
    "from h2plus import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert cli.main(sys.argv[1:]) == 0\n"
    "print(' '.join(sys.modules))\n"
)

# Standard-library modules no subcommand needs: code generation of record
# classes (dataclasses and what it imports) and package-resource lookup.
UNNEEDED_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize",
                    "importlib.resources", "zipfile", "tempfile"}


def _modules(*args) -> set[str]:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_env_with_path(), check=True)
    return set(proc.stdout.split())


def _package_modules(*args) -> set[str]:
    return {m for m in _modules(*args) if m.split(".")[0] == "h2plus"}


def test_package_root_loads_no_submodule():
    script = "import sys, h2plus; print(*(m for m in sys.modules if m.startswith('h2plus')))"
    assert _package_modules("-c", script) == {"h2plus"}


@pytest.mark.parametrize("argv", NO_NUMPY_ARGV.values(), ids=NO_NUMPY_ARGV.keys())
def test_subcommand_loads_only_what_it_runs(argv):
    modules = _package_modules("-c", MODULE_PROBE, *argv)
    if argv[0] in ("rate", "cavity"):
        assert modules == {"h2plus", "h2plus.cli", "h2plus.experiment"}
    else:
        assert "h2plus.experiment" not in modules
        assert ("h2plus.validate" in modules) == (argv[0] == "validate")


@pytest.mark.parametrize("argv", NO_NUMPY_ARGV.values(), ids=NO_NUMPY_ARGV.keys())
def test_subcommand_loads_no_unneeded_stdlib(argv):
    """Under `python -S`, since a site-packages .pth file may preload any of
    these modules into every interpreter."""
    assert not _modules("-S", "-c", MODULE_PROBE, *argv) & UNNEEDED_MODULES


@pytest.mark.parametrize("name", ["spectrum-json", "cavity"])
def test_closed_stdout_exits_quietly(name):
    """A reader that closes the pipe at once.  With stdout block-buffered, as
    by default, the L=3 JSON (larger than the buffer) fails inside `print`
    and the short cavity report at the flush `main` does before it returns.
    Both exit 141 with nothing on stderr."""
    env = {k: v for k, v in _env_with_path().items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "h2plus.cli", *NO_NUMPY_ARGV[name]], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_PIPE
    assert err == b""


def test_spectrum_path_loads_no_numpy():
    script = (
        "import sys\n"
        "import h2plus\n"
        "from h2plus.datafiles import load_coefficients, load_orbital_elements, solve_level\n"
        "from h2plus.spectrum import spectrum_to_csv, spectrum_to_json, two_photon_spectrum\n"
        "from h2plus.twophoton import PolarizationPair\n"
        "pols = [PolarizationPair(q1, q2) for q1 in (-1, 0, 1) for q2 in (-1, 0, 1)]\n"
        "coefficients = load_coefficients()\n"
        "for (lower, upper), orb in load_orbital_elements().items():\n"
        "    result = two_photon_spectrum(\n"
        "        solve_level(lower.v, lower.L, coefficients=coefficients),\n"
        "        solve_level(upper.v, upper.L, coefficients=coefficients), orb, pols)\n"
        "    spectrum_to_csv(result)\n"
        "    spectrum_to_json(result)\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_env_with_path(), check=True)
    assert proc.stdout == "False\n"


def test_refit_without_numpy_passes_validate(numpy_blocked_env, tmp_path):
    """The coefficient build script, run from a copy so the shipped file is
    never at stake, fits all eight reference levels with numpy blocked, and
    the data directory it rewrote passes every check."""
    for name in ("scripts", "src"):
        shutil.copytree(SRC_DIR.parent / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    data = tmp_path / "src" / "h2plus" / "data"
    (data / "hyperfine_coefficients.json").unlink()
    proc = subprocess.run([sys.executable, str(tmp_path / "scripts" / "build_coefficients.py")],
                          env=numpy_blocked_env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    records = json.loads((data / "hyperfine_coefficients.json").read_text())["coefficients"]
    assert sorted((r["v"], r["L"]) for r in records) == [
        (v, L) for v in (0, 1) for L in range(4)
    ]
    assert all(result.passed for result in run_checks(data_dir=data))
