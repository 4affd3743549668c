"""Data file loading, directory resolution and schema validation."""

import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from h2plus.datafiles import (
    DataError,
    default_data_dir,
    load_center_frequencies,
    load_coefficients,
    load_orbital_elements,
    resolve_data_dir,
    solve_level,
)
from h2plus.hyperfine import RoVibLevel


class TestResolution:
    def test_default_is_bundled(self):
        assert resolve_data_dir() == default_data_dir()

    def test_explicit_wins_over_env(self, tmp_path):
        assert resolve_data_dir(tmp_path) == tmp_path


class TestCoefficients:
    def test_all_shipped_levels_present(self, coefficients):
        expected = {(v, L) for v in (0, 1) for L in (0, 1, 2, 3)}
        assert {(lv.v, lv.L) for lv in coefficients} == expected

    def test_residuals_within_budget(self, coefficients):
        for record in coefficients.values():
            assert record.fit_residual_mhz < 1e-3
            assert record.provenance

    def test_even_levels_use_only_ce(self, coefficients):
        for record in coefficients.values():
            if record.level.L % 2 == 0:
                c = record.coefficients
                assert (c.b_f, c.c_i, c.d1, c.d2) == (0.0, 0.0, 0.0, 0.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_coefficients(tmp_path)

    def test_malformed_json(self, tmp_path):
        (tmp_path / "hyperfine_coefficients.json").write_text("{not json")
        with pytest.raises(DataError, match="cannot read"):
            load_coefficients(tmp_path)

    def test_missing_key(self, tmp_path):
        payload = {"units": "MHz", "coefficients": [{"v": 0, "L": 0}]}
        (tmp_path / "hyperfine_coefficients.json").write_text(json.dumps(payload))
        with pytest.raises(DataError, match="missing key"):
            load_coefficients(tmp_path)

    def test_wrong_units(self, tmp_path):
        payload = {"units": "kHz", "coefficients": []}
        (tmp_path / "hyperfine_coefficients.json").write_text(json.dumps(payload))
        with pytest.raises(DataError, match="units"):
            load_coefficients(tmp_path)


class TestOrbitalElements:
    def test_shipped_transitions(self, orbital_elements):
        keys = {(a.v, a.L, b.v, b.L) for a, b in orbital_elements}
        assert keys == {(0, L, 1, L) for L in range(4)}

    def test_s_band_has_no_rank2(self, orbital_elements):
        orb = orbital_elements[(RoVibLevel(0, 0), RoVibLevel(1, 0))]
        assert orb.q2 == 0.0
        assert orb.q0 == pytest.approx(0.7255)


class TestCenters:
    def test_shipped_values(self, center_frequencies):
        assert center_frequencies[2]["nu_2ph_MHz"] == pytest.approx(32706607.796)
        assert center_frequencies[2]["lambda_um"] == pytest.approx(9.166)
        assert set(center_frequencies) == {0, 1, 2, 3}

    def test_wavelength_consistent_with_frequency(self, center_frequencies):
        c_um_mhz = 299792458.0 * 1e6 / 1e12  # um * MHz
        for entry in center_frequencies.values():
            lam = 299792458.0 / (entry["nu_2ph_MHz"] * 1e6) * 1e6
            assert lam == pytest.approx(entry["lambda_um"], abs=5e-4)


class TestRepeatedRecords:
    @pytest.mark.parametrize(
        "name,key,load,label",
        [
            ("hyperfine_coefficients.json", "coefficients", load_coefficients,
             "(v=0, L=1)"),
            ("orbital_reduced_elements.json", "elements", load_orbital_elements,
             "(0,1)->(1,1)"),
            ("center_frequencies.json", "centers", load_center_frequencies, "L=1"),
        ],
        ids=["coefficients", "orbital", "centers"],
    )
    def test_repeated_record_is_data_error(self, tmp_path, name, key, load, label):
        workdir = tmp_path / "data"
        shutil.copytree(default_data_dir(), workdir)
        path = workdir / name
        payload = json.loads(path.read_text())
        payload[key].append(dict(payload[key][1]))
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=rf"{name}: repeated record for {re.escape(label)}$"):
            load(workdir)


class TestSolveLevel:
    def test_even_and_odd_dispatch(self, coefficients):
        even = solve_level(0, 2, coefficients=coefficients)
        odd = solve_level(0, 3, coefficients=coefficients)
        assert len(even.states) == 2
        assert len(odd.states) == 6

    def test_unknown_level(self, coefficients):
        with pytest.raises(DataError, match="available"):
            solve_level(4, 0, coefficients=coefficients)


class TestReferenceData:
    def test_even_reference_rows(self, reference_levels_even):
        assert len(reference_levels_even) == 4

    def test_odd_reference_solutions(self, reference_levels_odd):
        assert len(reference_levels_odd) == 4
        by_level = {(s.level.v, s.level.L): s for s in reference_levels_odd}
        assert len(by_level[(0, 1)].states) == 5
        assert len(by_level[(0, 3)].states) == 6

    def test_line_tables_complete(self, reference_lines):
        counts = {t["L_lower"]: len(t["lines"]) for t in reference_lines}
        assert counts == {0: 1, 1: 25, 2: 4, 3: 36}


class TestCorruptionDetection:
    def test_perturbed_coefficient_fails_validation(self, tmp_path):
        from h2plus.validate import run_checks

        workdir = tmp_path / "data"
        shutil.copytree(default_data_dir(), workdir)
        path = workdir / "hyperfine_coefficients.json"
        payload = json.loads(path.read_text())
        for record in payload["coefficients"]:
            if (record["v"], record["L"]) == (0, 1):
                record["b_F"] += 0.5  # half a MHz of corruption
        path.write_text(json.dumps(payload))
        results = {r.name: r for r in run_checks(["odd-levels"], data_dir=workdir)}
        assert not results["odd-levels"].passed


class TestValidateReads:
    """One `run_checks` call reads each data file once."""

    @staticmethod
    def _reads(monkeypatch, names, data_dir) -> Counter:
        from h2plus import datafiles
        from h2plus.validate import run_checks

        reads = Counter()
        read_json = datafiles._read_json

        def counting(path):
            reads[path] += 1
            return read_json(path)

        monkeypatch.setattr(datafiles, "_read_json", counting)
        run_checks(names, data_dir=data_dir)
        return reads

    def test_each_file_read_once(self, monkeypatch, tmp_path):
        workdir = tmp_path / "data"
        shutil.copytree(default_data_dir(), workdir)
        reads = self._reads(monkeypatch, None, workdir)
        bundled = default_data_dir()
        expected = [
            workdir / "hyperfine_coefficients.json",
            workdir / "orbital_reduced_elements.json",
            workdir / "center_frequencies.json",
            workdir / "reference" / "levels_even.json",
            workdir / "reference" / "levels_odd.json",
            workdir / "reference" / "two_photon_lines.json",
            bundled / "orbital_reduced_elements.json",
            bundled / "center_frequencies.json",
        ]
        assert reads == Counter(expected)

    def test_default_data_read_once(self, monkeypatch):
        reads = self._reads(monkeypatch, None, None)
        bundled = default_data_dir()
        expected = [
            bundled / "hyperfine_coefficients.json",
            bundled / "orbital_reduced_elements.json",
            bundled / "center_frequencies.json",
            bundled / "reference" / "levels_even.json",
            bundled / "reference" / "levels_odd.json",
            bundled / "reference" / "two_photon_lines.json",
        ]
        assert reads == Counter(expected)

    def test_tensor_check_reads_nothing(self, monkeypatch):
        assert self._reads(monkeypatch, ["tensor-coefficients"], None) == Counter()

    def test_each_level_solved_once(self, monkeypatch):
        from h2plus import datafiles
        from h2plus.validate import run_checks

        solves = Counter()
        solve = datafiles.solve_level

        def counting(v, L, coefficients=None):
            solves[v, L] += 1
            return solve(v, L, coefficients=coefficients)

        monkeypatch.setattr(datafiles, "solve_level", counting)
        assert all(result.passed for result in run_checks())
        assert solves == Counter({(v, L): 1 for v in (0, 1) for L in range(4)})


class TestBuildScript:
    """scripts/build_coefficients.py writes the data file only when run
    without arguments; it runs from a copy so the shipped file is never at
    stake."""

    @staticmethod
    def _copy(tmp_path):
        repo = Path(__file__).resolve().parents[1]
        for name in ("scripts", "src"):
            shutil.copytree(repo / name, tmp_path / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        return tmp_path / "src" / "h2plus" / "data" / "hyperfine_coefficients.json"

    @staticmethod
    def _run(tmp_path, argv, env=None):
        return subprocess.run(
            [sys.executable, str(tmp_path / "scripts" / "build_coefficients.py"), *argv],
            capture_output=True, text=True, timeout=120, env=env,
        )

    @pytest.mark.parametrize("argv,code", [(["--help"], 0), (["--bogus"], 2), (["--check"], 0)])
    def test_arguments_never_overwrite(self, tmp_path, argv, code):
        target = self._copy(tmp_path)
        before = target.read_bytes()
        proc = self._run(tmp_path, argv)
        assert proc.returncode == code, proc.stderr
        assert target.read_bytes() == before

    def test_check_fails_on_an_edited_coefficient(self, tmp_path):
        target = self._copy(tmp_path)
        payload = json.loads(target.read_text())
        record = next(r for r in payload["coefficients"] if (r["v"], r["L"]) == (1, 3))
        record["d_1"] *= 1 + 1e-5
        edited = json.dumps(payload, indent=1) + "\n"
        target.write_text(edited)
        proc = self._run(tmp_path, ["--check"])
        assert proc.returncode == 1, proc.stdout + proc.stderr
        failed = re.findall(r"\(v=(\d), L=(\d)\): worst relative deviation \S+ FAIL",
                            proc.stdout)
        assert failed == [("1", "3")], proc.stdout
        assert target.read_text() == edited

    @pytest.mark.parametrize("edited", [False, True], ids=["missing", "edited"])
    def test_check_ignores_the_data_dir_variable(self, tmp_path, edited):
        # the references are the checkout's own, wherever H2PLUS_DATA_DIR points
        target = self._copy(tmp_path / "repo")
        elsewhere = tmp_path / "elsewhere"
        if edited:
            shutil.copytree(target.parent, elsewhere)
            reference = elsewhere / "reference" / "levels_odd.json"
            reference.write_text(reference.read_text().replace('"C1"', '"C_1"', 1))
        before = target.read_bytes()
        proc = self._run(tmp_path / "repo", ["--check"],
                         env=dict(os.environ, H2PLUS_DATA_DIR=str(elsewhere)))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert target.read_bytes() == before

    @pytest.mark.parametrize("argv", [[], ["--check"]])
    def test_unreadable_reference_exits_1(self, tmp_path, argv):
        target = self._copy(tmp_path)
        before = target.read_bytes()
        reference = target.parent / "reference" / "levels_odd.json"
        reference.write_text(reference.read_text().replace('"C1"', '"C_1"', 1))
        proc = self._run(tmp_path, argv)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert target.read_bytes() == before
