import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radapt
from radapt import cli, engine, preset_design, save_design
from radapt.cli import main
from radapt.engine import replicate, replicate_pooled, write_oc_csv
from radapt.outcomes import SCENARIOS, OutcomeModel, load_pilot
from test_core import OLD_FILES

ACCRUED_HEADER = "patient_id,stage,arm_label,delta_y\n"
STAGE1_ROWS = (
    "1,1,C,0.5\n2,1,C,0.1\n3,1,T1,0.4\n4,1,T1,0.0\n5,1,T2,0.35\n6,1,T2,0.9\n"
)
# stage 2 of the accrued file CI's interim steps read, one outcome NA
STAGE2_NA_ROWS = (
    "7,2,C,0.2\n8,2,C,0.6\n9,2,T1,NA\n10,2,T1,0.3\n11,2,T2,0.7\n12,2,T2,0.1\n"
)


def _read_csv(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_simulate_never_imports_scipy_stats(self, tmp_path):
        # a fresh interpreter, so modules other tests imported do not count;
        # with integer priors neither simulate nor interim loads any of scipy
        data = []
        for stage, rows in ((2, STAGE1_ROWS), (3, STAGE1_ROWS + STAGE2_NA_ROWS)):
            data.append(tmp_path / f"accrued_{stage}.csv")
            data[-1].write_text(ACCRUED_HEADER + rows, encoding="utf-8")
        script = (
            "import sys\n"
            "from radapt import PRESET_NAMES, preset_design\n"
            "from radapt.cli import main\n"
            "for design in PRESET_NAMES:\n"
            "    d = preset_design(design)\n"
            "    assert all(float(p).is_integer() for p in d.prior_alpha + d.prior_beta)\n"
            "    code = main(['simulate', '--design', design, '--effects',\n"
            "                 '0,0.3,0.4', '--reps', '1', '--out', sys.argv[1]])\n"
            "    assert code == 0, (design, code)\n"
            "    for stage, data in zip('23', sys.argv[2:]):\n"
            "        code = main(['interim', '--design', design, '--data', data,\n"
            "                     '--next-stage', stage])\n"
            "        assert code == 0, (design, stage, code)\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(radapt.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), *map(str, data)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_half_integer_priors_run(self, tmp_path, capsys):
        # non-integer priors take the quadrature P(best), scipy's path
        design = dataclasses.replace(
            preset_design("unrestricted"), name="halfprior",
            prior_alpha=(0.5, 0.5, 0.5),
        )
        path = tmp_path / "halfprior.json"
        save_design(design, path)
        code = main([
            "simulate", "--design", str(path), "--effects", "0,0.3,0.4",
            "--reps", "40", "--seed", "3", "--out", str(tmp_path / "sim"),
        ])
        assert code == 0
        assert _read_csv(tmp_path / "sim" / "oc_report.csv")
        data = tmp_path / "accrued.csv"
        data.write_text(ACCRUED_HEADER + STAGE1_ROWS + STAGE2_NA_ROWS, encoding="utf-8")
        capsys.readouterr()
        code = main([
            "interim", "--design", str(path), "--data", str(data), "--next-stage", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "posterior T2: Beta(3.5, 2), mean 0.636364" in out
        probs = out.split("randomisation probabilities: ")[1].split("\n")[0]
        assert abs(sum(float(p.split()[1]) for p in probs.split(", ")) - 1) < 1e-5

    def test_global_null_reports_type1_power_na(self, tmp_path, capsys):
        code = main([
            "simulate", "--design", "mapped_alpha", "--scenario", "S1",
            "--reps", "30", "--seed", "7", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed=7" in out
        rows = _read_csv(tmp_path / "oc_report.csv")
        assert rows
        for row in rows:
            assert row["power"] == "NA"
            assert row["type1"] != "NA"
        assert (tmp_path / "adaptability.csv").exists()

    def test_effect_scenario_populates_power(self, tmp_path):
        code = main([
            "simulate", "--design", "mapped_alpha", "--scenario", "S2",
            "--reps", "30", "--seed", "7", "--out", str(tmp_path),
        ])
        assert code == 0
        rows = _read_csv(tmp_path / "oc_report.csv")
        # S2 has a null arm and an effective arm in both strata, so power and
        # the per-arm type-I readout are both defined
        for row in rows:
            assert row["power"] != "NA"
            assert row["null_arm_reject"] != "NA"

    def test_custom_effects_single_stratum(self, tmp_path):
        code = main([
            "simulate", "--design", "fixed_equal", "--effects", "0,0,0.3",
            "--reps", "20", "--seed", "3", "--out", str(tmp_path),
        ])
        assert code == 0
        rows = _read_csv(tmp_path / "oc_report.csv")
        assert len(rows) == 1
        assert rows[0]["scenario"] == "custom"

    def test_design_json_file(self, tmp_path):
        path = tmp_path / "design.json"
        save_design(preset_design("mapped_beta"), path)
        code = main([
            "simulate", "--design", str(path), "--scenario", "S1",
            "--reps", "10", "--seed", "1", "--out", str(tmp_path),
        ])
        assert code == 0

    def test_missing_design_file_names_path(self, tmp_path, capsys):
        code = main([
            "simulate", "--design", "nowhere/missing.json",
            "--reps", "10", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "nowhere/missing.json" in capsys.readouterr().err

    def test_unknown_scenario(self, tmp_path, capsys):
        code = main([
            "simulate", "--design", "fixed_equal", "--scenario", "S99",
            "--reps", "10", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "S99" in capsys.readouterr().err

    def test_bad_effects(self, tmp_path, capsys):
        code = main([
            "simulate", "--design", "fixed_equal", "--effects", "0,0",
            "--reps", "10", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "expected 3 effects" in capsys.readouterr().err

    def test_zero_reps_rejected(self, tmp_path, capsys):
        code = main([
            "simulate", "--design", "mapped_beta", "--scenario", "S4",
            "--reps", "0", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "n_reps must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "calibrate"])
    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_bad_worker_count_rejected(self, command, workers, tmp_path, capsys):
        flags = {
            "simulate": ["--effects", "0,0,0.3"],
            "calibrate": ["--stage", "2", "--grid", "0.5"],
        }[command]
        code = main([
            command, "--design", "mapped_alpha", *flags, "--reps", "20",
            "--workers", workers, "--out", str(tmp_path),
        ])
        assert code == 2
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["simulate", "--design", "mapped_alpha", "--effects", "0,0"],
        ["simulate", "--design", "mapped_alpha", "--effects", "0,0,0.3", "--workers", "0"],
        ["simulate", "--design", "mapped_beta", "--scenario", "S4", "--workers", "0"],
        ["calibrate", "--design", "mapped_alpha", "--stage", "2", "--grid", "0.5",
         "--workers", "0"],
        ["calibrate", "--design", "fixed_equal", "--stage", "2", "--grid", "0.5"],
    ])
    def test_refused_run_makes_no_out_directory(self, args, tmp_path):
        out = tmp_path / "w0"
        assert main([*args, "--reps", "20", "--out", str(out)]) == 2
        assert not out.exists()

    def test_default_fixed_equal_run(self, tmp_path, capsys, monkeypatch):
        # scenario S1, 1000 replicates, seed 0: some replicates leave one
        # stratum without patients on an arm, which the pooled tests absorb
        monkeypatch.delenv("RADAPT_SEED", raising=False)
        code = main(["simulate", "--design", "fixed_equal", "--out", str(tmp_path)])
        assert code == 0
        rows = _read_csv(tmp_path / "oc_report.csv")
        assert [row["stratum"] for row in rows] == ["A", "B", "pooled"]

    def test_rerun_byte_identical(self, tmp_path):
        args = ["simulate", "--design", "mapped_alpha", "--scenario", "S2",
                "--reps", "25", "--seed", "11"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "oc_report.csv").read_bytes() == (b / "oc_report.csv").read_bytes()
        assert (a / "adaptability.csv").read_bytes() == (b / "adaptability.csv").read_bytes()

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RADAPT_SEED", "42")
        code = main([
            "simulate", "--design", "fixed_equal", "--scenario", "S1",
            "--reps", "10", "--out", str(tmp_path),
        ])
        assert code == 0
        assert "seed=42" in capsys.readouterr().out

    def test_env_seed_must_be_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RADAPT_SEED", "abc")
        code = main([
            "simulate", "--design", "fixed_equal", "--reps", "10",
            "--out", str(tmp_path),
        ])
        assert code == 2
        assert "RADAPT_SEED" in capsys.readouterr().err


class TestRefusedBeforeWork:
    """A negative seed and an --out that cannot become a directory exit 2
    with a message naming their source, before any simulation or decision."""

    INTERIM = ["interim", "--design", "mapped_alpha", "--next-stage", "2"]
    RUNS = {
        "simulate": ["simulate", "--design", "mapped_beta", "--scenario", "S4",
                     "--reps", "20"],
        "effects": ["simulate", "--design", "mapped_alpha", "--effects", "0,0,0.3",
                    "--reps", "20"],
        "calibrate": ["calibrate", "--design", "mapped_alpha", "--stage", "2",
                      "--grid", "0.4,0.5", "--reps", "20"],
    }

    @pytest.fixture(autouse=True)
    def _no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("replicate", "replicate_pooled", "calibrate_threshold",
                     "interim_recommendation", "export_list"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.delenv("RADAPT_SEED", raising=False)

    def _argv(self, tmp_path, command):
        if command == "interim":
            data = tmp_path / "accrued.csv"
            data.write_text(ACCRUED_HEADER + STAGE1_ROWS, encoding="utf-8")
            return [*self.INTERIM, "--data", str(data)]
        if command == "genlist":
            return ["genlist", "--design", "permuted_block",
                    "--out", str(tmp_path / "list.csv")]
        return [*self.RUNS[command], "--out", str(tmp_path / "out")]

    @pytest.mark.parametrize(
        "command", ["simulate", "effects", "calibrate", "interim", "genlist"]
    )
    def test_negative_seed_flag(self, command, tmp_path, capsys):
        assert main([*self._argv(tmp_path, command), "--seed", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: --seed must be a non-negative integer, got -3\n"
        )
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            ["accrued.csv"] if command == "interim" else []
        )

    @pytest.mark.parametrize(
        "command", ["simulate", "effects", "calibrate", "interim", "genlist"]
    )
    def test_negative_seed_variable(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RADAPT_SEED", "-1")
        assert main(self._argv(tmp_path, command)) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: RADAPT_SEED must be a non-negative integer, got '-1'\n"
        )
        assert captured.out == ""

    def test_interim_recommendation_refuses_a_negative_seed(self, tmp_path):
        # the mapped stage-2 decision on these records has one option, so it
        # draws no coin: only the explicit check refuses the seed
        design = preset_design("mapped_alpha")
        data = tmp_path / "accrued.csv"
        data.write_text(ACCRUED_HEADER + STAGE1_ROWS, encoding="utf-8")
        records = engine.read_accrued(data, design, upcoming_stage=2)
        assert len(engine.interim_recommendation(design, records, 2).record.options) == 1
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -2$"):
            engine.interim_recommendation(design, records, 2, seed=-2)

    @pytest.mark.parametrize("command", ["simulate", "effects", "calibrate", "interim"])
    @pytest.mark.parametrize("inside", [False, True])
    def test_out_that_is_a_file(self, command, inside, tmp_path, capsys):
        existing = tmp_path / "taken"
        existing.write_text("kept\n", encoding="utf-8")
        out = existing / "sub" if inside else existing
        argv = self._argv(tmp_path, command)
        if "--out" in argv:
            argv = argv[: argv.index("--out")]
        assert main([*argv, "--seed", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --out {out}: {existing} exists and is not a directory\n"
        )
        assert captured.out == ""
        assert existing.read_text(encoding="utf-8") == "kept\n"


PILOT = "delta_y\n0.12\n-0.30\n0.45\n0.05\n0.61\n-0.08\n0.27\n0.33\n"


class TestOutcomeFlags:
    def test_scale_run_matches_replicate_pooled(self, tmp_path):
        args = ["simulate", "--design", "mapped_alpha", "--scenario", "S4",
                "--reps", "300", "--seed", "5"]
        scaled, default = tmp_path / "scaled", tmp_path / "default"
        assert main(args + ["--scale", "0.2", "--out", str(scaled)]) == 0
        assert main(args + ["--out", str(default)]) == 0
        reports = replicate_pooled(
            preset_design("mapped_alpha"), SCENARIOS["S4"], n_reps=300,
            master_seed=5, scale=0.2,
        )
        write_oc_csv(list(reports), tmp_path / "api.csv")
        got = (scaled / "oc_report.csv").read_bytes()
        assert got == (tmp_path / "api.csv").read_bytes()
        assert got != (default / "oc_report.csv").read_bytes()

    def test_pilot_run_matches_replicate(self, tmp_path):
        pilot = tmp_path / "p.csv"
        pilot.write_text(PILOT, encoding="utf-8")
        assert main([
            "simulate", "--design", "mapped_beta", "--effects", "0,0.1,0.3",
            "--pilot", str(pilot), "--reps", "200", "--seed", "9",
            "--out", str(tmp_path / "cli"),
        ]) == 0
        model = OutcomeModel.bootstrap(load_pilot(pilot), (0.0, 0.1, 0.3))
        report = replicate(
            preset_design("mapped_beta"), model, n_reps=200, master_seed=9
        )
        write_oc_csv([report], tmp_path / "api.csv")
        got = (tmp_path / "cli" / "oc_report.csv").read_bytes()
        assert got == (tmp_path / "api.csv").read_bytes()

    def test_pilot_without_effects_refused(self, tmp_path, capsys):
        pilot = tmp_path / "p.csv"
        pilot.write_text(PILOT, encoding="utf-8")
        code = main([
            "simulate", "--design", "mapped_alpha", "--pilot", str(pilot),
            "--reps", "10", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "--pilot applies only to --effects runs" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--design", "mapped_alpha", "--effects", "0,0,0.3"],
        ["--design", "fixed_equal", "--effects", "0,0,0.3"],
        ["--design", "mapped_beta", "--scenario", "S4"],
    ])
    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf"])
    def test_non_finite_scale_refused(self, flags, scale, tmp_path, capsys):
        code = main(["simulate", *flags, f"--scale={scale}", "--reps", "50",
                     "--out", str(tmp_path)])
        assert code == 2
        assert f"scale must be finite and positive, got {scale}" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "oc_report.csv").exists()

    @pytest.mark.parametrize("design", ["fixed_equal", "mapped_alpha"])
    def test_overflowing_scale_refused(self, design, tmp_path, capsys):
        # at 1e308 fixed_equal's outcomes overflowed into an IndexError and
        # mapped_alpha wrote reports built from infinite outcomes
        code = main(["simulate", "--design", design, "--effects", "0,0,0.3",
                     "--reps", "50", "--scale", "1e308", "--out", str(tmp_path)])
        assert code == 2
        assert "--scale must be at most 1e+300" in capsys.readouterr().err
        assert not (tmp_path / "oc_report.csv").exists()

    @pytest.mark.parametrize("design", ["fixed_equal", "mapped_alpha"])
    @pytest.mark.parametrize("seed", ["0", "3"])
    def test_overflowing_effect_refused(self, design, seed, tmp_path, capsys):
        # at 1.7e308 fixed_equal's imputed means overflowed: seed 0 into an
        # IndexError, seed 3 into reports built from infinite means
        code = main(["simulate", "--design", design, "--effects", "0,0,1.7e308",
                     "--case", "4", "--impute-stage2", "--reps", "50",
                     "--seed", seed, "--out", str(tmp_path)])
        assert code == 2
        assert "--effects must be at most 1e+300 in size" in capsys.readouterr().err
        assert not (tmp_path / "oc_report.csv").exists()

    @pytest.mark.parametrize("scale", ["0.05", "nan"])
    def test_scale_with_pilot_refused(self, scale, tmp_path, capsys):
        # the resampling model reads no scale, so a scale would be ignored
        pilot = tmp_path / "p.csv"
        pilot.write_text(PILOT, encoding="utf-8")
        code = main([
            "simulate", "--design", "mapped_alpha", "--effects", "0,0,0.3",
            "--pilot", str(pilot), f"--scale={scale}", "--reps", "50",
            "--out", str(tmp_path),
        ])
        assert code == 2
        assert "--scale does not apply to --pilot runs" in capsys.readouterr().err
        assert not (tmp_path / "oc_report.csv").exists()

    def test_overflowing_pilot_refused(self, tmp_path, capsys):
        # pilot values this large overflowed the imputed means as effects did
        pilot = tmp_path / "p.csv"
        pilot.write_text("delta_y\n0.1\n-1.7e308\n0.2\n", encoding="utf-8")
        code = main([
            "simulate", "--design", "fixed_equal", "--effects", "0,0,0.3",
            "--pilot", str(pilot), "--case", "4", "--impute-stage2",
            "--reps", "50", "--out", str(tmp_path),
        ])
        assert code == 2
        assert f"{pilot}:3: delta_y must be at most 1e+300 in size" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "oc_report.csv").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_pilot_refused(self, bad, tmp_path, capsys):
        pilot = tmp_path / "p.csv"
        pilot.write_text(f"delta_y\n0.1\n{bad}\n0.2\n", encoding="utf-8")
        code = main([
            "simulate", "--design", "mapped_alpha", "--effects", "0,0,0.3",
            "--pilot", str(pilot), "--reps", "50", "--out", str(tmp_path),
        ])
        assert code == 2
        assert f"{pilot}:3: delta_y must be finite: '{bad}'" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "oc_report.csv").exists()


# First 16 hex digits of the SHA-256 of oc_report.csv and adaptability.csv.
# The seeding contract fixes every byte of a report, so an engine change
# that moves one of these has changed the simulated trials.
PINNED_DIGESTS = {
    "fixed_equal": ("66e2c9401ca5ef74", "9428ca165445d77e"),
    "unrestricted": ("53c536cd3d4267b3", "ad579188d58c5deb"),
    "control_protected": ("d9317b47b34e73c8", "aa060b2617f89a94"),
    "baseline": ("d0089f7055be6224", "a52c6079fea542d6"),
    "permuted_block": ("861cfab708fda49b", "db05a02d1cd1e468"),
    "mapped_alpha": ("e6360bf200a4c96f", "ecc60f7e6e97c21f"),
    "mapped_beta": ("6313a3bf43786da5", "e6d58da61dd699af"),
}


def _digests(out):
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
        for name in ("oc_report.csv", "adaptability.csv")
    )


def _bits_digest(arrays) -> str:
    """First 16 hex digits of the SHA-256 of the arrays' float64 bits."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def _record(monkeypatch, name, read, seen):
    """Extend `seen` with read(result) at every call of engine.<name>."""
    original = getattr(engine, name)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.extend(read(result))
        return result

    monkeypatch.setattr(engine, name, recording)


class TestPinnedReports:
    @pytest.mark.parametrize("design", sorted(PINNED_DIGESTS))
    def test_effects_run(self, design, tmp_path, capsys):
        code = main([
            "simulate", "--design", design, "--effects", "0,0.3,0.4",
            "--reps", "200", "--seed", "7", "--workers", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        assert _digests(tmp_path) == PINNED_DIGESTS[design]

    def test_pooled_imputed_run(self, tmp_path, capsys):
        code = main([
            "simulate", "--design", "mapped_beta", "--scenario", "S4", "--case", "4",
            "--impute-stage2", "--reps", "200", "--seed", "7", "--workers", "1",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert _digests(tmp_path) == ("ad7b7b6cb15ce139", "f5e52f13ef2e6326")

    # The CSVs hold rates at alpha, so a wrong p-value or pi shows there
    # only where it crosses alpha or a category cut. These pin the bits of
    # every row's p-values (stratum A, stratum B, then the pooled tests,
    # block by block) and of every row's decision pi, stage by stage.
    def test_pooled_imputed_p_values(self, tmp_path, monkeypatch, capsys):
        seen = []
        _record(monkeypatch, "_conduct_block", lambda block: [block.p_value], seen)
        _record(monkeypatch, "_pooled_tests", lambda tests: [tests[0]], seen)
        code = main([
            "simulate", "--design", "mapped_beta", "--scenario", "S4", "--case", "4",
            "--impute-stage2", "--reps", "200", "--seed", "7", "--workers", "1",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert _bits_digest(seen) == "eb191de6ddbee018"

    @pytest.mark.parametrize("design, digest", [
        ("mapped_alpha", "ab585dee4da045ba"),
        ("unrestricted", "ae7f9ab2da260674"),
    ])
    def test_decision_pi(self, design, digest, tmp_path, monkeypatch, capsys):
        seen = []
        _record(monkeypatch, "_conduct_block", lambda block: [
            table.pi[rows] for table, rows in zip(block.decisions, block.which)
        ], seen)
        code = main([
            "simulate", "--design", design, "--effects", "0,0.3,0.4",
            "--reps", "200", "--seed", "7", "--workers", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        assert _bits_digest(seen) == digest

    # imputation over an i.i.d. stage 1 (fixed_equal) and a block stage 1
    # (mapped_alpha)
    @pytest.mark.parametrize("design, case, digests", [
        ("fixed_equal", "5", ("3d8292bdb4663064", "f2adb02ac4359726")),
        ("mapped_alpha", "1", ("a92db88c826c46e0", "3246451179fe4b6e")),
    ])
    def test_imputed_run(self, design, case, digests, tmp_path, capsys):
        code = main([
            "simulate", "--design", design, "--case", case, "--impute-stage2",
            "--reps", "200", "--seed", "7", "--workers", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        assert _digests(tmp_path) == digests

    # i.i.d. pooled runs: pi-based adaptation rates, tau drops, and the
    # pooled row's type1 / null_arm_reject rules
    @pytest.mark.parametrize("scenario, digests", [
        ("S1", ("fab0a19c60bedfde", "3a005a26224b1fb2")),
        ("S9", ("de8b588801bab967", "f2b708cb86b9d839")),
    ])
    def test_pooled_iid_run(self, scenario, digests, tmp_path, capsys):
        code = main([
            "simulate", "--design", "baseline", "--scenario", scenario,
            "--case", "5", "--reps", "200", "--seed", "7", "--workers", "1",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert _digests(tmp_path) == digests


class TestCalibrate:
    def test_sweep_writes_tradeoff(self, tmp_path, capsys):
        code = main([
            "calibrate", "--design", "mapped_alpha", "--stage", "2",
            "--grid", "0.4,0.5", "--reps", "30", "--seed", "2",
            "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "selected threshold" in out
        lines = (tmp_path / "tradeoff.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "threshold,metric_H0,metric_H1"
        assert len(lines) == 3

    def test_grid_range_form(self, tmp_path):
        code = main([
            "calibrate", "--design", "mapped_alpha", "--stage", "3",
            "--grid", "0.4:0.6:3", "--reps", "20", "--seed", "2",
            "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "tradeoff.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4

    def test_bad_grid(self, tmp_path, capsys):
        code = main([
            "calibrate", "--design", "mapped_alpha", "--stage", "2",
            "--grid", "0.6:0.4:3", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "grid" in capsys.readouterr().err

    def test_unmapped_design_rejected(self, tmp_path, capsys):
        code = main([
            "calibrate", "--design", "fixed_equal", "--stage", "2",
            "--grid", "0.5", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "mapped" in capsys.readouterr().err


class TestInterim:
    def _data(self, tmp_path, body=STAGE1_ROWS):
        path = tmp_path / "accrued.csv"
        path.write_text(ACCRUED_HEADER + body, encoding="utf-8")
        return path

    def test_recommendation_printed_and_logged(self, tmp_path, capsys):
        data = self._data(tmp_path)
        code = main([
            "interim", "--design", "mapped_alpha", "--data", str(data),
            "--next-stage", "2", "--seed", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "stage-2 ratio: 2:2:2" in out
        audit = (tmp_path / "interim_audit.txt").read_text(encoding="utf-8")
        assert "randomisation probabilities" in audit

    def test_unrestricted_audit_of_the_ci_file(self, tmp_path, capsys):
        # the audit of CI's accrued file, pinned byte for byte
        data = self._data(tmp_path, STAGE1_ROWS + STAGE2_NA_ROWS)
        code = main([
            "interim", "--design", "unrestricted", "--data", str(data),
            "--next-stage", "3", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "interim_audit.txt").read_bytes() == (
            b"posterior C: Beta(3, 3), mean 0.500000\n"
            b"posterior T1: Beta(3, 2), mean 0.600000\n"
            b"posterior T2: Beta(4, 2), mean 0.666667\n"
            b"randomisation probabilities: C 0.154845, T1 0.340659, T2 0.504496\n"
            b"stage-3 randomisation is i.i.d. at the probabilities above\n"
        )

    def test_missing_row_triggers_override(self, tmp_path, capsys):
        body = STAGE1_ROWS.replace("3,1,T1,0.4", "3,1,T1,NA")
        data = self._data(tmp_path, body)
        code = main([
            "interim", "--design", "mapped_alpha", "--data", str(data),
            "--next-stage", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "override" in out
        assert "stage-2 ratio: 2:2:2" in out

    def test_malformed_data_names_line(self, tmp_path, capsys):
        data = self._data(tmp_path, "1,1,C,0.5\n2,1,C,oops\n")
        code = main([
            "interim", "--design", "mapped_alpha", "--data", str(data),
            "--next-stage", "2",
        ])
        assert code == 2
        assert ":3" in capsys.readouterr().err

    def test_stage_off_its_planned_size_refused(self, tmp_path, capsys):
        # 7 patients in stage 1, one of them a control, where mapped_alpha
        # plans a 2:2:2 block of 6
        body = (
            "1,1,C,0.5\n2,1,T1,0.1\n3,1,T1,0.4\n4,1,T1,0.0\n"
            "5,1,T2,0.35\n6,1,T2,0.9\n7,1,T2,0.2\n"
        )
        data = self._data(tmp_path, body)
        code = main([
            "interim", "--design", "mapped_alpha", "--data", str(data),
            "--next-stage", "2",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{data}:2: stage 1 has 7 patients, the design plans 6" in err

    def test_short_stage2_names_its_first_line(self, tmp_path, capsys):
        stage2 = "7,2,C,0.2\n8,2,T1,0.3\n9,2,T2,0.1\n"
        data = self._data(tmp_path, STAGE1_ROWS + stage2)
        code = main([
            "interim", "--design", "mapped_alpha", "--data", str(data),
            "--next-stage", "3",
        ])
        assert code == 2
        assert f"{data}:8: stage 2 has 3 patients" in capsys.readouterr().err

    def test_rows_of_the_stage_to_open_refused(self, tmp_path, capsys):
        # two stage-2 successes on T2 would count into the stage-2 interim
        # and print T2's posterior as Beta(5, 1)
        data = self._data(tmp_path, STAGE1_ROWS + "7,2,T2,0.5\n8,2,T2,0.6\n")
        code = main([
            "interim", "--design", "mapped_alpha", "--data", str(data),
            "--next-stage", "2",
        ])
        assert code == 2
        out, err = capsys.readouterr()
        assert f"{data}:8: a stage-2 patient, but the interim before stage 2" in err
        assert "Beta(5, 1)" not in out

    @pytest.mark.parametrize("design", ["mapped_alpha", "baseline"])
    def test_stage1_split_off_its_block_refused(self, design, tmp_path, capsys):
        body = STAGE1_ROWS.replace("4,1,T1,0.0", "4,1,T2,0.0")
        data = self._data(tmp_path, body)
        code = main([
            "interim", "--design", design, "--data", str(data), "--next-stage", "2",
        ])
        assert code == 2
        assert (
            f"{data}:2: stage 1 splits the arms 2:1:3, the design's stage-1 "
            "block is 2:2:2"
        ) in capsys.readouterr().err

    def test_iid_stage1_split_accepted(self, tmp_path, capsys):
        body = STAGE1_ROWS.replace("4,1,T1,0.0", "4,1,T2,0.0")
        code = main([
            "interim", "--design", "control_protected",
            "--data", str(self._data(tmp_path, body)), "--next-stage", "2",
        ])
        assert code == 0

    def test_mapped_control_count_refused(self, tmp_path, capsys):
        stage2 = (
            "7,2,C,0.2\n8,2,C,0.3\n9,2,C,0.1\n"
            "10,2,T1,0.3\n11,2,T2,0.1\n12,2,T2,0.4\n"
        )
        data = self._data(tmp_path, STAGE1_ROWS + stage2)
        code = main([
            "interim", "--design", "mapped_alpha", "--data", str(data),
            "--next-stage", "3",
        ])
        assert code == 2
        assert (
            f"{data}:8: stage 2 has 3 control patients, the design fixes 2"
        ) in capsys.readouterr().err

    def test_stage_without_data(self, tmp_path, capsys):
        data = self._data(tmp_path)
        code = main([
            "interim", "--design", "mapped_alpha", "--data", str(data),
            "--next-stage", "3",
        ])
        assert code == 2
        assert "stage" in capsys.readouterr().err

    def test_absent_earlier_stage_names_the_file(self, tmp_path, capsys):
        stage2 = "".join(
            f"{7 + i},2,{arm},0.3\n"
            for i, arm in enumerate(["C", "C", "T1", "T1", "T2", "T2"])
        )
        data = self._data(tmp_path, stage2)
        code = main([
            "interim", "--design", "mapped_alpha", "--data", str(data),
            "--next-stage", "3",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {data}: accrued data has no patients in stage(s) 1\n"
        )

    def test_permuted_block_stage2_split_refused(self, tmp_path, capsys):
        # every permuted_block stage is planned, stage 2 as 2:2:2
        stage2 = (
            "7,2,C,0.2\n8,2,C,0.3\n9,2,T1,0.1\n"
            "10,2,T2,0.3\n11,2,T2,0.1\n12,2,T2,0.4\n"
        )
        data = self._data(tmp_path, STAGE1_ROWS + stage2)
        code = main([
            "interim", "--design", "permuted_block", "--data", str(data),
            "--next-stage", "3",
        ])
        assert code == 2
        assert (
            f"{data}:8: stage 2 splits the arms 2:1:3, the design's stage-2 "
            "block is 2:2:2"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize("data_file", ["stages_1_2", "absent"])
    @pytest.mark.parametrize("stage", [0, 1, 4])
    def test_next_stage_out_of_range_refused(self, stage, data_file, tmp_path, capsys):
        # refused before the file is read: stage-2 rows must not be blamed
        # on the interim before stage 1, nor a missing stage 3 on stage 4
        if data_file == "absent":
            data = tmp_path / "absent.csv"
        else:
            stage2 = "".join(
                f"{7 + i},2,{arm},0.3\n"
                for i, arm in enumerate(["C", "C", "T1", "T1", "T2", "T2"])
            )
            data = self._data(tmp_path, STAGE1_ROWS + stage2)
        code = main([
            "interim", "--design", "mapped_alpha", "--data", str(data),
            "--next-stage", str(stage),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: upcoming stage must be in 2..3, got {stage}\n"
        )


class TestGenlist:
    def test_predetermined_block_for_mapped_design(self, tmp_path, capsys):
        out = tmp_path / "list.csv"
        code = main([
            "genlist", "--design", "mapped_alpha", "--seed", "5",
            "--out", str(out),
        ])
        assert code == 0
        assert "1 block(s), 6 positions" in capsys.readouterr().out
        rows = _read_csv(out)
        assert len(rows) == 6
        assert sorted(r["arm_label"] for r in rows) == ["C", "C", "T1", "T1", "T2", "T2"]

    def test_full_schedule_for_fixed_permuted_blocks(self, tmp_path, capsys):
        out = tmp_path / "list.csv"
        code = main([
            "genlist", "--design", "permuted_block", "--seed", "5",
            "--out", str(out),
        ])
        assert code == 0
        assert "3 block(s), 20 positions" in capsys.readouterr().out

    def test_explicit_ratios(self, tmp_path):
        out = tmp_path / "list.csv"
        code = main([
            "genlist", "--design", "mapped_alpha", "--seed", "5",
            "--ratio", "2:1:3", "--ratio", "2:3:3", "--stage", "2",
            "--out", str(out),
        ])
        assert code == 0
        rows = _read_csv(out)
        assert [r["stage"] for r in rows] == ["2"] * 6 + ["3"] * 8

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["genlist", "--design", "mapped_alpha", "--seed", "9"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_iid_design_needs_explicit_ratio(self, tmp_path, capsys):
        code = main([
            "genlist", "--design", "fixed_equal", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "--ratio" in capsys.readouterr().err

    @pytest.mark.parametrize("design", ["permuted_block", "mapped_alpha"])
    def test_stage_without_ratio_refused(self, design, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["genlist", "--design", design, "--stage", "3", "--out", str(out)])
        assert code == 2
        assert "--stage" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_ratio(self, tmp_path, capsys):
        code = main([
            "genlist", "--design", "mapped_alpha", "--ratio", "2:3",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "3 entries" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (
                ["--ratio", "1:1:1"],
                "--ratio 1:1:1: stage 1 has 3 patients, the design plans 6",
            ),
            (
                ["--ratio", "2:3:1", "--stage", "3"],
                "--ratio 2:3:1: stage 3 has 6 patients, the design plans 8",
            ),
            (
                ["--ratio", "3:3:0", "--stage", "2"],
                "--ratio 3:3:0: stage 2 has 3 control patients, the design fixes 2",
            ),
            (
                ["--ratio", "1:3:2"],
                "--ratio 1:3:2: stage 1 splits the arms 1:3:2, the design's "
                "stage-1 block is 2:2:2",
            ),
        ],
    )
    def test_ratio_interim_would_refuse(self, flags, message, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["genlist", "--design", "mapped_alpha", *flags, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--design", "permuted_block", "--seed", "11"],
            [
                "--design", "mapped_alpha", "--ratio", "2:1:3", "--ratio", "2:2:4",
                "--stage", "2",
            ],
        ],
        ids=["permuted_block", "mapped_alpha_tail"],
    )
    def test_readme_examples(self, flags, tmp_path):
        assert main(["genlist", *flags, "--out", str(tmp_path / "list.csv")]) == 0


class TestOldDesignFiles:
    def test_readme_old_file_runs_as_the_preset(self, tmp_path, capsys):
        design = tmp_path / "it.json"
        design.write_text(OLD_FILES["mapped_alpha"], encoding="utf-8")
        data = tmp_path / "accrued.csv"
        stage2 = (
            "7,2,C,0.2\n8,2,C,0.6\n9,2,T1,NA\n10,2,T1,0.3\n11,2,T2,0.7\n"
            "12,2,T2,0.1\n"
        )
        data.write_text(ACCRUED_HEADER + STAGE1_ROWS + stage2, encoding="utf-8")
        outputs = []
        for spec in (str(design), "mapped_alpha"):
            out = tmp_path / f"list{len(outputs)}.csv"
            assert main([
                "genlist", "--design", spec, "--ratio", "2:2:2", "--out", str(out),
            ]) == 0
            assert main([
                "interim", "--design", spec, "--data", str(data), "--next-stage", "3",
            ]) == 0
            # the interim audit, after genlist's line naming its file
            audit = capsys.readouterr().out.split("\n", 1)[1]
            outputs.append((out.read_bytes(), audit))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "name,edit,key",
        [
            ("permuted_block", ("mapping", "control_fix", 3), "mapping.control_fix"),
            (
                "mapped_alpha",
                ("stages", 2, "arm_dropping_allowed", False),
                "stages[3].arm_dropping_allowed",
            ),
            ("fixed_equal", ("stages", 0, "control_fix", 5), "stages[1].control_fix"),
            ("mapped_alpha", ("planned_n", 21), "planned_n"),
            ("mapped_alpha", ("arms", 1, "index", 2), "arms[1].index"),
            ("mapped_alpha", ("stages", 1, "stage_index", 3), "stages[2].stage_index"),
        ],
        ids=[
            "mapping_controls", "stage3_dropping", "stage1_controls", "planned_n",
            "arm_index", "stage_index",
        ],
    )
    def test_contradicting_value_exits_2(self, name, edit, key, tmp_path, capsys):
        payload = json.loads(OLD_FILES[name])
        *path, leaf, value = edit
        node = payload
        for part in path:
            node = node[part]
        node[leaf] = value
        design = tmp_path / "it.json"
        design.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "list.csv"
        code = main(["genlist", "--design", str(design), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {design}: {key} is {json.dumps(value)}, ")
        assert not out.exists()

    def test_control_listed_second_exits_2(self, tmp_path, capsys):
        # the control is arm 0, so a file whose first arm states another
        # role is refused before any replicate runs
        payload = json.loads(OLD_FILES["mapped_alpha"])
        payload["arms"] = [
            {"role": "Active", "label": "T1"},
            {"role": "Control", "label": "C"},
            {"role": "Active", "label": "T2"},
        ]
        design = tmp_path / "ctrl2.json"
        design.write_text(json.dumps(payload), encoding="utf-8")
        out = tmp_path / "sim"
        code = main([
            "simulate", "--design", str(design), "--effects", "0.3,0,0",
            "--reps", "20", "--seed", "1", "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f'error: {design}: arms[0].role is "Active", ')
        assert not out.exists()


class TestReport:
    def _oc(self, tmp_path, name, design):
        sub = tmp_path / name
        assert main([
            "simulate", "--design", design, "--scenario", "S1",
            "--reps", "10", "--seed", "1", "--out", str(sub),
        ]) == 0
        return sub / "oc_report.csv"

    def test_merge_is_union_of_columns(self, tmp_path, capsys):
        a = self._oc(tmp_path, "a", "mapped_alpha")
        b = self._oc(tmp_path, "b", "fixed_equal")
        merged = tmp_path / "merged.csv"
        code = main(["report", str(a), str(b), "--out", str(merged)])
        assert code == 0
        rows = _read_csv(merged)
        assert len(rows) == len(_read_csv(a)) + len(_read_csv(b))
        with a.open(newline="", encoding="utf-8") as fh:
            cols_a = csv.DictReader(fh).fieldnames
        with merged.open(newline="", encoding="utf-8") as fh:
            cols_m = csv.DictReader(fh).fieldnames
        assert set(cols_a) <= set(cols_m)
        designs = {r["design"] for r in rows}
        assert designs == {"mapped_alpha", "fixed_equal"}

    def test_stdout_mode(self, tmp_path, capsys):
        a = self._oc(tmp_path, "a", "mapped_alpha")
        code = main(["report", str(a)])
        assert code == 0
        assert capsys.readouterr().out.startswith("design")

    def test_missing_input(self, tmp_path, capsys):
        code = main(["report", str(tmp_path / "gone.csv")])
        assert code == 2
        assert "gone.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("row, cells", [("1,2,3", 3), ("1", 1)])
    @pytest.mark.parametrize("to_file", [True, False])
    def test_ragged_row_refused(self, row, cells, to_file, tmp_path, capsys):
        ok = tmp_path / "ok.csv"
        ok.write_text("a,b\n1,2\n3,4\n", encoding="utf-8")
        ragged = tmp_path / "ragged.csv"
        ragged.write_text(f"a,b\n5,6\n{row}\n", encoding="utf-8")
        merged = tmp_path / "merged.csv"
        out = ["--out", str(merged)] if to_file else []
        code = main(["report", str(ok), str(ragged), *out])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {ragged}:3: {cells} cells under a 2-column header\n"
        )
        assert captured.out == ""
        assert not merged.exists()


class TestParser:
    @pytest.mark.parametrize("command", ["simulate", "calibrate", "interim", "genlist", "report"])
    def test_help_documents_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--out" in out
        if command != "report":
            assert "--design" in out
            assert "--seed" in out

    def test_unknown_flag_fails_fast(self, capsys):
        code = main(["simulate", "--design", "fixed_equal", "--bogus"])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1


class TestParserReuse:
    """main() parses with one parser per process; no call may leave state
    behind for the next."""

    def _interim(self, tmp_path, *flags):
        data = tmp_path / "accrued.csv"
        body = ACCRUED_HEADER + STAGE1_ROWS + STAGE2_NA_ROWS
        data.write_text(body, encoding="utf-8")
        return [
            "interim", "--design", "mapped_alpha", "--data", str(data),
            "--next-stage", "3", *flags,
        ]

    def test_append_default_not_shared(self, tmp_path, capsys):
        base = ["genlist", "--design", "permuted_block", "--seed", "11"]
        assert main(base + ["--ratio", "2:2:2", "--out", str(tmp_path / "a.csv")]) == 0
        assert "1 block(s), 6 positions" in capsys.readouterr().out
        out = tmp_path / "b.csv"
        assert main(base + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}: 3 block(s), 20 positions\n"
        assert len(_read_csv(out)) == 20

    def test_usage_error_leaves_no_state(self, tmp_path, capsys):
        argv = self._interim(tmp_path, "--seed", "4")
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(["interim", "--design", "mapped_alpha", "--bogus"]) == 1
        assert "usage error" in capsys.readouterr().err
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_out_not_carried_over(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out_dir = tmp_path / "audit"
        assert main(self._interim(tmp_path, "--out", str(out_dir))) == 0
        assert f"wrote {out_dir / 'interim_audit.txt'}" in capsys.readouterr().out
        (out_dir / "interim_audit.txt").unlink()
        assert main(self._interim(tmp_path)) == 0
        assert "wrote" not in capsys.readouterr().out
        assert not (out_dir / "interim_audit.txt").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["accrued.csv", "audit"]

    def test_store_true_not_carried_over(self, tmp_path, capsys):
        assert main(self._interim(tmp_path)) == 0
        plain = capsys.readouterr().out
        assert main(self._interim(tmp_path, "--impute-stage2")) == 0
        imputed = capsys.readouterr().out
        assert main(self._interim(tmp_path)) == 0
        assert capsys.readouterr().out == plain
        assert imputed != plain

    def test_main_does_not_rebuild_the_parser(self, tmp_path, capsys, monkeypatch):
        def refuse():
            raise AssertionError("main() built a parser")

        monkeypatch.setattr(cli, "_build_parser", refuse)
        assert main(self._interim(tmp_path)) == 0
