import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import radapt
from radapt import preset_design, save_design
from radapt.cli import main

ACCRUED_HEADER = "patient_id,stage,arm_label,delta_y\n"
STAGE1_ROWS = (
    "1,1,C,0.5\n2,1,C,0.1\n3,1,T1,0.4\n4,1,T1,0.0\n5,1,T2,0.35\n6,1,T2,0.9\n"
)


def _read_csv(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_simulate_never_imports_scipy_stats(self, tmp_path):
        # a fresh interpreter, so modules other tests imported do not count;
        # unrestricted reaches scipy.special through the exact P(best)
        script = (
            "import sys\n"
            "from radapt.cli import main\n"
            "for design in ('mapped_alpha', 'unrestricted'):\n"
            "    code = main(['simulate', '--design', design, '--effects',\n"
            "                 '0,0.3,0.4', '--reps', '1', '--out', sys.argv[1]])\n"
            "    assert code == 0, code\n"
            "assert 'scipy.special' in sys.modules\n"
            "assert 'scipy.stats' not in sys.modules\n"
        )
        src = str(Path(radapt.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

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


# First 16 hex digits of the SHA-256 of oc_report.csv and adaptability.csv.
# The seeding contract fixes every byte of a report, so an engine change
# that moves one of these has changed the simulated trials.
PINNED_DIGESTS = {
    "fixed_equal": ("8fc8b8192e26cdda", "9428ca165445d77e"),
    "unrestricted": ("775cbb833407003d", "0f4a389bc4ede357"),
    "control_protected": ("740c61567480460f", "70103575b21d66a7"),
    "baseline": ("e9c640b83b8c7ca8", "534cf2bd7def195c"),
    "permuted_block": ("1026cce821a0433f", "db05a02d1cd1e468"),
    "mapped_alpha": ("24cdc991afbf15ab", "011352fe7259acda"),
    "mapped_beta": ("7e7ee12a727089d2", "bb2ea87269c503f4"),
}


def _digests(out):
    return tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
        for name in ("oc_report.csv", "adaptability.csv")
    )


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
        assert _digests(tmp_path) == ("af184634e73159c9", "be7a01052fc7f428")


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

    def test_stage_without_data(self, tmp_path, capsys):
        data = self._data(tmp_path)
        code = main([
            "interim", "--design", "mapped_alpha", "--data", str(data),
            "--next-stage", "3",
        ])
        assert code == 2
        assert "stage" in capsys.readouterr().err


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

    def test_bad_ratio(self, tmp_path, capsys):
        code = main([
            "genlist", "--design", "mapped_alpha", "--ratio", "2:3",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "3 entries" in capsys.readouterr().err


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
