import re

import numpy as np
import pytest

from radapt import preset_design
from radapt.core import default_arms
from radapt.engine import MissingPolicy, _missing_count, replicate
from radapt.outcomes import (
    CALIBRATED_SIGMA,
    DEFAULT_SHAPE,
    MAX_EFFECT,
    MAX_SCALE,
    SCENARIOS,
    MissingCase,
    OutcomeModel,
    PatientRecord,
    dichotomise,
    load_pilot,
    outcomes_from_raw,
)
from reference import draw_outcome, impute_stage2_mean, run_trial

ARMS = default_arms()


def _records(spec):
    # spec: list of (stage, arm_index, delta_y)
    return [
        PatientRecord(patient_id=i + 1, stage=stage, arm=ARMS[arm], delta_y=dy)
        for i, (stage, arm, dy) in enumerate(spec)
    ]


class TestOutcomeModel:
    def test_parametric_constructor(self):
        model = OutcomeModel.parametric((0.0, 0.0, 0.3))
        assert model.kind == "parametric"
        assert model.scale == CALIBRATED_SIGMA

    def test_bootstrap_requires_pilot(self):
        with pytest.raises(ValueError, match="pilot"):
            OutcomeModel.bootstrap((), (0.0, 0.0, 0.0))

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="scale"):
            OutcomeModel("parametric", (0.0, 0.0, 0.0), scale=0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            OutcomeModel("gaussian", (0.0, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_scale_must_be_finite(self, bad):
        with pytest.raises(ValueError, match=f"scale must be finite.*{bad}"):
            OutcomeModel.parametric((0.0, 0.0, 0.3), scale=bad)

    def test_scale_past_the_overflow_bound_refused(self):
        message = r"scale must be at most 1e\+300.*1e\+308"
        with pytest.raises(ValueError, match=message):
            OutcomeModel.parametric((0.0, 0.0, 0.3), scale=1e308)

    def test_largest_scale_keeps_outcomes_finite(self):
        # numpy's standard normals stay below 14 in size; a pooled test's
        # sum of 368 such outcomes stays finite too
        model = OutcomeModel.parametric((0.0, 0.0, 0.3), scale=MAX_SCALE)
        raw = np.exp(DEFAULT_SHAPE * np.array([-14.0, 0.0, 14.0]))
        y = outcomes_from_raw(model, np.array([0, 1, 2]), raw)
        assert np.isfinite(368 * np.abs(y).max())

    @pytest.mark.parametrize("bad", [1.7e308, -1e301])
    def test_effect_past_the_overflow_bound_refused(self, bad):
        message = r"effects must be at most 1e\+300 in size.*got "
        message += re.escape(f"{bad:g}")
        with pytest.raises(ValueError, match=message):
            OutcomeModel.parametric((0.0, 0.0, bad))
        with pytest.raises(ValueError, match=message):
            OutcomeModel.bootstrap((0.1, 0.2), (0.0, bad, 0.0))
        with pytest.raises(ValueError, match="pilot values must be at most 1e"):
            OutcomeModel.bootstrap((0.1, bad), (0.0, 0.3, 0.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_effects_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="effects must be finite"):
            OutcomeModel.parametric((0.0, bad, 0.3))

    def test_largest_effects_keep_outcomes_finite(self):
        # the largest effects of either sign at the largest scale: outcomes
        # and a pooled test's sum of 368 of them stay finite
        effects = (-MAX_EFFECT, 0.0, MAX_EFFECT)
        model = OutcomeModel.parametric(effects, scale=MAX_SCALE)
        raw = np.exp(DEFAULT_SHAPE * np.array([[-14.0], [14.0]]))
        y = outcomes_from_raw(model, np.array([[0, 1, 2]] * 2), raw)
        assert np.isfinite(368 * np.abs(y).max())

    @pytest.mark.parametrize("name", ["fixed_equal", "mapped_alpha"])
    def test_largest_effects_run_without_overflow(self, name):
        # the seeds at which 1.7e308 failed with an IndexError (0) and wrote
        # infinite imputed means (3), at the bounds instead
        model = OutcomeModel.parametric(
            (-MAX_EFFECT, 0.0, MAX_EFFECT), scale=MAX_SCALE
        )
        for seed in (0, 3):
            with np.errstate(over="raise", invalid="raise"):
                report = replicate(
                    preset_design(name), model, MissingCase(4),
                    MissingPolicy(impute_stage2=True), n_reps=50, master_seed=seed,
                )
            assert report.n_reps == 50

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_pilot_values_must_be_finite(self, bad):
        with pytest.raises(ValueError, match=f"pilot values must be finite.*{bad}"):
            OutcomeModel.bootstrap((0.1, bad, 0.2), (0.0, 0.0, 0.3))


class TestDrawOutcome:
    def test_single_atom_bootstrap_is_pure_shift(self, rng):
        model = OutcomeModel.bootstrap((0.0,), (0.0, 0.0, 0.3))
        draws = {draw_outcome(model, 2, rng) for _ in range(20)}
        assert draws == {0.3}

    def test_bootstrap_support(self, rng):
        model = OutcomeModel.bootstrap((0.1, 0.5), (0.0, 0.2, 0.0))
        for _ in range(50):
            value = draw_outcome(model, 1, rng)
            assert min(abs(value - 0.3), abs(value - 0.7)) < 1e-12

    def test_parametric_null_mean(self):
        rng = np.random.default_rng(101)
        model = OutcomeModel.parametric((0.0, 0.0, 0.0))
        draws = np.array([draw_outcome(model, 0, rng) for _ in range(100_000)])
        se = model.scale / np.sqrt(draws.size)
        assert abs(draws.mean()) < 3 * se

    def test_parametric_shift_and_scale(self):
        # noise is exactly unit-variance, so the sample sd estimates scale
        rng = np.random.default_rng(202)
        model = OutcomeModel.parametric(SCENARIOS["S2"].effects_a)
        draws = np.array([draw_outcome(model, 2, rng) for _ in range(100_000)])
        se = model.scale / np.sqrt(draws.size)
        assert abs(draws.mean() - 0.3) < 3 * se
        assert abs(draws.std() - model.scale) < 0.01

    def test_deterministic_given_seed(self):
        model = OutcomeModel.parametric((0.0, 0.0, 0.0))
        a = draw_outcome(model, 1, np.random.default_rng(9))
        b = draw_outcome(model, 1, np.random.default_rng(9))
        assert a == b


class TestDichotomise:
    @pytest.mark.parametrize(
        "delta_y,expected", [(0.30, True), (0.29, False), (-1.0, False), (0.31, True)]
    )
    def test_inclusive_cutoff(self, delta_y, expected):
        assert dichotomise(delta_y, 0.30) is expected

    def test_missing_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            dichotomise(None, 0.30)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            dichotomise(bad, 0.30)


class TestMissingCase:
    @pytest.mark.parametrize(
        "case_id,counts",
        [
            (0, (0, 0, 0)),
            (1, (1, 0, 0)),
            (2, (2, 0, 0)),
            (3, (0, 1, 0)),
            (4, (0, 2, 0)),
            (5, (1, 1, 0)),
        ],
    )
    def test_patterns(self, case_id, counts):
        case = MissingCase(case_id)
        assert tuple(case.count_for_stage(t) for t in (1, 2, 3)) == counts
        assert case.count_for_stage(3) == 0

    @pytest.mark.parametrize("bad", [-1, 6, 99])
    def test_unknown_id(self, bad):
        with pytest.raises(ValueError, match="0..5"):
            MissingCase(bad)

    def test_mismatched_counts(self):
        # the case id fixes the counts; they cannot be given besides it
        with pytest.raises(TypeError):
            MissingCase(2, (1, 0, 0))


class TestApplyMissingness:
    """A case's missing cells as a conducted trial leaves them, before any
    imputation; permuted_block's assignments do not depend on the data."""

    def _cells(self, case_id, seed=0):
        traj = run_trial(
            preset_design("permuted_block"), OutcomeModel.parametric((0.0, 0.0, 0.3)),
            case=MissingCase(case_id), rng=np.random.default_rng(seed),
        )
        return [r for stage in traj.stages for r in stage.records]

    def test_case0_identity(self):
        assert not any(r.missing for r in self._cells(0))

    def test_case2_stage1_counts(self):
        out = self._cells(2)
        stage1 = [r for r in out if r.stage == 1]
        assert sum(r.missing for r in stage1) == 2
        assert sum(not r.missing for r in stage1) == 4
        assert not any(r.missing for r in out if r.stage != 1)

    def test_case5_one_per_stage(self):
        out = self._cells(5)
        assert sum(r.missing for r in out if r.stage == 1) == 1
        assert sum(r.missing for r in out if r.stage == 2) == 1
        assert not any(r.missing for r in out if r.stage == 3)

    def test_assignments_and_order_preserved(self):
        records, out = self._cells(0, seed=7), self._cells(5, seed=7)
        assert [r.patient_id for r in out] == [r.patient_id for r in records]
        assert [r.arm for r in out] == [r.arm for r in records]
        kept = [(r.delta_y, c.delta_y) for r, c in zip(out, records) if not r.missing]
        assert all(a == b for a, b in kept)

    def test_count_exceeding_stage_size(self):
        with pytest.raises(ValueError, match="cannot drop"):
            _missing_count(MissingCase(2), 1, 1)


class TestImputeStage2Mean:
    def test_mean_of_observed_history(self):
        records = _records([(1, 1, 0.2), (1, 1, 0.4), (2, 1, None), (2, 2, 0.9)])
        out = impute_stage2_mean(records)
        filled = out[2]
        assert filled.delta_y == pytest.approx(0.3)
        assert filled.imputed

    def test_single_donor(self):
        records = _records([(1, 2, 0.7), (2, 2, None)])
        out = impute_stage2_mean(records)
        assert out[1].delta_y == pytest.approx(0.7)
        assert out[1].imputed

    def test_stage1_missing_untouched(self):
        records = _records([(1, 1, None), (1, 2, 0.5), (2, 2, 0.1)])
        out = impute_stage2_mean(records)
        assert out[0].missing
        assert not out[0].imputed

    def test_stage3_missing_untouched(self):
        records = _records([(1, 1, 0.5), (3, 1, None)])
        out = impute_stage2_mean(records)
        assert out[1].missing

    def test_no_donor_warns_and_leaves_missing(self):
        records = _records([(1, 2, 0.5), (2, 1, None)])
        with pytest.warns(UserWarning, match="T1"):
            out = impute_stage2_mean(records)
        assert out[1].missing

    def test_imputed_values_not_reused_as_donors(self):
        records = _records([(1, 1, 0.2), (2, 1, None), (2, 1, None)])
        out = impute_stage2_mean(records)
        assert out[1].delta_y == pytest.approx(0.2)
        assert out[2].delta_y == pytest.approx(0.2)

    def test_observed_records_never_altered(self):
        records = _records([(1, 1, 0.2), (2, 1, 0.6), (2, 1, None)])
        out = impute_stage2_mean(records)
        assert out[0] == records[0]
        assert out[1] == records[1]


class TestLoadPilot:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pilot.csv"
        path.write_text("delta_y\n0.1\n-0.25\n0.4\n", encoding="utf-8")
        assert load_pilot(path) == (0.1, -0.25, 0.4)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "pilot.csv"
        path.write_text("delta_y\n0.1\n\n0.2\n", encoding="utf-8")
        assert load_pilot(path) == (0.1, 0.2)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "pilot.csv"
        path.write_text("value\n0.1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="delta_y"):
            load_pilot(path)

    def test_non_numeric_row_reports_line(self, tmp_path):
        path = tmp_path / "pilot.csv"
        path.write_text("delta_y\n0.1\noops\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":3"):
            load_pilot(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_row_reports_line(self, tmp_path, bad):
        path = tmp_path / "pilot.csv"
        path.write_text(f"delta_y\n0.1\n0.2\n{bad}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"pilot.csv:4: .*finite.*{bad}"):
            load_pilot(path)

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "pilot.csv"
        path.write_text("delta_y\n", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            load_pilot(path)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(OSError, match="gone.csv"):
            load_pilot(tmp_path / "gone.csv")
