import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radapt.core import (
    ArmId,
    MappingConfig,
    RuleConfig,
    StagePlan,
    ThresholdSet,
    TrialDesign,
    default_arms,
    design_from_dict,
    design_to_dict,
    load_design,
    save_design,
    validate_design,
)
from radapt.presets import PRESET_NAMES, preset_design


def _reference():
    return preset_design("mapped_alpha")


class TestValidateDesign:
    def test_reference_design_is_valid(self):
        assert validate_design(_reference()) == []

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_all_presets_valid(self, name):
        assert validate_design(preset_design(name)) == []

    def test_tau_outside_range_is_one_violation(self):
        bad = preset_design("fixed_equal").with_tau(0.5)
        violations = validate_design(bad)
        assert len(violations) == 1
        assert "tau" in violations[0] and "0.5" in violations[0]

    def test_tau_outside_range_mapped(self):
        # on a mapped design the bad tau also breaks threshold ordering;
        # the range violation is still reported
        bad = _reference().with_tau(0.5)
        assert any("tau" in msg and "0.5" in msg for msg in validate_design(bad))

    def test_planned_n_mismatch(self):
        bad = dataclasses.replace(_reference(), planned_n=21)
        violations = validate_design(bad)
        assert len(violations) == 1
        assert "21" in violations[0] and "20" in violations[0]

    def test_planned_n_match_ok(self):
        ok = dataclasses.replace(_reference(), planned_n=20)
        assert validate_design(ok) == []

    def test_stage1_arm_dropping_rejected(self):
        ref = _reference()
        stages = (dataclasses.replace(ref.stages[0], arm_dropping_allowed=True),) + ref.stages[1:]
        bad = dataclasses.replace(ref, stages=stages)
        assert any("stage 1" in msg for msg in validate_design(bad))

    def test_stage_size_below_k_without_control_fix(self):
        stages = (StagePlan(1, 2), StagePlan(2, 6), StagePlan(3, 8))
        bad = TrialDesign(stages=stages, rule=RuleConfig("FixedEqual"))
        assert any("smaller than K" in msg for msg in validate_design(bad))

    def test_control_fix_above_stage_size(self):
        stages = (StagePlan(1, 6, control_fix=7), StagePlan(2, 6), StagePlan(3, 8))
        bad = TrialDesign(stages=stages, rule=RuleConfig("FixedEqual"))
        assert any("control_fix" in msg for msg in validate_design(bad))

    def test_balanced_stage1_needs_divisible_size(self):
        stages = (StagePlan(1, 7), StagePlan(2, 6), StagePlan(3, 8))
        bad = dataclasses.replace(preset_design("baseline"), stages=stages)
        assert any(
            "balanced stage-1 block" in msg and "divisible by K=3" in msg
            for msg in validate_design(bad)
        )
        unbalanced = dataclasses.replace(bad, stage1_balanced_block=False)
        assert validate_design(unbalanced) == []

    @pytest.mark.parametrize("n", [184, 185])
    def test_stratum_size_bounded_by_the_exact_table(self, n):
        # two pooled strata of 184 (368 values) fit the exact rank-sum
        # table's 50M cells; two of 185 would not
        stages = (StagePlan(1, 6), StagePlan(2, 6), StagePlan(3, n - 12))
        design = dataclasses.replace(preset_design("fixed_equal"), stages=stages)
        violations = validate_design(design)
        if n == 184:
            assert violations == []
        else:
            assert len(violations) == 1
            assert "185 patients" in violations[0] and "at most 184" in violations[0]

    def test_permuted_block_stage_sizes(self):
        stages = tuple(StagePlan(i, 9) for i in (1, 2, 3))
        bad = dataclasses.replace(preset_design("permuted_block"), stages=stages)
        assert any("stage sizes (6, 6, 8)" in msg for msg in validate_design(bad))

    def test_mapping_requires_three_arms(self):
        ref = _reference()
        bad = dataclasses.replace(
            ref,
            arms=default_arms(4),
            prior_alpha=(1.0,) * 4,
            prior_beta=(1.0,) * 4,
        )
        assert any("K=3" in msg for msg in validate_design(bad))

    def test_two_controls_rejected(self):
        arms = (ArmId(0, "Control", "C"), ArmId(1, "Control", "C2"), ArmId(2, "Active", "T2"))
        bad = dataclasses.replace(_reference(), arms=arms)
        assert any("control" in msg.lower() for msg in validate_design(bad))

    def test_duplicate_labels_rejected(self):
        arms = (ArmId(0, "Control", "C"), ArmId(1, "Active", "T"), ArmId(2, "Active", "T"))
        bad = dataclasses.replace(_reference(), arms=arms)
        assert any("unique" in msg for msg in validate_design(bad))

    def test_missing_gamma_schedule(self):
        bad = TrialDesign(
            stages=(StagePlan(1, 6), StagePlan(2, 6), StagePlan(3, 8)),
            rule=RuleConfig("TSBRAR", gamma_schedule=(1.0,)),
        )
        assert any("gamma_schedule" in msg for msg in validate_design(bad))

    def test_threshold_tau_consistency(self):
        ref = _reference()
        mapping = MappingConfig(
            "MappedAlpha", thresholds=ThresholdSet((0.45,), (0.05, 0.45, 0.55))
        )
        bad = dataclasses.replace(ref, mapping=mapping)  # design tau stays 0.1
        assert any("tau" in msg for msg in validate_design(bad))

    def test_idempotent_and_pure(self):
        design = _reference()
        first = validate_design(design)
        second = validate_design(design)
        assert first == second == []


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_dict_round_trip_identity(self, name):
        design = preset_design(name)
        assert design_from_dict(design_to_dict(design)) == design

    def test_file_round_trip(self, tmp_path):
        design = _reference()
        path = tmp_path / "design.json"
        save_design(design, path)
        loaded = load_design(path)
        assert loaded == design
        assert validate_design(loaded) == validate_design(design) == []

    def test_round_trip_preserves_violations(self):
        bad = dataclasses.replace(_reference(), planned_n=21)
        again = design_from_dict(design_to_dict(bad))
        assert validate_design(again) == validate_design(bad)

    def test_saved_file_is_json(self, tmp_path):
        path = tmp_path / "design.json"
        save_design(_reference(), path)
        payload = json.loads(path.read_text())
        assert payload["stages"][0]["size"] == 6
        assert payload["tau"] == 0.1

    def test_legacy_mc_draws_key_ignored(self):
        # P(best) is computed exactly, so older files' sampling knob is moot
        design = preset_design("unrestricted")
        payload = design_to_dict(design)
        assert "mc_draws" not in payload["rule"]
        payload["rule"]["mc_draws"] = 100000
        loaded = design_from_dict(payload)
        assert loaded == design
        assert validate_design(loaded) == []

    def test_malformed_dict_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            design_from_dict({"stages": []})

    def test_malformed_json_file_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_design(path)

    @given(
        tau=st.floats(min_value=0.0, max_value=0.2),
        delta=st.floats(min_value=-1.0, max_value=1.0),
        alpha=st.floats(min_value=0.01, max_value=0.5),
        sizes=st.tuples(
            st.integers(min_value=3, max_value=10),
            st.integers(min_value=3, max_value=10),
            st.integers(min_value=3, max_value=12),
        ),
        kind=st.sampled_from(["FixedEqual", "TSBRAR", "TrippaBRAR"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_any_unmapped_design(self, tau, delta, alpha, sizes, kind):
        stages = tuple(StagePlan(i + 1, s) for i, s in enumerate(sizes))
        design = TrialDesign(
            stages=stages,
            rule=RuleConfig(kind, gamma_schedule=(0.3, 0.6), eta_schedule=(0.1, 0.1)),
            delta=delta,
            tau=tau,
            alpha_level=alpha,
        )
        again = design_from_dict(design_to_dict(design))
        assert again == design
        assert validate_design(again) == validate_design(design)


class TestDefaults:
    def test_default_arms_layout(self):
        arms = default_arms(3)
        assert [a.label for a in arms] == ["C", "T1", "T2"]
        assert arms[0].is_control and not arms[1].is_control

    def test_reference_structure(self):
        design = _reference()
        assert tuple(s.size for s in design.stages) == (6, 6, 8)
        assert design.n_total == 20
        assert design.prior_alpha == (1.0, 1.0, 1.0)
        assert design.prior_beta == (1.0, 1.0, 1.0)
        assert design.delta == 0.3
        assert design.alpha_level == 0.1

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            preset_design("nope")

    def test_unknown_role_raises(self):
        with pytest.raises(ValueError, match="role"):
            ArmId(0, "Observer", "X")
