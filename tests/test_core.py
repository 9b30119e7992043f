import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radapt.cli import main
from radapt.core import (
    MappingConfig,
    RuleConfig,
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


def _reference_with_tau(tau):
    # the reference design whose drop threshold and first stage-3 cut read tau
    design = _reference()
    th = design.mapping.thresholds
    mapping = dataclasses.replace(
        design.mapping,
        thresholds=dataclasses.replace(th, stage3=(tau,) + th.stage3[1:]),
    )
    return dataclasses.replace(design, tau=tau, mapping=mapping)


# Design files as radapt wrote them before the stage control count, the
# stage arm-dropping flag, the mapping control count, planned_n, the arm
# indices and the stage numbers were derived from the rest of the design
# (mapped_alpha is the example README.md gave then).
OLD_FILES = {
    "mapped_alpha": """\
{
  "name": "mapped_alpha",
  "stratum_label": "A",
  "arms": [
    {"index": 0, "role": "Control", "label": "C"},
    {"index": 1, "role": "Active", "label": "T1"},
    {"index": 2, "role": "Active", "label": "T2"}
  ],
  "stages": [
    {"stage_index": 1, "size": 6, "control_fix": 2, "arm_dropping_allowed": false},
    {"stage_index": 2, "size": 6, "control_fix": 2, "arm_dropping_allowed": false},
    {"stage_index": 3, "size": 8, "control_fix": 2, "arm_dropping_allowed": true}
  ],
  "rule": {
    "kind": "TrippaBRAR",
    "gamma_schedule": [0.3, 0.6],
    "eta_schedule": [0.322, 0.322],
    "control_exponent_form": "ProductForm"
  },
  "mapping": {
    "variant": "MappedAlpha",
    "control_fix": 2,
    "thresholds": {"stage2": [0.45], "stage3": [0.1, 0.45, 0.55]}
  },
  "prior_alpha": [1.0, 1.0, 1.0],
  "prior_beta": [1.0, 1.0, 1.0],
  "delta": 0.3,
  "tau": 0.1,
  "alpha_level": 0.1,
  "planned_n": null,
  "stage1_balanced_block": false,
  "tau_dropping": false
}
""",
    "baseline": """\
{
  "name": "baseline",
  "stratum_label": "A",
  "arms": [
    {"index": 0, "role": "Control", "label": "C"},
    {"index": 1, "role": "Active", "label": "T1"},
    {"index": 2, "role": "Active", "label": "T2"}
  ],
  "stages": [
    {"stage_index": 1, "size": 6, "control_fix": null, "arm_dropping_allowed": false},
    {"stage_index": 2, "size": 6, "control_fix": null, "arm_dropping_allowed": false},
    {"stage_index": 3, "size": 8, "control_fix": null, "arm_dropping_allowed": true}
  ],
  "rule": {
    "kind": "TrippaBRAR",
    "gamma_schedule": [0.3, 0.6],
    "eta_schedule": [0.322, 0.322],
    "control_exponent_form": "ProductForm"
  },
  "mapping": null,
  "prior_alpha": [1.0, 1.0, 1.0],
  "prior_beta": [1.0, 1.0, 1.0],
  "delta": 0.3,
  "tau": 0.1,
  "alpha_level": 0.1,
  "planned_n": null,
  "stage1_balanced_block": true,
  "tau_dropping": true
}
""",
    "permuted_block": """\
{
  "name": "permuted_block",
  "stratum_label": "A",
  "arms": [
    {"index": 0, "role": "Control", "label": "C"},
    {"index": 1, "role": "Active", "label": "T1"},
    {"index": 2, "role": "Active", "label": "T2"}
  ],
  "stages": [
    {"stage_index": 1, "size": 6, "control_fix": 2, "arm_dropping_allowed": false},
    {"stage_index": 2, "size": 6, "control_fix": 2, "arm_dropping_allowed": false},
    {"stage_index": 3, "size": 8, "control_fix": 2, "arm_dropping_allowed": false}
  ],
  "rule": {
    "kind": "FixedEqual",
    "gamma_schedule": [],
    "eta_schedule": [],
    "control_exponent_form": "ProductForm"
  },
  "mapping": {
    "variant": "PermutedBlock",
    "control_fix": 2,
    "thresholds": null
  },
  "prior_alpha": [1.0, 1.0, 1.0],
  "prior_beta": [1.0, 1.0, 1.0],
  "delta": 0.3,
  "tau": 0.1,
  "alpha_level": 0.1,
  "planned_n": null,
  "stage1_balanced_block": false,
  "tau_dropping": false
}
""",
    "fixed_equal": """\
{
  "name": "fixed_equal",
  "stratum_label": "A",
  "arms": [
    {"index": 0, "role": "Control", "label": "C"},
    {"index": 1, "role": "Active", "label": "T1"},
    {"index": 2, "role": "Active", "label": "T2"}
  ],
  "stages": [
    {"stage_index": 1, "size": 6, "control_fix": null, "arm_dropping_allowed": false},
    {"stage_index": 2, "size": 6, "control_fix": null, "arm_dropping_allowed": false},
    {"stage_index": 3, "size": 8, "control_fix": null, "arm_dropping_allowed": false}
  ],
  "rule": {
    "kind": "FixedEqual",
    "gamma_schedule": [],
    "eta_schedule": [],
    "control_exponent_form": "ProductForm"
  },
  "mapping": null,
  "prior_alpha": [1.0, 1.0, 1.0],
  "prior_beta": [1.0, 1.0, 1.0],
  "delta": 0.3,
  "tau": 0.1,
  "alpha_level": 0.1,
  "planned_n": null,
  "stage1_balanced_block": false,
  "tau_dropping": false
}
""",
    "unrestricted": """\
{
  "name": "unrestricted",
  "stratum_label": "A",
  "arms": [
    {"index": 0, "role": "Control", "label": "C"},
    {"index": 1, "role": "Active", "label": "T1"},
    {"index": 2, "role": "Active", "label": "T2"}
  ],
  "stages": [
    {"stage_index": 1, "size": 6, "control_fix": null, "arm_dropping_allowed": false},
    {"stage_index": 2, "size": 6, "control_fix": null, "arm_dropping_allowed": false},
    {"stage_index": 3, "size": 8, "control_fix": null, "arm_dropping_allowed": false}
  ],
  "rule": {
    "kind": "TSBRAR",
    "gamma_schedule": [1.0, 1.0],
    "eta_schedule": [],
    "control_exponent_form": "ProductForm"
  },
  "mapping": null,
  "prior_alpha": [1.0, 1.0, 1.0],
  "prior_beta": [1.0, 1.0, 1.0],
  "delta": 0.3,
  "tau": 0.1,
  "alpha_level": 0.1,
  "planned_n": null,
  "stage1_balanced_block": false,
  "tau_dropping": false
}
""",
    "control_protected": """\
{
  "name": "control_protected",
  "stratum_label": "A",
  "arms": [
    {"index": 0, "role": "Control", "label": "C"},
    {"index": 1, "role": "Active", "label": "T1"},
    {"index": 2, "role": "Active", "label": "T2"}
  ],
  "stages": [
    {"stage_index": 1, "size": 6, "control_fix": null, "arm_dropping_allowed": false},
    {"stage_index": 2, "size": 6, "control_fix": null, "arm_dropping_allowed": false},
    {"stage_index": 3, "size": 8, "control_fix": null, "arm_dropping_allowed": false}
  ],
  "rule": {
    "kind": "TrippaBRAR",
    "gamma_schedule": [0.3, 0.6],
    "eta_schedule": [0.322, 0.322],
    "control_exponent_form": "ProductForm"
  },
  "mapping": null,
  "prior_alpha": [1.0, 1.0, 1.0],
  "prior_beta": [1.0, 1.0, 1.0],
  "delta": 0.3,
  "tau": 0.1,
  "alpha_level": 0.1,
  "planned_n": null,
  "stage1_balanced_block": false,
  "tau_dropping": false
}
""",
    "mapped_beta": """\
{
  "name": "mapped_beta",
  "stratum_label": "A",
  "arms": [
    {"index": 0, "role": "Control", "label": "C"},
    {"index": 1, "role": "Active", "label": "T1"},
    {"index": 2, "role": "Active", "label": "T2"}
  ],
  "stages": [
    {"stage_index": 1, "size": 6, "control_fix": 2, "arm_dropping_allowed": false},
    {"stage_index": 2, "size": 6, "control_fix": 2, "arm_dropping_allowed": false},
    {"stage_index": 3, "size": 8, "control_fix": 2, "arm_dropping_allowed": true}
  ],
  "rule": {
    "kind": "TrippaBRAR",
    "gamma_schedule": [0.3, 0.6],
    "eta_schedule": [0.322, 0.322],
    "control_exponent_form": "ProductForm"
  },
  "mapping": {
    "variant": "MappedBeta",
    "control_fix": 2,
    "thresholds": {"stage2": [0.3333333333333333, 0.45], "stage3": [0.1, 0.3333333333333333, 0.45, 0.55]}
  },
  "prior_alpha": [1.0, 1.0, 1.0],
  "prior_beta": [1.0, 1.0, 1.0],
  "delta": 0.3,
  "tau": 0.1,
  "alpha_level": 0.1,
  "planned_n": null,
  "stage1_balanced_block": false,
  "tau_dropping": false
}
""",
}


class TestValidateDesign:
    def test_reference_design_is_valid(self):
        assert validate_design(_reference()) == []

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_all_presets_valid(self, name):
        assert validate_design(preset_design(name)) == []

    def test_tau_outside_range_is_one_violation(self):
        bad = dataclasses.replace(preset_design("fixed_equal"), tau=0.5)
        violations = validate_design(bad)
        assert len(violations) == 1
        assert "tau" in violations[0] and "0.5" in violations[0]

    def test_tau_outside_range_mapped(self):
        # on a mapped design the bad tau also breaks threshold ordering;
        # the range violation is still reported
        bad = _reference_with_tau(0.5)
        assert any("tau" in msg and "0.5" in msg for msg in validate_design(bad))

    def test_stage_size_below_k_without_control_fix(self):
        bad = TrialDesign(stage_sizes=(2, 6, 8), rule=RuleConfig("FixedEqual"))
        assert any("smaller than K" in msg for msg in validate_design(bad))

    def test_balanced_stage1_needs_divisible_size(self):
        bad = dataclasses.replace(preset_design("baseline"), stage_sizes=(7, 6, 8))
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
        design = dataclasses.replace(
            preset_design("fixed_equal"), stage_sizes=(6, 6, n - 12)
        )
        violations = validate_design(design)
        if n == 184:
            assert violations == []
        else:
            assert len(violations) == 1
            assert "185 patients" in violations[0] and "at most 184" in violations[0]

    @pytest.mark.parametrize("name", ["mapped_alpha", "mapped_beta", "permuted_block"])
    def test_tau_dropping_on_a_mapped_design_refused(self, name):
        # the conduct never reads tau_dropping on a mapped design
        bad = dataclasses.replace(preset_design(name), tau_dropping=True)
        violations = validate_design(bad)
        assert len(violations) == 1
        assert "tau_dropping applies to designs without a mapping" in violations[0]

    def test_permuted_block_stage_sizes(self):
        bad = dataclasses.replace(
            preset_design("permuted_block"), stage_sizes=(9, 9, 9)
        )
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
        # the control is arm 0, so a file can state a second control only
        # by an old role key, which is refused
        payload = design_to_dict(_reference())
        payload["arms"][1]["role"] = "Control"
        with pytest.raises(ValueError, match=r"^arms\[1\]\.role is \"Control\", "):
            design_from_dict(payload)

    def test_trippa_needs_three_arms(self):
        bad = dataclasses.replace(
            preset_design("control_protected"),
            arms=default_arms(4),
            prior_alpha=(1.0,) * 4,
            prior_beta=(1.0,) * 4,
        )
        assert validate_design(bad) == [
            "TrippaBRAR requires K=3 (one control, two actives), got K=4"
        ]

    def test_duplicate_labels_rejected(self):
        arms = ("C", "T", "T")
        bad = dataclasses.replace(_reference(), arms=arms)
        assert any("unique" in msg for msg in validate_design(bad))

    def test_missing_gamma_schedule(self):
        bad = TrialDesign(
            stage_sizes=(6, 6, 8),
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
        bad = _reference_with_tau(0.5)
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
        design = TrialDesign(
            stage_sizes=sizes,
            rule=RuleConfig(kind, gamma_schedule=(0.3, 0.6), eta_schedule=(0.1, 0.1)),
            delta=delta,
            tau=tau,
            alpha_level=alpha,
        )
        again = design_from_dict(design_to_dict(design))
        assert again == design
        assert validate_design(again) == validate_design(design)


def _set(payload, path, value):
    # payload[path[0]][path[1]]... = value
    *head, last = path
    for step in head:
        payload = payload[step]
    payload[last] = value


class TestDesignValueTypes:
    """A design value of the wrong JSON type is refused with a ValueError
    naming its key, quoted numbers included, and the CLI exits 2 naming the
    file, for simulate and for interim, before it writes anything."""

    @pytest.mark.parametrize("design, path, value, key", [
        ("mapped_alpha", ("delta",), "0.3", "delta"),
        ("mapped_alpha", ("tau",), "0.1", "tau"),
        ("mapped_alpha", ("alpha_level",), "0.1", "alpha_level"),
        ("mapped_alpha", ("delta",), True, "delta"),
        ("mapped_alpha", ("tau",), None, "tau"),
        ("unrestricted", ("prior_alpha", 1), "1.0", "prior_alpha[1]"),
        ("unrestricted", ("prior_beta", 2), False, "prior_beta[2]"),
        ("mapped_alpha", ("rule", "gamma_schedule", 0), "0.3", "rule.gamma_schedule[0]"),
        ("mapped_alpha", ("rule", "eta_schedule", 1), "0.322", "rule.eta_schedule[1]"),
        ("mapped_alpha", ("mapping", "thresholds", "stage3", 1), "0.45",
         "mapping.thresholds.stage3[1]"),
        ("fixed_equal", ("stages", 0, "size"), 6.0, "stages[1].size"),
        ("fixed_equal", ("stages", 2, "size"), "8", "stages[3].size"),
        ("fixed_equal", ("arms", 1, "label"), 1, "arms[1].label"),
        ("unrestricted", ("tau_dropping",), "false", "tau_dropping"),
        ("baseline", ("tau_dropping",), 1, "tau_dropping"),
        ("fixed_equal", ("stage1_balanced_block",), "no", "stage1_balanced_block"),
        ("fixed_equal", ("name",), 5, "name"),
        ("fixed_equal", ("stratum_label",), ["x"], "stratum_label"),
    ])
    def test_wrong_type_refused(self, design, path, value, key, tmp_path, capsys):
        payload = design_to_dict(preset_design(design))
        _set(payload, path, value)
        with pytest.raises(ValueError) as info:
            design_from_dict(payload)
        assert str(info.value).startswith(f"{key} must be ")
        assert str(info.value).endswith(f", got {value!r}")
        _assert_cli_refuses(payload, info.value, tmp_path, capsys)


def _assert_cli_refuses(payload, error, tmp_path, capsys):
    """simulate and interim on the payload's file exit 2 with `error`,
    naming the file, and write nothing."""
    file = tmp_path / "design.json"
    file.write_text(json.dumps(payload), encoding="utf-8")
    data = tmp_path / "accrued.csv"
    data.write_text(
        "patient_id,stage,arm_label,delta_y\n"
        "1,1,C,0.5\n2,1,C,0.1\n3,1,T1,0.4\n4,1,T1,0.0\n5,1,T2,0.35\n6,1,T2,0.9\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    for args in (
        ["simulate", "--design", str(file), "--reps", "10", "--out", str(out)],
        ["interim", "--design", str(file), "--data", str(data),
         "--next-stage", "2", "--out", str(out)],
    ):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {file}: {error}\n"
        assert captured.out == ""
    assert not out.exists()


class TestUnknownDesignKeys:
    """A key outside the schema, at any level, is refused with a ValueError
    naming its path, rather than run as if the design lacked it; the CLI
    exits 2 naming the file and writes nothing."""

    @pytest.mark.parametrize("design, path, key", [
        ("unrestricted", ("tau_droping",), "tau_droping"),
        ("unrestricted", ("prior_alpah",), "prior_alpah"),
        ("fixed_equal", ("arms", 1, "lable"), "arms[1].lable"),
        ("fixed_equal", ("stages", 2, "sise"), "stages[3].sise"),
        ("mapped_alpha", ("rule", "eta_shedule"), "rule.eta_shedule"),
        ("mapped_alpha", ("mapping", "varient"), "mapping.varient"),
        ("mapped_beta", ("mapping", "thresholds", "stage_3"),
         "mapping.thresholds.stage_3"),
        ("baseline", ("comment",), "comment"),
    ])
    def test_unknown_key_refused(self, design, path, key, tmp_path, capsys):
        payload = design_to_dict(preset_design(design))
        _set(payload, path, True)
        with pytest.raises(ValueError) as info:
            design_from_dict(payload)
        assert str(info.value) == f"unknown key {key}"
        _assert_cli_refuses(payload, info.value, tmp_path, capsys)

    def test_every_legacy_key_loads(self):
        # the seven old keys, each stating what the design implies, and
        # rule.mc_draws
        payload = json.loads(OLD_FILES["mapped_alpha"])
        payload["planned_n"] = 20
        payload["rule"]["mc_draws"] = 100000
        assert design_from_dict(payload) == preset_design("mapped_alpha")


class TestOldDesignFiles:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_old_file_loads_as_its_preset(self, name, tmp_path):
        path = tmp_path / f"{name}.json"
        path.write_text(OLD_FILES[name], encoding="utf-8")
        assert load_design(path) == preset_design(name)

    @pytest.mark.parametrize(
        "name,value",
        [("mapped_alpha", 20), ("mapped_alpha", None), ("fixed_equal", 20)],
    )
    def test_planned_n_of_the_stage_sum_loads(self, name, value):
        payload = json.loads(OLD_FILES[name])
        payload["planned_n"] = value
        assert design_from_dict(payload) == preset_design(name)

    def test_null_old_keys_load(self):
        payload = json.loads(OLD_FILES["mapped_alpha"])
        payload["mapping"]["control_fix"] = None
        for stage in payload["stages"]:
            stage["control_fix"] = stage["arm_dropping_allowed"] = None
        assert design_from_dict(payload) == preset_design("mapped_alpha")

    @pytest.mark.parametrize(
        "name,key,value",
        [
            ("permuted_block", "mapping.control_fix", 3),
            ("mapped_alpha", "mapping.control_fix", 1),
            ("mapped_alpha", "stages[3].arm_dropping_allowed", False),
            ("mapped_alpha", "stages[1].arm_dropping_allowed", True),
            ("baseline", "stages[3].arm_dropping_allowed", False),
            ("fixed_equal", "stages[3].arm_dropping_allowed", True),
            ("permuted_block", "stages[3].arm_dropping_allowed", True),
            ("mapped_alpha", "stages[3].arm_dropping_allowed", 1),
            ("fixed_equal", "stages[1].control_fix", 5),
            ("fixed_equal", "stages[1].control_fix", 7),
            ("baseline", "stages[1].control_fix", 2),
            ("mapped_alpha", "stages[2].control_fix", 3),
            ("mapped_alpha", "planned_n", 21),
            ("fixed_equal", "planned_n", 19),
        ],
    )
    def test_contradicting_value_refused(self, name, key, value):
        # radapt runs one value of each key; a file that states another is
        # refused, naming the key, rather than run as if it were honoured
        payload = json.loads(OLD_FILES[name])
        *parents, leaf = key.replace("[", ".").replace("]", "").split(".")
        node = payload
        for part in parents:
            node = node[int(part) - 1] if part.isdigit() else node[part]
        node[leaf] = value
        with pytest.raises(ValueError) as info:
            design_from_dict(payload)
        assert str(info.value).startswith(f"{key} is {json.dumps(value)}, ")

    @pytest.mark.parametrize(
        "items,key,positions,refused",
        [
            ("arms", "index", (0, 2, 1), "arms[1].index is 2, "),
            ("stages", "stage_index", (1, 3, 2), "stages[2].stage_index is 3, "),
        ],
    )
    def test_reordered_positions_refused(self, items, key, positions, refused):
        # an arm's index and a stage's number are its position in the file;
        # a file that numbers them otherwise is refused, naming the key
        payload = json.loads(OLD_FILES["mapped_alpha"])
        for item, position in zip(payload[items], positions):
            item[key] = position
        with pytest.raises(ValueError) as info:
            design_from_dict(payload)
        assert str(info.value).startswith(refused)
        advice = {
            "arms": "list the arms in position order, control first",
            "stages": "radapt no longer reads the key, so omit it",
        }[items]
        assert str(info.value).endswith(advice)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_roles_at_their_positions_load(self, name):
        # the format radapt wrote before the control was arm 0 by position:
        # each arm also stated its role
        payload = design_to_dict(preset_design(name))
        for i, arm in enumerate(payload["arms"]):
            arm["role"] = "Active" if i else "Control"
        assert design_from_dict(payload) == preset_design(name)

    @pytest.mark.parametrize(
        "arms,refused",
        [
            (
                (("Active", "T1"), ("Control", "C"), ("Active", "T2")),
                'arms[0].role is "Active", ',
            ),
            (
                (("Control", "C"), ("Active", "T1"), ("Observer", "T2")),
                'arms[2].role is "Observer", ',
            ),
        ],
    )
    def test_role_off_its_position_refused(self, arms, refused, tmp_path):
        # the control is arm 0: a role its position contradicts is refused,
        # naming the first such arm
        payload = design_to_dict(_reference())
        payload["arms"] = [{"role": role, "label": label} for role, label in arms]
        path = tmp_path / "design.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_design(path)
        assert str(info.value).startswith(f"{path}: {refused}")
        # a misplaced control is mended by reordering, not by omitting role
        assert str(info.value).endswith(
            "an arm's position sets it, so list the arms in position order, "
            "control first"
        )

    def test_new_files_write_none_of_the_old_keys(self, tmp_path):
        path = tmp_path / "design.json"
        for name in PRESET_NAMES:
            save_design(preset_design(name), path)
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert "planned_n" not in payload
            assert all(set(a) == {"label"} for a in payload["arms"])
            assert all(set(s) == {"size"} for s in payload["stages"])
            if payload["mapping"] is not None:
                assert "control_fix" not in payload["mapping"]


class TestDefaults:
    def test_default_arms_layout(self):
        assert default_arms(3) == ("C", "T1", "T2")
        assert default_arms(2) == ("C", "T1")

    def test_reference_structure(self):
        design = _reference()
        assert design.stage_sizes == (6, 6, 8)
        assert design.n_total == 20
        assert design.prior_alpha == (1.0, 1.0, 1.0)
        assert design.prior_beta == (1.0, 1.0, 1.0)
        assert design.delta == 0.3
        assert design.alpha_level == 0.1

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            preset_design("nope")

