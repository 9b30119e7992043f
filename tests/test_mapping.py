import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radapt import ProbVector, preset_design
from radapt.core import MappingConfig, ThresholdSet, default_arms
from radapt.engine import MissingPolicy
from radapt.mapping import (
    BALANCED,
    STAGE2_MENU,
    STAGE3_MENU,
    AdaptationCategory,
    RatioVector,
    active_shares,
    allocation_options,
    decide_category,
    planned_ratio,
)
from radapt.outcomes import PatientRecord
from radapt.presets import PRESET_NAMES
from reference import interim_decision

C = AdaptationCategory

ARMS = {arm.label: arm for arm in default_arms()}


def _accrued(*rows):
    # rows: (stage, arm label, delta_y)
    return [
        PatientRecord(i + 1, stage, ARMS[label], y)
        for i, (stage, label, y) in enumerate(rows)
    ]


ALPHA = MappingConfig(variant="MappedAlpha", thresholds=ThresholdSet.alpha_defaults())
BETA = MappingConfig(variant="MappedBeta", thresholds=ThresholdSet.beta_defaults())


class TestRatioVector:
    def test_label_and_total(self):
        r = RatioVector((2, 3, 3))
        assert r.label() == "2:3:3"
        assert r.total == 8

    def test_menus(self):
        assert STAGE2_MENU == {(2, 1, 3), (2, 2, 2), (2, 3, 1)}
        assert STAGE3_MENU == {
            (2, 0, 6),
            (2, 1, 5),
            (2, 2, 4),
            (2, 3, 3),
            (2, 4, 2),
            (2, 5, 1),
            (2, 6, 0),
        }
        assert BALANCED[2].counts == (2, 2, 2)
        assert BALANCED[3].counts == (2, 3, 3)


class TestDecideCategory:
    @pytest.mark.parametrize(
        "pi,stage,config,expected",
        [
            (0.50, 2, ALPHA, C.FAVOUR),
            (0.44, 2, ALPHA, C.DISFAVOUR),
            # interval top is half-open so the cut itself lands upward
            (0.45, 2, ALPHA, C.FAVOUR),
            (0.40, 2, BETA, C.BALANCE),
            (0.20, 2, BETA, C.DISFAVOUR),
            (1.00, 2, BETA, C.FAVOUR),
            (0.05, 3, ALPHA, C.DROP),
            (0.30, 3, ALPHA, C.DISFAVOUR),
            (0.50, 3, ALPHA, C.FAVOUR),
            (0.60, 3, ALPHA, C.KEEP),
            (0.55, 3, ALPHA, C.KEEP),
            (0.40, 3, BETA, C.BALANCE),
            (0.00, 3, BETA, C.DROP),
        ],
    )
    def test_examples(self, pi, stage, config, expected):
        assert decide_category(pi, stage, config) is expected

    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan"), float("inf")])
    def test_share_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match="outside"):
            decide_category(bad, 2, ALPHA)

    def test_missing_thresholds(self):
        config = MappingConfig(variant="PermutedBlock")
        with pytest.raises(ValueError, match="has no thresholds"):
            decide_category(0.5, 2, config)

    @pytest.mark.parametrize("stage", [1, 4, 0])
    def test_bad_stage(self, stage):
        with pytest.raises(ValueError, match="stages 2 and 3"):
            decide_category(0.5, stage, ALPHA)

    @given(pi=st.floats(0.0, 1.0), stage=st.sampled_from([2, 3]))
    @settings(max_examples=200, deadline=None)
    def test_beta_with_merged_cuts_collapses_to_alpha(self, pi, stage):
        # setting p' = p'' removes the Balance interval, recovering the
        # narrower variant's decision at every probability
        merged = MappingConfig(
            variant="MappedBeta",
            thresholds=ThresholdSet(stage2=(0.45, 0.45), stage3=(0.1, 0.45, 0.45, 0.55)),
        )
        assert decide_category(pi, stage, merged) is decide_category(pi, stage, ALPHA)


class TestResolveStage2:
    @pytest.mark.parametrize(
        "cats,expected",
        [
            ((C.DISFAVOUR, C.FAVOUR), (2, 1, 3)),
            ((C.FAVOUR, C.DISFAVOUR), (2, 3, 1)),
            ((C.DISFAVOUR, C.BALANCE), (2, 1, 3)),
            ((C.BALANCE, C.FAVOUR), (2, 1, 3)),
            ((C.BALANCE, C.BALANCE), (2, 2, 2)),
            ((C.FAVOUR, C.FAVOUR), (2, 2, 2)),
            ((C.DISFAVOUR, C.DISFAVOUR), (2, 2, 2)),
        ],
    )
    def test_examples(self, cats, expected):
        assert allocation_options(cats, 2) == (RatioVector(expected),)

    @pytest.mark.parametrize("cat", [C.DROP, C.KEEP])
    def test_drop_keep_illegal(self, cat):
        with pytest.raises(ValueError, match="stage 2"):
            allocation_options((cat, C.BALANCE), 2)


class TestResolveStage3:
    @pytest.mark.parametrize(
        "cats,expected",
        [
            ((C.DROP, C.KEEP), (2, 0, 6)),
            ((C.KEEP, C.DROP), (2, 6, 0)),
            ((C.DROP, C.FAVOUR), (2, 0, 6)),
            ((C.DROP, C.BALANCE), (2, 0, 6)),
            ((C.DROP, C.DROP), (2, 3, 3)),
            ((C.BALANCE, C.KEEP), (2, 3, 3)),
            ((C.KEEP, C.BALANCE), (2, 3, 3)),
            ((C.BALANCE, C.BALANCE), (2, 3, 3)),
            ((C.KEEP, C.KEEP), (2, 3, 3)),
        ],
    )
    def test_deterministic_cases(self, cats, expected):
        assert allocation_options(cats, 3) == (RatioVector(expected),)

    @pytest.mark.parametrize(
        "cats,options",
        [
            ((C.DISFAVOUR, C.KEEP), ((2, 1, 5), (2, 2, 4))),
            ((C.KEEP, C.DISFAVOUR), ((2, 5, 1), (2, 4, 2))),
            ((C.DISFAVOUR, C.FAVOUR), ((2, 1, 5), (2, 2, 4))),
            ((C.FAVOUR, C.KEEP), ((2, 5, 1), (2, 4, 2))),
            ((C.KEEP, C.FAVOUR), ((2, 1, 5), (2, 2, 4))),
            ((C.FAVOUR, C.BALANCE), ((2, 5, 1), (2, 4, 2))),
        ],
    )
    def test_coin_cases_membership(self, cats, options):
        # both ratios, in the order the coin indexes them
        assert tuple(r.counts for r in allocation_options(cats, 3)) == options

    def test_coin_is_fair(self, reference_design, rng):
        # interim's coin between a single Disfavour's two ratios is unbiased
        records = _accrued(
            (1, "C", 0.0), (1, "C", 0.0), (1, "T1", 0.0), (1, "T1", 0.0),
            (1, "T2", 0.5), (1, "T2", 0.5), (2, "C", 0.0), (2, "C", 0.0),
            (2, "T1", 0.0), (2, "T1", 0.0), (2, "T2", 0.5), (2, "T2", 0.5),
        )
        policy = MissingPolicy()
        decision = interim_decision(reference_design, records, 3, policy, rng)
        assert decision.applied_categories == (C.DISFAVOUR, C.KEEP)
        assert len(decision.options) == 2
        n = 10_000
        hits = sum(
            interim_decision(reference_design, records, 3, policy, rng).ratio
            == decision.options[0]
            for _ in range(n)
        )
        assert abs(hits / n - 0.5) < 0.02

    def test_arity_and_stage_errors(self):
        with pytest.raises(ValueError):
            allocation_options((C.BALANCE,), 3)
        with pytest.raises(ValueError):
            allocation_options((C.BALANCE, C.BALANCE, C.BALANCE), 3)
        with pytest.raises(ValueError):
            allocation_options((C.BALANCE, C.BALANCE), 4)


class TestTotality:
    @pytest.mark.parametrize("config", [ALPHA, BETA], ids=["alpha", "beta"])
    @pytest.mark.parametrize("stage", [2, 3])
    def test_dense_grid(self, config, stage):
        # every share on a 0.001 grid must categorise and admit only menu
        # ratios with the control entry pinned at 2
        menu = STAGE2_MENU if stage == 2 else STAGE3_MENU
        total = 6 if stage == 2 else 8
        for x1 in np.arange(0.0, 1.0005, 0.001):
            x1 = min(float(x1), 1.0)
            cats = (
                decide_category(x1, stage, config),
                decide_category(1.0 - x1, stage, config),
            )
            for ratio in allocation_options(cats, stage):
                assert ratio.counts in menu
                assert ratio.counts[0] == 2
                assert ratio.total == total

    @given(x1=st.floats(0.0, 1.0), stage=st.sampled_from([2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_mirror_symmetry(self, x1, stage):
        # swapping the two active shares mirrors every option, in the same
        # coin order
        for config in (ALPHA, BETA):
            cats = (
                decide_category(x1, stage, config),
                decide_category(1.0 - x1, stage, config),
            )
            fwd = [r.counts for r in allocation_options(cats, stage)]
            rev = [r.counts for r in allocation_options(cats[::-1], stage)]
            assert rev == [(c, t2, t1) for c, t1, t2 in fwd]


class TestActiveShares:
    def test_renormalises(self):
        x1, x2 = active_shares(ProbVector((0.2, 0.32, 0.48)))
        assert x1 == pytest.approx(0.4)
        assert x2 == pytest.approx(0.6)

    def test_degenerate_control_mass(self):
        assert active_shares(ProbVector((1.0, 0.0, 0.0))) == (0.5, 0.5)


def _options(design, stage, pi):
    """The options of a mapped stage whose pi the mapping categorises."""
    cats = tuple(decide_category(x, stage, design.mapping) for x in active_shares(pi))
    return cats, allocation_options(cats, stage)


class TestStageRatio:
    def test_stage1_balanced(self, reference_design):
        assert planned_ratio(reference_design, 1) == BALANCED[2]

    @pytest.mark.parametrize("stage,expected", [(2, (2, 2, 2)), (3, (2, 3, 3))])
    def test_permuted_block_fixed_schedule(self, stage, expected):
        design = preset_design("permuted_block")
        assert planned_ratio(design, stage).counts == expected

    def test_requires_mapping(self):
        # without a mapping stage 2 is i.i.d. at pi: no ratio to plan
        assert planned_ratio(preset_design("fixed_equal"), 2) is None

    @pytest.mark.parametrize("stage", [0, 4])
    def test_stage_bounds(self, reference_design, stage):
        with pytest.raises(ValueError, match="outside"):
            planned_ratio(reference_design, stage)

    def test_category_override(self):
        # the applied categories alone pick the ratio, whatever pi was
        assert allocation_options((C.DROP, C.KEEP), 3) == (RatioVector((2, 0, 6)),)

    def test_stage2_categorises_active_shares(self, reference_design):
        # raw pi (0.2, 0.32, 0.48) renormalises to (0.40, 0.60): second-stage
        # cut 0.45 sends T1 low and T2 high
        cats, options = _options(reference_design, 2, ProbVector((0.2, 0.32, 0.48)))
        assert planned_ratio(reference_design, 2) is None
        assert cats == (C.DISFAVOUR, C.FAVOUR)
        assert options == (RatioVector((2, 1, 3)),)

    def test_stage3_keep_side_rides_disfavour_coin(self, reference_design):
        # shares (0.40, 0.60) at the last interim: T1 is disfavoured, T2 kept,
        # and the first matching rule randomises the disfavoured arm down
        cats, options = _options(reference_design, 3, ProbVector((0.2, 0.32, 0.48)))
        assert cats == (C.DISFAVOUR, C.KEEP)
        assert [r.counts for r in options] == [(2, 1, 5), (2, 2, 4)]

    def test_stage3_drop(self, reference_design):
        # share below tau = 0.1 drops the arm outright
        cats, options = _options(reference_design, 3, ProbVector((0.2, 0.04, 0.76)))
        assert cats == (C.DROP, C.KEEP)
        assert options == (RatioVector((2, 0, 6)),)


# The ratio each preset fixes before any data, stages 1-3; None where the
# interim's data or i.i.d. assignment decide the stage.
PLANNED = {
    "fixed_equal": (None, None, None),
    "unrestricted": (None, None, None),
    "control_protected": (None, None, None),
    "baseline": ((2, 2, 2), None, None),
    "mapped_alpha": ((2, 2, 2), None, None),
    "mapped_beta": ((2, 2, 2), None, None),
    "permuted_block": ((2, 2, 2), (2, 2, 2), (2, 3, 3)),
}


def test_planned_ratio_table():
    assert set(PLANNED) == set(PRESET_NAMES)
    for name, want in PLANNED.items():
        design = preset_design(name)
        got = tuple(
            None if r is None else r.counts
            for r in (planned_ratio(design, t) for t in (1, 2, 3))
        )
        assert got == want, name
