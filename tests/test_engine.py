import dataclasses
import math
import warnings

import numpy as np
import pytest

from radapt import engine, preset_design
from radapt.analysis import pooled_analysis
from radapt.core import RuleConfig, TrialDesign
from radapt.engine import (
    CalibrationResult,
    InterimRecord,
    MissingPolicy,
    allocation_law,
    calibrate_threshold,
    interim_decision,
    interim_recommendation,
    read_accrued,
    replicate,
    replicate_pooled,
    run_trial,
    write_adaptability_csv,
    write_oc_csv,
    write_tradeoff_csv,
)
from radapt.mapping import (
    BALANCED,
    AdaptationCategory,
    active_shares,
    decide_category,
    stage_ratio,
)
from radapt.outcomes import SCENARIOS, MissingCase, OutcomeModel, impute_stage2_mean
from radapt.posterior import BetaPosterior, SuccessCount, update
from radapt.presets import PRESET_NAMES
from radapt.rules import ArmCounts, ProbVector, fixed_equal, trippa_brar, ts_brar

C = AdaptationCategory

NULL = OutcomeModel.parametric((0.0, 0.0, 0.0))
ALT = OutcomeModel.parametric((0.0, 0.0, 0.3))


def _run(name, seed, case=None, policy=MissingPolicy()):
    return run_trial(
        preset_design(name),
        NULL,
        case=case,
        policy=policy,
        rng=np.random.default_rng(seed),
    )


class TestRunTrialStructure:
    def test_mapped_trajectory_shape(self):
        traj = _run("mapped_alpha", 1)
        assert [s.stage_index for s in traj.stages] == [1, 2, 3]
        assert [sum(s.counts) for s in traj.stages] == [6, 6, 8]
        # restricted blocks pin the control count at 2 in every stage
        assert [s.counts[0] for s in traj.stages] == [2, 2, 2]
        assert traj.stages[0].ratio.counts == (2, 2, 2)
        assert len(traj.records) == 20
        assert len(traj.results) == 2
        assert traj.recommended.label in {"T1", "T2"}
        assert sum(traj.allocation_counts()) == 20
        assert [i.upcoming_stage for i in traj.interims] == [2, 3]

    def test_block_counts_match_ratio(self):
        traj = _run("mapped_beta", 7)
        for stage in traj.stages:
            assert stage.block is not None
            assert stage.block.counts(3) == stage.ratio.counts
            assert stage.counts == stage.ratio.counts

    def test_iid_design_has_no_blocks(self):
        traj = _run("fixed_equal", 3)
        for stage in traj.stages:
            assert stage.ratio is None
            assert stage.block is None
        for interim in traj.interims:
            assert interim.pi.probs == pytest.approx((1 / 3,) * 3)
            assert interim.ratio is None

    def test_deterministic_given_seed(self):
        assert _run("mapped_alpha", 11) == _run("mapped_alpha", 11)
        assert _run("mapped_alpha", 11) != _run("mapped_alpha", 12)

    def test_invalid_design_rejected(self):
        broken = TrialDesign(stages=(), rule=RuleConfig(kind="FixedEqual"))
        with pytest.raises(ValueError, match="invalid design"):
            run_trial(broken, NULL, rng=np.random.default_rng(0))


class TestMissingPolicies:
    @pytest.mark.parametrize("case_id", [1, 2, 5])
    def test_stage2_held_balanced(self, case_id):
        # any stage-1 missingness freezes the stage-2 block at 2:2:2
        for seed in range(40):
            traj = _run("mapped_alpha", seed, case=MissingCase.from_id(case_id))
            interim = traj.interim_before(2)
            assert interim.ratio.counts == (2, 2, 2)
            assert any("balanced" in o for o in interim.overrides)

    @pytest.mark.parametrize("case_id", [3, 4, 5])
    def test_stage3_dropping_suppressed(self, case_id):
        for seed in range(60):
            traj = _run("mapped_alpha", seed, case=MissingCase.from_id(case_id))
            interim = traj.interim_before(3)
            assert interim.ratio.counts not in {(2, 0, 6), (2, 6, 0)}
            assert not {C.DROP, C.KEEP} & set(interim.applied_categories)

    def test_case0_no_overrides(self):
        traj = _run("mapped_alpha", 5, case=MissingCase.from_id(0))
        assert all(not i.overrides for i in traj.interims)
        assert not any(r.missing for r in traj.records)

    def test_imputation_fills_stage2(self):
        policy = MissingPolicy(impute_stage2=True)
        for seed in range(30):
            traj = _run("mapped_alpha", seed, case=MissingCase.from_id(4), policy=policy)
            stage2 = [r for r in traj.records if r.stage == 2]
            imputed = sum(r.imputed for r in stage2)
            still_missing = sum(r.missing for r in stage2)
            assert imputed + still_missing == 2
            assert still_missing == traj.imputation_failures

    def test_imputation_leaves_stage1_missing(self):
        policy = MissingPolicy(impute_stage2=True)
        traj = _run("mapped_alpha", 9, case=MissingCase.from_id(5), policy=policy)
        stage1 = [r for r in traj.records if r.stage == 1]
        assert sum(r.missing for r in stage1) == 1
        assert not any(r.imputed for r in stage1)


def _reference_interim(design, records, stage, policy, rng):
    # The interim decision recomputed from the records with no memo: the
    # conduct rules written out once more from their public parts.
    if policy.impute_stage2:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = impute_stage2_mean(list(records))
    posteriors = []
    for i in range(design.k):
        values = [r.delta_y for r in records if r.arm.index == i and not r.missing]
        wins = sum(v >= design.delta for v in values)
        prior = BetaPosterior(design.prior_alpha[i], design.prior_beta[i])
        posteriors.append(update(prior, SuccessCount(wins, len(values) - wins)))
    posteriors = tuple(posteriors)
    assigned = tuple(sum(r.arm.index == i for r in records) for i in range(design.k))
    rule = design.rule
    if rule.kind == "FixedEqual":
        pi = fixed_equal(design.k)
    elif rule.kind == "TSBRAR":
        pi = ts_brar(posteriors, rule.gamma_for_stage(stage))
    else:
        pi = trippa_brar(
            posteriors, ArmCounts(assigned), rule.gamma_for_stage(stage),
            rule.eta_for_stage(stage), form=rule.control_exponent_form,
        )
    hold = policy.no_adapt_on_stage1_missing and any(
        r.stage == 1 and r.missing for r in records
    )
    keep_arms = policy.no_drop_on_stage2_missing and any(
        r.stage == 2 and r.missing for r in records
    )
    overrides, categories, applied, ratio, dropped = [], None, None, None, ()
    if design.mapping is not None and design.mapping.variant == "PermutedBlock":
        ratio, _ = stage_ratio(design, stage, pi, rng)
    elif design.mapping is not None:
        categories = tuple(
            decide_category(x, stage, design.mapping) for x in active_shares(pi)
        )
        applied = categories
        if stage == 2 and hold:
            ratio = BALANCED[2]
            overrides.append("stage-1 outcomes missing: stage-2 block held balanced")
        else:
            if stage == 3 and keep_arms:
                demote = {C.DROP: C.DISFAVOUR, C.KEEP: C.FAVOUR}
                applied = tuple(demote.get(c, c) for c in categories)
                if applied != categories:
                    overrides.append(
                        "stage-2 outcomes missing: Drop/Keep demoted to "
                        "Disfavour/Favour"
                    )
            ratio, _ = stage_ratio(design, stage, pi, rng, category_override=applied)
    else:
        if stage == 2 and hold:
            pi = fixed_equal(design.k)
            overrides.append(
                "stage-1 outcomes missing: stage-2 randomisation held at 1/K"
            )
        if (
            stage == design.n_stages
            and design.tau_dropping
            and design.stages[stage - 1].arm_dropping_allowed
        ):
            if keep_arms:
                overrides.append(
                    "stage-2 outcomes missing: tau-based arm dropping suppressed"
                )
            else:
                actives = design.active_indices()
                shares = active_shares(pi)
                drops = tuple(i for i, x in zip(actives, shares) if x < design.tau)
                if drops and len(drops) < len(actives):
                    weights = [0.0 if i in drops else p for i, p in enumerate(pi.probs)]
                    total = math.fsum(weights)
                    pi = ProbVector(tuple(w / total for w in weights))
                    dropped = drops
                    labels = ", ".join(design.arms[i].label for i in drops)
                    overrides.append(f"active share below tau, dropped: {labels}")
    return InterimRecord(
        upcoming_stage=stage, posteriors=posteriors, pi=pi, categories=categories,
        applied_categories=applied, overrides=tuple(overrides), ratio=ratio,
        dropped=dropped,
    )


class TestInterimDecisionMemo:
    POLICIES = (
        MissingPolicy(),
        MissingPolicy(impute_stage2=True),
        MissingPolicy(no_adapt_on_stage1_missing=False, no_drop_on_stage2_missing=False),
    )
    MODELS = (NULL, OutcomeModel.parametric((0.0, 0.3, 0.6)))

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_memoised_decision_equals_unmemoised_reference(self, name):
        design = preset_design(name)
        states = []
        for case_id in range(6):
            case = MissingCase.from_id(case_id)
            for policy in self.POLICIES:
                for seed in range(6):
                    traj = run_trial(
                        design, self.MODELS[seed % 2], case=case, policy=policy,
                        rng=np.random.default_rng([case_id, seed]),
                    )
                    for stage in (2, 3):
                        accrued = [
                            r for s in traj.stages[: stage - 1] for r in s.records
                        ]
                        states.append((accrued, stage, policy, seed))
        # a cold memo: a state's first decision is a miss, later ones with
        # the same counts are hits, and a key that confused two states with
        # different decisions would show as a mismatch
        engine._decide.cache_clear()
        for accrued, stage, policy, seed in states:
            got_rng = np.random.default_rng([seed, stage])
            want_rng = np.random.default_rng([seed, stage])
            got = interim_decision(design, accrued, stage, policy, got_rng)
            want = _reference_interim(design, accrued, stage, policy, want_rng)
            for f in dataclasses.fields(InterimRecord):
                assert getattr(got, f.name) == getattr(want, f.name), (
                    name, policy, seed, stage, f.name
                )
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
        info = engine._decide.cache_info()
        assert info.hits > 0 and info.misses > 0


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _assert_row_is_trial(block, r, traj):
    """Row r of a conducted block against the scalar trial on the same stream."""
    cells = [rec for stage in traj.stages for rec in stage.records]
    assert block.arm[r].tolist() == [rec.arm.index for rec in cells]
    assert block.missing[r].tolist() == [rec.missing for rec in cells]
    drawn = [j for j, rec in enumerate(cells) if not rec.missing]
    assert _bits(block.y[r, drawn]) == _bits([cells[j].delta_y for j in drawn])
    # the analysed cells: observed values plus whatever imputation filled
    analysed = traj.records
    assert block.observed[r].tolist() == [rec.delta_y is not None for rec in analysed]
    seen = [j for j, rec in enumerate(analysed) if rec.delta_y is not None]
    assert _bits(block.y[r, seen]) == _bits([analysed[j].delta_y for j in seen])
    for t, stage in enumerate(traj.stages):
        ratios = block.ratios[t]
        got = None if ratios is None else tuple(ratios[r].tolist())
        assert got == (None if stage.ratio is None else stage.ratio.counts)
    for t, interim in enumerate(traj.interims):
        decision = block.decisions[t][block.which[t][r]]
        # a coin-drawn stage-3 ratio lives in block.ratios, checked above
        assert dataclasses.replace(decision, ratio=None) == dataclasses.replace(
            interim, ratio=None
        )
    assert _bits(block.p_value[r]) == _bits([res.p_value for res in traj.results])
    assert block.reject[r].tolist() == [res.reject for res in traj.results]
    assert block.skipped[r].tolist() == [res.skipped for res in traj.results]
    assert block.recommended[r] == traj.recommended.index
    assert block.impute_failures[r] == traj.imputation_failures


def _block_and_trials(design, model, case, policy, master, reps, stream=None):
    """A block conducted on replicates `reps` and the scalar trials on the
    same streams; every row must equal its trial, generator state included."""
    rngs = [engine._rep_rng(master, rep, stream) for rep in reps]
    block = engine._conduct_block(design, model, case, policy, rngs)
    trajs = []
    for r, rep in enumerate(reps):
        rng = engine._rep_rng(master, rep, stream)
        trajs.append(run_trial(design, model, case=case, policy=policy, rng=rng))
        _assert_row_is_trial(block, r, trajs[-1])
        assert rngs[r].bit_generator.state == rng.bit_generator.state
    return block, trajs


def _reference_tally(trajs, effects):
    """The _Tally counters recomputed trajectory by trajectory from the
    scalar trials: realised ratios and applied categories for mapped
    designs, pi and tau drops otherwise."""
    design = trajs[0].design
    k, actives = design.k, design.active_indices()
    centre, tol = 1.0 / k, engine._SHARE_TOL
    per_arm = ("alloc_sum", "alloc_sumsq", "reject", "skip", "recommend",
               "fav2", "dis2", "fav3", "dis3", "drop3", "keep3")
    c = {name: [0] * k for name in per_arm}
    c.update(n=len(trajs), rec_reject=0, any_reject=0, best_reject=0,
             null_reject=0, adapt2=0, adapt3=0, zero3=0, impute_fail=0)
    top = max(effects[i] for i in actives)
    for traj in trajs:
        for i, n in enumerate(traj.allocation_counts()):
            c["alloc_sum"][i] += n
            c["alloc_sumsq"][i] += n * n
        c["impute_fail"] += traj.imputation_failures > 0
        result = {res.treatment.index: res for res in traj.results}
        c["recommend"][traj.recommended.index] += 1
        c["rec_reject"] += result[traj.recommended.index].reject
        rejected = [i for i in actives if result[i].reject]
        for i in actives:
            c["skip"][i] += result[i].skipped
            c["reject"][i] += result[i].reject
        c["any_reject"] += bool(rejected)
        c["best_reject"] += any(top > 0 and effects[i] == top for i in rejected)
        c["null_reject"] += any(effects[i] == 0.0 for i in rejected)

        stage2, pi2 = traj.stages[1], traj.interims[0].pi
        if stage2.ratio is not None:
            base = stage2.ratio.total // k
            c["adapt2"] += any(x != base for x in stage2.ratio.counts)
            for i in actives:
                c["fav2"][i] += stage2.ratio[i] > base
                c["dis2"][i] += stage2.ratio[i] < base
        else:
            c["adapt2"] += any(abs(p - centre) > tol for p in pi2.probs)
            for i in actives:
                c["fav2"][i] += pi2[i] > centre + tol
                c["dis2"][i] += pi2[i] < centre - tol

        stage3, interim3 = traj.stages[2], traj.interims[1]
        c["zero3"] += any(stage3.counts[i] == 0 for i in actives)
        if stage3.ratio is not None:
            c["adapt3"] += stage3.ratio.counts != BALANCED[3].counts
        else:
            c["adapt3"] += any(abs(p - centre) > tol for p in interim3.pi.probs)
        for pos, i in enumerate(actives):
            if interim3.applied_categories is not None:
                cat = interim3.applied_categories[pos]
                name = {C.DROP: "drop3", C.KEEP: "keep3", C.FAVOUR: "fav3",
                        C.DISFAVOUR: "dis3"}.get(cat)
            elif i in interim3.dropped:
                name = "drop3"
            elif interim3.dropped:
                name = "keep3"
            elif interim3.pi[i] > centre + tol:
                name = "fav3"
            elif interim3.pi[i] < centre - tol:
                name = "dis3"
            else:
                name = None
            if name is not None:
                c[name][i] += 1
    return c


class TestBlockConduct:
    POLICIES = TestInterimDecisionMemo.POLICIES
    # a small pilot resampled 20 times: nearly every final test has ties
    BOOT = OutcomeModel.bootstrap(
        (-0.4, -0.1, 0.0, 0.2, 0.3, 0.3, 0.45, 0.7, 1.1), (0.0, 0.2, 0.5)
    )
    MODELS = (OutcomeModel.parametric((0.0, 0.3, 0.4)), BOOT)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_rows_equal_scalar_trials(self, name):
        design = preset_design(name)
        for case_id in range(6):
            case = MissingCase.from_id(case_id)
            for p, policy in enumerate(self.POLICIES):
                for model in self.MODELS:
                    for stream in (None, 0, 1):
                        _block_and_trials(
                            design, model, case, policy, 10 * case_id + p,
                            range(2), stream,
                        )

    @pytest.mark.parametrize("size", [1, 255, 256, 257])
    def test_block_sizes(self, size):
        _block_and_trials(
            preset_design("mapped_beta"), self.MODELS[0], MissingCase.from_id(5),
            MissingPolicy(impute_stage2=True), 99, range(1000, 1000 + size),
        )

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_tally_equals_scalar_reference(self, name):
        design = preset_design(name)
        model = self.MODELS[0]
        for case_id in range(6):
            case = MissingCase.from_id(case_id)
            for p, policy in enumerate(self.POLICIES):
                block, trajs = _block_and_trials(
                    design, model, case, policy, 100 + case_id, range(3 * p, 3 * p + 12)
                )
                tally = engine._Tally(design.k)
                tally.add_block(block, design, model.effects)
                want = _reference_tally(trajs, model.effects)
                for key, value in want.items():
                    got = getattr(tally, key)
                    got = got.tolist() if isinstance(got, np.ndarray) else got
                    assert got == value, (name, case_id, policy, key)

    @pytest.mark.parametrize("name", ["mapped_beta", "baseline", "fixed_equal"])
    @pytest.mark.parametrize("scenario", ["S4", "S9"])
    def test_pooled_tests_equal_pooled_analysis(self, name, scenario):
        design = preset_design(name)
        effects = SCENARIOS[scenario]
        case, policy = MissingCase.from_id(4), MissingPolicy(impute_stage2=True)
        strata = [
            _block_and_trials(
                design, OutcomeModel.parametric(e), case, policy, 5, range(40), s
            )
            for s, e in enumerate((effects.effects_a, effects.effects_b))
        ]
        (block_a, trajs_a), (block_b, trajs_b) = strata
        p, reject, skipped = engine._pooled_tests(block_a, block_b, design)
        for r, (traj_a, traj_b) in enumerate(zip(trajs_a, trajs_b)):
            results = pooled_analysis(
                list(traj_a.records), list(traj_b.records), design
            )
            assert _bits(p[r]) == _bits([res.p_value for res in results])
            assert reject[r].tolist() == [res.reject for res in results]
            assert skipped[r].tolist() == [res.skipped for res in results]


class TestReplicate:
    def test_mapped_control_allocation_pinned(self):
        report = replicate(
            preset_design("mapped_alpha"), NULL, n_reps=50, master_seed=4
        )
        assert report.alloc_mean[0] == 0.3
        assert report.alloc_sd[0] == 0.0
        assert report.n_reps == 50
        assert report.reject_rate[0] is None
        assert sum(report.alloc_mean) == pytest.approx(1.0, abs=1e-9)

    def test_rates_in_unit_interval(self):
        report = replicate(
            preset_design("control_protected"), ALT, n_reps=40, master_seed=8
        )
        for value in (
            report.any_reject_rate,
            report.recommended_reject_rate,
            report.power,
            report.stage2_adapt_rate,
        ):
            assert value is None or 0.0 <= value <= 1.0

    def test_worker_count_invariance(self):
        kwargs = dict(n_reps=40, master_seed=12)
        serial = replicate(preset_design("mapped_beta"), NULL, workers=1, **kwargs)
        parallel = replicate(preset_design("mapped_beta"), NULL, workers=4, **kwargs)
        assert serial == parallel

    def test_bad_rep_count(self):
        with pytest.raises(ValueError):
            replicate(preset_design("fixed_equal"), NULL, n_reps=0, master_seed=0)

    @pytest.mark.parametrize("n_reps", [0, -3])
    def test_pooled_bad_rep_count_before_any_worker(self, n_reps, monkeypatch):
        def no_workers(*args):
            raise AssertionError("a worker pool started")

        monkeypatch.setattr(engine, "_pool_map", no_workers)
        with pytest.raises(ValueError, match=f"n_reps must be >= 1, got {n_reps}"):
            replicate_pooled(
                preset_design("mapped_beta"), SCENARIOS["S4"], n_reps=n_reps,
                workers=2,
            )

    def test_block_boundaries_do_not_change_reports(self):
        # one process conducts blocks 0-255, 256-511 and 512; three conduct
        # 0-171, 171-342 and 342-513, split into blocks differently
        kwargs = dict(n_reps=513, master_seed=21)
        design = preset_design("mapped_alpha")
        assert replicate(design, ALT, workers=1, **kwargs) == replicate(
            design, ALT, workers=3, **kwargs
        )


class TestAllocationLaw:
    def test_shape_and_row_sums(self):
        from radapt import ProbVector

        law = allocation_law(ProbVector((0.5, 0.4, 0.1)), n=20, reps=100, seed=3)
        assert law.shape == (100, 3)
        assert (law.sum(axis=1) == 20).all()

    def test_seeded_determinism(self):
        from radapt import ProbVector

        pi = ProbVector((0.5, 0.4, 0.1))
        a = allocation_law(pi, 20, 50, seed=9)
        b = allocation_law(pi, 20, 50, seed=9)
        assert (a == b).all()

    def test_bad_arguments(self):
        from radapt import ProbVector

        with pytest.raises(ValueError):
            allocation_law(ProbVector((0.5, 0.5)), 0, 10)


class TestCalibrateThreshold:
    def test_degenerate_grid(self):
        result = calibrate_threshold(
            preset_design("mapped_alpha"), 2, [0.5], n_reps=60, master_seed=2
        )
        assert isinstance(result, CalibrationResult)
        assert result.selected == 0.5
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.threshold == 0.5
        assert 0.0 <= row.metric_h0 <= 1.0
        assert 0.0 <= row.metric_h1 <= 1.0
        assert row.pareto

    def test_requires_mapped_design(self):
        with pytest.raises(ValueError, match="mapped"):
            calibrate_threshold(preset_design("fixed_equal"), 2, [0.5])

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="grid"):
            calibrate_threshold(preset_design("mapped_alpha"), 2, [])

    @pytest.mark.parametrize("stage", [1, 4])
    def test_bad_stage(self, stage):
        with pytest.raises(ValueError, match="stage"):
            calibrate_threshold(preset_design("mapped_alpha"), stage, [0.5])

    def test_unknown_criterion(self):
        with pytest.raises(ValueError, match="criterion"):
            calibrate_threshold(
                preset_design("mapped_alpha"), 2, [0.5], criterion="magic"
            )

    def test_tradeoff_csv(self, tmp_path):
        result = calibrate_threshold(
            preset_design("mapped_alpha"), 2, [0.4, 0.5], n_reps=40, master_seed=2
        )
        path = tmp_path / "tradeoff.csv"
        write_tradeoff_csv(result, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "threshold,metric_H0,metric_H1"
        assert len(lines) == 3


class TestReadAccrued:
    def _write(self, tmp_path, body):
        path = tmp_path / "accrued.csv"
        path.write_text("patient_id,stage,arm_label,delta_y\n" + body, encoding="utf-8")
        return path

    def test_round_trip_with_missing(self, tmp_path, reference_design):
        path = self._write(tmp_path, "2,1,T1,NA\n1,1,C,0.5\n3,1,T2,0.9\n")
        records = read_accrued(path, reference_design)
        assert [r.patient_id for r in records] == [1, 2, 3]
        assert records[1].missing
        assert records[0].delta_y == 0.5

    def test_bad_header(self, tmp_path, reference_design):
        path = tmp_path / "x.csv"
        path.write_text("id,arm\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_accrued(path, reference_design)

    @pytest.mark.parametrize(
        "body,message",
        [
            ("1,1,C\n", "columns"),
            ("1,1,C,0.5\n1,1,T1,0.2\n", "duplicate"),
            ("1,9,C,0.5\n", "stage 9"),
            ("1,1,X,0.5\n", "unknown arm"),
            ("1,1,C,abc\n", "number or NA"),
            ("x,1,C,0.5\n", "integers"),
            ("1,1,C,inf\n", "finite"),
        ],
    )
    def test_malformed_rows_name_the_line(self, tmp_path, reference_design, body, message):
        path = self._write(tmp_path, body)
        with pytest.raises(ValueError, match=message):
            read_accrued(path, reference_design)

    def test_empty_file(self, tmp_path, reference_design):
        path = self._write(tmp_path, "")
        with pytest.raises(ValueError, match="no patient rows"):
            read_accrued(path, reference_design)


class TestInterimRecommendation:
    # stage-1 outcomes (2,2,2) with successes (1,1,2): hand-derived posterior
    # comparison gives p = (1/2, 4/5), and the product-form rule at gamma 0.3
    # puts the active shares both above the 0.45 cut
    STAGE1 = [
        (1, "C", 0.5),
        (2, "C", 0.1),
        (3, "T1", 0.4),
        (4, "T1", 0.0),
        (5, "T2", 0.35),
        (6, "T2", 0.9),
    ]

    def _records(self, reference_design, tmp_path, rows=None):
        body = "".join(
            f"{pid},1,{label},{dy}\n" for pid, label, dy in (rows or self.STAGE1)
        )
        path = tmp_path / "accrued.csv"
        path.write_text(
            "patient_id,stage,arm_label,delta_y\n" + body, encoding="utf-8"
        )
        return read_accrued(path, reference_design)

    def test_pinned_end_to_end_oracle(self, reference_design, tmp_path):
        records = self._records(reference_design, tmp_path)
        result = interim_recommendation(reference_design, records, 2, seed=0)
        rec = result.record
        assert [(p.alpha, p.beta) for p in rec.posteriors] == [
            (2.0, 2.0),
            (2.0, 2.0),
            (3.0, 1.0),
        ]
        assert rec.pi.probs == pytest.approx(
            (0.25, 0.34860601028975874, 0.4013939897102412), abs=1e-9
        )
        assert rec.categories == (C.FAVOUR, C.FAVOUR)
        assert rec.ratio.counts == (2, 2, 2)
        assert any("stage-2 ratio: 2:2:2" in line for line in result.audit)
        assert any("Beta(3, 1)" in line for line in result.audit)

    def test_missing_stage1_outcome_forces_balance(self, reference_design, tmp_path):
        rows = [(1, "C", 0.5), (2, "C", 0.1), (3, "T1", "NA"), (4, "T1", 0.0),
                (5, "T2", 0.35), (6, "T2", 0.9)]
        records = self._records(reference_design, tmp_path, rows)
        result = interim_recommendation(reference_design, records, 2, seed=0)
        assert result.record.ratio.counts == (2, 2, 2)
        assert any("balanced" in o for o in result.record.overrides)
        assert any(line.startswith("override:") for line in result.audit)

    def test_deterministic(self, reference_design, tmp_path):
        records = self._records(reference_design, tmp_path)
        a = interim_recommendation(reference_design, records, 2, seed=5)
        b = interim_recommendation(reference_design, records, 2, seed=5)
        assert a == b

    def test_stage_bounds(self, reference_design, tmp_path):
        records = self._records(reference_design, tmp_path)
        with pytest.raises(ValueError, match="upcoming stage"):
            interim_recommendation(reference_design, records, 4)

    def test_missing_prior_stage_data(self, reference_design, tmp_path):
        records = self._records(reference_design, tmp_path)
        with pytest.raises(ValueError, match="stage"):
            interim_recommendation(reference_design, records, 3)


class TestReportCsv:
    def _reports(self):
        return [
            replicate(preset_design("mapped_alpha"), NULL, n_reps=20, master_seed=1),
            replicate(preset_design("fixed_equal"), ALT, n_reps=20, master_seed=1),
        ]

    def test_oc_csv_layout(self, tmp_path):
        reports = self._reports()
        path = tmp_path / "oc.csv"
        write_oc_csv(reports, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        for column in ("design", "alloc_mean_C", "reject_T1", "type1", "power"):
            assert any(column in h for h in header)

    def test_adaptability_csv_layout(self, tmp_path):
        path = tmp_path / "adapt.csv"
        write_adaptability_csv(self._reports(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert "stage2_adapt" in lines[0]

    def test_consecutive_writes_identical(self, tmp_path):
        reports = self._reports()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_oc_csv(reports, a)
        write_oc_csv(reports, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_reports_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no reports"):
            write_oc_csv([], tmp_path / "x.csv")

    def test_mismatched_labels_rejected(self, tmp_path):
        reports = self._reports()
        mangled = dataclasses.replace(reports[1], arm_labels=("C", "A", "B"))
        with pytest.raises(ValueError, match="labels"):
            write_oc_csv([reports[0], mangled], tmp_path / "x.csv")
