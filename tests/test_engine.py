import csv
import dataclasses
import functools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radapt import engine, posterior, preset_design
from radapt.calibration import (
    CalibrationResult,
    calibrate_threshold,
    write_tradeoff_csv,
)
from radapt.core import RuleConfig, TrialDesign, default_arms
from radapt.engine import (
    InterimRecord,
    MissingPolicy,
    interim_recommendation,
    read_accrued,
    replicate,
    replicate_pooled,
    write_adaptability_csv,
    write_oc_csv,
)
from radapt.mapping import (
    BALANCED,
    AdaptationCategory,
    active_shares,
    allocation_options,
    decide_category,
    planned_ratio,
)
from radapt.outcomes import (
    SCENARIOS,
    MissingCase,
    OutcomeModel,
    PatientRecord,
    outcomes_from_raw,
)
from radapt.posterior import BetaPosterior, SuccessCount, update
from radapt.presets import PRESET_NAMES
from radapt.rules import ArmCounts, ProbVector, fixed_equal, trippa_brar, ts_brar
import reference
from reference import (
    _conduct_trial,
    _decide,
    analysis_records,
    impute_stage2_mean,
    interim_decision,
    pooled_analysis,
    run_trial,
)

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
        assert traj.recommended in {"T1", "T2"}
        assert sum(traj.allocation_counts()) == 20
        assert [i.upcoming_stage for i in traj.interims] == [2, 3]

    def test_block_counts_match_ratio(self):
        traj = _run("mapped_beta", 7)
        for stage in traj.stages:
            assert stage.block is not None
            assert stage.block.counts(traj.design.arms) == stage.ratio.counts
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
        broken = TrialDesign(stage_sizes=(), rule=RuleConfig(kind="FixedEqual"))
        with pytest.raises(ValueError, match="invalid design"):
            run_trial(broken, NULL, rng=np.random.default_rng(0))


class TestMissingPolicies:
    @pytest.mark.parametrize("case_id", [1, 2, 5])
    def test_stage2_held_balanced(self, case_id):
        # any stage-1 missingness freezes the stage-2 block at 2:2:2
        for seed in range(40):
            traj = _run("mapped_alpha", seed, case=MissingCase(case_id))
            interim = traj.interim_before(2)
            assert interim.ratio.counts == (2, 2, 2)
            assert any("balanced" in o for o in interim.overrides)

    @pytest.mark.parametrize("case_id", [3, 4, 5])
    def test_stage3_dropping_suppressed(self, case_id):
        for seed in range(60):
            traj = _run("mapped_alpha", seed, case=MissingCase(case_id))
            interim = traj.interim_before(3)
            assert interim.ratio.counts not in {(2, 0, 6), (2, 6, 0)}
            assert not {C.DROP, C.KEEP} & set(interim.applied_categories)

    def test_case0_no_overrides(self):
        traj = _run("mapped_alpha", 5, case=MissingCase(0))
        assert all(not i.overrides for i in traj.interims)
        assert not any(r.missing for r in traj.records)

    def test_imputation_fills_stage2(self):
        policy = MissingPolicy(impute_stage2=True)
        for seed in range(30):
            traj = _run("mapped_alpha", seed, case=MissingCase(4), policy=policy)
            stage2 = [r for r in traj.records if r.stage == 2]
            imputed = sum(r.imputed for r in stage2)
            still_missing = sum(r.missing for r in stage2)
            assert imputed + still_missing == 2
            assert still_missing == traj.imputation_failures

    def test_imputation_leaves_stage1_missing(self):
        policy = MissingPolicy(impute_stage2=True)
        traj = _run("mapped_alpha", 9, case=MissingCase(5), policy=policy)
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
    for i, arm in enumerate(design.arms):
        values = [r.delta_y for r in records if r.arm == arm and not r.missing]
        wins = sum(v >= design.delta for v in values)
        prior = BetaPosterior(design.prior_alpha[i], design.prior_beta[i])
        posteriors.append(update(prior, SuccessCount(wins, len(values) - wins)))
    posteriors = tuple(posteriors)
    assigned = tuple(sum(r.arm == arm for r in records) for arm in design.arms)
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
    overrides, categories, applied, options, dropped = [], None, None, (), ()
    if planned_ratio(design, stage) is not None:
        options = (planned_ratio(design, stage),)
    elif design.mapping is not None:
        categories = tuple(
            decide_category(x, stage, design.mapping) for x in active_shares(pi)
        )
        applied = categories
        if stage == 2 and hold:
            options = (BALANCED[2],)
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
            options = allocation_options(applied, stage)
    else:
        if stage == 2 and hold:
            pi = fixed_equal(design.k)
            overrides.append(
                "stage-1 outcomes missing: stage-2 randomisation held at 1/K"
            )
        if stage == design.n_stages and design.tau_dropping:
            if keep_arms:
                overrides.append(
                    "stage-2 outcomes missing: tau-based arm dropping suppressed"
                )
            else:
                shares = active_shares(pi)
                drops = tuple(i for i, x in enumerate(shares, 1) if x < design.tau)
                if drops and len(drops) < design.k - 1:
                    weights = [0.0 if i in drops else p for i, p in enumerate(pi.probs)]
                    total = math.fsum(weights)
                    pi = ProbVector(tuple(w / total for w in weights))
                    dropped = drops
                    labels = ", ".join(design.arms[i] for i in drops)
                    overrides.append(f"active share below tau, dropped: {labels}")
    ratio = None
    if options:
        # one option, or a fair coin on the caller's stream between two
        ratio = options[rng.integers(2)] if len(options) == 2 else options[0]
    return InterimRecord(
        upcoming_stage=stage, posteriors=posteriors, pi=pi, categories=categories,
        applied_categories=applied, overrides=tuple(overrides), options=options,
        ratio=ratio, dropped=dropped,
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
            case = MissingCase(case_id)
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
        # cold tables: a state's first decision is a miss, later ones with
        # the same counts are hits, and a key that confused two states with
        # different decisions would show as a mismatch
        engine._decision_cache.clear()
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
        tables = engine._decision_cache.values()
        assert sum(t.hits for t in tables) > 0 and sum(t.misses for t in tables) > 0


REACHING_POLICIES = (
    MissingPolicy(),
    MissingPolicy(impute_stage2=True),
    MissingPolicy(no_adapt_on_stage1_missing=False, no_drop_on_stage2_missing=False),
    MissingPolicy(
        no_adapt_on_stage1_missing=False, no_drop_on_stage2_missing=False,
        impute_stage2=True,
    ),
)
REACHING_MODEL = OutcomeModel.parametric((0.0, 0.3, 0.6))


def _reached_tables(design):
    """The decision tables of one block of `design` per case 0-5 under the
    default policy and with both policies off, each with and without
    stage-2 imputation."""
    tables = {}
    for case_id in range(6):
        case = MissingCase(case_id)
        (draws,) = engine._block_draws(
            design, REACHING_MODEL, case_id, 0, engine._BLOCK_REPS
        )
        for policy in REACHING_POLICIES:
            block = engine._conduct_block(design, REACHING_MODEL, case, policy, draws)
            tables.update((id(table), table) for table in block.decisions)
    return list(tables.values())


class TestDecisionTableOracle:
    """Every count key that one block of every preset reaches, cases 0-5,
    under the default policy and with both policies off, each with and
    without stage-2 imputation: the decision table's InterimRecord equals
    the oracle's (reference._decide) field by field, pi by its bits."""

    MODEL = REACHING_MODEL

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_reached_key_equals_the_oracle(self, name):
        design = preset_design(name)
        checked = set()
        for table in _reached_tables(design):
            for row, key in enumerate(table.count_keys.tolist()):
                tallies = tuple(tuple(key[3 * i : 3 * i + 3]) for i in range(design.k))
                want = _decide(
                    design, table.policy, table.stage, tallies,
                    (bool(key[-2]), bool(key[-1])),
                )
                got = table[row]
                for f in dataclasses.fields(InterimRecord):
                    if f.name == "pi":
                        assert _bits(got.pi.probs) == _bits(want.pi.probs), key
                    else:
                        assert getattr(got, f.name) == getattr(want, f.name), (
                            table.policy, table.stage, key, f.name
                        )
                checked.add((table.policy, table.stage, tuple(key)))
        # both interims under all four policies, many keys each
        assert len({(policy, stage) for policy, stage, _ in checked}) == 8
        assert len(checked) > 200

    def test_tables_are_bounded(self, monkeypatch):
        # the tables start afresh once they hold _DECISION_MEMO keys between
        # them; a lookup first adds at most one key per row of its conduct,
        # and a conduct reads its rows from the tables it was conducted with
        monkeypatch.setattr(engine, "_DECISION_MEMO", 40)
        engine._decision_cache.clear()
        design = preset_design("unrestricted")
        case = MissingCase(0)
        group = engine._CONDUCT_BLOCKS * engine._BLOCK_REPS
        blocks = []
        for draws in engine._block_draws(design, self.MODEL, 3, 0, 3 * group):
            blocks.append(
                engine._conduct_block(design, self.MODEL, case, MissingPolicy(), draws)
            )
            held = sum(map(len, engine._decision_cache.values()))
            assert held < 40 + len(draws.coin)
        tables = {id(t): t for b in blocks for t in b.decisions}
        assert len(tables) == 6
        for block in blocks:
            for table, rows in zip(block.decisions, block.which):
                assert rows.max() < len(table)


class TestBatchedProbBest:
    """P(best) of the keys a decision table lacks is evaluated in one array
    call; each arm's value equals the per-key formula
    (reference.prob_best_lone) of its posterior bit for bit, and scipy's
    Beta functions (reference.prob_best_int) to 1e-12."""

    def test_every_reached_key_set_equals_the_per_key_formula(self):
        # the posteriors of every count key one block of each preset reaches
        # at stages 2 and 3, whatever rule the preset runs, in one batch
        rows = set()
        for name in PRESET_NAMES:
            design = preset_design(name)
            priors = np.array([design.prior_alpha, design.prior_beta], dtype=np.int64).T
            for table in _reached_tables(design):
                counts = table.count_keys[:, :-2].reshape(len(table), 3, 3)
                rows.update(map(tuple, (counts[:, :, :2] + priors).reshape(-1, 6).tolist()))
        params = np.array(sorted(rows)).reshape(-1, 3, 2)
        key_sets = [
            tuple((a, b, m) for (a, b), m in sorted(Counter(map(tuple, arms)).items()))
            for arms in params.tolist()
        ]
        assert {len(arms) for arms in key_sets} == {1, 2, 3}
        assert len(set(key_sets)) > 500
        got = posterior._prob_best_rows(params)
        for arms, keys, values in zip(key_sets, params.tolist(), got):
            lone, scipy = (
                dict(zip((arm[:2] for arm in arms), formula(arms)))
                for formula in (reference.prob_best_lone, reference.prob_best_int)
            )
            assert _bits(values) == _bits([lone[tuple(key)] for key in keys]), arms
            assert np.abs(values - [scipy[tuple(key)] for key in keys]).max() <= 1e-12

    def test_a_block_decides_its_new_keys_in_one_call(self, monkeypatch):
        batches = []
        original = engine._prob_best_sets

        def spy(params):
            batches.append(len(params))
            return original(params)

        monkeypatch.setattr(engine, "_prob_best_sets", spy)
        engine._decision_cache.clear()
        design = preset_design("unrestricted")
        (draws,) = engine._block_draws(design, ALT, 4, 0, engine._BLOCK_REPS)
        block = engine._conduct_block(design, ALT, MissingCase(0), MissingPolicy(), draws)
        # one call per interim (stages 2 and 3), with every key its table
        # decided
        assert batches == [len(table) for table in block.decisions]
        assert min(batches) > 1

    def test_the_rule_runs_once_per_key_set(self, monkeypatch):
        # keys whose posteriors are one multiset in different arm orders share
        # one _ts_probs call, scattered to each key's arm order
        calls = []
        original = engine._ts_probs

        def spy(best, gamma):
            calls.append(best)
            return original(best, gamma)

        monkeypatch.setattr(engine, "_ts_probs", spy)
        engine._decision_cache.clear()
        design = preset_design("unrestricted")
        (draws,) = engine._block_draws(design, ALT, 4, 0, engine._BLOCK_REPS)
        block = engine._conduct_block(design, ALT, MissingCase(0), MissingPolicy(), draws)
        priors = np.array([design.prior_alpha, design.prior_beta], dtype=np.int64).T
        key_sets = 0
        for table in block.decisions:
            counts = table.count_keys[:, :-2].reshape(len(table), 3, 3)
            params = (counts[:, :, :2] + priors).tolist()
            key_sets += len({tuple(sorted(map(tuple, arms))) for arms in params})
        assert len(calls) == key_sets < sum(map(len, block.decisions))

    @pytest.mark.parametrize("prior", [1.0, 0.5])
    def test_pi_equals_the_public_rule(self, prior):
        # TSBRAR at gamma 0.5 then 1.7: every key a block decides, through
        # the array P(best) (integer priors) or quadrature, gives the pi
        # rules.ts_brar gives its posteriors, bit for bit
        design = dataclasses.replace(
            preset_design("unrestricted"),
            rule=RuleConfig(kind="TSBRAR", gamma_schedule=(0.5, 1.7)),
            prior_alpha=(prior,) * 3,
        )
        rows = engine._BLOCK_REPS if prior == 1.0 else 24
        (draws,) = engine._block_draws(design, ALT, 4, 0, rows)
        engine._decision_cache.clear()
        block = engine._conduct_block(design, ALT, MissingCase(3), MissingPolicy(), draws)
        for table, gamma in zip(block.decisions, (0.5, 1.7)):
            assert table.gamma == gamma
            for row in range(len(table)):
                want = ts_brar(table[row].posteriors, gamma).probs
                assert _bits(table.pi[row]) == _bits(want), (gamma, row)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _assert_row_is_trial(block, r, traj):
    """Row r of a conducted block against the scalar trial on the row's draws."""
    cells = [rec for stage in traj.stages for rec in stage.records]
    assert block.arm[r].tolist() == [traj.design.arms.index(rec.arm) for rec in cells]
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
    assert block.recommended[r] == traj.design.arms.index(traj.recommended)
    assert block.impute_failures[r] == traj.imputation_failures


def _run_draws(design, model, master, reps, stream=None):
    """The draws of replicates `reps` (a contiguous range) of a run with
    master seed `master`, taken from the run's own block generators."""
    first = reps.start - reps.start % engine._BLOCK_REPS
    blocks = list(engine._block_draws(design, model, master, first, reps.stop, stream))
    rows = np.arange(reps.start - first, reps.stop - first)
    return engine._Draws(
        *(np.concatenate([getattr(b, f.name) for b in blocks])[rows]
          for f in dataclasses.fields(engine._Draws))
    )


def _block_and_trials(design, model, case, policy, master, reps, stream=None):
    """A block conducted on replicates `reps` and the scalar trials on each
    replicate's draws; every row must equal its trial."""
    draws = _run_draws(design, model, master, reps, stream)
    block = engine._conduct_block(design, model, case, policy, draws)
    trajs = []
    for r in range(len(reps)):
        trajs.append(_conduct_trial(design, model, case, policy, draws[r]))
        _assert_row_is_trial(block, r, trajs[-1])
    return block, trajs


def _reference_tally(trajs, effects):
    """The block counters recomputed trajectory by trajectory from the
    scalar trials: realised ratios and applied categories for mapped
    designs, pi and tau drops otherwise."""
    design = trajs[0].design
    k, actives = design.k, range(1, design.k)
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
        result = {design.arms.index(res.treatment): res for res in traj.results}
        recommended = design.arms.index(traj.recommended)
        c["recommend"][recommended] += 1
        c["rec_reject"] += result[recommended].reject
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
            case = MissingCase(case_id)
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
            preset_design("mapped_beta"), self.MODELS[0], MissingCase(5),
            MissingPolicy(impute_stage2=True), 99, range(1000, 1000 + size),
        )

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_tally_equals_scalar_reference(self, name):
        design = preset_design(name)
        model = self.MODELS[0]
        for case_id in range(6):
            case = MissingCase(case_id)
            for p, policy in enumerate(self.POLICIES):
                block, trajs = _block_and_trials(
                    design, model, case, policy, 100 + case_id, range(3 * p, 3 * p + 12)
                )
                counts = engine._block_counts(block, design, model.effects)
                want = _reference_tally(trajs, model.effects)
                for key, value in want.items():
                    got = counts[key]
                    got = got.tolist() if isinstance(got, np.ndarray) else got
                    assert got == value, (name, case_id, policy, key)

    # (scenario, design, case, master seed, replicates); in the last, master
    # seed 2's replicate 1069 assigns stratum A no T1 patient
    POOLED_RUNS = [
        pytest.param(scenario, name, 4, 5, range(40), id=f"{scenario}-{name}")
        for scenario in ("S4", "S9")
        for name in ("mapped_beta", "baseline", "fixed_equal")
    ] + [
        pytest.param(
            "S1", "fixed_equal", 0, 2, range(1050, 1090), id="S1-fixed_equal-case0"
        ),
    ]

    @pytest.mark.parametrize("scenario, name, case_id, master, reps", POOLED_RUNS)
    def test_pooled_tests_equal_pooled_analysis(
        self, scenario, name, case_id, master, reps
    ):
        design = preset_design(name)
        effects = SCENARIOS[scenario]
        case = MissingCase(case_id)
        policy = MissingPolicy(impute_stage2=True)
        strata = [
            _block_and_trials(
                design, OutcomeModel.parametric(e), case, policy, master, reps, s
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


IMPUTE = MissingPolicy(impute_stage2=True)


def _assert_mean_imputed_is_record_path(k, stages, arm, y, missing):
    """engine._mean_imputed over a block against the reference imputer on
    each row's records: values, availability and failures, bit for bit."""
    arms = default_arms(k)
    stage_of = np.repeat(np.arange(1, len(stages) + 1), stages)
    view, observed, failures = engine._mean_imputed(arm, y, missing, stage_of, k)
    for r in range(len(arm)):
        records = [
            PatientRecord(j + 1, int(stage_of[j]), arms[a], None if gone else v)
            for j, (a, v, gone) in enumerate(
                zip(arm[r].tolist(), y[r].tolist(), missing[r].tolist())
            )
        ]
        imputed, want_failures = analysis_records(records, IMPUTE)
        values = [rec.delta_y for rec in imputed]
        present = [v for v in values if v is not None]
        assert observed[r].tolist() == [v is not None for v in values]
        assert _bits(view[r, observed[r]]) == _bits(present)
        assert failures[r] == want_failures
    return view, observed, failures


@st.composite
def imputation_blocks(draw):
    # tied values, signed zeros and free floats; about a third of the cells
    # missing, in every stage; layouts up to 16 patients in one stage, so
    # some cells have 8 or more donors
    k = draw(st.integers(2, 4))
    stages = draw(st.sampled_from([(6, 6, 8), (10, 10, 8), (16, 4), (1, 12, 3, 2)]))
    shape = (draw(st.integers(1, 4)), sum(stages))
    cells = shape[0] * shape[1]

    def block(elements):
        return draw(st.lists(elements, min_size=cells, max_size=cells))

    value = st.one_of(
        st.integers(-2, 2).map(float),
        st.sampled_from([-0.0, 0.0]),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    arm = np.array(block(st.integers(0, k - 1))).reshape(shape)
    y = np.array(block(value), dtype=float).reshape(shape)
    missing = np.array(block(st.sampled_from([False, False, True]))).reshape(shape)
    return k, stages, arm, y, missing


class TestArrayImputer:
    @given(blocks=imputation_blocks())
    @settings(max_examples=300, deadline=None)
    def test_equals_record_path(self, blocks):
        _assert_mean_imputed_is_record_path(*blocks)

    def test_no_donor_fails_and_other_stages_stay_missing(self):
        # arm 2's stage-1 cells are both missing, so its stage-2 cell (column
        # 6) has no donor; columns 4, 5 (stage 1) and 12 (stage 3) stay missing
        arm = np.array([[0, 0, 1, 1, 2, 2, 2, 0, 1, 2, 0, 1, 0, 1, 2, 0, 1, 2, 0, 1]])
        y = np.linspace(-1.0, 1.0, 20)[None, :]
        missing = np.zeros_like(arm, dtype=bool)
        missing[0, [4, 5, 6, 12]] = True
        view, observed, failures = _assert_mean_imputed_is_record_path(
            3, (6, 6, 8), arm, y, missing
        )
        assert np.flatnonzero(~observed[0]).tolist() == [4, 5, 6, 12]
        assert failures.tolist() == [1]

    def test_eight_or_more_donors_take_np_mean(self):
        # ten stage-1 donors on arm 0 whose left-to-right sum differs from
        # np.mean's pairwise one in the last bit
        donors = np.random.default_rng(1).normal(size=10)
        sequential = 0.0
        for v in donors.tolist():
            sequential += v
        assert sequential / 10 != np.mean(donors)
        arm = np.zeros((1, 28), dtype=np.int64)
        y = np.zeros((1, 28))
        y[0, :10] = donors
        missing = np.zeros_like(arm, dtype=bool)
        missing[0, 10] = True
        view, _, _ = _assert_mean_imputed_is_record_path(
            2, (10, 10, 8), arm, y, missing
        )
        assert _bits([view[0, 10]]) == _bits([np.mean(donors)])

    def test_negative_zero_donor_sums_from_zero(self):
        # np.mean sums from +0.0, so a lone -0.0 donor imputes +0.0
        arm = np.zeros((1, 4), dtype=np.int64)
        y = np.array([[-0.0, 5.0, 0.0, 0.0]])
        missing = np.array([[False, True, False, False]])
        view, _, _ = _assert_mean_imputed_is_record_path(2, (1, 3), arm, y, missing)
        assert _bits([view[0, 1]]) == _bits([0.0])

    def test_imputed_cell_donates_nothing(self):
        # arm 0 misses columns 6 and 8: column 8's donors are columns 0, 1
        # and 7, not the value imputed at column 6
        arm = np.array([[0, 0, 1, 1, 2, 2, 0, 0, 0, 1, 2, 1, 0, 0, 1, 1, 2, 2, 0, 1]])
        y = np.arange(1.0, 21.0)[None, :]
        missing = np.zeros_like(arm, dtype=bool)
        missing[0, [6, 8]] = True
        view, observed, _ = _assert_mean_imputed_is_record_path(
            3, (6, 6, 8), arm, y, missing
        )
        assert observed[0, [6, 8]].tolist() == [True, True]
        assert view[0, 6] == np.mean([1.0, 2.0])
        assert view[0, 8] == np.mean([1.0, 2.0, 8.0])

    def test_replaced_imputer_takes_the_record_path(self, monkeypatch):
        kwargs = dict(
            case=MissingCase(4), policy=IMPUTE, n_reps=60, master_seed=3
        )
        design = preset_design("mapped_beta")
        default = replicate(design, ALT, **kwargs)
        calls = []

        def far_below(arm, y, missing, stage_of, k):
            calls.append(len(arm))
            target = missing & (stage_of == 2)
            return (
                np.where(target, -1e6, y), ~missing | target,
                np.zeros(len(arm), dtype=np.int64),
            )

        monkeypatch.setattr(engine, "_mean_imputed", far_below)
        replaced = replicate(design, ALT, **kwargs)
        assert calls
        assert replaced.rates["imputation_failures"] == 0.0
        assert replaced != default


def _tsbrar(sizes):
    return dataclasses.replace(
        preset_design("unrestricted"),
        stage_sizes=sizes,
        rule=RuleConfig(kind="TSBRAR", gamma_schedule=(1.0,) * (len(sizes) - 1)),
    )


class TestImputeOnce:
    """A conduct imputes once, when stage 2 closes, and every later decision
    and the final analysis read that view extended by the later cells: the
    view _mean_imputed builds over all of the block's columns."""

    @pytest.mark.parametrize("case_id", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "design",
        [_tsbrar((10, 10)), _tsbrar((6, 6, 8)), _tsbrar((6, 6, 6, 6)),
         preset_design("mapped_beta")],
        ids=["tsbrar-2", "tsbrar-3", "tsbrar-4", "mapped_beta-3"],
    )
    def test_one_call_builds_the_whole_view(self, design, case_id, monkeypatch):
        calls = []
        imputed = engine._mean_imputed

        def spy(arm, y, missing, stage_of, k):
            calls.append(stage_of.tolist())
            return imputed(arm, y, missing, stage_of, k)

        monkeypatch.setattr(engine, "_mean_imputed", spy)
        draws = _run_draws(design, ALT, 11, range(0, 300))
        block = engine._conduct_block(design, ALT, MissingCase(case_id), IMPUTE, draws)
        # once, on stages 1 and 2
        assert calls == [[t for t, size in enumerate(design.stage_sizes[:2], 1)
                          for _ in range(size)]]
        drawn = outcomes_from_raw(ALT, block.arm, draws.raw)
        view, observed, failures = imputed(
            block.arm, drawn, block.missing, block.stage_of, design.k
        )
        assert _bits(block.y) == _bits(view)
        assert np.array_equal(block.observed, observed)
        assert np.array_equal(block.impute_failures, failures)
        # cases 3-5 miss stage-2 cells, which imputation fills
        assert (block.observed & block.missing).any() == (case_id >= 3)

    def test_no_imputation_without_the_policy(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("imputed without the policy")

        monkeypatch.setattr(engine, "_mean_imputed", refuse)
        design = _tsbrar((6, 6, 6, 6))
        draws = _run_draws(design, ALT, 11, range(0, 50))
        block = engine._conduct_block(design, ALT, MissingCase(5), MissingPolicy(), draws)
        assert np.array_equal(block.observed, ~block.missing)


class TestReplicate:
    def test_mapped_control_allocation_pinned(self):
        report = replicate(
            preset_design("mapped_alpha"), NULL, n_reps=50, master_seed=4
        )
        assert report.rates["alloc_mean"][0] == 0.3
        assert report.rates["alloc_sd"][0] == 0.0
        assert report.n_reps == 50
        assert report.rates["reject"][0] is None
        assert sum(report.rates["alloc_mean"]) == pytest.approx(1.0, abs=1e-9)

    def test_rates_in_unit_interval(self):
        report = replicate(
            preset_design("control_protected"), ALT, n_reps=40, master_seed=8
        )
        for value in (
            report.rates["any_reject"],
            report.rates["recommended_reject"],
            report.rates["power"],
            report.rates["stage2_adapt"],
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

    def test_two_arm_tau_dropping_never_drops(self):
        # the one active arm holds every active share, 1 >= tau, so the last
        # interim drops and keeps nothing
        design = dataclasses.replace(
            preset_design("unrestricted"),
            arms=default_arms(2),
            prior_alpha=(1.0, 1.0),
            prior_beta=(1.0, 1.0),
            stage_sizes=(8, 8, 8),
            tau_dropping=True,
        )
        model = OutcomeModel.parametric((0.0, 0.3))
        report = replicate(design, model, n_reps=300, master_seed=1)
        assert report.rates["drop3"] == (None, 0.0)
        assert report.rates["keep3"] == (None, 0.0)

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

    @pytest.mark.parametrize("workers", [0, -4])
    @pytest.mark.parametrize(
        "run", ["replicate", "replicate_pooled", "calibrate_threshold"]
    )
    def test_bad_worker_count_before_any_worker(self, run, workers, monkeypatch):
        def no_workers(*args):
            raise AssertionError("a worker pool started")

        monkeypatch.setattr(engine, "_pool_map", no_workers)
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            if run == "replicate":
                replicate(preset_design("mapped_beta"), NULL, workers=workers)
            elif run == "replicate_pooled":
                replicate_pooled(
                    preset_design("mapped_beta"), SCENARIOS["S4"], workers=workers
                )
            else:
                calibrate_threshold(
                    preset_design("mapped_alpha"), 2, [0.5], workers=workers
                )

    def test_pooled_strata_share_the_design_tables(self, monkeypatch):
        # both strata conduct with the one design: one decision table per
        # adaptive stage, and both strata's blocks read the same tables
        blocks = []
        conduct = engine._conduct_block

        def spy(*args):
            blocks.append(conduct(*args))
            return blocks[-1]

        monkeypatch.setattr(engine, "_conduct_block", spy)
        engine._decision_cache.clear()
        replicate_pooled(
            preset_design("mapped_beta"), SCENARIOS["S4"], case=MissingCase(4),
            policy=IMPUTE, n_reps=500, master_seed=2,
        )
        tables = sorted(engine._decision_cache.values(), key=lambda t: t.stage)
        assert [t.stage for t in tables] == [2, 3]
        assert len(blocks) == 2
        for block in blocks:
            assert list(map(id, block.decisions)) == list(map(id, tables))

    @pytest.mark.parametrize("sizes", [(10, 10), (20,)])
    def test_missing_stages_report_na(self, sizes, tmp_path):
        design = dataclasses.replace(
            preset_design("control_protected"),
            stage_sizes=sizes,
        )
        report = replicate(design, ALT, n_reps=50, master_seed=0)
        absent = [
            "stage3_adapt", "stage3_zero", "favour3", "disfavour3", "drop3", "keep3"
        ]
        if len(sizes) < 2:
            absent += ["stage2_adapt", "favour2", "disfavour2"]
        else:
            assert report.rates["stage2_adapt"] is not None
        assert all(report.rates[stem] is None for stem in absent)
        path = tmp_path / "adaptability.csv"
        write_adaptability_csv([report], path)
        with path.open(newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        for name, value in row.items():
            if name.split("_")[0] in absent or name in absent:
                assert value == "NA", name

    def test_block_boundaries_do_not_change_reports(self):
        # one process conducts blocks 0-255, 256-511 and 512 together; three
        # conduct one block each
        kwargs = dict(n_reps=513, master_seed=21)
        design = preset_design("mapped_alpha")
        assert replicate(design, ALT, workers=1, **kwargs) == replicate(
            design, ALT, workers=3, **kwargs
        )


GROUPING_MASTER = 31
# (design, model, case, policy) of the single-stratum runs, and the pooled run
GROUPED_RUNS = {
    "unrestricted": ("unrestricted", ALT, MissingCase(0), MissingPolicy()),
    "mapped_alpha": ("mapped_alpha", ALT, MissingCase(4), IMPUTE),
}
POOLED_RUN = ("mapped_beta", SCENARIOS["S4"], MissingCase(4), IMPUTE)


@functools.lru_cache(maxsize=None)
def _blockwise_reports(run: str, n: int):
    """The reports of an n-replicate run with every block of _BLOCK_REPS
    rows conducted and counted alone, then merged."""
    size, master = engine._BLOCK_REPS, GROUPING_MASTER
    if run != "pooled":
        name, model, case, policy = GROUPED_RUNS[run]
        design = preset_design(name)
        parts = []
        for lo in range(0, n, size):
            (draws,) = engine._block_draws(design, model, master, lo, min(lo + size, n))
            block = engine._conduct_block(design, model, case, policy, draws)
            parts.append(engine._block_counts(block, design, model.effects))
        counts = engine._merge(parts)
        report = engine._report(
            counts, design, model.effects, case, policy, "custom",
            design.stratum_label, master,
        )
        return (report,)
    name, scenario, case, policy = POOLED_RUN
    design = preset_design(name)
    # each stratum conducts with its own copy of the design, so with its own
    # decision tables, where the engine's strata share one set
    strata = [
        (dataclasses.replace(design, stratum_label=label), OutcomeModel.parametric(e))
        for label, e in (("A", scenario.effects_a), ("B", scenario.effects_b))
    ]
    sums = tuple(a + b for a, b in zip(scenario.effects_a, scenario.effects_b))
    parts = []
    for lo in range(0, n, size):
        blocks = []
        for s, (d, model) in enumerate(strata):
            (draws,) = engine._block_draws(d, model, master, lo, min(lo + size, n), s)
            blocks.append(engine._conduct_block(d, model, case, policy, draws))
        _, reject, skipped = engine._pooled_tests(*blocks, strata[0][0])
        parts.append([
            *(
                engine._block_counts(b, d, m.effects)
                for b, (d, m) in zip(blocks, strata)
            ),
            engine._test_counts(reject, skipped, strata[0][0], sums),
        ])
    rows = [(d, m.effects) for d, m in strata]
    rows.append((dataclasses.replace(design, stratum_label="pooled"), sums))
    return tuple(
        engine._report(
            engine._merge(column), d, effects, case, policy,
            scenario.scenario_id, d.stratum_label, master,
        )
        for column, (d, effects) in zip(zip(*parts), rows)
    )


class TestGroupedConduct:
    """A worker conducts up to _CONDUCT_BLOCKS blocks as one set of arrays;
    runs whose length cuts a group report exactly what every block
    conducted alone reports."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [1, 255, 257, 1023, 1025, 2100])
    @pytest.mark.parametrize("run", [*GROUPED_RUNS, "pooled"])
    def test_grouping_moves_no_count(self, run, n, workers):
        kwargs = dict(n_reps=n, master_seed=GROUPING_MASTER, workers=workers)
        if run == "pooled":
            name, scenario, case, policy = POOLED_RUN
            got = replicate_pooled(
                preset_design(name), scenario, case=case, policy=policy, **kwargs
            )
        else:
            name, model, case, policy = GROUPED_RUNS[run]
            design = preset_design(name)
            got = (replicate(design, model, case=case, policy=policy, **kwargs),)
        assert got == _blockwise_reports(run, n)


def _allocation_law(pi, n, reps, seed=0):
    # reps x K i.i.d. allocation counts of n patients at fixed pi, drawn as
    # acceptance criterion 1 draws them
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    return rng.multinomial(n, np.asarray(pi.probs), size=reps)


class TestAllocationLaw:
    def test_shape_and_row_sums(self):
        law = _allocation_law(ProbVector((0.5, 0.4, 0.1)), n=20, reps=100, seed=3)
        assert law.shape == (100, 3)
        assert (law.sum(axis=1) == 20).all()

    def test_seeded_determinism(self):
        pi = ProbVector((0.5, 0.4, 0.1))
        a = _allocation_law(pi, 20, 50, seed=9)
        b = _allocation_law(pi, 20, 50, seed=9)
        assert (a == b).all()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            _allocation_law(ProbVector((0.5, 0.5)), -1, 10)


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

    def test_tau_drops_the_third_of_three_actives(self):
        # stages 1 and 2 each give C, T1 and T2 a success and T3 a failure:
        # Beta(3, 1) three times and Beta(1, 3). T3 is best with probability
        # int 3 (1 - x)^2 x^9 dx = 3 B(10, 3) = 1/220, the others 73/220
        # each, so at gamma 1 T3's share of the actives is 1/147 < tau and
        # it alone is dropped, leaving 1/3 to each other arm
        design = dataclasses.replace(
            preset_design("unrestricted"),
            arms=default_arms(4),
            prior_alpha=(1.0,) * 4,
            prior_beta=(1.0,) * 4,
            stage_sizes=(4, 4, 4),
            tau_dropping=True,
        )
        outcomes = {"C": 0.5, "T1": 0.5, "T2": 0.5, "T3": 0.0}
        records = [
            PatientRecord(4 * (t - 1) + i + 1, t, label, dy)
            for t in (1, 2)
            for i, (label, dy) in enumerate(outcomes.items())
        ]
        rec = interim_recommendation(design, records, 3).record
        posteriors = [(p.alpha, p.beta) for p in rec.posteriors]
        assert posteriors == [(3.0, 1.0), (3.0, 1.0), (3.0, 1.0), (1.0, 3.0)]
        assert rec.dropped == (3,)
        assert rec.pi.probs[3] == 0.0
        assert rec.pi.probs[:3] == pytest.approx((1 / 3,) * 3, abs=1e-12)
        assert rec.overrides == ("active share below tau, dropped: T3",)

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

    # (stage, arm index) of each patient, ids 1, 2, ... in order
    BLOCK1 = [(1, 0), (1, 0), (1, 1), (1, 1), (1, 2), (1, 2)]

    @pytest.mark.parametrize(
        "name,spec,stage,message",
        [
            # a 4:1:1 stage 1 plus a stage-2 patient: decided, it would
            # count the stage-2 patient into T1's posterior
            (
                "mapped_alpha",
                [(1, 0)] * 4 + [(1, 1), (1, 2), (2, 1)],
                2,
                "patient 7: a stage-2 patient, but the interim before stage 2 "
                "may use only stages before it",
            ),
            (
                "mapped_alpha",
                [(1, 0)] * 4 + [(1, 1), (1, 2)],
                2,
                "patient 1: stage 1 splits the arms 4:1:1, the design's "
                "stage-1 block is 2:2:2",
            ),
            (
                "control_protected",
                BLOCK1[:5],
                2,
                "patient 1: stage 1 has 5 patients, the design plans 6",
            ),
            (
                "mapped_beta",
                BLOCK1 + [(2, 0), (2, 0), (2, 0), (2, 1), (2, 2), (2, 2)],
                3,
                "patient 7: stage 2 has 3 control patients, the design fixes 2",
            ),
            (
                "permuted_block",
                BLOCK1 + [(2, 0), (2, 0), (2, 1), (2, 2), (2, 2), (2, 2)],
                3,
                "patient 7: stage 2 splits the arms 2:1:3, the design's "
                "stage-2 block is 2:2:2",
            ),
            (
                "baseline",
                BLOCK1,
                3,
                "accrued data has no patients in stage(s) 2",
            ),
            (
                "unrestricted",
                BLOCK1 + [(0, 1)],
                2,
                "patient 7: stage 0 outside 1..3",
            ),
            # decided, an active arm foreign to the design would count as T1
            (
                "mapped_alpha",
                BLOCK1[:2] + [(1, "X")] * 2 + BLOCK1[4:],
                2,
                "patient 3: arm 'X' is not one of the design's arms C, T1, T2",
            ),
            (
                "mapped_alpha",
                BLOCK1[:4] + [(1, "T5")] + BLOCK1[5:],
                2,
                "patient 5: arm 'T5' is not one of the design's arms C, T1, T2",
            ),
        ],
        ids=[
            "later_stage", "split", "size", "controls", "planned_block",
            "absent_stage", "stage_0", "foreign_label", "beyond_k",
        ],
    )
    def test_refuses_what_read_accrued_refuses(self, name, spec, stage, message):
        # a spec entry's arm is a position in the design's arms or a label
        design = preset_design(name)
        arms = design.arms
        records = [
            PatientRecord(pid, t, a if isinstance(a, str) else arms[a], 0.5)
            for pid, (t, a) in enumerate(spec, start=1)
        ]
        with pytest.raises(ValueError) as info:
            interim_recommendation(design, records, stage)
        assert str(info.value) == message


class TestInterimThroughBlockPath:
    """interim decides on accrued records as a block of one row; the
    reference decides on the records themselves. Every field must agree, and
    the coin's generator must end in one state."""

    POLICIES = TestInterimDecisionMemo.POLICIES

    @staticmethod
    def _assert_equals_reference(design, records, stage, policy, seed):
        got_rng = np.random.default_rng(np.random.SeedSequence([seed]))
        want_rng = np.random.default_rng(np.random.SeedSequence([seed]))
        got = engine._accrued_decision(
            design, records, stage, policy, lambda: got_rng
        )
        want = interim_decision(design, records, stage, policy, want_rng)
        for f in dataclasses.fields(InterimRecord):
            assert getattr(got, f.name) == getattr(want, f.name), (
                design.name, policy, seed, stage, f.name
            )
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        result = interim_recommendation(design, records, stage, policy, seed)
        assert result.record == got

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_equals_reference_on_conducted_trials(self, name):
        design = preset_design(name)
        for case_id in range(6):
            case = MissingCase(case_id)
            for p, policy in enumerate(self.POLICIES):
                for seed in range(4):
                    traj = run_trial(
                        design, TestInterimDecisionMemo.MODELS[seed % 2],
                        case=case, policy=policy,
                        rng=np.random.default_rng([case_id, p, seed]),
                    )
                    for stage in (2, 3):
                        accrued = [
                            r for s in traj.stages[: stage - 1] for r in s.records
                        ]
                        self._assert_equals_reference(
                            design, accrued, stage, policy, seed
                        )

    @pytest.mark.parametrize("name", ["mapped_alpha", "baseline", "unrestricted"])
    def test_patient_ids_interleaving_stages(self, name, tmp_path):
        # stage-2 patients take ids before stage-1 ones, so which earlier
        # cells donate to a missing stage-2 cell follows the ids
        design = preset_design(name)
        path = tmp_path / "accrued.csv"
        for seed in range(30):
            traj = run_trial(
                design, ALT, case=MissingCase(5), policy=IMPUTE,
                rng=np.random.default_rng(seed),
            )
            cells = [r for s in traj.stages[:2] for r in s.records]
            ids = (np.random.default_rng(seed).permutation(len(cells)) + 1).tolist()
            path.write_text(
                "patient_id,stage,arm_label,delta_y\n" + "".join(
                    f"{pid},{r.stage},{r.arm},"
                    f"{'NA' if r.missing else repr(r.delta_y)}\n"
                    for pid, r in zip(ids, cells)
                ),
                encoding="utf-8",
            )
            records = read_accrued(path, design, upcoming_stage=3)
            stages = [r.stage for r in records]
            assert stages != sorted(stages)
            for policy in self.POLICIES:
                self._assert_equals_reference(design, records, 3, policy, seed)

    def test_eight_or_more_donors(self):
        # an i.i.d. stage 1 of 16 puts ten observed controls before the
        # missing stage-2 control; np.mean of the ten reaches delta 0.3 and
        # their left-to-right sum does not, so imputing by the prefix sum
        # would count a failure where the reference counts a success
        donors = np.random.default_rng(5).normal(0.3, 0.2, 10)
        donors = (donors - donors.mean() + 0.3).tolist()
        assert sum(donors) / 10 < 0.3 <= np.mean(donors)
        design = dataclasses.replace(
            preset_design("fixed_equal"),
            stage_sizes=(16, 6, 8),
        )
        arms = default_arms(3)
        spec = [(1, 0, v) for v in donors] + [(1, 1, 0.5)] * 3 + [(1, 2, 0.1)] * 3
        spec += [
            (2, 0, None), (2, 1, 0.2), (2, 1, 0.4), (2, 2, 0.6), (2, 2, 0.0),
            (2, 0, 0.9),
        ]
        records = [
            PatientRecord(j + 1, stage, arms[a], v)
            for j, (stage, a, v) in enumerate(spec)
        ]
        self._assert_equals_reference(design, records, 3, IMPUTE, 0)
        got = engine._accrued_decision(
            design, records, 3, IMPUTE, lambda: np.random.default_rng(0)
        )
        # the ten donors, the imputed cell and the observed 0.9
        wins = sum(v >= 0.3 for v in donors) + 2
        assert got.posteriors[0] == BetaPosterior(1 + wins, 1 + 12 - wins)


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
