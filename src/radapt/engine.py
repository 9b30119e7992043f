"""Trial conduct and replication: single trajectories, operating
characteristics over many replicates, threshold calibration, and one-off
interim recommendations on accrued data.

Determinism contract
--------------------
Replicate r of a run with master seed m draws every random quantity from
``SeedSequence([m, r])`` (pooled strata use ``[m, r, 0]`` and ``[m, r, 1]``).
The continuous rules draw nothing: each one, P(best) included, is computed
exactly from the posterior state and the assigned counts, so memoised values
cannot depend on evaluation order or on how replicates are split across worker
processes.
Replicate aggregation uses integer accumulators only; every reported float is
derived once from the merged integers, which makes reports byte-identical for
any worker count and across repeated runs.

Replicates are conducted in blocks, all rows one stage at a time, over
(replicates x patients) arrays of arms, outcomes and missing cells. Each row
keeps its own generator and draws from it exactly what run_trial draws from
the same generator, in the same order, so where a replicate falls in a block
changes nothing. run_trial stays the scalar reference, one trial at a time.
"""

from __future__ import annotations

import csv
import math
import multiprocessing
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .analysis import TestResult, rank_sum_rows, stratum_decision
from .core import ArmId, TrialDesign, validate_design
from .mapping import (
    BALANCED,
    AdaptationCategory,
    RatioVector,
    active_shares,
    allocation_options,
    decide_category,
    resolve_allocation,
    stage_ratio,
)
from .outcomes import (
    CALIBRATED_SIGMA,
    DEFAULT_SHAPE,
    MissingCase,
    OutcomeModel,
    PatientRecord,
    Scenario,
    dichotomise,
    draw_outcome,
    draw_raw,
    impute_stage2_mean,
    mark_missing,
    outcomes_from_raw,
)
from .posterior import BetaPosterior, SuccessCount, update
from .randlist import RandomisationBlock, generate_block
from .rules import ArmCounts, ProbVector, fixed_equal, trippa_brar, ts_brar

__all__ = [
    "MissingPolicy",
    "InterimRecord",
    "StageRecord",
    "TrialTrajectory",
    "run_trial",
    "interim_decision",
    "posterior_snapshot",
    "OCReport",
    "replicate",
    "replicate_pooled",
    "allocation_law",
    "CalibrationRow",
    "CalibrationResult",
    "calibrate_threshold",
    "InterimResult",
    "interim_recommendation",
    "read_accrued",
    "write_oc_csv",
    "write_adaptability_csv",
    "write_tradeoff_csv",
]

_SHARE_TOL = 1e-9


@dataclass(frozen=True)
class MissingPolicy:
    """Conduct-time handling of missing interim outcomes.

    no_adapt_on_stage1_missing
        Any missing stage-1 outcome at the first interim forces the stage-2
        allocation to be balanced (ratio 2:2:2 for mapped designs, pi = 1/K
        otherwise).
    no_drop_on_stage2_missing
        Any missing stage-2 outcome at the last interim suppresses arm
        dropping: mapped Drop/Keep categories are demoted to Disfavour/Favour
        and tau-based dropping is skipped.
    impute_stage2
        Replace missing stage-2 outcomes by their arm's observed mean before
        each interim and the final analysis. Imputation runs first, so an
        imputed stage-2 outcome no longer counts as missing for the dropping
        policy above.
    """

    no_adapt_on_stage1_missing: bool = True
    no_drop_on_stage2_missing: bool = True
    impute_stage2: bool = False


@dataclass(frozen=True)
class InterimRecord:
    """Everything decided at one interim, before `upcoming_stage` opens."""

    upcoming_stage: int
    posteriors: tuple[BetaPosterior, ...]
    pi: ProbVector
    categories: tuple[AdaptationCategory, ...] | None
    applied_categories: tuple[AdaptationCategory, ...] | None
    overrides: tuple[str, ...]
    ratio: RatioVector | None
    dropped: tuple[int, ...] = ()


@dataclass(frozen=True)
class StageRecord:
    """One accrual stage as conducted."""

    stage_index: int
    ratio: RatioVector | None
    block: RandomisationBlock | None
    counts: tuple[int, ...]
    records: tuple[PatientRecord, ...]


@dataclass(frozen=True)
class TrialTrajectory:
    """A completed one-stratum trial: conduct history plus final readouts.

    `records` is the analysis-ready patient list (missingness applied and,
    when the policy asks for it, stage-2 outcomes imputed); the per-stage
    records inside `stages` are kept pre-imputation.
    """

    design: TrialDesign
    stages: tuple[StageRecord, ...]
    interims: tuple[InterimRecord, ...]
    records: tuple[PatientRecord, ...]
    results: tuple[TestResult, ...]
    recommended: ArmId
    imputation_failures: int = 0

    def allocation_counts(self) -> tuple[int, ...]:
        total = [0] * self.design.k
        for stage in self.stages:
            for i, c in enumerate(stage.counts):
                total[i] += c
        return tuple(total)

    def interim_before(self, stage: int) -> InterimRecord:
        for rec in self.interims:
            if rec.upcoming_stage == stage:
                return rec
        raise KeyError(f"no interim recorded before stage {stage}")


# ---------------------------------------------------------------------------
# Posterior bookkeeping and the continuous rule

# Per-arm (successes, failures, assigned): with the stage-1 and stage-2
# missingness flags, everything an interim decision reads from the records.
ArmTallies = tuple[tuple[int, int, int], ...]


def _interim_counts(
    records: list[PatientRecord] | tuple[PatientRecord, ...], design: TrialDesign
) -> tuple[ArmTallies, tuple[bool, bool]]:
    success = [0] * design.k
    failure = [0] * design.k
    assigned = [0] * design.k
    stage1_missing = stage2_missing = False
    for rec in records:
        i = rec.arm.index
        assigned[i] += 1
        if rec.delta_y is None:
            if rec.stage == 1:
                stage1_missing = True
            elif rec.stage == 2:
                stage2_missing = True
        elif dichotomise(rec.delta_y, design.delta):
            success[i] += 1
        else:
            failure[i] += 1
    return tuple(zip(success, failure, assigned)), (stage1_missing, stage2_missing)


def _posteriors(design: TrialDesign, tallies: ArmTallies) -> tuple[BetaPosterior, ...]:
    return tuple(
        update(
            BetaPosterior(design.prior_alpha[i], design.prior_beta[i]),
            SuccessCount(s, f),
        )
        for i, (s, f, _) in enumerate(tallies)
    )


def posterior_snapshot(
    records: list[PatientRecord] | tuple[PatientRecord, ...], design: TrialDesign
) -> tuple[BetaPosterior, ...]:
    """Per-arm endpoint posteriors from all observed (or imputed) outcomes."""
    return _posteriors(design, _interim_counts(records, design)[0])


def _assigned_counts(
    records: list[PatientRecord] | tuple[PatientRecord, ...], k: int
) -> tuple[int, ...]:
    counts = [0] * k
    for rec in records:
        counts[rec.arm.index] += 1
    return tuple(counts)


def _rule_pi(
    design: TrialDesign,
    upcoming_stage: int,
    posteriors: tuple[BetaPosterior, ...],
    counts: tuple[int, ...],
) -> ProbVector:
    rule = design.rule
    if rule.kind == "FixedEqual":
        return fixed_equal(design.k)
    gamma = rule.gamma_for_stage(upcoming_stage)
    if rule.kind == "TSBRAR":
        return ts_brar(posteriors, gamma)
    return trippa_brar(
        posteriors,
        ArmCounts(counts),
        gamma,
        rule.eta_for_stage(upcoming_stage),
        form=rule.control_exponent_form,
    )


def _prepare_analysis_records(
    records, policy: MissingPolicy
) -> tuple[list[PatientRecord], int]:
    """Imputed copy of the records (when asked) plus the unimputable count."""
    if not policy.impute_stage2:
        return list(records), 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        imputed = impute_stage2_mean(list(records))
    failures = sum(1 for r in imputed if r.stage == 2 and r.missing)
    return imputed, failures


# ---------------------------------------------------------------------------
# Interim decisions

_DEMOTED = {
    AdaptationCategory.DROP: AdaptationCategory.DISFAVOUR,
    AdaptationCategory.KEEP: AdaptationCategory.FAVOUR,
}


def _tau_dropped_pi(pi: ProbVector, design: TrialDesign) -> tuple[ProbVector, tuple[int, ...]]:
    shares = active_shares(pi)
    actives = design.active_indices()
    drops = tuple(i for i, s in zip(actives, shares) if s < design.tau)
    if not drops or len(drops) == len(actives):
        return pi, ()
    weights = list(pi.probs)
    for i in drops:
        weights[i] = 0.0
    total = math.fsum(weights)
    return ProbVector(tuple(w / total for w in weights)), drops


@lru_cache(maxsize=4096)
def _decide(
    design: TrialDesign,
    policy: MissingPolicy,
    upcoming_stage: int,
    tallies: ArmTallies,
    missing: tuple[bool, bool],
) -> InterimRecord:
    """The interim decision as a pure function of integer counts.

    Nothing here draws: the mapping resolves stage-2 ratios and the
    PermutedBlock schedule without the generator, so none is passed. A
    mapped stage-3 decision comes back with ratio None, because its
    category pair may need the fair coin; interim_decision draws it.
    """
    posteriors = _posteriors(design, tallies)
    pi = _rule_pi(design, upcoming_stage, posteriors, tuple(n for _, _, n in tallies))
    stage1_missing, stage2_missing = missing
    plan = design.stages[upcoming_stage - 1]
    overrides: list[str] = []
    categories = applied = None
    ratio = None
    dropped: tuple[int, ...] = ()

    if design.mapping is not None:
        if design.mapping.variant == "PermutedBlock":
            ratio, _ = stage_ratio(design, upcoming_stage, pi, None)
        elif upcoming_stage == 2:
            x1, x2 = active_shares(pi)
            categories = (
                decide_category(x1, 2, design.mapping),
                decide_category(x2, 2, design.mapping),
            )
            applied = categories
            if policy.no_adapt_on_stage1_missing and stage1_missing:
                ratio = BALANCED[2]
                overrides.append(
                    "stage-1 outcomes missing: stage-2 block held balanced"
                )
            else:
                ratio, _ = stage_ratio(
                    design, 2, pi, None, category_override=categories
                )
        else:
            x1, x2 = active_shares(pi)
            categories = (
                decide_category(x1, 3, design.mapping),
                decide_category(x2, 3, design.mapping),
            )
            applied = categories
            if policy.no_drop_on_stage2_missing and stage2_missing:
                demoted = tuple(_DEMOTED.get(c, c) for c in categories)
                if demoted != categories:
                    overrides.append(
                        "stage-2 outcomes missing: Drop/Keep demoted to "
                        "Disfavour/Favour"
                    )
                applied = demoted
    else:
        if (
            upcoming_stage == 2
            and policy.no_adapt_on_stage1_missing
            and stage1_missing
        ):
            pi = fixed_equal(design.k)
            overrides.append(
                "stage-1 outcomes missing: stage-2 randomisation held at 1/K"
            )
        if (
            upcoming_stage == design.n_stages
            and design.tau_dropping
            and plan.arm_dropping_allowed
        ):
            if policy.no_drop_on_stage2_missing and stage2_missing:
                overrides.append(
                    "stage-2 outcomes missing: tau-based arm dropping suppressed"
                )
            else:
                pi, dropped = _tau_dropped_pi(pi, design)
                if dropped:
                    labels = ", ".join(design.arms[i].label for i in dropped)
                    overrides.append(f"active share below tau, dropped: {labels}")

    return InterimRecord(
        upcoming_stage=upcoming_stage,
        posteriors=posteriors,
        pi=pi,
        categories=categories,
        applied_categories=applied,
        overrides=tuple(overrides),
        ratio=ratio,
        dropped=dropped,
    )


def interim_decision(
    design: TrialDesign,
    records,
    upcoming_stage: int,
    policy: MissingPolicy,
    rng: np.random.Generator,
) -> InterimRecord:
    """Posterior update, continuous rule, policy overrides, and (for mapped
    designs) the discrete ratio of the stage about to open.

    `records` is everything accrued so far; assignments count even when the
    outcome is missing. One pass over the records (after stage-2 imputation
    when the policy asks for it) reduces them to per-arm successes, failures
    and assigned counts plus the stage-1 and stage-2 missingness flags; the
    decision is memoised on those counts. The only randomness consumed is the
    fair coin a two-option stage-3 category needs, drawn from `rng` at every
    call, memo hit or not, so the caller's stream advances exactly as if
    nothing were memoised.
    """
    if policy.impute_stage2:
        records, _ = _prepare_analysis_records(records, policy)
    tallies, missing = _interim_counts(records, design)
    decision = _decide(design, policy, upcoming_stage, tallies, missing)
    if decision.ratio is None and decision.applied_categories is not None:
        # mapped stage 3: a single Disfavour or Favour admits two ratios
        ratio = resolve_allocation(decision.applied_categories, 3, rng)
        decision = replace(decision, ratio=ratio)
    return decision


# ---------------------------------------------------------------------------
# One trial

def run_trial(
    design: TrialDesign,
    model: OutcomeModel,
    case: MissingCase | None = None,
    policy: MissingPolicy = MissingPolicy(),
    rng: np.random.Generator | None = None,
    seed_tag: str = "",
) -> TrialTrajectory:
    """Conduct one trial of one stratum from first patient to final analysis.

    Randomness is consumed in a fixed order per stage: interim decision (coin
    for two-option categories), block permutation or i.i.d. assignment draws,
    one outcome per patient in assignment order, then the missingness draw.
    """
    _require_valid(design)
    _require_arity(design, model)
    if case is None:
        case = MissingCase.from_id(0)
    if rng is None:
        rng = np.random.default_rng()
    return _conduct_trial(design, model, case, policy, rng, seed_tag)


def _require_valid(design: TrialDesign) -> None:
    problems = validate_design(design)
    if problems:
        raise ValueError("invalid design: " + "; ".join(problems))


def _require_arity(design: TrialDesign, model: OutcomeModel) -> None:
    if len(model.effects) != design.k:
        raise ValueError(
            f"model has {len(model.effects)} effects for {design.k} arms"
        )


def _conduct_trial(
    design: TrialDesign,
    model: OutcomeModel,
    case: MissingCase,
    policy: MissingPolicy,
    rng: np.random.Generator,
    seed_tag: str = "",
) -> TrialTrajectory:
    """run_trial's body, for callers that checked design and model once."""
    k = design.k
    accrued: list[PatientRecord] = []
    stages: list[StageRecord] = []
    interims: list[InterimRecord] = []
    pid = 0

    for plan in design.stages:
        t = plan.stage_index
        if t == 1:
            pi = fixed_equal(k)
            ratio = None
            if design.mapping is not None:
                ratio, _ = stage_ratio(design, 1, pi, rng)
            elif design.stage1_balanced_block:
                if plan.size % k:
                    raise ValueError(
                        f"balanced stage-1 block needs size divisible by {k}"
                    )
                ratio = RatioVector((plan.size // k,) * k)
        else:
            interim = interim_decision(design, accrued, t, policy, rng)
            interims.append(interim)
            pi = interim.pi
            ratio = interim.ratio

        if ratio is not None:
            block = generate_block(
                ratio, rng, design.arms, stage_index=t, seed_tag=seed_tag
            )
            assigned = block.assignments
        else:
            block = None
            draws = rng.choice(k, size=plan.size, p=np.asarray(pi.probs))
            assigned = tuple(design.arms[int(i)] for i in draws)

        stage_records = []
        for arm in assigned:
            pid += 1
            stage_records.append(
                PatientRecord(pid, t, arm, draw_outcome(model, arm, rng))
            )
        stage_records = mark_missing(stage_records, case.count_for_stage(t), rng)
        stages.append(
            StageRecord(
                stage_index=t,
                ratio=ratio,
                block=block,
                counts=_assigned_counts(stage_records, k),
                records=tuple(stage_records),
            )
        )
        accrued.extend(stage_records)

    working, failures = _prepare_analysis_records(accrued, policy)
    results, recommended = stratum_decision(working, design)
    return TrialTrajectory(
        design=design,
        stages=tuple(stages),
        interims=tuple(interims),
        records=tuple(working),
        results=tuple(results),
        recommended=recommended,
        imputation_failures=failures,
    )


# ---------------------------------------------------------------------------
# Replicates conducted in blocks, stage by stage

# Replicates conducted together: numpy's per-call cost is shared by this many
# rows, and a block's arrays stay small whatever the replicate count.
_BLOCK_REPS = 256


@dataclass(frozen=True)
class _Block:
    """Trials conducted together: row r is one trial, its columns the
    trial's patients in accrual order.

    `arm` holds each patient's arm index; `y` the outcome drawn, or the
    imputed value where imputation filled the cell; `missing` the cells the
    conduct left without an outcome; `observed` the cells the final analysis
    reads. `stage_of` gives each column's stage. `ratios[t - 1]` is the
    (rows, k) ratio stage t was conducted with, or None for an i.i.d. stage.
    Row r's decision before stage t is `decisions[t - 2][which[t - 2][r]]`
    as _decide returned it; a ratio the stage-3 coin chose is in `ratios`
    only. `p_value`, `reject` and `skipped` hold the final tests, one column
    per active arm, and `recommended` the recommended arm's index.
    """

    arm: np.ndarray
    y: np.ndarray
    missing: np.ndarray
    observed: np.ndarray
    stage_of: np.ndarray
    ratios: tuple[np.ndarray | None, ...]
    decisions: tuple[list[InterimRecord], ...]
    which: tuple[np.ndarray, ...]
    impute_failures: np.ndarray
    p_value: np.ndarray
    reject: np.ndarray
    skipped: np.ndarray
    recommended: np.ndarray


def _onehot(arm: np.ndarray, k: int) -> np.ndarray:
    return arm[:, :, None] == np.arange(k)


def _arm_counts(design: TrialDesign, onehot, y, observed):
    """Per row and arm: dichotomised successes and outcomes available."""
    wins = (onehot & (observed & (y >= design.delta))[:, :, None]).sum(axis=1)
    seen = (onehot & observed[:, :, None]).sum(axis=1)
    return wins, seen


def _analysis_view(design, policy, arm, y, missing, stage_of):
    """Cell values and availability after stage-2 imputation, plus each
    row's count of stage-2 cells imputation left missing.

    Rows with a missing stage-2 cell go through _prepare_analysis_records
    one at a time, so they are imputed exactly as a scalar trial is, by
    whatever engine.impute_stage2_mean is bound to at the time.
    """
    observed = ~missing
    failures = np.zeros(len(arm), dtype=np.int64)
    if not policy.impute_stage2:
        return y, observed, failures
    rows = np.flatnonzero(missing[:, stage_of == 2].any(axis=1))
    if not rows.size:
        return y, observed, failures
    y = y.copy()
    stages = stage_of.tolist()
    for r in rows.tolist():
        values, gone = y[r].tolist(), missing[r].tolist()
        records = [
            PatientRecord(
                j + 1, stages[j], design.arms[a], None if gone[j] else values[j]
            )
            for j, a in enumerate(arm[r].tolist())
        ]
        imputed, failures[r] = _prepare_analysis_records(records, policy)
        for rec in imputed:
            j = rec.patient_id - 1
            observed[r, j] = rec.delta_y is not None
            if rec.delta_y is not None:
                y[r, j] = rec.delta_y
    return y, observed, failures


def _block_decisions(design, policy, stage, arm, y, observed, stage_of):
    """Each row's interim decision before `stage`, taken by _decide once per
    distinct count key; returns the decisions and each row's index into them."""
    k = design.k
    onehot = _onehot(arm, k)
    wins, seen = _arm_counts(design, onehot, y, observed)
    tallies = np.stack([wins, seen - wins, onehot.sum(axis=1)], axis=2)
    flags = [(~observed[:, stage_of == s]).any(axis=1) for s in (1, 2)]
    keys = np.column_stack([tallies.reshape(len(arm), 3 * k), *flags])
    distinct, which = np.unique(keys, axis=0, return_inverse=True)
    decisions = [
        _decide(
            design, policy, stage,
            tuple(tuple(key[3 * i : 3 * i + 3]) for i in range(k)),
            (bool(key[-2]), bool(key[-1])),
        )
        for key in distinct.tolist()
    ]
    return decisions, which.reshape(-1)


def _stage_option(decision: InterimRecord):
    """The ratios a decision leaves to its stage, with the stage-3 coin's
    two choices in the coin's order, or None and pi for i.i.d. assignment."""
    if decision.ratio is not None:
        return (decision.ratio,), None
    if decision.applied_categories is not None:
        return allocation_options(decision.applied_categories, 3), None
    return None, np.asarray(decision.pi.probs)


def _first_stage_option(design: TrialDesign, plan):
    pi = fixed_equal(design.k)
    if design.mapping is not None:
        return (stage_ratio(design, 1, pi, None)[0],), None
    if design.stage1_balanced_block:
        if plan.size % design.k:
            raise ValueError(
                f"balanced stage-1 block needs size divisible by {design.k}"
            )
        return (RatioVector((plan.size // design.k,) * design.k),), None
    return None, np.asarray(pi.probs)


def _final_tests(design: TrialDesign, onehot, y, observed):
    """stratum_decision's tests for every row: p-values, rejections and
    skips, one column per active arm."""
    control = onehot[:, :, design.control_index()] & observed
    actives = design.active_indices()
    p = np.column_stack(
        [rank_sum_rows(y, onehot[:, :, i] & observed, control) for i in actives]
    )
    seen = (onehot & observed[:, :, None]).sum(axis=1)
    skipped = (seen[:, actives] == 0) | (seen[:, [design.control_index()]] == 0)
    return p, p < design.alpha_level, skipped


def _recommended(design: TrialDesign, onehot, y, observed) -> np.ndarray:
    """stratum_decision's recommendation for every row: the most patients
    assigned, then the larger final posterior mean, then the lower index."""
    assigned = onehot.sum(axis=1)
    wins, seen = _arm_counts(design, onehot, y, observed)
    alpha = np.asarray(design.prior_alpha) + wins
    beta = np.asarray(design.prior_beta) + (seen - wins)
    mean = alpha / (alpha + beta)
    actives = design.active_indices()
    rows = np.arange(len(y))
    best = np.full(len(y), actives[0])
    for i in actives[1:]:
        held, held_mean = assigned[rows, best], mean[rows, best]
        ahead = (assigned[:, i] > held) | (
            (assigned[:, i] == held) & (mean[:, i] > held_mean)
        )
        best[ahead] = i
    return best


def _conduct_block(
    design: TrialDesign,
    model: OutcomeModel,
    case: MissingCase,
    policy: MissingPolicy,
    rngs: list[np.random.Generator],
) -> _Block:
    """_conduct_trial for every generator in `rngs`, all rows a stage at a time.

    Row r draws from rngs[r] exactly what _conduct_trial draws from it, in
    the same order: per stage the coin (only where the decision leaves the
    ratio to it), the block permutation or the i.i.d. assignments, the
    stage's outcomes in one call, then the missing positions. Between draws
    everything is array arithmetic over the rows.
    """
    k, n_rows = design.k, len(rngs)
    arm = np.empty((n_rows, 0), dtype=np.int64)
    y = np.empty((n_rows, 0))
    missing = np.empty((n_rows, 0), dtype=bool)
    stage_of = np.empty(0, dtype=np.int64)
    ratios, decisions, which = [], [], []
    pools: dict[tuple[int, ...], np.ndarray] = {}

    for plan in design.stages:
        t = plan.stage_index
        if t == 1:
            options = [_first_stage_option(design, plan)]
            chosen = [0] * n_rows
        else:
            view_y, view_observed, _ = _analysis_view(
                design, policy, arm, y, missing, stage_of
            )
            stage_decisions, row_decision = _block_decisions(
                design, policy, t, arm, view_y, view_observed, stage_of
            )
            decisions.append(stage_decisions)
            which.append(row_decision)
            options = [_stage_option(d) for d in stage_decisions]
            chosen = row_decision.tolist()
        by_ratio = options[0][0] is not None
        if by_ratio:
            for ratio in {ratio for choices, _ in options for ratio in choices}:
                if ratio.counts not in pools:
                    pools[ratio.counts] = np.repeat(np.arange(k), ratio.counts)
        # every ratio a stage admits has the same total
        width = options[0][0][0].total if by_ratio else plan.size
        drop = case.count_for_stage(t)
        if drop > width:
            raise ValueError(f"cannot drop {drop} of {width} records")
        stage_arm = np.empty((n_rows, width), dtype=np.int64)
        stage_missing = np.zeros((n_rows, width), dtype=bool)
        stage_ratios = np.empty((n_rows, k), dtype=np.int64) if by_ratio else None
        raw = []

        for r, rng in enumerate(rngs):
            choices, probs = options[chosen[r]]
            if by_ratio:
                # resolve_allocation's coin, drawn only where it has two choices
                ratio = choices[0] if len(choices) == 1 else choices[rng.integers(2)]
                stage_arm[r] = rng.permutation(pools[ratio.counts])
                stage_ratios[r] = ratio.counts
            else:
                stage_arm[r] = rng.choice(k, size=width, p=probs)
            raw.append(draw_raw(model, width, rng))
            if drop:
                stage_missing[r, rng.choice(width, size=drop, replace=False)] = True

        arm = np.hstack([arm, stage_arm])
        y = np.hstack([y, outcomes_from_raw(model, stage_arm, np.array(raw))])
        missing = np.hstack([missing, stage_missing])
        stage_of = np.concatenate([stage_of, np.full(width, t)])
        ratios.append(stage_ratios)

    y, observed, failures = _analysis_view(design, policy, arm, y, missing, stage_of)
    onehot = _onehot(arm, k)
    p_value, reject, skipped = _final_tests(design, onehot, y, observed)
    return _Block(
        arm=arm,
        y=y,
        missing=missing,
        observed=observed,
        stage_of=stage_of,
        ratios=tuple(ratios),
        decisions=tuple(decisions),
        which=tuple(which),
        impute_failures=failures,
        p_value=p_value,
        reject=reject,
        skipped=skipped,
        recommended=_recommended(design, onehot, y, observed),
    )


def _pooled_tests(block_a: _Block, block_b: _Block, design: TrialDesign):
    """pooled_analysis for every row of two strata's blocks, as p-values,
    rejections and skips: each arm's sample is stratum A's values followed
    by stratum B's."""
    k = design.k
    present_a = _onehot(block_a.arm, k).any(axis=1)
    present_b = _onehot(block_b.arm, k).any(axis=1)
    differ = np.flatnonzero((present_a != present_b).any(axis=1))
    if differ.size:
        r = differ[0]
        labels_a = {a.label for a in design.arms if present_a[r, a.index]}
        labels_b = {a.label for a in design.arms if present_b[r, a.index]}
        raise ValueError(
            f"arm sets differ between strata: {labels_a} vs {labels_b}"
        )
    arm = np.hstack([block_a.arm, block_b.arm])
    y = np.hstack([block_a.y, block_b.y])
    observed = np.hstack([block_a.observed, block_b.observed])
    return _final_tests(design, _onehot(arm, k), y, observed)


def _reject_counts(reject: np.ndarray, effects, null) -> tuple[int, int, int]:
    """Rows with any rejection, with a best arm's rejection (only when the
    best effect is positive) and with a null arm's rejection; `reject`,
    `effects` and `null` have one column or entry per active arm."""
    max_eff = max(effects)
    best = np.array([max_eff > 0 and e == max_eff for e in effects])
    null = np.array(null, dtype=bool)
    return (
        int(reject.any(axis=1).sum()),
        int(reject[:, best].any(axis=1).sum()),
        int(reject[:, null].any(axis=1).sum()),
    )


def _stage3_marks(decision: InterimRecord, actives, k: int) -> np.ndarray:
    """Rows drop, keep, favour, disfavour: one trial's stage-3 category per
    active arm, from the applied categories or else from pi and tau drops."""
    marks = np.zeros((4, k), dtype=np.int64)
    C = AdaptationCategory
    if decision.applied_categories is not None:
        row = {C.DROP: 0, C.KEEP: 1, C.FAVOUR: 2, C.DISFAVOUR: 3}
        for i, c in zip(actives, decision.applied_categories):
            if c in row:
                marks[row[c], i] = 1
        return marks
    dropped = set(decision.dropped)
    for i in actives:
        if i in dropped:
            marks[0, i] = 1
        elif dropped:
            marks[1, i] = 1
        elif decision.pi[i] > 1.0 / k + _SHARE_TOL:
            marks[2, i] = 1
        elif decision.pi[i] < 1.0 / k - _SHARE_TOL:
            marks[3, i] = 1
    return marks


def _pi_rows(decisions: list[InterimRecord], which: np.ndarray) -> np.ndarray:
    return np.array([d.pi.probs for d in decisions])[which]


def _off_centre(pi: np.ndarray, centre: float) -> np.ndarray:
    return np.abs(pi - centre) > _SHARE_TOL


@dataclass
class _Tally:
    """Integer accumulators for one stratum; merge order never matters."""

    k: int
    n: int = 0
    alloc_sum: np.ndarray = field(default=None)
    alloc_sumsq: np.ndarray = field(default=None)
    reject: np.ndarray = field(default=None)
    skip: np.ndarray = field(default=None)
    recommend: np.ndarray = field(default=None)
    rec_reject: int = 0
    any_reject: int = 0
    best_reject: int = 0
    null_reject: int = 0
    adapt2: int = 0
    adapt3: int = 0
    zero3: int = 0
    fav2: np.ndarray = field(default=None)
    dis2: np.ndarray = field(default=None)
    fav3: np.ndarray = field(default=None)
    dis3: np.ndarray = field(default=None)
    drop3: np.ndarray = field(default=None)
    keep3: np.ndarray = field(default=None)
    impute_fail: int = 0

    def __post_init__(self) -> None:
        for name in (
            "alloc_sum", "alloc_sumsq", "reject", "skip", "recommend",
            "fav2", "dis2", "fav3", "dis3", "drop3", "keep3",
        ):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(self.k, dtype=np.int64))

    def merge(self, other: "_Tally") -> None:
        if other.k != self.k:
            raise ValueError("cannot merge tallies of different arm counts")
        self.n += other.n
        self.rec_reject += other.rec_reject
        self.any_reject += other.any_reject
        self.best_reject += other.best_reject
        self.null_reject += other.null_reject
        self.adapt2 += other.adapt2
        self.adapt3 += other.adapt3
        self.zero3 += other.zero3
        self.impute_fail += other.impute_fail
        for name in (
            "alloc_sum", "alloc_sumsq", "reject", "skip", "recommend",
            "fav2", "dis2", "fav3", "dis3", "drop3", "keep3",
        ):
            getattr(self, name).__iadd__(getattr(other, name))

    def add_block(
        self, block: _Block, design: TrialDesign, effects: tuple[float, ...]
    ) -> None:
        k, rows = self.k, len(block.arm)
        actives = list(design.active_indices())
        centre = 1.0 / k
        self.n += rows
        counts = _onehot(block.arm, k).sum(axis=1)
        self.alloc_sum += counts.sum(axis=0)
        self.alloc_sumsq += (counts * counts).sum(axis=0)
        self.impute_fail += int(np.count_nonzero(block.impute_failures))

        self.recommend += np.bincount(block.recommended, minlength=k)
        column = np.zeros(k, dtype=np.intp)
        column[actives] = np.arange(len(actives))
        self.rec_reject += int(
            block.reject[np.arange(rows), column[block.recommended]].sum()
        )
        self.skip[actives] += block.skipped.sum(axis=0)
        self.reject[actives] += block.reject.sum(axis=0)
        any_r, best_r, null_r = _reject_counts(
            block.reject,
            [effects[i] for i in actives],
            [effects[i] == 0.0 for i in actives],
        )
        self.any_reject += any_r
        self.best_reject += best_r
        self.null_reject += null_r

        if design.n_stages >= 2:
            ratio = block.ratios[1]
            if ratio is not None:
                base = ratio.sum(axis=1, keepdims=True) // k
                self.adapt2 += int((ratio != base).any(axis=1).sum())
                self.fav2[actives] += (ratio[:, actives] > base).sum(axis=0)
                self.dis2[actives] += (ratio[:, actives] < base).sum(axis=0)
            else:
                pi = _pi_rows(block.decisions[0], block.which[0])
                self.adapt2 += int(_off_centre(pi, centre).any(axis=1).sum())
                self.fav2[actives] += (pi[:, actives] > centre + _SHARE_TOL).sum(0)
                self.dis2[actives] += (pi[:, actives] < centre - _SHARE_TOL).sum(0)

        if design.n_stages >= 3:
            last = block.stage_of == design.n_stages
            last_counts = _onehot(block.arm[:, last], k).sum(axis=1)
            self.zero3 += int((last_counts[:, actives] == 0).any(axis=1).sum())
            decisions, which = block.decisions[-1], block.which[-1]
            ratio = block.ratios[-1]
            if ratio is not None:
                balanced = np.asarray(BALANCED[3].counts)
                self.adapt3 += int((ratio != balanced).any(axis=1).sum())
            else:
                pi = _pi_rows(decisions, which)
                self.adapt3 += int(_off_centre(pi, centre).any(axis=1).sum())
            weights = np.bincount(which, minlength=len(decisions))
            marks = np.array([_stage3_marks(d, actives, k) for d in decisions])
            drop, keep, fav, dis = np.tensordot(weights, marks, axes=1)
            self.drop3 += drop
            self.keep3 += keep
            self.fav3 += fav
            self.dis3 += dis


@dataclass
class _PooledTally:
    """Integer accumulators for the pooled-strata tests."""

    k: int
    n: int = 0
    reject: np.ndarray = field(default=None)
    skip: np.ndarray = field(default=None)
    any_reject: int = 0
    best_reject: int = 0
    null_reject: int = 0

    def __post_init__(self) -> None:
        for name in ("reject", "skip"):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(self.k, dtype=np.int64))

    def merge(self, other: "_PooledTally") -> None:
        self.n += other.n
        self.any_reject += other.any_reject
        self.best_reject += other.best_reject
        self.null_reject += other.null_reject
        self.reject += other.reject
        self.skip += other.skip

    def add_rows(
        self,
        reject: np.ndarray,
        skipped: np.ndarray,
        actives: tuple[int, ...],
        effect_sums: tuple[float, ...],
        null_actives: frozenset[int],
    ) -> None:
        self.n += len(reject)
        self.skip[list(actives)] += skipped.sum(axis=0)
        self.reject[list(actives)] += reject.sum(axis=0)
        any_r, best_r, null_r = _reject_counts(
            reject,
            [effect_sums[i] for i in actives],
            [i in null_actives for i in actives],
        )
        self.any_reject += any_r
        self.best_reject += best_r
        self.null_reject += null_r


@dataclass(frozen=True)
class OCReport:
    """Operating characteristics of one design under one data scenario.

    Rates are fractions of replicates. Per-arm tuples align with
    `arm_labels`; entries that make no sense for an arm (rejection for the
    control) or for the row kind (allocation for a pooled row) are None and
    rendered as NA in CSV output.

    `type1` is the probability that the recommended arm's test rejects,
    defined under a global null only (any-arm rejection for pooled rows);
    `power` is the probability that a best active arm's test rejects, defined
    only when a strictly positive best effect exists. Adaptation rates come
    from realised ratios and post-policy categories for mapped designs, and
    from the continuous probabilities (tau drops included) otherwise.
    """

    design_name: str
    scenario: str
    stratum: str
    case_id: int
    impute: bool
    n_reps: int
    master_seed: int
    arm_labels: tuple[str, ...]
    active_labels: tuple[str, ...]
    effects: tuple[float, ...]
    reject_rate: tuple[float | None, ...]
    skip_rate: tuple[float | None, ...]
    any_reject_rate: float
    recommended_reject_rate: float | None
    type1: float | None
    power: float | None
    null_arm_reject_rate: float | None
    recommend_rate: tuple[float | None, ...] | None
    alloc_mean: tuple[float, ...] | None
    alloc_sd: tuple[float, ...] | None
    stage2_adapt_rate: float | None
    stage3_adapt_rate: float | None
    stage3_zero_rate: float | None
    favour2_rate: tuple[float | None, ...] | None
    disfavour2_rate: tuple[float | None, ...] | None
    favour3_rate: tuple[float | None, ...] | None
    disfavour3_rate: tuple[float | None, ...] | None
    drop3_rate: tuple[float | None, ...] | None
    keep3_rate: tuple[float | None, ...] | None
    imputation_failure_rate: float | None


def _per_arm(values, design: TrialDesign, n: int, actives_only: bool):
    actives = set(design.active_indices())
    out = []
    for i in range(design.k):
        if actives_only and i not in actives:
            out.append(None)
        else:
            out.append(int(values[i]) / n)
    return tuple(out)


def _tally_report(
    tally: _Tally,
    design: TrialDesign,
    effects: tuple[float, ...],
    case: MissingCase,
    policy: MissingPolicy,
    scenario_label: str,
    master_seed: int,
) -> OCReport:
    n = tally.n
    if n == 0:
        raise ValueError("no replicates tallied")
    actives = design.active_indices()
    n_total = design.n_total

    sum_p = tally.alloc_sum / n_total
    sum_p2 = tally.alloc_sumsq / (n_total * n_total)
    mean = sum_p / n
    if n > 1:
        var = (sum_p2 - sum_p * sum_p / n) / (n - 1)
        sd = np.sqrt(np.maximum(var, 0.0))
    else:
        sd = np.zeros(design.k)

    max_eff = max(effects[i] for i in actives)
    global_null = all(effects[i] == 0.0 for i in actives)
    has_null_active = any(effects[i] == 0.0 for i in actives)

    return OCReport(
        design_name=design.name,
        scenario=scenario_label,
        stratum=design.stratum_label,
        case_id=case.case_id,
        impute=policy.impute_stage2,
        n_reps=n,
        master_seed=master_seed,
        arm_labels=tuple(a.label for a in design.arms),
        active_labels=tuple(design.arms[i].label for i in actives),
        effects=tuple(effects),
        reject_rate=_per_arm(tally.reject, design, n, actives_only=True),
        skip_rate=_per_arm(tally.skip, design, n, actives_only=True),
        any_reject_rate=tally.any_reject / n,
        recommended_reject_rate=tally.rec_reject / n,
        type1=tally.rec_reject / n if global_null else None,
        power=tally.best_reject / n if max_eff > 0 else None,
        null_arm_reject_rate=tally.null_reject / n if has_null_active else None,
        recommend_rate=_per_arm(tally.recommend, design, n, actives_only=True),
        alloc_mean=tuple(float(x) for x in mean),
        alloc_sd=tuple(float(x) for x in sd),
        stage2_adapt_rate=tally.adapt2 / n,
        stage3_adapt_rate=tally.adapt3 / n,
        stage3_zero_rate=tally.zero3 / n,
        favour2_rate=_per_arm(tally.fav2, design, n, actives_only=True),
        disfavour2_rate=_per_arm(tally.dis2, design, n, actives_only=True),
        favour3_rate=_per_arm(tally.fav3, design, n, actives_only=True),
        disfavour3_rate=_per_arm(tally.dis3, design, n, actives_only=True),
        drop3_rate=_per_arm(tally.drop3, design, n, actives_only=True),
        keep3_rate=_per_arm(tally.keep3, design, n, actives_only=True),
        imputation_failure_rate=tally.impute_fail / n,
    )


def _rep_rng(master_seed: int, rep: int, stream: int | None = None):
    keys = [master_seed, rep] if stream is None else [master_seed, rep, stream]
    return np.random.default_rng(np.random.SeedSequence(keys))


def _chunks(n: int, parts: int) -> list[tuple[int, int]]:
    parts = max(1, min(parts, n))
    size, extra = divmod(n, parts)
    out, lo = [], 0
    for j in range(parts):
        hi = lo + size + (1 if j < extra else 0)
        out.append((lo, hi))
        lo = hi
    return out


def _block_ranges(lo: int, hi: int) -> list[range]:
    return [range(s, min(s + _BLOCK_REPS, hi)) for s in range(lo, hi, _BLOCK_REPS)]


def _replicate_chunk(args) -> _Tally:
    design, model, case, policy, master_seed, lo, hi = args
    tally = _Tally(design.k)
    for reps in _block_ranges(lo, hi):
        rngs = [_rep_rng(master_seed, rep) for rep in reps]
        block = _conduct_block(design, model, case, policy, rngs)
        tally.add_block(block, design, model.effects)
    return tally


def _pool_map(worker, jobs, workers: int):
    if workers <= 1 or len(jobs) <= 1:
        return [worker(j) for j in jobs]
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    with ctx.Pool(processes=len(jobs)) as pool:
        return pool.map(worker, jobs)


def replicate(
    design: TrialDesign,
    model: OutcomeModel,
    case: MissingCase | None = None,
    policy: MissingPolicy = MissingPolicy(),
    n_reps: int = 1000,
    master_seed: int = 0,
    workers: int = 1,
    scenario_label: str = "custom",
) -> OCReport:
    """Operating characteristics of one design stratum over `n_reps` trials.

    The result is identical for any `workers` value: replicates are seeded
    individually and aggregated with integer accumulators, so the split into
    processes cannot change a single reported digit.
    """
    _require_valid(design)
    _require_arity(design, model)
    if case is None:
        case = MissingCase.from_id(0)
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")

    jobs = [
        (design, model, case, policy, master_seed, lo, hi)
        for lo, hi in _chunks(n_reps, workers)
    ]
    tallies = _pool_map(_replicate_chunk, jobs, workers)
    total = _Tally(design.k)
    for t in tallies:
        total.merge(t)
    return _tally_report(
        total, design, model.effects, case, policy, scenario_label, master_seed
    )


def _pooled_chunk(args):
    design_a, design_b, model_a, model_b, case, policy, master_seed, lo, hi = args
    tally_a = _Tally(design_a.k)
    tally_b = _Tally(design_b.k)
    pooled = _PooledTally(design_a.k)
    actives = design_a.active_indices()
    effect_sums = tuple(
        model_a.effects[i] + model_b.effects[i] for i in range(design_a.k)
    )
    null_actives = frozenset(
        i for i in actives
        if model_a.effects[i] == 0.0 and model_b.effects[i] == 0.0
    )
    for reps in _block_ranges(lo, hi):
        block_a = _conduct_block(
            design_a, model_a, case, policy,
            [_rep_rng(master_seed, rep, 0) for rep in reps],
        )
        block_b = _conduct_block(
            design_b, model_b, case, policy,
            [_rep_rng(master_seed, rep, 1) for rep in reps],
        )
        tally_a.add_block(block_a, design_a, model_a.effects)
        tally_b.add_block(block_b, design_b, model_b.effects)
        _, reject, skipped = _pooled_tests(block_a, block_b, design_a)
        pooled.add_rows(reject, skipped, actives, effect_sums, null_actives)
    return tally_a, tally_b, pooled


def _pooled_report(
    tally: _PooledTally,
    design: TrialDesign,
    effect_sums: tuple[float, ...],
    null_actives: frozenset[int],
    case: MissingCase,
    policy: MissingPolicy,
    scenario_label: str,
    master_seed: int,
) -> OCReport:
    n = tally.n
    actives = design.active_indices()
    max_eff = max(effect_sums[i] for i in actives)
    global_null = all(effect_sums[i] == 0.0 for i in actives)
    return OCReport(
        design_name=design.name,
        scenario=scenario_label,
        stratum="pooled",
        case_id=case.case_id,
        impute=policy.impute_stage2,
        n_reps=n,
        master_seed=master_seed,
        arm_labels=tuple(a.label for a in design.arms),
        active_labels=tuple(design.arms[i].label for i in actives),
        effects=effect_sums,
        reject_rate=_per_arm(tally.reject, design, n, actives_only=True),
        skip_rate=_per_arm(tally.skip, design, n, actives_only=True),
        any_reject_rate=tally.any_reject / n,
        recommended_reject_rate=None,
        type1=tally.any_reject / n if global_null else None,
        power=tally.best_reject / n if max_eff > 0 else None,
        null_arm_reject_rate=tally.null_reject / n if null_actives else None,
        recommend_rate=None,
        alloc_mean=None,
        alloc_sd=None,
        stage2_adapt_rate=None,
        stage3_adapt_rate=None,
        stage3_zero_rate=None,
        favour2_rate=None,
        disfavour2_rate=None,
        favour3_rate=None,
        disfavour3_rate=None,
        drop3_rate=None,
        keep3_rate=None,
        imputation_failure_rate=None,
    )


def replicate_pooled(
    design: TrialDesign,
    scenario: Scenario,
    case: MissingCase | None = None,
    policy: MissingPolicy = MissingPolicy(),
    n_reps: int = 1000,
    master_seed: int = 0,
    workers: int = 1,
    scale: float = CALIBRATED_SIGMA,
    shape: float = DEFAULT_SHAPE,
) -> tuple[OCReport, OCReport, OCReport]:
    """Run the same design independently in two strata and pool the tests.

    Returns the stratum-A report, the stratum-B report, and the pooled-test
    report. Stratum r of replicate rep is seeded from
    SeedSequence([master_seed, rep, r]).
    """
    if case is None:
        case = MissingCase.from_id(0)
    design_a = replace(design, stratum_label="A")
    design_b = replace(design, stratum_label="B")
    _require_valid(design_a)
    model_a = OutcomeModel.parametric(scenario.effects_a, scale=scale, shape=shape)
    model_b = OutcomeModel.parametric(scenario.effects_b, scale=scale, shape=shape)
    _require_arity(design_a, model_a)
    _require_arity(design_b, model_b)
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")

    jobs = [
        (design_a, design_b, model_a, model_b, case, policy, master_seed, lo, hi)
        for lo, hi in _chunks(n_reps, workers)
    ]
    parts = _pool_map(_pooled_chunk, jobs, workers)
    total_a, total_b = _Tally(design.k), _Tally(design.k)
    pooled = _PooledTally(design.k)
    for ta, tb, tp in parts:
        total_a.merge(ta)
        total_b.merge(tb)
        pooled.merge(tp)

    label = scenario.scenario_id
    report_a = _tally_report(
        total_a, design_a, scenario.effects_a, case, policy, label, master_seed
    )
    report_b = _tally_report(
        total_b, design_b, scenario.effects_b, case, policy, label, master_seed
    )
    effect_sums = tuple(
        scenario.effects_a[i] + scenario.effects_b[i] for i in range(design.k)
    )
    null_actives = frozenset(
        i for i in design_a.active_indices()
        if scenario.effects_a[i] == 0.0 and scenario.effects_b[i] == 0.0
    )
    report_p = _pooled_report(
        pooled, design_a, effect_sums, null_actives, case, policy, label,
        master_seed,
    )
    return report_a, report_b, report_p


def allocation_law(
    pi: ProbVector, n: int, reps: int, seed: int = 0
) -> np.ndarray:
    """reps x K matrix of i.i.d. allocation counts for n patients at fixed pi."""
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    return rng.multinomial(n, np.asarray(pi.probs), size=reps)


# ---------------------------------------------------------------------------
# Threshold calibration

@dataclass(frozen=True)
class CalibrationRow:
    """One grid point: threshold, null-scenario metric, effect-scenario metric."""

    threshold: float
    metric_h0: float
    metric_h1: float
    pareto: bool


@dataclass(frozen=True)
class CalibrationResult:
    stage: int
    criterion: str
    selected: float | None
    rows: tuple[CalibrationRow, ...]


def _with_threshold(design: TrialDesign, stage: int, g: float) -> TrialDesign:
    """Grid design: substitute the stage's top threshold, clamping the lower
    interior thresholds down to keep the cut-points non-decreasing."""
    mapping = design.mapping
    th = mapping.thresholds
    if stage == 2:
        if len(th.stage2) == 1:
            stage2 = (g,)
        else:
            stage2 = (min(th.stage2[0], g), g)
        new_th = replace(th, stage2=stage2)
    else:
        lower = tuple(min(c, g) for c in th.stage3[1:-1])
        new_th = replace(th, stage3=(th.stage3[0],) + lower + (g,))
    candidate = replace(design, mapping=replace(mapping, thresholds=new_th))
    problems = validate_design(candidate)
    if problems:
        raise ValueError(
            f"threshold {g} at stage {stage} yields an invalid design: "
            + "; ".join(problems)
        )
    return candidate


def _pareto_flags(points: list[tuple[float, float]]) -> list[bool]:
    # maximise metric_h1, minimise metric_h0
    flags = []
    for i, (h0_i, h1_i) in enumerate(points):
        dominated = any(
            (h0_j <= h0_i and h1_j >= h1_i) and (h0_j < h0_i or h1_j > h1_i)
            for j, (h0_j, h1_j) in enumerate(points)
            if j != i
        )
        flags.append(not dominated)
    return flags


def calibrate_threshold(
    design: TrialDesign,
    stage: int,
    grid,
    n_reps: int = 1000,
    master_seed: int = 0,
    h0_effects: tuple[float, ...] = (0.0, 0.0, 0.0),
    h1_effects: tuple[float, ...] = (0.0, 0.0, 0.3),
    case: MissingCase | None = None,
    policy: MissingPolicy = MissingPolicy(),
    workers: int = 1,
    criterion: str = "corner",
    scale: float = CALIBRATED_SIGMA,
    shape: float = DEFAULT_SHAPE,
) -> CalibrationResult:
    """Sweep the stage's top adaptation threshold over a grid.

    The target metric is the stage-2 adaptation rate for stage 2 and the
    rate of some active arm receiving zero stage-3 patients for stage 3,
    evaluated under the null effects (false adaptation) and under the
    alternative effects (useful adaptation). All grid points share the same
    replicate seeds, so differences between rows are never seed noise.

    criterion "corner" selects the threshold minimising the Euclidean
    distance to the ideal point (metric 0 under the null, metric 1 under the
    alternative), ties to the smaller threshold; "pareto" only flags the
    non-dominated rows and selects nothing.
    """
    if design.mapping is None or design.mapping.thresholds is None:
        raise ValueError("threshold calibration needs a mapped design")
    if stage not in (2, 3):
        raise ValueError(f"calibration stage must be 2 or 3, got {stage}")
    if criterion not in ("corner", "pareto"):
        raise ValueError(f"unknown criterion {criterion!r}")
    grid = tuple(float(g) for g in grid)
    if not grid:
        raise ValueError("empty threshold grid")

    model_h0 = OutcomeModel.parametric(h0_effects, scale=scale, shape=shape)
    model_h1 = OutcomeModel.parametric(h1_effects, scale=scale, shape=shape)

    rows = []
    for g in grid:
        d_g = _with_threshold(design, stage, g)
        metrics = []
        for model in (model_h0, model_h1):
            report = replicate(
                d_g, model, case=case, policy=policy, n_reps=n_reps,
                master_seed=master_seed, workers=workers,
            )
            metrics.append(
                report.stage2_adapt_rate if stage == 2 else report.stage3_zero_rate
            )
        rows.append((g, metrics[0], metrics[1]))

    flags = _pareto_flags([(m0, m1) for _, m0, m1 in rows])
    out_rows = tuple(
        CalibrationRow(g, m0, m1, flag)
        for (g, m0, m1), flag in zip(rows, flags)
    )
    selected = None
    if criterion == "corner":
        best = min(
            out_rows,
            key=lambda r: (math.hypot(r.metric_h0, 1.0 - r.metric_h1), r.threshold),
        )
        selected = best.threshold
    return CalibrationResult(
        stage=stage, criterion=criterion, selected=selected, rows=out_rows
    )


# ---------------------------------------------------------------------------
# Interim recommendation on accrued data

_ACCRUED_HEADER = ["patient_id", "stage", "arm_label", "delta_y"]


def read_accrued(path: str | Path, design: TrialDesign) -> list[PatientRecord]:
    """Parse an accrued-data CSV (patient_id, stage, arm_label, delta_y).

    delta_y is a float or the literal NA for a missing outcome. Malformed
    content raises ValueError naming the offending line.
    """
    path = Path(path)
    by_label = {a.label: a for a in design.arms}
    records: list[PatientRecord] = []
    seen: set[int] = set()
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _ACCRUED_HEADER:
            raise ValueError(
                f"{path}:1: expected header {','.join(_ACCRUED_HEADER)}, "
                f"got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
            pid_s, stage_s, label, delta_s = row
            try:
                pid = int(pid_s)
                stage = int(stage_s)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: patient_id and stage must be integers"
                ) from exc
            if pid in seen:
                raise ValueError(f"{path}:{lineno}: duplicate patient_id {pid}")
            seen.add(pid)
            if not 1 <= stage <= design.n_stages:
                raise ValueError(
                    f"{path}:{lineno}: stage {stage} outside 1..{design.n_stages}"
                )
            arm = by_label.get(label)
            if arm is None:
                raise ValueError(
                    f"{path}:{lineno}: unknown arm label {label!r} "
                    f"(expected one of {sorted(by_label)})"
                )
            if delta_s == "NA":
                delta = None
            else:
                try:
                    delta = float(delta_s)
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{lineno}: delta_y must be a number or NA, "
                        f"got {delta_s!r}"
                    ) from exc
                if not math.isfinite(delta):
                    raise ValueError(f"{path}:{lineno}: delta_y must be finite")
            records.append(PatientRecord(pid, stage, arm, delta))
    if not records:
        raise ValueError(f"{path}: no patient rows")
    records.sort(key=lambda r: r.patient_id)
    return records


@dataclass(frozen=True)
class InterimResult:
    """An interim decision on accrued data plus its human-readable audit."""

    upcoming_stage: int
    record: InterimRecord
    audit: tuple[str, ...]


def interim_recommendation(
    design: TrialDesign,
    records: list[PatientRecord],
    upcoming_stage: int,
    policy: MissingPolicy = MissingPolicy(),
    seed: int = 0,
) -> InterimResult:
    """One interim decision for real accrued data, with an audit trail.

    `seed` feeds only the fair coin a two-option mapped category may need;
    everything else is deterministic in the data.
    """
    _require_valid(design)
    if not 2 <= upcoming_stage <= design.n_stages:
        raise ValueError(
            f"upcoming stage must be in 2..{design.n_stages}, got {upcoming_stage}"
        )
    present = {r.stage for r in records}
    needed = set(range(1, upcoming_stage))
    absent = needed - present
    if absent:
        raise ValueError(
            f"accrued data has no patients in stage(s) "
            f"{', '.join(str(s) for s in sorted(absent))}"
        )

    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    rec = interim_decision(design, records, upcoming_stage, policy, rng)

    audit = []
    for arm, post in zip(design.arms, rec.posteriors):
        audit.append(
            f"posterior {arm.label}: Beta({post.alpha:g}, {post.beta:g}), "
            f"mean {post.mean:.6f}"
        )
    audit.append(
        "randomisation probabilities: "
        + ", ".join(
            f"{arm.label} {rec.pi[arm.index]:.6f}" for arm in design.arms
        )
    )
    if rec.categories is not None:
        shares = active_shares(rec.pi)
        actives = design.active_indices()
        audit.append(
            "active shares: "
            + ", ".join(
                f"{design.arms[i].label} {s:.6f}" for i, s in zip(actives, shares)
            )
        )
        audit.append(
            "categories: "
            + ", ".join(
                f"{design.arms[i].label} {c.value}"
                for i, c in zip(actives, rec.categories)
            )
        )
        if rec.applied_categories != rec.categories:
            audit.append(
                "applied categories: "
                + ", ".join(
                    f"{design.arms[i].label} {c.value}"
                    for i, c in zip(actives, rec.applied_categories)
                )
            )
    for line in rec.overrides:
        audit.append(f"override: {line}")
    if rec.dropped:
        audit.append(
            "dropped arms: "
            + ", ".join(design.arms[i].label for i in rec.dropped)
        )
    if rec.ratio is not None:
        audit.append(f"stage-{upcoming_stage} ratio: {rec.ratio.label()}")
    else:
        audit.append(
            f"stage-{upcoming_stage} randomisation is i.i.d. at the "
            "probabilities above"
        )
    return InterimResult(
        upcoming_stage=upcoming_stage, record=rec, audit=tuple(audit)
    )


# ---------------------------------------------------------------------------
# CSV report output

def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _base_columns(report: OCReport) -> list[tuple[str, object]]:
    return [
        ("design", report.design_name),
        ("scenario", report.scenario),
        ("stratum", report.stratum),
        ("case", report.case_id),
        ("impute", report.impute),
        ("n_reps", report.n_reps),
        ("master_seed", report.master_seed),
    ]


def _check_labels(reports: list[OCReport]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    labels = reports[0].arm_labels
    actives = reports[0].active_labels
    for r in reports[1:]:
        if r.arm_labels != labels or r.active_labels != actives:
            raise ValueError("reports in one CSV must share their arm labels")
    return labels, actives


def _maybe(tup, i):
    return None if tup is None else tup[i]


def write_oc_csv(reports: list[OCReport], path: str | Path) -> None:
    """Decision metrics and allocations, one row per report."""
    if not reports:
        raise ValueError("no reports to write")
    labels, active_labels = _check_labels(reports)
    header = [name for name, _ in _base_columns(reports[0])]
    header += [f"effect_{L}" for L in labels]
    header += [f"alloc_mean_{L}" for L in labels]
    header += [f"alloc_sd_{L}" for L in labels]
    header += [f"reject_{L}" for L in active_labels]
    header += [f"skip_{L}" for L in active_labels]
    header += [f"recommend_{L}" for L in active_labels]
    header += [
        "any_reject", "recommended_reject", "type1", "power",
        "null_arm_reject", "imputation_failures",
    ]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for rep in reports:
            k = len(labels)
            active_idx = [labels.index(L) for L in active_labels]
            row = [value for _, value in _base_columns(rep)]
            row += [rep.effects[i] for i in range(k)]
            row += [_maybe(rep.alloc_mean, i) for i in range(k)]
            row += [_maybe(rep.alloc_sd, i) for i in range(k)]
            row += [rep.reject_rate[i] for i in active_idx]
            row += [rep.skip_rate[i] for i in active_idx]
            row += [_maybe(rep.recommend_rate, i) for i in active_idx]
            row += [
                rep.any_reject_rate, rep.recommended_reject_rate, rep.type1,
                rep.power, rep.null_arm_reject_rate, rep.imputation_failure_rate,
            ]
            writer.writerow([_fmt(v) for v in row])


def write_adaptability_csv(reports: list[OCReport], path: str | Path) -> None:
    """Stage-level adaptation rates, one row per report."""
    if not reports:
        raise ValueError("no reports to write")
    labels, active_labels = _check_labels(reports)
    header = [name for name, _ in _base_columns(reports[0])]
    header += ["stage2_adapt", "stage3_adapt", "stage3_zero"]
    for tag in ("favour2", "disfavour2", "favour3", "disfavour3", "drop3", "keep3"):
        header += [f"{tag}_{L}" for L in active_labels]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for rep in reports:
            active_idx = [labels.index(L) for L in active_labels]
            row = [value for _, value in _base_columns(rep)]
            row += [
                rep.stage2_adapt_rate, rep.stage3_adapt_rate, rep.stage3_zero_rate,
            ]
            for tup in (
                rep.favour2_rate, rep.disfavour2_rate, rep.favour3_rate,
                rep.disfavour3_rate, rep.drop3_rate, rep.keep3_rate,
            ):
                row += [_maybe(tup, i) for i in active_idx]
            writer.writerow([_fmt(v) for v in row])


def write_tradeoff_csv(result: CalibrationResult, path: str | Path) -> None:
    """Calibration sweep, one row per grid point.

    Pareto flags and the selected threshold stay on the CalibrationResult;
    the file carries only the sweep itself.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["threshold", "metric_H0", "metric_H1"])
        for row in result.rows:
            writer.writerow(
                [_fmt(row.threshold), _fmt(row.metric_h0), _fmt(row.metric_h1)]
            )
