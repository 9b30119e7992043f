"""The record-level reference the tests check radapt against.

radapt conducts trials one way: blocks of trials over arrays, stage by stage
(engine._conduct_block), and a live interim as a block of one row. This
module conducts one trial at a time as a list of PatientRecords, on one row
of the same draws and through the same decision tables
(engine._DecisionTable), with the record-level imputer and final analysis
written out once more. It keeps the interim decision as radapt took it
before the tables, one count key at a time (_decide), with the rules'
arithmetic and exact P(best) of one set of posteriors at a time
(prob_best_lone) written out once more: the oracle the tables' decisions
and radapt's batched P(best) are checked against bit for bit. Exact P(best)
through scipy's Beta functions (prob_best_int) is the independent oracle
its values are gated against. It also keeps the seeded Monte Carlo
estimators that the exact posterior probabilities are checked against, and
the direct subset-sum table (subset_count_table) that the rank-sum tables
radapt chains are checked against.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from radapt import engine
from radapt.analysis import wilcoxon_one_sided
from radapt.core import TrialDesign
from radapt.engine import InterimRecord, MissingPolicy
from radapt.mapping import (
    BALANCED,
    AdaptationCategory,
    RatioVector,
    active_shares,
    allocation_options,
    decide_category,
    planned_ratio,
)
from radapt.outcomes import (
    DEFAULT_SHAPE,
    MissingCase,
    OutcomeModel,
    PatientRecord,
    dichotomise,
    outcomes_from_raw,
)
from radapt.posterior import (
    BetaPosterior,
    SuccessCount,
    prob_best,
    prob_greater,
    update,
)
from radapt.randlist import RandomisationBlock
from radapt.rules import ProbVector, fixed_equal

# ---------------------------------------------------------------------------
# Outcomes and imputation


def draw_outcome(model: OutcomeModel, arm: int, rng: np.random.Generator) -> float:
    """One delta_y draw for the arm at position `arm`."""
    if model.kind == "bootstrap":
        raw = rng.integers(len(model.pilot), size=1)
    else:
        raw = rng.lognormal(0.0, DEFAULT_SHAPE, 1)
    return float(outcomes_from_raw(model, np.array([arm]), raw)[0])


def impute_stage2_mean(records: list[PatientRecord]) -> list[PatientRecord]:
    """Replace stage-2 missing outcomes by their arm's observed mean so far.

    Donors are the observed (never imputed) values in the same arm accrued
    before the missing record, in patient order; stage-1 missing records are
    left untouched. A stage-2 record with no donors stays missing and emits a
    warning.
    """
    ordered = sorted(records, key=lambda r: r.patient_id)
    out: list[PatientRecord] = []
    for rec in ordered:
        if rec.stage == 2 and rec.missing:
            donors = [
                r.delta_y
                for r in ordered
                if r.arm == rec.arm
                and r.patient_id < rec.patient_id
                and r.delta_y is not None
                and not r.imputed
            ]
            if donors:
                out.append(replace(rec, delta_y=float(np.mean(donors)), imputed=True))
            else:
                warnings.warn(
                    f"no observed values in arm {rec.arm} before patient "
                    f"{rec.patient_id}; record left missing",
                    stacklevel=2,
                )
                out.append(rec)
        else:
            out.append(rec)
    return out


def analysis_records(records, policy: MissingPolicy) -> tuple[list[PatientRecord], int]:
    """Imputed copy of the records (when asked) plus the unimputable count."""
    if not policy.impute_stage2:
        return list(records), 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        imputed = impute_stage2_mean(list(records))
    failures = sum(1 for r in imputed if r.stage == 2 and r.missing)
    return imputed, failures


# ---------------------------------------------------------------------------
# Final analysis


@dataclass(frozen=True)
class TestResult:
    """One active-vs-control comparison, the arms by label."""

    treatment: str
    control: str
    p_value: float
    reject: bool
    n_treat: int
    n_control: int
    skipped: bool = False

    def label(self) -> str:
        return f"{self.treatment} vs {self.control}"


def arm_values(records: list[PatientRecord], arm: str) -> list[float]:
    """Continuous outcomes available for testing: observed plus imputed."""
    return [r.delta_y for r in records if r.arm == arm and r.delta_y is not None]


def _final_posterior(
    records: list[PatientRecord], design: TrialDesign, arm_index: int
) -> BetaPosterior:
    values = arm_values(records, design.arms[arm_index])
    successes = sum(1 for v in values if dichotomise(v, design.delta))
    prior = BetaPosterior(design.prior_alpha[arm_index], design.prior_beta[arm_index])
    return update(prior, SuccessCount(successes, len(values) - successes))


def _test_pair(
    treat_values, control_values, treat_arm, control_arm, alpha_level
) -> TestResult:
    if not treat_values or not control_values:
        return TestResult(
            treatment=treat_arm,
            control=control_arm,
            p_value=1.0,
            reject=False,
            n_treat=len(treat_values),
            n_control=len(control_values),
            skipped=True,
        )
    p = wilcoxon_one_sided(treat_values, control_values)
    return TestResult(
        treatment=treat_arm,
        control=control_arm,
        p_value=p,
        reject=p < alpha_level,
        n_treat=len(treat_values),
        n_control=len(control_values),
    )


def stratum_decision(
    records: list[PatientRecord], design: TrialDesign
) -> tuple[list[TestResult], str]:
    """Per-arm tests plus the recommended arm for one completed stratum.

    The recommended arm is the active arm with the largest final assigned
    allocation; ties go to the larger posterior mean of the adaptation
    endpoint, then to the lower arm index. An arm with no testable data gets
    a skipped (never rejected) result.
    """
    control_arm = design.arms[0]
    control_values = arm_values(records, control_arm)

    results = []
    for idx in range(1, design.k):
        results.append(
            _test_pair(
                arm_values(records, design.arms[idx]),
                control_values,
                design.arms[idx],
                control_arm,
                design.alpha_level,
            )
        )

    best, best_key = None, None
    for idx in range(1, design.k):
        assigned = sum(rec.arm == design.arms[idx] for rec in records)
        key = (assigned, _final_posterior(records, design, idx).mean, -idx)
        if best_key is None or key > best_key:
            best, best_key = idx, key
    return results, design.arms[best]


def pooled_analysis(
    records_a: list[PatientRecord],
    records_b: list[PatientRecord],
    design: TrialDesign,
) -> list[TestResult]:
    """Tests on the two strata's concatenated per-arm samples.

    Every record's arm must be one of the design's arms. A stratum may leave
    an arm without patients (i.i.d. assignment can); that arm's pooled
    sample is then the other stratum's values.
    """
    for r in (*records_a, *records_b):
        if r.arm not in design.arms:
            raise ValueError(
                f"patient {r.patient_id}: arm {r.arm!r} is not one of "
                f"the design's arms"
            )

    control_arm = design.arms[0]
    pooled_control = arm_values(records_a, control_arm) + arm_values(
        records_b, control_arm
    )
    results = []
    for arm in design.arms[1:]:
        pooled_treat = arm_values(records_a, arm) + arm_values(records_b, arm)
        results.append(
            _test_pair(
                pooled_treat, pooled_control, arm, control_arm, design.alpha_level
            )
        )
    return results


# ---------------------------------------------------------------------------
# The interim decision, one count key at a time


# Per-arm (successes, failures, assigned): with the stage-1 and stage-2
# missingness flags, everything an interim decision reads from the data.
ArmTallies = tuple[tuple[int, int, int], ...]


def _posteriors(design: TrialDesign, tallies: ArmTallies) -> tuple[BetaPosterior, ...]:
    return tuple(
        update(
            BetaPosterior(design.prior_alpha[i], design.prior_beta[i]),
            SuccessCount(s, f),
        )
        for i, (s, f, _) in enumerate(tallies)
    )


def _normalised(weights: list[float]) -> ProbVector:
    total = math.fsum(weights)
    if total <= 0 or not math.isfinite(total):
        raise RuntimeError(f"degenerate weight vector {weights}")
    return ProbVector(tuple(w / total for w in weights))


def _rule_pi(
    design: TrialDesign,
    upcoming_stage: int,
    posteriors: tuple[BetaPosterior, ...],
    counts: tuple[int, ...],
) -> ProbVector:
    # the rules' arithmetic written out once more, so a fault in the
    # arithmetic radapt's rules and decision tables share shows here
    rule = design.rule
    if rule.kind == "FixedEqual":
        return fixed_equal(design.k)
    gamma = rule.gamma_for_stage(upcoming_stage)
    if rule.kind == "TSBRAR":
        if gamma == 0:
            return fixed_equal(design.k)
        return _normalised([p**gamma for p in _prob_best(posteriors)])
    eta = rule.eta_for_stage(upcoming_stage)
    control = posteriors[0]
    raw_active = [prob_greater(p, control) ** gamma for p in posteriors[1:]]
    active_total = math.fsum(raw_active)
    raw_active = [w / active_total for w in raw_active]
    dn = max(counts[1], counts[2]) - counts[0]
    if rule.control_exponent_form == "ProductForm":
        g = math.exp(eta * dn)
    else:
        g = math.exp(math.copysign(abs(dn) ** eta, dn)) if dn != 0 else 1.0
    return _normalised([(1.0 / 3.0) * g] + raw_active)


def _prob_best(posteriors: tuple[BetaPosterior, ...]) -> list[float]:
    # integer posteriors through the lone-key formula, so a fault in radapt's
    # batched P(best) shows here; others through radapt's quadrature
    keys = [(p.alpha, p.beta) for p in posteriors]
    if not all(float(v).is_integer() for key in keys for v in key):
        return list(prob_best(posteriors))
    shared = sorted(Counter(keys).items())
    values = prob_best_lone(tuple((int(a), int(b), m) for (a, b), m in shared))
    by_key = {key: v for (key, _), v in zip(shared, values)}
    return [by_key[key] for key in keys]


_DEMOTED = {
    AdaptationCategory.DROP: AdaptationCategory.DISFAVOUR,
    AdaptationCategory.KEEP: AdaptationCategory.FAVOUR,
}


def _tau_dropped_pi(pi: ProbVector, design: TrialDesign) -> tuple[ProbVector, tuple[int, ...]]:
    # each active's share of the actives' total, or 1/(K - 1) where it is 0,
    # written out once more rather than through mapping.active_shares
    active = pi.probs[1:]
    total = sum(active)
    shares = [p / total if total > 0 else 1 / len(active) for p in active]
    drops = tuple(i for i, s in enumerate(shares, 1) if s < design.tau)
    if not drops or len(drops) == design.k - 1:
        return pi, ()
    weights = list(pi.probs)
    for i in drops:
        weights[i] = 0.0
    total = math.fsum(weights)
    return ProbVector(tuple(w / total for w in weights)), drops


_DECISION_MEMO = 4096  # decisions _decide keeps


@lru_cache(maxsize=_DECISION_MEMO)
def _decide(
    design: TrialDesign,
    policy: MissingPolicy,
    upcoming_stage: int,
    tallies: ArmTallies,
    missing: tuple[bool, bool],
) -> InterimRecord:
    """The interim decision as a pure function of integer counts.

    Nothing here draws: a stage-3 category pair that admits two ratios
    leaves both in `options` and `ratio` None, for the caller's coin.
    """
    posteriors = _posteriors(design, tallies)
    pi = _rule_pi(design, upcoming_stage, posteriors, tuple(n for _, _, n in tallies))
    stage1_missing, stage2_missing = missing
    overrides: list[str] = []
    categories = applied = None
    options: tuple[RatioVector, ...] = ()
    dropped: tuple[int, ...] = ()
    planned = planned_ratio(design, upcoming_stage)

    if planned is not None:
        options = (planned,)
    elif design.mapping is not None:
        x1, x2 = active_shares(pi)
        categories = applied = (
            decide_category(x1, upcoming_stage, design.mapping),
            decide_category(x2, upcoming_stage, design.mapping),
        )
        held = policy.no_adapt_on_stage1_missing and stage1_missing
        if upcoming_stage == 2 and held:
            options = (BALANCED[2],)
            overrides.append("stage-1 outcomes missing: stage-2 block held balanced")
        else:
            kept = policy.no_drop_on_stage2_missing and stage2_missing
            if upcoming_stage == 3 and kept:
                applied = tuple(_DEMOTED.get(c, c) for c in categories)
                if applied != categories:
                    overrides.append(
                        "stage-2 outcomes missing: Drop/Keep demoted to "
                        "Disfavour/Favour"
                    )
            options = allocation_options(applied, upcoming_stage)
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
        if upcoming_stage == design.n_stages and design.tau_dropping:
            if policy.no_drop_on_stage2_missing and stage2_missing:
                overrides.append(
                    "stage-2 outcomes missing: tau-based arm dropping suppressed"
                )
            else:
                pi, dropped = _tau_dropped_pi(pi, design)
                if dropped:
                    labels = ", ".join(design.arms[i] for i in dropped)
                    overrides.append(f"active share below tau, dropped: {labels}")

    return InterimRecord(
        upcoming_stage=upcoming_stage,
        posteriors=posteriors,
        pi=pi,
        categories=categories,
        applied_categories=applied,
        overrides=tuple(overrides),
        options=options,
        ratio=options[0] if len(options) == 1 else None,
        dropped=dropped,
    )


# ---------------------------------------------------------------------------
# Interim decisions and one trial


def _decision(design, records, upcoming_stage, policy) -> InterimRecord:
    """radapt's decision on the records' count key, with no coin drawn: per
    arm the successes, failures and assigned patients after stage-2
    imputation (when the policy asks for it), and whether any stage-1 and
    any stage-2 outcome is missing; taken from a decision table of
    (design, policy, upcoming_stage) made for it, as a block row takes it."""
    records, _ = analysis_records(records, policy)
    tallies = []
    for a in design.arms:
        arm = [r for r in records if r.arm == a]
        values = [r.delta_y for r in arm if not r.missing]
        wins = sum(dichotomise(v, design.delta) for v in values)
        tallies.append((wins, len(values) - wins, len(arm)))
    missing = tuple(any(r.missing for r in records if r.stage == s) for s in (1, 2))
    key = tuple(v for tally in tallies for v in tally) + tuple(map(int, missing))
    table = engine._DecisionTable(design, policy, upcoming_stage)
    (row,) = table.lookup([key])
    return table[row]


def interim_decision(
    design: TrialDesign,
    records,
    upcoming_stage: int,
    policy: MissingPolicy,
    rng: np.random.Generator,
) -> InterimRecord:
    """The interim decision on the records, the fair coin between two
    options drawn from `rng` at every call, memo hit or not."""
    decision = _decision(design, records, upcoming_stage, policy)
    if len(decision.options) > 1:
        decision = replace(decision, ratio=decision.options[rng.integers(2)])
    return decision


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
    recommended: str
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


def run_trial(
    design: TrialDesign,
    model: OutcomeModel,
    case: MissingCase | None = None,
    policy: MissingPolicy = MissingPolicy(),
    rng: np.random.Generator | None = None,
    seed_tag: str = "",
) -> TrialTrajectory:
    """Conduct one trial of one stratum from first patient to final analysis.

    The trial's random numbers are one row of engine._draw from `rng`, the
    same fixed-shape set a replicate takes from its block's generator.
    """
    engine._require_valid(design)
    engine._require_arity(design, model)
    if case is None:
        case = MissingCase(0)
    if rng is None:
        rng = np.random.default_rng()
    draws = engine._draw([rng], design, model, 1)[0]
    return _conduct_trial(design, model, case, policy, draws, seed_tag)


def _conduct_trial(
    design: TrialDesign,
    model: OutcomeModel,
    case: MissingCase,
    policy: MissingPolicy,
    draws,
    seed_tag: str = "",
) -> TrialTrajectory:
    """run_trial's body on one trial's draws (one row of engine._Draws)."""
    k = design.k
    accrued: list[PatientRecord] = []
    stages: list[StageRecord] = []
    interims: list[InterimRecord] = []

    stage_sizes = zip(design.stage_sizes, engine._stage_columns(design))
    for t, (size, cols) in enumerate(stage_sizes, start=1):
        if t == 1:
            planned = planned_ratio(design, 1)
            options = () if planned is None else (planned,)
            pi = fixed_equal(k)
        else:
            interim = _decision(design, accrued, t, policy)
            options, pi = interim.options, interim.pi

        block = ratio = None
        keys = draws.key[cols]
        if options:
            # the coin picks one of two stage-3 ratios, in the options' order
            ratio = options[int(draws.coin[t - 1] >= 0.5) if len(options) > 1 else 0]
            order = np.argsort(keys, kind="stable")
            assigned = np.repeat(np.arange(k), ratio.counts)[order]
            block = RandomisationBlock(
                t, tuple(design.arms[i] for i in assigned), seed_tag
            )
        else:
            cum = np.cumsum(pi.probs)
            assigned = np.searchsorted(cum[:-1], keys * cum[-1], side="right")
        if t > 1:
            interims.append(replace(interim, ratio=ratio))

        y = outcomes_from_raw(model, assigned, draws.raw[cols]).tolist()
        order = np.argsort(draws.miss[cols], kind="stable")
        gone = set(order[: engine._missing_count(case, t, size)].tolist())
        stage_records = [
            PatientRecord(
                cols.start + j + 1, t, design.arms[a], None if j in gone else y[j]
            )
            for j, a in enumerate(assigned.tolist())
        ]
        stages.append(
            StageRecord(
                stage_index=t,
                ratio=ratio,
                block=block,
                counts=tuple(np.bincount(assigned, minlength=k).tolist()),
                records=tuple(stage_records),
            )
        )
        accrued.extend(stage_records)

    working, failures = analysis_records(accrued, policy)
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
# The rank-sum null distribution, by one direct table per tie pattern


def null_survival(scaled_ranks: tuple[int, ...], n1: int) -> np.ndarray:
    """P(W2 >= s) for the scaled rank-sum of a uniformly random n1-subset.

    scaled_ranks are the doubled midranks of the combined sample (integers);
    index s runs 0..max subset sum. The counts table covers every subset
    size and sum over the doubled grid and is built from the ranks
    themselves, with no shared table and no derivation.
    """
    counts = subset_count_table(scaled_ranks, n1)
    total = counts[n1].sum()
    return np.cumsum(counts[n1][::-1])[::-1] / total


def subset_count_table(ranks, n1: int) -> np.ndarray:
    """Counts of the k-subsets (k <= n1) of the integer `ranks` by sum: row
    k, column s, for s up to the sum of the n1 largest ranks."""
    ranks = sorted(ranks)
    smax = sum(ranks[-n1:]) if n1 else 0
    counts = np.zeros((n1 + 1, smax + 1))
    counts[0, 0] = 1.0
    for r in ranks:
        # every subset size at once; numpy reads the overlapping right side
        # before it writes
        counts[1:, r:] += counts[:-1, : smax + 1 - r]
    return counts


# ---------------------------------------------------------------------------
# Exact P(best) of one integer key set at a time


def prob_best_int(arms: tuple[tuple[int, int, int], ...]) -> tuple[float, ...]:
    """P(best) per distinct posterior of one canonical key set, (a, b, m)
    per distinct integer Beta(a, b) shared by m arms, sorted: numpy's
    Gauss-Legendre nodes and scipy's Beta functions, on this key set alone.
    radapt computes neither its nodes nor its Beta CDF this way, so this is
    the oracle its P(best) is gated against, in absolute error."""
    from scipy.special import betainc, betaln, xlog1py, xlogy

    a, b, m = (np.array(col, dtype=np.float64)[:, None] for col in zip(*arms))
    degree = int(np.sum(m * (a + b - 1.0))) - 1
    x, w = np.polynomial.legendre.leggauss(degree // 2 + 1)
    x, w = (x + 1.0) / 2.0, w / 2.0
    cdf = betainc(a, b, x)
    pdf = np.exp(xlogy(a - 1.0, x) + xlog1py(b - 1.0, -x) - betaln(a, b))
    powers = m.T - np.eye(len(arms))
    others = np.prod(cdf[None, :, :] ** powers[:, :, None], axis=1)
    return tuple(float(v) for v in (pdf * others) @ w)


def prob_best_lone(arms: tuple[tuple[int, int, int], ...]) -> tuple[float, ...]:
    """P(best) per distinct posterior of one canonical key set, as
    prob_best_int takes it, by the arithmetic of radapt's batched P(best)
    written out for this key set alone: Golub-Welsch nodes, each arm's
    binomial terms summed from the top, the set padded to K arms with
    (1, 1, 0). The bits a batch must give each of its key sets."""
    d, k = len(arms), sum(m for _, _, m in arms)
    arms = tuple(arms) + ((1, 1, 0),) * (k - d)
    nodes = (sum(m * (a + b) for a, b, m in arms) - k - 1) // 2 + 1
    steps = np.arange(1.0, nodes)
    jacobi = np.zeros((nodes, nodes))
    jacobi.flat[:: nodes + 1] = 0.5
    jacobi.flat[nodes :: nodes + 1] = steps / (2.0 * np.sqrt(4.0 * steps * steps - 1.0))
    x, vectors = np.linalg.eigh(jacobi)
    lf = np.array([math.lgamma(i + 1.0) for i in range(2 * nodes)])
    cdf, pdf = [], []
    for a, b, _ in arms:
        n = a + b - 1
        i = np.arange(b)[:, None]
        # the terms of n, n - 1, ..., a successes out of n
        log_terms = (lf[n] + ((n - i) * np.log(x) - lf[n - i])) + (
            i * np.log1p(-x) - lf[i]
        )
        terms = np.exp(log_terms)
        cdf.append(np.cumsum(terms, axis=0)[-1])
        pdf.append(terms[-1] * (a * (1.0 / x)))
    cdf, pdf = np.array(cdf)[None], np.array(pdf)[None]
    m = np.array([[m for _, _, m in arms]])
    powers = m[:, None, :] - np.eye(k)
    others = np.prod(cdf[:, None, :, :] ** powers[:, :, :, None], axis=2)
    values = (pdf * others) @ (vectors[0] ** 2)
    return tuple(float(v) for v in values[0, :d])


# ---------------------------------------------------------------------------
# Monte Carlo estimators of the posterior comparison probabilities


@dataclass(frozen=True)
class MonteCarlo:
    """Seeded Monte Carlo configuration for the sampling-based estimators."""

    draws: int = 100_000
    seed: int | np.random.SeedSequence | None = None

    def __post_init__(self) -> None:
        if self.draws < 1:
            raise ValueError(f"draws must be >= 1, got {self.draws}")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def prob_greater_mc(a: BetaPosterior, b: BetaPosterior, mc: MonteCarlo) -> float:
    """P(X > Y) for X ~ a and Y ~ b, estimated by seeded sampling."""
    rng = mc.rng()
    x = rng.beta(a.alpha, a.beta, mc.draws)
    y = rng.beta(b.alpha, b.beta, mc.draws)
    return float(np.mean(x > y))


def prob_max_all(
    posteriors: list[BetaPosterior] | tuple[BetaPosterior, ...],
    mc: MonteCarlo,
) -> np.ndarray:
    """P(each arm has the maximum success probability), jointly estimated.

    The sampling counterpart of `posterior.prob_best`. One common sample of
    shape (draws, K) is drawn; each draw credits exactly one arm, with argmax
    ties broken uniformly, so the K estimates sum to exactly 1.
    """
    k = len(posteriors)
    if k < 2:
        raise ValueError("need at least two posteriors")
    rng = mc.rng()
    samples = np.column_stack(
        [rng.beta(p.alpha, p.beta, mc.draws) for p in posteriors]
    )
    winners = np.argmax(samples, axis=1)
    row_max = samples[np.arange(mc.draws), winners]
    tied = (samples == row_max[:, None]).sum(axis=1) > 1
    if tied.any():
        for row in np.nonzero(tied)[0]:
            options = np.nonzero(samples[row] == row_max[row])[0]
            winners[row] = options[rng.integers(len(options))]
    counts = np.bincount(winners, minlength=k)
    probs = counts / mc.draws
    # counts sum to draws exactly; fold the per-entry division rounding (at
    # most a few ulps) into the last entry so the float sum is exactly 1
    partial = 0.0
    for i in range(k - 1):
        partial = partial + float(probs[i])
    probs[k - 1] = 1.0 - partial
    return probs


def prob_max(
    posteriors: list[BetaPosterior] | tuple[BetaPosterior, ...],
    arm: int,
    mc: MonteCarlo,
) -> float:
    """P(arm's success probability is the maximum of all arms)."""
    if not 0 <= arm < len(posteriors):
        raise ValueError(f"arm index {arm} out of range for {len(posteriors)} arms")
    return float(prob_max_all(posteriors, mc)[arm])
