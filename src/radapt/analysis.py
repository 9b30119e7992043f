"""Final-analysis hypothesis testing per stratum and the pooled-strata variant.

The primary test is a one-sided rank-sum test (alternative: treatment
stochastically greater than control) with midranks for ties. Ranks are kept
doubled so they stay integers: one plain-Python sort of the combined sample
(2 to about 40 values here) gives each run of tied values, positions i..j
counted from 1, the doubled midrank i + j. The exact method computes the
full-enumeration null distribution with a subset-sum counting table over
these doubled midranks, which is identical to enumerating every labeling but
runs in polynomial time; float64 counts stay exact for every sample size this
engine produces. The table is cached on the sorted tie pattern, so the common
tie-free samples of one size share one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from .core import ArmId, TrialDesign
from .posterior import BetaPosterior, SuccessCount, update
from .outcomes import PatientRecord, dichotomise

__all__ = [
    "TestResult",
    "wilcoxon_one_sided",
    "rank_sum_rows",
    "stratum_decision",
    "pooled_analysis",
    "arm_values",
]

# Beyond this many table cells the exact counting method hands over to seeded
# permutation sampling; unreachable for the trial sizes in scope.
_EXACT_CELL_GUARD = 50_000_000
_PERMUTATION_DRAWS = 100_000


@dataclass(frozen=True)
class TestResult:
    """One active-vs-control comparison."""

    treatment: ArmId
    control: ArmId
    p_value: float
    reject: bool
    n_treat: int
    n_control: int
    skipped: bool = False

    def label(self) -> str:
        return f"{self.treatment.label} vs {self.control.label}"


@lru_cache(maxsize=4096)
def _null_survival(scaled_ranks: tuple[int, ...], n1: int) -> np.ndarray:
    """P(W2 >= s) for the scaled rank-sum of a uniformly random n1-subset.

    scaled_ranks are the doubled midranks of the combined sample (integers).
    Index s runs 0..max subset sum.
    """
    ranks = sorted(scaled_ranks)
    smax = sum(ranks[-n1:])
    counts = np.zeros((n1 + 1, smax + 1))
    counts[0, 0] = 1.0
    seen = 0
    for r in ranks:
        seen += 1
        for k in range(min(seen, n1), 0, -1):
            counts[k, r:] += counts[k - 1, : smax + 1 - r]
    total = counts[n1].sum()
    surv = np.cumsum(counts[n1][::-1])[::-1] / total
    surv.flags.writeable = False
    return surv


def _doubled_midranks(values: list[float]) -> list[int]:
    """Twice the midrank of each value, in input order (integers)."""
    order = sorted(range(len(values)), key=values.__getitem__)
    doubled = [0] * len(values)
    seen = 0
    for _, run in groupby(order, key=values.__getitem__):
        run = list(run)
        # sorted positions seen+1 .. seen+len(run) share their mean as midrank
        for i in run:
            doubled[i] = 2 * seen + len(run) + 1
        seen += len(run)
    return doubled


def wilcoxon_one_sided(
    treatment, control, method: str = "exact",
    rng: np.random.Generator | None = None,
) -> float:
    """One-sided rank-sum p-value, alternative: treatment greater.

    p = P(W >= w_observed) under the permutation null (inclusive at the
    observed statistic). method is "exact" (default), "normal" for the
    tie-corrected normal approximation with continuity correction, or
    "permutation" for seeded resampling.
    """
    n1, n2 = len(treatment), len(control)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")
    values = [float(v) for v in treatment] + [float(v) for v in control]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("samples must be finite")

    doubled = _doubled_midranks(values)
    w2 = sum(doubled[:n1])
    n = n1 + n2

    if method == "exact":
        sorted_ranks = tuple(sorted(doubled))
        smax = sum(sorted_ranks[-n1:])
        if (n1 + 1) * (smax + 1) <= _EXACT_CELL_GUARD:
            surv = _null_survival(sorted_ranks, n1)
            return float(surv[w2])
        method = "permutation"

    scaled = np.array(doubled, dtype=np.int64)
    if method == "normal":
        mean_r = scaled.mean()
        var_w2 = n1 * n2 / (n - 1) * float(np.mean((scaled - mean_r) ** 2))
        if var_w2 == 0.0:
            return 1.0
        # continuity correction: W2 steps in units of 1 (doubled midranks)
        z = (w2 - 1.0 - n1 * mean_r) / math.sqrt(var_w2)
        return float(0.5 * math.erfc(z / math.sqrt(2.0)))

    if method == "permutation":
        if rng is None:
            rng = np.random.default_rng(0)
        hits = 0
        pool = scaled.copy()
        for _ in range(_PERMUTATION_DRAWS):
            rng.shuffle(pool)
            if pool[:n1].sum() >= w2:
                hits += 1
        return (1 + hits) / (_PERMUTATION_DRAWS + 1)

    raise ValueError(f"unknown method {method!r}")


def rank_sum_rows(
    values: np.ndarray, treat: np.ndarray, control: np.ndarray
) -> np.ndarray:
    """Exact one-sided p-value of every row's rank-sum test at once.

    Row r tests values[r][treat[r]] against values[r][control[r]] and gets
    the p-value wilcoxon_one_sided gives that pair, bit for bit; a row with
    an empty sample gets 1, the p-value of a skipped test. Rows are grouped
    by sample sizes. A tie-free row's doubled midranks are 2, 4, ..., 2n, so
    it reads the cached null table under the key the scalar test uses; a row
    with ties, or past the exact method's guard, calls wilcoxon_one_sided.
    """
    n1s, n2s = treat.sum(axis=1), control.sum(axis=1)
    p = np.ones(len(values))
    # each row's treatment values first, then its control values
    order = np.argsort(
        np.where(treat, 0, np.where(control, 1, 2)), axis=1, kind="stable"
    )
    packed = np.take_along_axis(values, order, axis=1)
    for n1, n2 in set(zip(n1s.tolist(), n2s.tolist())):
        if n1 == 0 or n2 == 0:
            continue
        rows = np.flatnonzero((n1s == n1) & (n2s == n2))
        sample = packed[rows, : n1 + n2]
        by_value = np.argsort(sample, axis=1, kind="stable")
        ordered = np.take_along_axis(sample, by_value, axis=1)
        tied = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        ranks = tuple(range(2, 2 * (n1 + n2) + 1, 2))
        free = np.flatnonzero(~tied)
        if (n1 + 1) * (sum(ranks[-n1:]) + 1) > _EXACT_CELL_GUARD:
            tied[:] = True
        elif free.size:
            # 0-based sorted position of each value; doubled midrank 2 (pos + 1)
            position = np.argsort(by_value[free], axis=1)
            w2 = 2 * position[:, :n1].sum(axis=1) + 2 * n1
            p[rows[free]] = _null_survival(ranks, n1)[w2]
        for i in np.flatnonzero(tied):
            p[rows[i]] = wilcoxon_one_sided(sample[i, :n1], sample[i, n1:])
    return p


def arm_values(records: list[PatientRecord], arm_index: int) -> list[float]:
    """Continuous outcomes available for testing: observed plus imputed."""
    return [
        r.delta_y
        for r in records
        if r.arm.index == arm_index and r.delta_y is not None
    ]


def _final_posterior(
    records: list[PatientRecord], design: TrialDesign, arm_index: int
) -> BetaPosterior:
    values = arm_values(records, arm_index)
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
    p = wilcoxon_one_sided(treat_values, control_values, method="exact")
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
) -> tuple[list[TestResult], ArmId]:
    """Per-arm tests plus the recommended arm for one completed stratum.

    The recommended arm is the active arm with the largest final assigned
    allocation; ties go to the larger posterior mean of the adaptation
    endpoint, then to the lower arm index. An arm with no testable data gets
    a skipped (never rejected) result.
    """
    control_idx = design.control_index()
    control_arm = design.arms[control_idx]
    control_values = arm_values(records, control_idx)

    assigned = {a.index: 0 for a in design.arms}
    for rec in records:
        assigned[rec.arm.index] += 1

    results = []
    for idx in design.active_indices():
        results.append(
            _test_pair(
                arm_values(records, idx),
                control_values,
                design.arms[idx],
                control_arm,
                design.alpha_level,
            )
        )

    best, best_key = None, None
    for idx in design.active_indices():
        key = (assigned[idx], _final_posterior(records, design, idx).mean, -idx)
        if best_key is None or key > best_key:
            best, best_key = idx, key
    return results, design.arms[best]


def pooled_analysis(
    records_a: list[PatientRecord],
    records_b: list[PatientRecord],
    design: TrialDesign,
) -> list[TestResult]:
    """Tests on the two strata's concatenated per-arm samples."""
    labels_a = {r.arm.label for r in records_a}
    labels_b = {r.arm.label for r in records_b}
    if labels_a and labels_b and labels_a != labels_b:
        raise ValueError(f"arm sets differ between strata: {labels_a} vs {labels_b}")

    control_idx = design.control_index()
    control_arm = design.arms[control_idx]
    pooled_control = arm_values(records_a, control_idx) + arm_values(
        records_b, control_idx
    )
    results = []
    for idx in design.active_indices():
        pooled_treat = arm_values(records_a, idx) + arm_values(records_b, idx)
        results.append(
            _test_pair(
                pooled_treat,
                pooled_control,
                design.arms[idx],
                control_arm,
                design.alpha_level,
            )
        )
    return results
