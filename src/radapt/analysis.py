"""The final analysis's one-sided rank-sum test, exact for every sample.

The test's alternative is treatment stochastically greater than control,
with midranks for ties. Ranks are kept doubled so they stay integers: one
plain-Python sort of the combined sample (2 to about 40 values here) gives
each run of tied values, positions i..j counted from 1, the doubled midrank
i + j. The null distribution comes from a subset-sum counting table over
these doubled midranks, which is identical to enumerating every labeling but
runs in polynomial time; float64 counts stay exact for every sample size this
engine produces. The table is cached on the sorted tie pattern, so the common
tie-free samples of one size share one table. A table may hold at most
EXACT_CELL_GUARD cells; validate_design bounds a stratum so that two strata
pooled always fit (table_cells).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import groupby

import numpy as np

__all__ = ["wilcoxon_one_sided", "rank_sum_rows"]

EXACT_CELL_GUARD = 50_000_000


def table_cells(n: int) -> int:
    """The most cells the null table of a sample of n values can need.

    The table of n1 treatment values holds (n1 + 1) * (smax + 1) cells, smax
    the sum of the n1 largest doubled midranks. Ties only lower that sum, and
    over the tie-free ranks 2, 4, ..., 2n the count grows with n1, so n - 1
    treatment values against one control value bound every sample.
    """
    return n * (n * n + n - 1)


@lru_cache(maxsize=4096)
def _null_survival(scaled_ranks: tuple[int, ...], n1: int) -> np.ndarray:
    """P(W2 >= s) for the scaled rank-sum of a uniformly random n1-subset.

    scaled_ranks are the doubled midranks of the combined sample (integers).
    Index s runs 0..max subset sum.
    """
    ranks = sorted(scaled_ranks)
    smax = sum(ranks[-n1:])
    if (n1 + 1) * (smax + 1) > EXACT_CELL_GUARD:
        raise ValueError(
            f"rank-sum samples of {n1} and {len(ranks) - n1} values need a null "
            f"table past {EXACT_CELL_GUARD} cells"
        )
    counts = np.zeros((n1 + 1, smax + 1))
    counts[0, 0] = 1.0
    for r in ranks:
        # every subset size at once; numpy reads the overlapping right side
        # before it writes, and the counts are integers, so the sums are exact
        counts[1:, r:] += counts[:-1, : smax + 1 - r]
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


def wilcoxon_one_sided(treatment, control) -> float:
    """One-sided rank-sum p-value, alternative: treatment greater.

    p = P(W >= w_observed) under the permutation null (inclusive at the
    observed statistic), read from the exact null table.
    """
    n1, n2 = len(treatment), len(control)
    if n1 == 0 or n2 == 0:
        raise ValueError("both samples must be non-empty")
    values = [float(v) for v in treatment] + [float(v) for v in control]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("samples must be finite")
    doubled = _doubled_midranks(values)
    return float(_null_survival(tuple(sorted(doubled)), n1)[sum(doubled[:n1])])


def rank_sum_rows(
    values: np.ndarray, treat: np.ndarray, control: np.ndarray
) -> np.ndarray:
    """Exact one-sided p-value of every row's rank-sum test at once.

    Row r tests values[r][treat[r]] against values[r][control[r]] and gets
    the p-value wilcoxon_one_sided gives that pair, bit for bit; a row with
    an empty sample gets 1, the p-value of a skipped test. Rows are grouped
    by sample sizes. A tie-free row's doubled midranks are 2, 4, ..., 2n, so
    it reads the cached null table under the key the scalar test uses; a row
    with ties goes to _tied_p_values.
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
        if free.size:
            # 0-based sorted position of each value; doubled midrank 2 (pos + 1)
            position = np.argsort(by_value[free], axis=1)
            w2 = 2 * position[:, :n1].sum(axis=1) + 2 * n1
            p[rows[free]] = _null_survival(ranks, n1)[w2]
        if tied.any():
            p[rows[tied]] = _tied_p_values(sample[tied], by_value[tied], n1)
    return p


def _tied_p_values(sample, by_value, n1: int) -> np.ndarray:
    """wilcoxon_one_sided on each row of rank_sum_rows' `sample`, whose
    first n1 values are the treatment's, bit for bit.

    `by_value` sorts each row. A run of equal values at 0-based sorted
    positions f..l gets the doubled midrank f + l + 2, as _doubled_midranks
    gives it, and the sorted doubled midranks key the cached null table.
    """
    n = sample.shape[1]
    ordered = np.take_along_axis(sample, by_value, axis=1)
    position = np.broadcast_to(np.arange(n), ordered.shape)
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ends = np.ones(ordered.shape, dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    first = np.maximum.accumulate(np.where(starts, position, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends, position, n)[:, ::-1], axis=1)
    doubled = first + last[:, ::-1] + 2
    w2 = np.take_along_axis(doubled, np.argsort(by_value, axis=1), axis=1)
    w2 = w2[:, :n1].sum(axis=1).tolist()
    p = np.empty(len(sample))
    for i, ranks in enumerate(doubled.tolist()):
        p[i] = _null_survival(tuple(ranks), n1)[w2[i]]
    return p
