"""The final analysis's one-sided rank-sum test, exact for every sample.

The test's alternative is treatment stochastically greater than control,
with midranks for ties. Ranks are kept doubled so they stay integers: one
plain-Python sort of the combined sample (2 to about 40 values here) gives
each run of tied values, positions i..j counted from 1, the doubled midrank
i + j. The null distribution of the treatment's doubled rank sum comes from
subset-sum counting tables, which match enumerating every labeling but take
polynomial time; a p-value is a count over C(n, n1).

One tie-free table per sample size n counts the k-subsets of the ranks
1..n by sum, for every k; it is the table of n - 1 plus itself shifted by n
one row down, so each size costs one array add. Doubling a sum gives the
doubled rank sum, so the table needs no odd columns. A tie-free sample reads
its row n1. A tied sample derives its row from the same table: it takes each
tied position's rank back out of the smaller side's rows by exact
deconvolution, spreads what is left onto the doubled grid, and adds each tie
group at its doubled midrank with binomial weights; a smaller control side
is derived and read backwards from the doubled total n(n + 1). Counts are
float64, exact only while every count stays below 2**53, so the tables exist
only up to 56 values (C(56, 28) < 2**53); the derivation runs only there
and while it is cheaper than a direct table over the tied ranks, and every
other sample builds that direct table. Each sample's survival is cached on
its sorted tie pattern, so all routes give the same p-values bit for bit. A
table may hold at most EXACT_CELL_GUARD cells on the doubled grid;
validate_design bounds a stratum so that two strata pooled always fit
(table_cells).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import groupby

import numpy as np

__all__ = ["wilcoxon_one_sided", "rank_sum_rows"]

EXACT_CELL_GUARD = 50_000_000
# the largest n whose tie-free table is exact in float64, which holds every
# integer count below 2**53: C(56, 28) < 2**53 < C(57, 28)
_CHAIN_MAX = 56
_BAND = 32  # rows per update of a direct table; bounds numpy's operand copy


def table_cells(n: int) -> int:
    """The most cells the null table of a sample of n values can need.

    The table of n1 treatment values holds (n1 + 1) * (smax + 1) cells on
    the doubled grid, smax the sum of the n1 largest doubled midranks. Ties
    only lower that sum, and over the tie-free ranks 2, 4, ..., 2n the count
    grows with n1, so n - 1 treatment values against one control value bound
    every sample.
    """
    return n * (n * n + n - 1)


def _subset_counts(ranks, n1: int) -> np.ndarray:
    """Counts of the k-subsets (k <= n1) of the integer `ranks` by sum.

    Row k, column s, for s up to the sum of the n1 largest ranks.
    """
    ranks = sorted(ranks)
    smax = sum(ranks[-n1:])
    counts = np.zeros((n1 + 1, smax + 1))
    counts[0, 0] = 1.0
    reach = 0
    for i, r in enumerate(ranks):
        # rows past i + 1 and sums past the first i + 1 ranks' total are
        # still 0, so skipping them skips only 0 + 0
        top, reach = min(i + 1, n1), min(reach + r, smax)
        # row k gains row k - 1 shifted by r, top rows first, _BAND rows at
        # a time: a band reads only rows not yet updated, and numpy copies
        # the overlapping operand, one band, before it writes
        for high in range(top, 0, -_BAND):
            low = max(high - _BAND, 0)
            counts[low + 1 : high + 1, r : reach + 1] += counts[low:high, : reach + 1 - r]
    return counts


@lru_cache(maxsize=_CHAIN_MAX)
def _tie_free_table(n: int) -> np.ndarray:
    """Counts of the k-subsets (every k) of the ranks 1..n by sum.

    Built from the table of n - 1: row k gains row k - 1 of that table
    shifted by n. Exact for n <= _CHAIN_MAX.
    """
    counts = np.zeros((n + 1, n * (n + 1) // 2 + 1))
    if n == 0:
        counts[0, 0] = 1.0
    else:
        smaller = _tie_free_table(n - 1)
        counts[:n, : smaller.shape[1]] = smaller
        counts[1:, n:] += smaller
    counts.flags.writeable = False
    return counts


def _tie_free_counts(n: int, n1: int) -> np.ndarray:
    """The shared table: counts of the k-subsets (k <= n1) of 1..n by sum,
    a view of _tie_free_table(n)."""
    return _tie_free_table(n)[: n1 + 1, : n1 * (2 * n - n1 + 1) // 2 + 1]


def _tie_groups(ranks: list[int]) -> list[tuple[int, int]]:
    """(first 0-based position, size) of each run of tied values in the
    sorted doubled midranks."""
    groups, first = [], 0
    for last in range(1, len(ranks) + 1):
        if last == len(ranks) or ranks[last] != ranks[first]:
            if last - first > 1:
                groups.append((first, last - first))
            first = last
    return groups


def _derived_row(n: int, n1: int, groups: list[tuple[int, int]]) -> np.ndarray:
    """Row n1 of the doubled-grid count table of a tied sample, derived
    from the shared tie-free table; exact while every count is below 2**53.

    The smaller side is derived: with fewer control values, the control's
    row read backwards from the doubled total n(n + 1), which every split of
    the doubled midranks sums to.
    """
    if n - n1 < n1:
        row = _derived_row(n, n - n1, groups)
        mirrored = np.zeros(n * (n + 1) + 1)
        mirrored[mirrored.size - row.size :] = row[::-1]
        return mirrored
    table = np.array(_tie_free_counts(n, n1))
    width = table.shape[1]
    for first, size in groups:
        # take rank r out of every row: T'[k] = T[k] - T'[k - 1] shifted by r
        for r in range(first + 1, first + size + 1):
            high, low = list(table[:, r:]), list(table[:, : width - r])
            for k in range(1, n1 + 1):
                np.subtract(high[k], low[k - 1], out=high[k])
    # only rows that reach row n1 through the groups still to add are kept
    left = sum(size for _, size in groups)
    lo = max(0, n1 - left)
    rows = np.zeros((n1 + 1 - lo, 2 * width - 1))
    rows[:, ::2] = table[lo:]
    for first, size in groups:
        # add `size` values at doubled midrank m: j of them in a k-subset
        # add j * m to its sum, in C(size, j) ways
        m = 2 * first + size + 1
        left -= size
        new_lo = max(0, n1 - left)
        added = np.zeros((n1 + 1 - new_lo, rows.shape[1]))
        for j in range(size + 1):
            # row k gains row k - j, for the rows kept before and after
            start = max(new_lo, lo + j)
            if start <= n1:
                shift = j * m
                taken = rows[start - j - lo : n1 + 1 - j - lo, : rows.shape[1] - shift]
                added[start - new_lo :, shift:] += math.comb(size, j) * taken
        rows, lo = added, new_lo
    return rows[0]


def _derivation_pays(n: int, n1: int, groups, cells: int) -> bool:
    """Whether the derivation costs less than a direct table of `cells`.

    The derivation makes about min(n1, n - n1) row updates per tied
    position (it derives the smaller side), the direct
    build n updates of about half its table each; one numpy call costs
    about as much as 5,000 cells of that arithmetic (2-CPU Xeon, numpy 2.4).
    """
    tied = sum(size for _, size in groups)
    return tied * min(n1, n - n1) <= n * (1 + cells / 5000)


@lru_cache(maxsize=4096)
def _null_survival(scaled_ranks: tuple[int, ...], n1: int) -> np.ndarray:
    """P(W2 >= s) for the scaled rank-sum of a uniformly random n1-subset.

    scaled_ranks are the doubled midranks of the combined sample (integers).
    Index s runs 0..max subset sum.
    """
    ranks = sorted(scaled_ranks)
    n, smax = len(ranks), sum(ranks[-n1:])
    cells = (n1 + 1) * (smax + 1)
    if cells > EXACT_CELL_GUARD:
        raise ValueError(
            f"rank-sum samples of {n1} and {n - n1} values need a null "
            f"table past {EXACT_CELL_GUARD} cells"
        )
    chained = n <= _CHAIN_MAX
    groups = _tie_groups(ranks)
    if not groups:
        # past the exact chain the table is built for this sample, not kept
        free = range(1, n + 1)
        counts = _tie_free_counts(n, n1) if chained else _subset_counts(free, n1)
        row = np.zeros(smax + 1)
        row[::2] = counts[n1]
    elif chained and _derivation_pays(n, n1, groups, cells):
        row = _derived_row(n, n1, groups)[: smax + 1]
    else:
        row = _subset_counts(ranks, n1)[n1]
    surv = np.cumsum(row[::-1])[::-1] / row.sum()
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
    an empty sample gets 1, the p-value of a skipped test. Sorting the rows
    puts each row's sample values first (they are finite, the other cells
    become +inf), and the argsort carries the treatment flags along; equal
    values share a midrank, so neither sort need be stable, nor agree with
    the other among equal values. A tie-free row's doubled midranks are 2,
    4, ..., 2n, so the tie-free rows of one size read the cached null table
    together, under the key the scalar test uses; the rows with ties take
    their midranks from _sorted_midranks and go to _tied_p_values.
    """
    n1s, n2s = treat.sum(axis=1), control.sum(axis=1)
    ns, width = n1s + n2s, values.shape[1]
    p = np.ones(len(values))
    sample = np.where(treat | control, values, np.inf)
    treated = np.take_along_axis(treat, np.argsort(sample, axis=1), axis=1)
    # sorted in place, and doubled midranks (at most 2 * width) in 32 bits:
    # a conduct passes up to 1,024 rows, and these (rows, width) arrays set
    # its peak memory
    sample.sort(axis=1)
    ordered = sample
    # equal neighbours inside the row's sample, whose n values sort first
    inside = np.arange(1, width) < ns[:, None]
    tied = ((ordered[:, 1:] == ordered[:, :-1]) & inside).any(axis=1)
    ranks = np.arange(2, 2 * width + 1, 2, dtype=np.int32)
    doubled = np.tile(ranks, (len(values), 1))
    doubled[tied] = _sorted_midranks(ordered[tied])
    w2 = np.where(treated, doubled, 0).sum(axis=1)
    tested = (n1s > 0) & (n2s > 0)
    free = tested & ~tied
    for n1, n in set(zip(n1s[free].tolist(), ns[free].tolist())):
        rows = np.flatnonzero(free & (n1s == n1) & (ns == n))
        p[rows] = _null_survival(tuple(range(2, 2 * n + 1, 2)), n1)[w2[rows]]
    rows = np.flatnonzero(tested & tied)
    p[rows] = _tied_p_values(doubled[rows], ns[rows], n1s[rows], w2[rows])
    return p


def _sorted_midranks(ordered: np.ndarray) -> np.ndarray:
    """The doubled midrank of each position of rows sorted by value: a run
    of equal values at 0-based positions f..l gets f + l + 2, as
    _doubled_midranks gives it."""
    width = ordered.shape[1]
    position = np.broadcast_to(np.arange(width), ordered.shape)
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ends = np.ones(ordered.shape, dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    first = np.maximum.accumulate(np.where(starts, position, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends, position, width)[:, ::-1], axis=1)
    return first + last[:, ::-1] + 2


def _tied_p_values(doubled, ns, n1s, w2) -> np.ndarray:
    """wilcoxon_one_sided on tied rows of rank_sum_rows, bit for bit: row i
    has n1s[i] treatment values among ns[i], whose sorted doubled midranks
    (the first ns[i] of `doubled`) key the cached null table, and the
    treatment's doubled rank sum w2[i]."""
    p = np.empty(len(doubled))
    rows = zip(doubled.tolist(), ns.tolist(), n1s.tolist(), w2.tolist())
    for i, (ranks, n, n1, w) in enumerate(rows):
        p[i] = _null_survival(tuple(ranks[:n]), n1)[w]
    return p
