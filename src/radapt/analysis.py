"""The final analysis's one-sided rank-sum test, exact for every sample.

The test's alternative is treatment stochastically greater than control,
with midranks for ties. Ranks are kept doubled so they stay integers: one
plain-Python sort of the combined sample (2 to about 40 values here) gives
each run of tied values, positions i..j counted from 1, the doubled midrank
i + j. The null distribution of the treatment's doubled rank sum comes from
subset-sum counting tables, which match enumerating every labeling but take
polynomial time; a p-value is a count over C(n, n1).

One tail table per sample size n counts the k-subsets of the ranks 1..n
with sum at least s, for every k; it is the table of n - 1 plus itself
shifted by n one row down, where every (k - 1)-subset reaches the sums
below n, so each size costs two array adds. A tie-free sample of n1
treated values with doubled rank sum 2w has p-value tail(n1, w) /
tail(n1, 0), and rank_sum_rows reads the tie-free rows of each n in one
gather. The counts by sum are differences of neighbouring tails. A tied
sample derives its row from them: it takes each tied position's rank
back out of the smaller side's rows by exact deconvolution, spreads what
is left onto the doubled grid, and adds each tie group at its doubled
midrank with binomial weights; a smaller control side is derived and
read backwards from the doubled total n(n + 1). Counts are float64,
exact only while every count and partial sum stays below 2**53, so the
tables exist only up to 56 values (C(56, 28) < 2**53); the derivation
runs only there and while it is cheaper than a direct table over the
tied ranks, and every other sample builds that direct table. Outside the
tail gather, each sample's survival is cached on its sorted tie pattern.
Every route is a quotient of the same exact integers, so all give the
same p-values bit for bit. A table may hold at most EXACT_CELL_GUARD
cells on the doubled grid; validate_design bounds a stratum so that two
strata pooled always fit (table_cells).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import groupby

import numpy as np

__all__ = ["wilcoxon_one_sided", "rank_sum_rows"]

EXACT_CELL_GUARD = 50_000_000
# the largest n whose tail table is exact in float64, which holds every
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
def _tail_table(n: int) -> np.ndarray:
    """Counts of the k-subsets (every k) of the ranks 1..n with sum >= s,
    row k, column s.

    Built from the table of n - 1: a subset without n counts there, and one
    with n counts in row k - 1 at s - n, which below n is every
    (k - 1)-subset. Exact for n <= _CHAIN_MAX.
    """
    tails = np.zeros((n + 1, n * (n + 1) // 2 + 1))
    if n == 0:
        tails[0, 0] = 1.0
    else:
        smaller = _tail_table(n - 1)
        tails[:n, : smaller.shape[1]] = smaller
        tails[1:, :n] += smaller[:, :1]
        tails[1:, n:] += smaller
    tails.flags.writeable = False
    return tails


def _tie_free_counts(n: int, n1: int) -> np.ndarray:
    """Counts of the k-subsets (k <= n1) of 1..n by sum, from the shared
    tail table: count(s) = tail(s) - tail(s + 1), exact below 2**53."""
    width = n1 * (2 * n - n1 + 1) // 2 + 1
    tails = _tail_table(n)[: n1 + 1]
    # no k-subset, k <= n1, reaches sum `width`, so the last column is its tail
    counts = np.array(tails[:, :width])
    counts[:, :-1] -= tails[:, 1:width]
    return counts


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
    from the tie-free counts of the shared tail table; exact while every
    count is below 2**53.

    The smaller side is derived: with fewer control values, the control's
    row read backwards from the doubled total n(n + 1), which every split of
    the doubled midranks sums to.
    """
    if n - n1 < n1:
        row = _derived_row(n, n - n1, groups)
        mirrored = np.zeros(n * (n + 1) + 1)
        mirrored[mirrored.size - row.size :] = row[::-1]
        return mirrored
    table = _tie_free_counts(n, n1)
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


def rank_sum_rows(values: np.ndarray, sample: np.ndarray, k: int) -> np.ndarray:
    """Exact one-sided p-value of every row's k - 1 rank-sum tests at once.

    sample[r, c] names the sample that cell c of row r of `values` belongs
    to: 0 the control, 1..k-1 a treatment, -1 none. Row r, column j - 1 of
    the result tests treatment j against the control and gets the p-value
    wilcoxon_one_sided gives that pair, bit for bit; a test with an empty
    sample gets 1, the p-value of a skipped test.

    One sort of each row serves every test. The row's sampled values sort
    first (they are finite, the other cells become +inf), and the argsort
    carries the sample names along. A test's sample is the control's and
    the treatment's positions; a cumulative count of them gives each
    position's rank in the sample, and a run of equal values at sample
    ranks f..l shares the doubled midrank f + l, so no sort need be stable.
    A tie-free sample of n <= _CHAIN_MAX values reads its p-value from the
    tail table of n, one gather for the rows of each n; every other sample
    reads the null table cached for its sorted doubled midranks, as the
    scalar test does.
    """
    rows, width = values.shape
    sampled = np.where(sample >= 0, values, np.inf)
    member = np.take_along_axis(sample, np.argsort(sampled, axis=1), axis=1)
    # sorted in place, and freed once the runs of the rows where a sampled
    # value repeats, the only rows that can tie, are known: a conduct passes
    # up to 1,024 rows, and these (rows, width) arrays set its peak memory
    sampled.sort(axis=1)
    repeats = (sampled[:, 1:] == sampled[:, :-1]) & (sampled[:, 1:] < np.inf)
    multi = np.flatnonzero(repeats.any(axis=1))
    first, last = _runs(sampled[multi])
    del sampled, repeats
    control = member == 0
    p = np.ones((rows, k - 1))
    for j in range(1, k):
        treat = member == j
        inside = treat | control
        # each position's rank in the test's sample, doubled
        through = np.cumsum(inside, axis=1, dtype=np.int32)
        doubled = 2 * through
        tied = np.zeros(rows, dtype=bool)
        if len(multi):
            # sample values before each run, and up to its end
            below = np.take_along_axis((through - inside)[multi], first, axis=1)
            upto = np.take_along_axis(through[multi], last, axis=1)
            doubled[multi] = below + upto + 1
            tied[multi] = (inside[multi] & (upto - below > 1)).any(axis=1)
        n1s, ns = np.count_nonzero(treat, axis=1), through[:, -1]
        w2 = (doubled * treat).sum(axis=1)
        tested = (n1s > 0) & (ns > n1s)
        chained = tested & ~tied & (ns <= _CHAIN_MAX)
        for n in set(ns[chained].tolist()):
            at = np.flatnonzero(chained & (ns == n))
            tails, n1 = _tail_table(n), n1s[at]
            p[at, j - 1] = tails[n1, w2[at] // 2] / tails[n1, 0]
        at = np.flatnonzero(tested & ~chained)
        if len(at):
            # each row's sample midranks first, in sorted order
            keys = np.sort(np.where(inside[at], doubled[at], 2 * width + 1), axis=1)
            p[at, j - 1] = _keyed_p_values(keys, ns[at], n1s[at], w2[at])
    return p


def _runs(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first and the last position of the run of equal values that
    holds each position of rows sorted by value."""
    width = ordered.shape[1]
    position = np.broadcast_to(np.arange(width, dtype=np.int32), ordered.shape)
    starts = np.ones(ordered.shape, dtype=bool)
    starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    ends = np.ones(ordered.shape, dtype=bool)
    ends[:, :-1] = starts[:, 1:]
    first = np.maximum.accumulate(np.where(starts, position, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends, position, width)[:, ::-1], axis=1)
    return first, last[:, ::-1]


def _keyed_p_values(keys, ns, n1s, w2) -> np.ndarray:
    """wilcoxon_one_sided on rows of rank_sum_rows, bit for bit: row i has
    n1s[i] treatment values among ns[i], whose sorted doubled midranks (the
    first ns[i] of `keys`) key the cached null table, and the treatment's
    doubled rank sum w2[i]."""
    p = np.empty(len(keys))
    rows = zip(keys.tolist(), ns.tolist(), n1s.tolist(), w2.tolist())
    for i, (ranks, n, n1, w) in enumerate(rows):
        p[i] = _null_survival(tuple(ranks[:n]), n1)[w]
    return p
