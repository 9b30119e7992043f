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
below n, so each size costs two array adds. Read tail(k, s) = C(n, k) for
s <= 0 and 0 past the largest sum. A tie-free sample of n1 treated values
with doubled rank sum 2w has p-value tail(n1, w) / tail(n1, 0).

A sample whose only tie is one pair, at sorted positions a and a + 1
(doubled midrank 2a + 1), reads the same table. A subset holding both or
neither of the pair sums as over the tie-free ranks. One holding one of
them and n1 - 1 other ranks summing to S has doubled sum 2S + 2a + 1,
where the tie-free ranks give two subsets, 2S + 2a and 2S + 2a + 2. Where
the tie-free count tail(n1, ceil(w2 / 2)) counts one of those two, the
tied sample counts both, at S = (w2 - 1) / 2 - a for odd w2, or neither,
at S = w2 / 2 - a - 1 for even w2. So the count of n1-subsets reaching the
doubled sum w2 is
    tail(n1, (w2 + 1) / 2) + M(n1 - 1, (w2 - 1) / 2 - a)   for odd w2,
    tail(n1, w2 / 2) - M(n1 - 1, w2 / 2 - a - 1)           for even w2,
where M(k, u) counts the k-subsets of 1..n without a and a + 1 that sum to
u. It is the tie-free counts' generating function, the product of
(1 + x^r y) over r = 1..n, divided by (1 + x^a y)(1 + x^(a+1) y), that is
multiplied by the sum over l of (-y)^l (x^(la) + ... + x^(l(a+1))); the
counts over each such run of sums are a difference of two tails, so
    M(k, u) = sum over l = 0..k of (-1)^l [tail(k - l, u - l(a + 1))
                                           - tail(k - l, u - l a + 1)].
Every term is below 2**53 and there are at most 2 n1 of them, so their
int64 sum is exact: the count is the integer the sample's own table holds,
and the p-value the same correctly rounded quotient.

A sample whose only ties are two pairs, at a, a + 1 and b, b + 1 with
a < b - 1, divides by all four pair factors. Write z for one unit of the
doubled sum (x = z^2). Untied, a pair's factors are
Q = (1 + z^(2a) y)(1 + z^(2a+2) y); tied, (1 + z^(2a+1) y)^2 = Q + D with
D = -z^(2a) (1 - z)^2 y. So the tied generating function,
G (1 + D_a / Q_a)(1 + D_b / Q_b), is the tie-free one, plus what each
pair alone adds (M above), plus (G / (Q_a Q_b)) z^(2a+2b) (1 - z)^4 y^2.
Summed from the doubled sum w2 up, the weights 1, -4, 6, -4, 1 of
(1 - z)^4 leave, with s = floor((w2 - 1) / 2) - a - b and N(k, u) the
count of k-subsets of 1..n without the four tied ranks that sum to u,
    3 N(n1 - 2, s) + N(n1 - 2, s - 1)      for even w2,
    -N(n1 - 2, s) - 3 N(n1 - 2, s - 1)     for odd w2.
N divides G by both pairs' runs: the l-run summed by two tails as in M,
the m-run term by term,
    N(k, u) = sum over l + m <= k, j = 0..m of (-1)^(l+m)
              [tail(k - l - m, u - l(a + 1) - mb - j)
               - tail(k - l - m, u - la - mb - j + 1)].
Their partial sums can pass 2**63 for large n, but int64 arithmetic wraps
modulo 2**64, and the count, below 2**53, is exact modulo 2**64: this
count too is the integer the sample's own table holds. rank_sum_rows
reads these samples, the one-pair ones and the tie-free ones, of every n,
in one gather.

Counts are float64, exact only while every count and partial sum stays
below 2**53, so the tail tables exist only up to 56 values (C(56, 28) <
2**53), and only rank_sum_rows' gather reads them. Every other sample,
and every sample wilcoxon_one_sided tests, builds a direct table, whose
survival is cached on the sorted doubled midranks: a tie-free sample's
over the undoubled ranks 1..n, a tied sample's over its doubled midranks.
Both routes are quotients of the same exact integers, so they give the
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


class _TailChain:
    """The tail tables of n = 0.._CHAIN_MAX in one flat array, so that one
    gather reads rows of any n: row k of n's table starts at
    start[n] + k * width[n]. Column s counts the k-subsets of the ranks 1..n
    with sum >= s, for s up to the largest sum n(n + 1) / 2, and one more
    column, past it, holds 0.

    Table n is built from the table of n - 1: a subset without n counts
    there, and one with n counts in row k - 1 at s - n, which below n is
    every (k - 1)-subset. Tables are built in order of n, as samples first
    need them. The array spans every n up to _CHAIN_MAX, but its memory is
    an anonymous mapping whose pages the process takes only as tables are
    built. Exact for n <= _CHAIN_MAX, the only sizes rank_sum_rows sends.
    """

    def __init__(self):
        n = np.arange(_CHAIN_MAX + 1)
        self.width = n * (n + 1) // 2 + 2
        self.start = np.zeros(_CHAIN_MAX + 2, dtype=np.int64)
        np.cumsum((n + 1) * self.width, out=self.start[1:])
        # a mapping of its own, not malloc's: glibc raises its mmap threshold
        # when a block this large (10 MB) is freed, after which the heap keeps
        # freed temporaries, 1-2 MB more peak memory on pooled runs;
        # copy-on-write, so a forked worker's tables stay its own
        import mmap

        space = mmap.mmap(-1, 8 * int(self.start[-1]), access=mmap.ACCESS_COPY)
        self.flat = np.frombuffer(space, dtype=np.float64)
        self.built = 0  # tables 0..built - 1 hold their counts

    def _table(self, n: int) -> np.ndarray:
        return self.flat[self.start[n] : self.start[n + 1]].reshape(n + 1, -1)

    def through(self, top: int) -> np.ndarray:
        """The flat array, with every table up to n = top built."""
        # the mapping starts zeroed, and each table is built once
        for n in range(self.built, top + 1):
            tails = self._table(n)
            if n == 0:
                tails[0, 0] = 1.0
            else:
                smaller = self._table(n - 1)
                tails[:n, : smaller.shape[1]] = smaller
                tails[1:, :n] += smaller[:, :1]
                tails[1:, n:] += smaller
        self.built = max(self.built, top + 1)
        return self.flat


@lru_cache(maxsize=1)
def _tail_chain() -> _TailChain:
    return _TailChain()


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
    if len(set(ranks)) < n:
        row = _subset_counts(ranks, n1)[n1]
    else:
        # tie-free, the doubled midranks are 2, 4, ..., 2n: count the sums
        # over the undoubled ranks and spread them to the even sums
        row = np.zeros(smax + 1)
        row[::2] = _subset_counts(range(1, n + 1), n1)[n1]
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
    A sample of n <= _CHAIN_MAX values that is tie-free or tied only in one
    pair or in two pairs reads its p-value from the tail tables
    (_tail_p_values), one gather for the rows of every n; every other
    sample reads the null table cached for its sorted doubled midranks, as
    the scalar test does.
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
        # tie-free, or tied only in a pair at sample ranks a and a + 1, or
        # also in a second pair at b and b + 1; 0 marks no pair
        simple = np.ones(rows, dtype=bool)
        a = b = None
        if len(multi):
            # sample values before each run, and up to its end
            below = np.take_along_axis((through - inside)[multi], first, axis=1)
            upto = np.take_along_axis(through[multi], last, axis=1)
            doubled[multi] = below + upto + 1
            in_tie = inside[multi] & (upto - below > 1)
            # a pair is two tied values after a - 1 sample values; four tied
            # values after two different counts are two pairs
            ties = np.count_nonzero(in_tie, axis=1)
            low = np.where(in_tie, below, width).min(axis=1) + 1
            high = np.where(in_tie, below, -1).max(axis=1) + 1
            two = (ties == 4) & (low < high)
            simple[multi] = (ties <= 2) | two
            a, b = np.zeros((2, rows), dtype=np.int64)
            a[multi] = np.where(ties == 2, high, np.where(two, low, 0))
            b[multi] = np.where(two, high, 0)
        n1s, ns = np.count_nonzero(treat, axis=1), through[:, -1]
        w2 = (doubled * treat).sum(axis=1)
        tested = (n1s > 0) & (ns > n1s)
        chained = tested & simple & (ns <= _CHAIN_MAX)
        at = np.flatnonzero(chained)
        if len(at):
            pairs = () if a is None else (a[at], b[at])
            p[at, j - 1] = _tail_p_values(ns[at], n1s[at], w2[at], *pairs)
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


def _tail_p_values(ns, n1s, w2, a=None, b=None) -> np.ndarray:
    """wilcoxon_one_sided on rows of rank_sum_rows, bit for bit, from the
    tail tables alone: row i has n1s[i] treatment values among
    ns[i] <= _CHAIN_MAX and the treatment's doubled rank sum w2[i], and its
    sample is tie-free or, where a[i] > 0, ties the values at sample ranks
    a[i] and a[i] + 1 and, where also b[i] > 0, those at b[i] and b[i] + 1;
    a None marks every sample tie-free, b None no second pair.
    """
    chain = _tail_chain()
    flat = chain.through(int(ns.max()))
    # where row n1 of each sample's table starts
    row = chain.start[ns] + n1s * chain.width[ns]
    count = flat[row + (w2 + 1) // 2]
    at = np.flatnonzero(a) if a is not None else ()
    if len(at):
        second = None if b is None else b[at]
        count[at] += _pair_counts(chain, ns[at], n1s[at], w2[at], a[at], second)
    return count / flat[row]


def _pair_counts(chain: _TailChain, n, n1, w2, a, b=None) -> np.ndarray:
    """What the tied pairs add to the tie-free count tail(n1, ceil(w2 / 2)),
    as int64: for a pair at sample ranks a and a + 1 alone, M(n1 - 1, u),
    u = floor((w2 - 1) / 2) - a, for odd w2 and -M for even w2; where b > 0,
    that term for each pair and their joint one, as the module docstring
    derives them.

    A two-pair row is read on the smaller side: n1 values reach w2 where the
    other n - n1 stay below n(n + 1) + 1 - w2, so where the treatment is the
    larger side, the control's count, negated, is what the pairs add. That
    keeps N's terms, about k^3 / 6, at k <= n / 2 - 2.
    """
    two = np.flatnonzero(b) if b is not None else ()
    if not len(two):
        return _one_pair(chain, n, n1, w2, a)
    flip = np.zeros(len(n), dtype=bool)
    flip[two] = 2 * n1[two] > n[two]
    n1 = np.where(flip, n - n1, n1)
    w2 = np.where(flip, n * (n + 1) + 1 - w2, w2)
    # a's term in every row and b's in the two-pair rows, in one call
    both = _one_pair(
        chain, np.concatenate([n, n[two]]), np.concatenate([n1, n1[two]]),
        np.concatenate([w2, w2[two]]), np.concatenate([a, b[two]]),
    )
    extra = both[: len(n)]
    extra[two] += both[len(n) :] + _joint(chain, n[two], n1[two], w2[two], a[two], b[two])
    return np.where(flip, -extra, extra)


def _one_pair(chain: _TailChain, n, n1, w2, a) -> np.ndarray:
    """M(n1 - 1, floor((w2 - 1) / 2) - a) for odd w2, its negative for even."""
    m = _rest_counts(chain, n, n1 - 1, (w2 - 1) // 2 - a, a)
    return np.where(w2 % 2 == 1, m, -m)


def _joint(chain: _TailChain, n, n1, w2, a, b) -> np.ndarray:
    """The two pairs' joint term: 3 N(n1 - 2, s) + N(n1 - 2, s - 1) for even
    w2, -N(n1 - 2, s) - 3 N(n1 - 2, s - 1) for odd, s = floor((w2 - 1) / 2)
    - a - b."""
    s = (w2 - 1) // 2 - a - b
    # N at s and at s - 1 in one call
    both = _rest_counts(
        chain, np.tile(n, 2), np.tile(n1 - 2, 2), np.concatenate([s, s - 1]),
        np.tile(a, 2), np.tile(b, 2),
    )
    at, below = both[: len(n)], both[len(n) :]
    return np.where(w2 % 2 == 0, 3 * at + below, -at - 3 * below)


# the most (row, term) cells of one _rest_counts pass, which bounds its
# arrays when many rows of a large sample tie in two pairs
_TERM_CELLS = 1 << 16


def _rest_counts(chain: _TailChain, n, k, u, a, b=None) -> np.ndarray:
    """The k-subsets of 1..n without a and a + 1, and b and b + 1 where b is
    given, that sum to u, as int64 (modulo 2**64 for the terms' sum): M and
    N of the module docstring, read from chain's built tables."""
    l, m, j, sign = _division_terms(int(k.max()), b is not None)
    step = max(1, _TERM_CELLS // max(len(l), 1))
    counts = np.empty(len(k), dtype=np.int64)
    for lo in range(0, len(k), step):
        part = slice(lo, lo + step)
        rest = k[part, None] - l - m
        width = chain.width[n[part]][:, None]
        start = chain.start[n[part]][:, None] + np.maximum(rest, 0) * width
        # u less the run's first sum; at or below 0 a tail reads column 0,
        # every subset, and one past the largest sum the column of 0
        v = u[part, None] - l * a[part, None] - j
        if b is not None:
            v -= m * b[part, None]
        last = width - 1
        terms = chain.flat[start + np.clip(v - l, 0, last)].astype(np.int64)
        terms -= chain.flat[start + np.clip(v + 1, 0, last)].astype(np.int64)
        terms *= sign
        terms[rest < 0] = 0
        counts[part] = terms.sum(axis=1)
    return counts


@lru_cache(maxsize=None)
def _division_terms(top: int, two: bool):
    """(l, m, j) and the sign (-1)^(l+m) of every term of M (m = j = 0) or,
    for two pairs, of N, for k up to `top`: l + m <= top, j = 0..m."""
    if two:
        l, m = (x.ravel() for x in np.indices((top + 1, top + 1)))
        keep = l + m <= top
        l, m = l[keep], m[keep]
        # each (l, m) once for every j = 0..m
        runs = m + 1
        j = np.arange(runs.sum()) - np.repeat(np.cumsum(runs) - runs, runs)
        l, m = np.repeat(l, runs), np.repeat(m, runs)
    else:
        l = np.arange(top + 1)
        m = j = np.zeros_like(l)
    return l, m, j, 1 - 2 * ((l + m) % 2)


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
