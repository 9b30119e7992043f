import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from radapt import analysis, engine, preset_design
from radapt.analysis import (
    _doubled_midranks,
    _null_survival,
    rank_sum_rows,
    wilcoxon_one_sided,
)
from radapt.core import default_arms
from radapt.engine import MissingCase, MissingPolicy
from radapt.outcomes import SCENARIOS, PatientRecord
from reference import (
    null_survival,
    pooled_analysis,
    stratum_decision,
    subset_count_table,
)

ARMS = default_arms()


def _brute_force_p(treatment, control):
    # independent oracle: enumerate every n1-subset of the combined midranks
    combined = list(treatment) + list(control)
    ranks = rankdata(combined)
    n1 = len(treatment)
    observed = sum(ranks[:n1])
    hits = total = 0
    for subset in combinations(range(len(combined)), n1):
        total += 1
        if sum(ranks[i] for i in subset) >= observed - 1e-9:
            hits += 1
    return hits / total


def _trial_records(per_arm_values, stages=None):
    # per_arm_values: dict arm_index -> list of delta_y (None for missing)
    records = []
    pid = 0
    for arm_idx, values in per_arm_values.items():
        for i, v in enumerate(values):
            pid += 1
            stage = 1 if i < 2 else (2 if i < 4 else 3)
            records.append(
                PatientRecord(
                    patient_id=pid, stage=stage, arm=ARMS[arm_idx], delta_y=v
                )
            )
    return records


class TestWilcoxonExact:
    def test_all_greater_is_one_of_seventy(self):
        p = wilcoxon_one_sided([5.0, 6.0, 7.0, 8.0], [1.0, 2.0, 3.0, 4.0])
        assert p == pytest.approx(1 / 70, rel=1e-15)

    def test_all_less_sits_at_the_floor_of_the_tail(self):
        # the inclusive tail P(W >= w) is 1 at the minimal statistic
        p = wilcoxon_one_sided([1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0])
        assert p == 1.0

    def test_identical_multisets_centre(self):
        p = wilcoxon_one_sided([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert p >= 0.5

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            wilcoxon_one_sided([], [1.0])
        with pytest.raises(ValueError, match="non-empty"):
            wilcoxon_one_sided([1.0], [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_one_sided([float("nan")], [1.0])

    def test_unknown_method(self):
        # the exact table is the only method: there is no method argument
        with pytest.raises(TypeError, match="method"):
            wilcoxon_one_sided([1.0], [2.0], method="bayes")

    def test_past_the_table_guard_names_both_sizes(self):
        # 368 values against 1: the null table would need 50,379,201 cells
        values = [float(v) for v in range(369)]
        with pytest.raises(ValueError, match="368 and 1 values"):
            wilcoxon_one_sided(values[1:], values[:1])

    def test_exhaustive_brute_force_tie_free(self):
        # every split with n1 + n2 <= 10 against full subset enumeration
        rng = np.random.default_rng(42)
        for n1 in range(1, 10):
            for n2 in range(1, 11 - n1):
                for _ in range(3):
                    t = rng.normal(size=n1).tolist()
                    c = rng.normal(size=n2).tolist()
                    assert wilcoxon_one_sided(t, c) == pytest.approx(
                        _brute_force_p(t, c), abs=1e-12
                    )

    @given(
        data=st.lists(
            st.integers(0, 4), min_size=4, max_size=9
        ),
        n1=st.integers(1, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_brute_force_with_ties(self, data, n1):
        # integer-valued samples force midranks; oracle must still agree
        if n1 >= len(data):
            n1 = len(data) - 1
        t = [float(v) for v in data[:n1]]
        c = [float(v) for v in data[n1:]]
        assert wilcoxon_one_sided(t, c) == pytest.approx(
            _brute_force_p(t, c), abs=1e-12
        )

    def test_null_super_uniformity(self):
        # exact p-values are valid: P(p < a) <= a for every level
        rng = np.random.default_rng(77)
        pvals = np.array(
            [
                wilcoxon_one_sided(rng.normal(size=7), rng.normal(size=7))
                for _ in range(5_000)
            ]
        )
        for a in (0.05, 0.1, 0.2):
            se = np.sqrt(a * (1 - a) / pvals.size)
            assert (pvals < a).mean() <= a + 3 * se


def _rankdata_p(treatment, control):
    # scipy's midranks and the reference's direct table: shares no code with
    # radapt's p-value paths
    combined = np.concatenate(
        [np.asarray(treatment, float), np.asarray(control, float)]
    )
    scaled = np.rint(2.0 * rankdata(combined)).astype(np.int64)
    n1 = len(treatment)
    w2 = int(scaled[:n1].sum())
    return float(null_survival(tuple(sorted(int(r) for r in scaled)), n1)[w2])


@st.composite
def tied_samples(draw):
    # few distinct levels force ties; signed zeros and free floats mix in
    levels = draw(st.integers(0, 6))
    value = st.one_of(
        st.integers(0, levels).map(float),
        st.sampled_from([-0.0, 0.0]),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    treatment = draw(st.lists(value, min_size=1, max_size=40))
    control = draw(st.lists(value, min_size=1, max_size=40))
    return treatment, control


class TestMidranksAgainstScipy:
    @given(samples=tied_samples())
    @settings(max_examples=300, deadline=None)
    def test_doubled_midranks_match_rankdata(self, samples):
        values = samples[0] + samples[1]
        expected = np.rint(2.0 * rankdata(values)).astype(np.int64)
        assert _doubled_midranks(values) == expected.tolist()

    @given(samples=tied_samples())
    @settings(max_examples=300, deadline=None)
    def test_exact_p_values_bit_equal(self, samples):
        treatment, control = samples
        assert wilcoxon_one_sided(treatment, control) == (
            _rankdata_p(treatment, control)
        )


def _pattern_sample(sizes, order, n1):
    # runs of equal values in `order` (sizes indexed by run), split into the
    # first n1 values and the rest
    values = [float(level) for level, size in enumerate(sizes) for _ in range(size)]
    values = [values[i] for i in order]
    return values[:n1], values[n1:]


@st.composite
def tie_patterns(draw):
    """A sample of n <= 40 values with 1-3 tie groups of 2-5 values, which
    may sit at the first or last sorted positions, and n1 often 1 or n - 1."""
    groups = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
    singles = draw(st.integers(0, 40 - sum(groups)))
    sizes = draw(st.permutations(groups + [1] * singles))
    n = sum(sizes)
    n1 = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)))
    order = draw(st.permutations(range(n)))
    return sizes, order, n1


class TestTiedNullTables:
    """A tied sample that the tail tables do not serve builds its null
    table from its own doubled midranks; the reference builds each one
    directly from its ranks, and rankdata ranks the sample."""

    @given(pattern=tie_patterns())
    @settings(max_examples=300, deadline=None)
    def test_both_paths_read_the_oracle(self, pattern):
        treatment, control = _pattern_sample(*pattern)
        want = _rankdata_p(treatment, control)
        assert wilcoxon_one_sided(treatment, control) == want
        values = np.array([treatment + control])
        treat = np.arange(values.shape[1]) < len(treatment)
        got = rank_sum_rows(values, treat[None].astype(int), 2)[0, 0]
        assert got == want

    def test_heavy_ties_read_the_oracle(self):
        # 40 values in four groups of ten: every position ties
        sizes = [10, 10, 10, 10]
        order = np.random.default_rng(5).permutation(40)
        for n1 in (1, 13, 20, 39):
            treatment, control = _pattern_sample(sizes, order, n1)
            assert wilcoxon_one_sided(treatment, control) == _rankdata_p(
                treatment, control
            )


class TestTieFreeTables:
    """One tail table per sample size, each built from the one before; the
    reference builds every (n, n1) count table directly."""

    def test_every_exact_size_equals_the_direct_table(self):
        # tail(k, s) - tail(k, s + 1) of the chain's own tables, whose last
        # column holds 0, counts the k-subsets of 1..n summing to s
        chain = analysis._tail_chain()
        chain.through(analysis._CHAIN_MAX)
        for n in range(analysis._CHAIN_MAX + 1):
            tails = chain._table(n)
            counts = tails[:, :-1] - tails[:, 1:]
            for n1 in range(n + 1):
                want = subset_count_table(range(1, n + 1), n1)
                got = counts[: n1 + 1]
                assert np.array_equal(got[:, : want.shape[1]], want), (n, n1)
                assert not got[:, want.shape[1] :].any(), (n, n1)

    def test_the_chain_ends_at_the_exact_bound(self):
        n = analysis._CHAIN_MAX
        assert math.comb(n, n // 2) < 2**53 < math.comb(n + 1, (n + 1) // 2)

    @pytest.mark.parametrize("n2, tied", [(184, False), (364, True), (8, False)])
    def test_samples_past_the_bound_keep_no_chain_table(self, n2, tied):
        # 4 values against 184 tie-free, and 368 values with ties, as two
        # pooled strata of 184 can give: each builds its own direct table;
        # so does the scalar test of 12 tie-free values, within the bound
        rng = np.random.default_rng(n2)
        values = rng.permutation(n2 + 4).astype(float)
        if tied:
            values = np.floor(values / 3)
        treatment, control = values[:4].tolist(), values[4:].tolist()
        analysis._tail_chain.cache_clear()
        _null_survival.cache_clear()
        assert wilcoxon_one_sided(treatment, control) == _rankdata_p(treatment, control)
        assert analysis._tail_chain.cache_info().currsize == 0


def _pair_ranks(n, a):
    # doubled midranks of n values whose only tie, for a > 0, is the pair at
    # sorted positions a and a + 1
    return [2 * a + 1 if a and r in (a, a + 1) else 2 * r for r in range(1, n + 1)]


def _tail_p(n, n1, a, w2, b=0):
    # _tail_p_values on rows of one n, n1, a and b
    w2 = np.asarray(w2, dtype=np.int64)
    rows = np.ones(len(w2), dtype=np.int64)
    return analysis._tail_p_values(rows * n, rows * n1, w2, rows * a, rows * b)


def _two_pair_ranks(n, a, b):
    # doubled midranks of n values whose only ties are the pairs at sorted
    # positions a, a + 1 and b, b + 1, a < b - 1
    tied = {a: 2 * a + 1, a + 1: 2 * a + 1, b: 2 * b + 1, b + 1: 2 * b + 1}
    return [tied.get(r, 2 * r) for r in range(1, n + 1)]


class TestTiedPairTails:
    """The tail-table p-value of a tie-free sample (a = 0) and of one whose
    only tie is one pair (a > 0), for every doubled rank sum w2, against
    oracles that share nothing with analysis.py."""

    def test_every_small_sample_equals_enumeration(self):
        for n in range(2, 13):
            for a in range(n):
                ranks = _pair_ranks(n, a)
                for n1 in range(1, n):
                    sums = [sum(c) for c in combinations(ranks, n1)]
                    top = sum(sorted(ranks)[-n1:])
                    hits = np.bincount(sums, minlength=top + 2)[::-1].cumsum()[::-1]
                    want = [h / len(sums) for h in hits[: top + 1].tolist()]
                    got = _tail_p(n, n1, a, range(top + 1))
                    assert got.tolist() == want, (n, n1, a)

    def test_sampled_samples_up_to_the_bound_equal_the_direct_table(self):
        rng = np.random.default_rng(24)
        cases = [(n, n1, a) for n in (13, 40, analysis._CHAIN_MAX)
                 for n1 in (1, n // 2, n - 1) for a in (1, n - 1)]
        for n in rng.integers(13, analysis._CHAIN_MAX + 1, size=12).tolist():
            cases.append((n, int(rng.integers(1, n)), int(rng.integers(1, n))))
        for n, n1, a in cases:
            # every w2 from 0 to the largest sum
            want = null_survival(tuple(_pair_ranks(n, a)), n1)
            got = _tail_p(n, n1, a, range(want.size))
            assert got.tolist() == want.tolist(), (n, n1, a)

    def test_rows_of_every_size_in_one_call(self):
        # rows of many n, n1, a and w2 together read what each reads alone
        rng = np.random.default_rng(7)
        ns = rng.integers(2, analysis._CHAIN_MAX + 1, size=300)
        n1s = np.array([rng.integers(1, n) for n in ns.tolist()])
        pairs = np.array([rng.integers(0, n) for n in ns.tolist()])
        w2 = np.array([
            rng.integers(0, sum(sorted(_pair_ranks(n, a))[-n1:]) + 1)
            for n, n1, a in zip(ns.tolist(), n1s.tolist(), pairs.tolist())
        ])
        got = analysis._tail_p_values(ns, n1s, w2, pairs)
        for i, (n, n1, a, w) in enumerate(zip(ns, n1s, pairs, w2)):
            assert got[i] == _tail_p(n, n1, a, [w])[0], (n, n1, a, w)

    def test_two_pairs_in_every_small_sample_equal_enumeration(self):
        for n in range(4, 13):
            for a, b in combinations(range(1, n), 2):
                if b == a + 1:
                    continue
                ranks = _two_pair_ranks(n, a, b)
                for n1 in range(1, n):
                    sums = [sum(c) for c in combinations(ranks, n1)]
                    top = sum(sorted(ranks)[-n1:])
                    hits = np.bincount(sums, minlength=top + 2)[::-1].cumsum()[::-1]
                    want = [h / len(sums) for h in hits[: top + 1].tolist()]
                    got = _tail_p(n, n1, a, range(top + 1), b)
                    assert got.tolist() == want, (n, n1, a, b)

    def test_two_pairs_up_to_the_bound_equal_the_direct_table(self):
        rng = np.random.default_rng(25)
        cases = [(n, n1, a, b) for n in (13, 40, analysis._CHAIN_MAX)
                 for n1 in (1, 2, n // 2, n - 1)
                 for a, b in ((1, 3), (1, n - 1), (n - 3, n - 1))]
        for n in rng.integers(13, analysis._CHAIN_MAX + 1, size=12).tolist():
            a = int(rng.integers(1, n - 2))
            cases.append((n, int(rng.integers(1, n)), a, int(rng.integers(a + 2, n))))
        for n, n1, a, b in cases:
            # every w2 from 0 to the largest sum
            want = null_survival(tuple(_two_pair_ranks(n, a, b)), n1)
            got = _tail_p(n, n1, a, range(want.size), b)
            assert got.tolist() == want.tolist(), (n, n1, a, b)

    def test_mixed_rows_in_passes_of_terms(self, monkeypatch):
        # tie-free, one-pair and two-pair rows of many sizes in one call, and
        # split into passes of one row each, read what the direct table reads
        rng = np.random.default_rng(3)
        ns = rng.integers(6, analysis._CHAIN_MAX + 1, size=90)
        n1s = np.array([rng.integers(1, n) for n in ns.tolist()])
        a = np.array([rng.integers(1, n - 2) for n in ns.tolist()])
        b = np.array([rng.integers(x + 2, n) for x, n in zip(a.tolist(), ns.tolist())])
        b[::3] = 0
        a[::5], b[::5] = 0, 0
        ranks = [
            _two_pair_ranks(n, x, y) if y else _pair_ranks(n, x)
            for n, x, y in zip(ns.tolist(), a.tolist(), b.tolist())
        ]
        w2 = np.array([
            rng.integers(0, sum(sorted(r)[-n1:]) + 1)
            for r, n1 in zip(ranks, n1s.tolist())
        ])
        whole = analysis._tail_p_values(ns, n1s, w2, a, b)
        monkeypatch.setattr(analysis, "_TERM_CELLS", 1)
        assert analysis._tail_p_values(ns, n1s, w2, a, b).tolist() == whole.tolist()
        for i, (r, n1, w) in enumerate(zip(ranks, n1s.tolist(), w2.tolist())):
            assert whole[i] == null_survival(tuple(r), n1)[w], (i, n1, w)

    def test_pooled_imputed_run_sends_no_pair_to_the_table(self, monkeypatch):
        # stage-2 mean imputation ties the imputed values; the final tests'
        # samples tied in one pair or in two pairs read the tail tables, and
        # none reaches the null table
        pairs, keyed = [], []
        tails, table = analysis._tail_p_values, analysis._null_survival

        def tails_spy(ns, n1s, w2, a=None, b=None):
            one = 0 if a is None else np.count_nonzero(a)
            two = 0 if b is None else np.count_nonzero(b)
            pairs.append((one - two, two))
            return tails(ns, n1s, w2, a, b)

        def table_spy(ranks, n1):
            keyed.append(ranks)
            return table(ranks, n1)

        monkeypatch.setattr(analysis, "_tail_p_values", tails_spy)
        monkeypatch.setattr(analysis, "_null_survival", table_spy)
        table.cache_clear()
        list(engine.replicate_pooled(
            preset_design("mapped_beta"), SCENARIOS["S4"], case=MissingCase(4),
            policy=MissingPolicy(impute_stage2=True), n_reps=500, master_seed=0,
        ))
        one_pair, two_pairs = np.sum(pairs, axis=0)
        assert one_pair > 300
        assert two_pairs > 10
        assert keyed == []

    def test_three_pairs_reach_the_null_table(self, monkeypatch):
        # a sample tied in three pairs is past the tail tables: it reads the
        # null table of its sorted doubled midranks
        keyed, table = [], analysis._null_survival

        def table_spy(ranks, n1):
            keyed.append((ranks, n1))
            return table(ranks, n1)

        monkeypatch.setattr(analysis, "_null_survival", table_spy)
        values = np.array([[1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 5.0]])
        sample = np.array([[1, 1, 1, 1, 0, 0, 0, 0]])
        p = rank_sum_rows(values, sample, 2)[0, 0]
        assert keyed == [((3, 3, 7, 7, 11, 11, 14, 16), 4)]
        assert p == _rankdata_p([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 5.0])


@st.composite
def rank_sum_blocks(draw):
    # rows of one width, each cell in the control (0), one of one to three
    # treatments (1..k-1) or none (-1); few distinct values so most rows
    # tie, and several rows share sizes
    rows, width = draw(st.integers(1, 8)), draw(st.integers(2, 24))
    k = draw(st.integers(2, 4))
    levels = draw(st.integers(0, 6))
    value = st.one_of(
        st.integers(0, levels).map(float),
        st.sampled_from([-0.0, 0.0]),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    cells = rows * width
    values = draw(st.lists(value, min_size=cells, max_size=cells))
    sample = draw(st.lists(st.integers(-1, k - 1), min_size=cells, max_size=cells))
    return np.array(values).reshape(rows, width), np.array(sample).reshape(rows, width), k


def _wide_block():
    # rows of 90, 90 and 80 sampled values, the second tied: doubled
    # midranks up to 180, past what 8 bits hold
    rng = np.random.default_rng(3)
    values = rng.normal(size=(3, 90))
    values[1] = np.floor(values[1] * 4)
    sample = rng.integers(0, 2, size=(3, 90))
    sample[2, rng.choice(90, size=10, replace=False)] = -1
    return values, sample, 2


def _scalar_p(values, sample, r, j):
    t, c = values[r][sample[r] == j], values[r][sample[r] == 0]
    return wilcoxon_one_sided(t, c) if t.size and c.size else 1.0


class TestRankSumRows:
    @given(block=rank_sum_blocks())
    @example(block=_wide_block())
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_scalar_test(self, block):
        # every treatment sample of a row, read from the row's one sort
        values, sample, k = block
        p = rank_sum_rows(values, sample, k)
        assert p.shape == (len(values), k - 1)
        for (r, j), got in np.ndenumerate(p):
            assert got == _scalar_p(values, sample, r, j + 1), (r, j)

    def test_every_tie_free_size_reads_its_tail_table(self):
        # every (n, n1) up to 57 values, tie-free, treatment first: n <= 56
        # reads the tail table, 57 the cached null table
        for n in range(2, analysis._CHAIN_MAX + 2):
            rng = np.random.default_rng(n)
            rows = [np.arange(n), np.arange(n)[::-1]]
            block = np.array(rows + [rng.permutation(n) for _ in range(4)]) + 0.5
            for n1 in range(1, n):
                sample = np.tile(np.arange(n) < n1, (len(block), 1)).astype(int)
                p = rank_sum_rows(block, sample, 2)[:, 0]
                for r, got in enumerate(p.tolist()):
                    assert got == _scalar_p(block, sample, r, 1), (n, n1, r)


class TestStratumDecision:
    def test_largest_allocation_wins(self, reference_design):
        # T1 carries more patients; values make T2 look better, allocation
        # still decides
        records = _trial_records(
            {
                0: [0.0] * 6,
                1: [0.1] * 9,
                2: [0.9] * 5,
            }
        )
        results, recommended = stratum_decision(records, reference_design)
        assert recommended == "T1"
        assert len(results) == 2

    def test_allocation_tie_breaks_on_posterior_mean(self, reference_design):
        records = _trial_records(
            {
                0: [0.0] * 6,
                1: [0.1] * 7,
                2: [0.9] * 7,
            }
        )
        _, recommended = stratum_decision(records, reference_design)
        assert recommended == "T2"

    def test_full_tie_prefers_lower_index(self, reference_design):
        records = _trial_records(
            {
                0: [0.0] * 6,
                1: [0.1] * 7,
                2: [0.1] * 7,
            }
        )
        _, recommended = stratum_decision(records, reference_design)
        assert recommended == "T1"

    def test_dropped_arm_tested_on_early_data(self, reference_design):
        # T1 dropped at stage 3: its test still runs on stages 1-2
        records = _trial_records(
            {
                0: [0.0, 0.1, -0.1, 0.2, 0.0, 0.1],
                1: [0.4, 0.5, 0.3, 0.6],
                2: [0.7, 0.8, 0.9, 0.6, 0.5, 0.7, 0.8, 0.9, 0.6, 0.7],
            }
        )
        results, _ = stratum_decision(records, reference_design)
        t1 = next(r for r in results if r.treatment == "T1")
        assert not t1.skipped
        assert t1.n_treat == 4

    def test_armless_test_skipped_not_failed(self, reference_design):
        records = _trial_records(
            {
                0: [0.0] * 6,
                2: [0.5] * 14,
            }
        )
        results, recommended = stratum_decision(records, reference_design)
        t1 = next(r for r in results if r.treatment == "T1")
        assert t1.skipped
        assert not t1.reject
        assert t1.p_value == 1.0
        assert recommended == "T2"

    def test_reject_iff_p_below_alpha(self, reference_design):
        rng = np.random.default_rng(5)
        for _ in range(25):
            records = _trial_records(
                {
                    0: rng.normal(size=6).tolist(),
                    1: rng.normal(size=7).tolist(),
                    2: rng.normal(size=7).tolist(),
                }
            )
            results, _ = stratum_decision(records, reference_design)
            for r in results:
                assert r.reject == (r.p_value < reference_design.alpha_level)


class TestPooledAnalysis:
    def test_doubled_data_consistency(self, reference_design):
        rng = np.random.default_rng(17)
        per_arm = {
            0: rng.normal(size=6).tolist(),
            1: rng.normal(size=7).tolist(),
            2: rng.normal(size=7).tolist(),
        }
        records = _trial_records(per_arm)
        pooled = pooled_analysis(records, records, reference_design)
        for result in pooled:
            idx = reference_design.arms.index(result.treatment)
            direct = wilcoxon_one_sided(per_arm[idx] * 2, per_arm[0] * 2)
            assert result.p_value == pytest.approx(direct, abs=1e-12)
            assert result.n_treat == 14
            assert result.n_control == 12

    def test_foreign_arm_rejected(self, reference_design):
        full = _trial_records({0: [0.0] * 6, 1: [0.1] * 7, 2: [0.2] * 7})
        foreign = [
            dataclasses.replace(r, arm="T9") if r.arm == ARMS[2]
            else r
            for r in full
        ]
        with pytest.raises(ValueError, match="T9"):
            pooled_analysis(full, foreign, reference_design)

    def test_arm_absent_from_one_stratum_pools_the_other(self, reference_design):
        # i.i.d. assignment can leave a stratum without T2 patients
        full = _trial_records({0: [0.0, 0.3, 0.5], 1: [0.1, 0.4], 2: [0.2, 0.6]})
        partial = _trial_records({0: [0.05, 0.7], 1: [0.9, 0.15, 0.35]})
        pooled = {r.treatment: r for r in pooled_analysis(
            full, partial, reference_design
        )}
        control = [0.0, 0.3, 0.5, 0.05, 0.7]
        for label, treat in (("T1", [0.1, 0.4, 0.9, 0.15, 0.35]), ("T2", [0.2, 0.6])):
            assert pooled[label].n_treat == len(treat)
            assert pooled[label].n_control == len(control)
            assert pooled[label].p_value == wilcoxon_one_sided(treat, control)

    def test_pooling_sharpens_a_real_effect(self, reference_design):
        rng = np.random.default_rng(23)
        control = rng.normal(size=6).tolist()
        treat = (rng.normal(size=7) + 0.8).tolist()
        records = _trial_records({0: control, 1: treat, 2: rng.normal(size=7).tolist()})
        single, _ = stratum_decision(records, reference_design)
        pooled = pooled_analysis(records, records, reference_design)
        p_single = next(r for r in single if r.treatment == "T1").p_value
        p_pooled = next(r for r in pooled if r.treatment == "T1").p_value
        assert p_pooled < p_single
