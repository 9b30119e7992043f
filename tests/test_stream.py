"""The block-keyed random stream: what each draw's law must be, and an exact
stage-2 adaptation law for complete data, an oracle that does not depend on
the stream at all."""

import bisect
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from radapt import engine, preset_design
from radapt.engine import MissingPolicy, replicate
from radapt.mapping import planned_ratio
from radapt.outcomes import DEFAULT_SHAPE, MissingCase, OutcomeModel
from radapt.presets import PRESET_NAMES
from reference import _conduct_trial, run_trial

MASTER = 20240817
REPS = 10_000
NULL = OutcomeModel.parametric((0.0, 0.0, 0.0))
ALT = OutcomeModel.parametric((0.0, 0.3, 0.4))
BOOT = OutcomeModel.bootstrap((-0.4, -0.1, 0.0, 0.2, 0.3, 0.45, 0.7), (0.0, 0.3, 0.4))
# 40 blocks of 256 rows for the draw-law checks
LAW_ROWS = 40 * engine._BLOCK_REPS


def _conducted(design, model, case, n=LAW_ROWS, master=MASTER):
    """Every block of an n-replicate run, conducted."""
    return [
        engine._conduct_block(design, model, case, MissingPolicy(), draws)
        for draws in engine._block_draws(design, model, master, 0, n)
    ]


def _uniform_over(counts: Counter, categories: int) -> float:
    """Chi-square p-value of the counts against the uniform law on
    `categories` values (a category never seen counts as 0)."""
    observed = list(counts.values()) + [0] * (categories - len(counts))
    return stats.chisquare(observed).pvalue


class TestDrawLaws:
    def test_stage1_orderings_of_2_2_2_are_uniform(self):
        blocks = _conducted(preset_design("mapped_alpha"), ALT, MissingCase(0))
        orders = Counter(
            tuple(row) for b in blocks for row in b.arm[:, :6].tolist()
        )
        # 6! / (2! 2! 2!) orderings, each 2 controls, 2 T1 and 2 T2
        assert len(orders) == 90
        assert all(sorted(order) == [0, 0, 1, 1, 2, 2] for order in orders)
        assert _uniform_over(orders, 90) > 1e-3

    @pytest.mark.parametrize(
        "case_id, stage_cols", [(2, slice(0, 6)), (4, slice(6, 12))]
    )
    def test_missing_positions_are_uniform(self, case_id, stage_cols):
        blocks = _conducted(
            preset_design("mapped_alpha"), ALT, MissingCase(case_id)
        )
        pairs = Counter(
            tuple(np.flatnonzero(row).tolist())
            for b in blocks
            for row in b.missing[:, stage_cols]
        )
        assert all(len(pair) == 2 for pair in pairs)
        assert len(pairs) <= 15
        assert _uniform_over(pairs, 15) > 1e-3
        # no cell outside the stage is ever missing
        assert sum(b.missing.sum() for b in blocks) == 2 * LAW_ROWS

    def test_coin_is_fair(self):
        blocks = _conducted(preset_design("mapped_alpha"), ALT, MissingCase(0))
        first = two = 0
        for b in blocks:
            for r, d in enumerate(b.which[-1].tolist()):
                options = b.decisions[-1][d].options
                if len(options) == 2:
                    two += 1
                    first += tuple(b.ratios[2][r].tolist()) == options[0].counts
        assert two > 1000
        assert abs(first / two - 0.5) <= 4 * math.sqrt(0.25 / two)

    def test_iid_assignment_follows_pi(self):
        # unrestricted randomises stage 2 i.i.d. at each row's own pi: arm
        # i's stage-2 count has mean 6 pi_i and variance 6 pi_i (1 - pi_i)
        design = preset_design("unrestricted")
        blocks = _conducted(design, ALT, MissingCase(0))
        assert all(b.ratios[1] is None for b in blocks)
        for i in range(design.k):
            excess = var = 0.0
            for b in blocks:
                pi = b.decisions[0].pi[b.which[0], i]
                got = (b.arm[:, 6:12] == i).sum(axis=1)
                excess += float((got - 6 * pi).sum())
                var += float((6 * pi * (1 - pi)).sum())
            assert abs(excess) <= 4 * math.sqrt(var), i

    def test_replicate_draws_depend_only_on_seed_and_index(self):
        # the same rows whatever the design, the run length, the start of
        # the worker's range or which blocks are drawn together, for either
        # outcome model; stratum B and another seed draw other numbers
        # (SeedSequence pads its key with zero words, so stratum A's key
        # [m, b, 0] gives a one-stratum run's numbers)
        def rows(name, lo, hi, stream=None, master=MASTER, model=ALT):
            design = preset_design(name)
            draws = list(engine._block_draws(design, model, master, lo, hi, stream))
            return tuple(
                np.concatenate([getattr(d, field) for d in draws])
                for field in ("key", "raw")
            )

        key, raw = rows("mapped_alpha", 0, 300)
        for name in PRESET_NAMES:
            other_key, other_raw = rows(name, 0, 600)
            assert (other_key[:300] == key).all() and (other_raw[:300] == raw).all()
        tail_key, _ = rows("fixed_equal", 256, 300)
        assert (tail_key == key[256:]).all()
        # ranges across a group of blocks drawn together, against each
        # block drawn alone
        block = engine._BLOCK_REPS
        for model in (ALT, BOOT):
            alone = [
                rows("mapped_alpha", lo, lo + block, model=model)
                for lo in range(0, 1300, block)
            ]
            alone_key, alone_raw = (np.concatenate(field) for field in zip(*alone))
            assert (alone_key[:300] == key).all()
            for lo, hi in [(0, 1100), (1024, 1300)]:
                part_key, part_raw = rows("mapped_beta", lo, hi, model=model)
                assert (part_key == alone_key[lo:hi]).all()
                assert (part_raw == alone_raw[lo:hi]).all()
        assert not (rows("mapped_alpha", 0, 300, stream=1)[0] == key).any()
        assert not (rows("mapped_alpha", 0, 300, master=MASTER + 1)[0] == key).any()

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513, 2048])
    @pytest.mark.parametrize("parts", [1, 3, 4, 8])
    def test_chunks_split_only_at_block_boundaries(self, n, parts):
        chunks = engine._chunks(n, parts)
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        assert all(lo % engine._BLOCK_REPS == 0 and lo < hi for lo, hi in chunks)
        assert len(chunks) == min(parts, -(-n // engine._BLOCK_REPS))

    def test_run_trial_takes_one_row_from_its_generator(self):
        design = preset_design("mapped_beta")
        case, policy = MissingCase(5), MissingPolicy(impute_stage2=True)
        got = run_trial(
            design, ALT, case=case, policy=policy, rng=np.random.default_rng(4)
        )
        draws = engine._draw([np.random.default_rng(4)], design, ALT, 1)
        want = _conduct_trial(design, ALT, case, policy, draws[0])
        assert got == want


def _success_probability(model: OutcomeModel, i: int, delta: float) -> float:
    """P(delta_y >= delta) on arm i, in closed form. delta_y is the arm's
    effect plus scale * (L - E L) / SD(L) with L ~ LogNormal(0, shape), so
    it reaches delta exactly when L >= c, and P(L >= c) is a normal tail."""
    s2 = DEFAULT_SHAPE**2
    c = math.exp(s2 / 2) + math.sqrt((math.exp(s2) - 1.0) * math.exp(s2)) * (
        delta - model.effects[i]
    ) / model.scale
    if c <= 0.0:
        return 1.0
    return 0.5 * math.erfc(math.log(c) / (DEFAULT_SHAPE * math.sqrt(2.0)))


def exact_stage2_law(design, model):
    """stage2_adapt, favour2 and disfavour2 of a mapped design on complete
    data, exactly: stage 1 assigns each arm its fixed count n_i, so its
    successes are Bin(n_i, p_i) independently, and every joint outcome maps
    to one stage-2 ratio through the decision table's row for those counts."""
    ratio = planned_ratio(design, 1)
    p = [_success_probability(model, i, design.delta) for i in range(design.k)]
    adapt, fav, dis = 0.0, [0.0] * design.k, [0.0] * design.k
    table = engine._DecisionTable(design, MissingPolicy(), 2)
    for wins in itertools.product(*(range(n + 1) for n in ratio.counts)):
        weight = math.prod(
            math.comb(n, w) * q**w * (1.0 - q) ** (n - w)
            for n, w, q in zip(ratio.counts, wins, p)
        )
        key = tuple(v for n, w in zip(ratio.counts, wins) for v in (w, n - w, n))
        (row,) = table.lookup([key + (0, 0)])
        counts = table[row].ratio.counts
        adapt += weight * (counts != engine.BALANCED[2].counts)
        for i in range(1, design.k):
            fav[i] += weight * (counts[i] > 2)
            dis[i] += weight * (counts[i] < 2)
    return {"stage2_adapt": adapt, "favour2": fav, "disfavour2": dis}


class TestExactStage2Law:
    def test_success_probability_matches_the_outcome_law(self):
        # a quantile of delta_y maps back to its tail probability
        model = ALT
        z = 0.7
        s2 = DEFAULT_SHAPE**2
        y = model.effects[2] + model.scale * (
            math.exp(DEFAULT_SHAPE * z) - math.exp(s2 / 2)
        ) / math.sqrt((math.exp(s2) - 1.0) * math.exp(s2))
        assert _success_probability(model, 2, y) == pytest.approx(
            stats.norm.sf(z), rel=1e-12
        )
        assert _success_probability(model, 2, -10.0) == 1.0

    @pytest.mark.parametrize("name", ["mapped_alpha", "mapped_beta"])
    def test_an_adapted_stage_favours_one_arm_and_disfavours_the_other(self, name):
        law = exact_stage2_law(preset_design(name), ALT)
        assert 0.0 < law["stage2_adapt"] < 1.0
        assert law["stage2_adapt"] == pytest.approx(sum(law["favour2"]), abs=1e-12)
        assert law["stage2_adapt"] == pytest.approx(sum(law["disfavour2"]), abs=1e-12)
        # under the null T1 and T2 are exchangeable
        null = exact_stage2_law(preset_design(name), NULL)
        assert null["favour2"][1] == pytest.approx(null["favour2"][2], abs=1e-12)

    @pytest.mark.parametrize("name", ["mapped_alpha", "mapped_beta"])
    @pytest.mark.parametrize("model", [NULL, ALT], ids=["null", "alt"])
    def test_simulated_rates_within_4_se(self, name, model):
        design = preset_design(name)
        law = exact_stage2_law(design, model)
        report = replicate(design, model, n_reps=REPS, master_seed=MASTER)
        for stem, exact in law.items():
            got = report.rates[stem]
            pairs = [(stem, got, exact)] if stem == "stage2_adapt" else [
                (f"{stem}[{i}]", got[i], exact[i]) for i in range(1, design.k)
            ]
            for label, rate, want in pairs:
                se = math.sqrt(want * (1.0 - want) / REPS)
                assert abs(rate - want) <= max(4.0 * se, 1e-12), (label, rate, want)


def test_null_rejection_is_the_exact_level():
    # permuted_block never adapts: each active arm ends with 7 patients
    # against 6 controls, and under the null with continuous outcomes its
    # rank-sum test rejects with exactly the probability the null law of the
    # rank sum gives p < alpha, found here by enumerating every rank set
    design = preset_design("permuted_block")
    n_t, n_c = 7, 6
    sums = sorted(map(sum, itertools.combinations(range(1, n_t + n_c + 1), n_t)))
    n = len(sums)
    p_values = [(n - bisect.bisect_left(sums, s)) / n for s in sums]
    level = sum(p < design.alpha_level for p in p_values) / n
    report = replicate(design, NULL, n_reps=REPS, master_seed=MASTER)
    se = math.sqrt(level * (1.0 - level) / REPS)
    for i in range(1, design.k):
        assert report.rates["alloc_mean"][i] == pytest.approx(n_t / design.n_total)
        assert abs(report.rates["reject"][i] - level) <= 4.0 * se

