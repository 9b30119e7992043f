import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from radapt import posterior
from radapt.posterior import (
    BetaPosterior,
    SuccessCount,
    prob_best,
    prob_greater,
    update,
)
from reference import MonteCarlo, prob_greater_mc, prob_max, prob_max_all


def _quad_oracle(a, b, digits=30):
    # independent high-precision oracle: P(X > Y) = E_X[F_Y(X)]
    import mpmath

    with mpmath.workdps(digits):
        fa = lambda x: x ** (a.alpha - 1) * (1 - x) ** (a.beta - 1) / mpmath.beta(
            a.alpha, a.beta
        )
        integrand = lambda x: fa(x) * mpmath.betainc(
            b.alpha, b.beta, 0, x, regularized=True
        )
        return float(mpmath.quad(integrand, [0, 1]))


class TestUpdate:
    def test_conjugate_arithmetic(self):
        post = update(BetaPosterior(1, 1), SuccessCount(3, 1))
        assert (post.alpha, post.beta) == (4, 2)

    def test_identity(self):
        post = update(BetaPosterior(1, 1), SuccessCount(0, 0))
        assert (post.alpha, post.beta) == (1, 1)

    def test_nonuniform_prior(self):
        post = update(BetaPosterior(2, 3), SuccessCount(1, 4))
        assert (post.alpha, post.beta) == (3, 7)

    @given(
        s1=st.integers(0, 30), f1=st.integers(0, 30),
        s2=st.integers(0, 30), f2=st.integers(0, 30),
    )
    @settings(max_examples=100, deadline=None)
    def test_batch_associativity(self, s1, f1, s2, f2):
        prior = BetaPosterior(1, 1)
        stepwise = update(update(prior, SuccessCount(s1, f1)), SuccessCount(s2, f2))
        pooled = update(prior, SuccessCount(s1 + s2, f1 + f2))
        assert stepwise == pooled

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            SuccessCount(-1, 0)

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(ValueError):
            BetaPosterior(0, 1)
        with pytest.raises(ValueError):
            BetaPosterior(1, math.inf)


class TestProbGreater:
    def test_symmetric_uniforms(self):
        assert prob_greater(BetaPosterior(1, 1), BetaPosterior(1, 1)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_two_thirds(self):
        # P(X > Y), X ~ Beta(2,1), Y ~ U(0,1): integral of 2x * x = 2/3
        p = prob_greater(BetaPosterior(2, 1), BetaPosterior(1, 1))
        assert p == pytest.approx(2 / 3, abs=1e-12)

    def test_one_third_by_reflection(self):
        p = prob_greater(BetaPosterior(1, 2), BetaPosterior(1, 1))
        assert p == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize(
        "a,b",
        [
            ((4, 2), (3, 7)),
            ((7, 3), (7, 3)),
            ((50, 1), (1, 1)),
            ((1, 9), (9, 1)),
            ((10, 10), (2, 5)),
        ],
    )
    def test_integer_closed_form_vs_quadrature_oracle(self, a, b):
        pa, pb = BetaPosterior(*a), BetaPosterior(*b)
        assert prob_greater(pa, pb) == pytest.approx(_quad_oracle(pa, pb), abs=1e-9)

    def test_noninteger_quadrature_path(self):
        pa, pb = BetaPosterior(2.5, 1.5), BetaPosterior(1.5, 3.5)
        assert prob_greater(pa, pb) == pytest.approx(_quad_oracle(pa, pb), abs=1e-8)

    def test_identical_posterior_is_half(self):
        # continuous symmetry: P(X > Y) = 1/2 for iid X, Y
        for params in ((3, 5), (7, 3), (20, 20)):
            p = prob_greater(BetaPosterior(*params), BetaPosterior(*params))
            assert p == pytest.approx(0.5, abs=1e-11)

    @given(
        aa=st.integers(1, 40), ab=st.integers(1, 40),
        ba=st.integers(1, 40), bb=st.integers(1, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_complement_integer(self, aa, ab, ba, bb):
        a, b = BetaPosterior(aa, ab), BetaPosterior(ba, bb)
        assert prob_greater(a, b) + prob_greater(b, a) == pytest.approx(1.0, abs=1e-9)

    @given(
        aa=st.floats(0.1, 50), ab=st.floats(0.1, 50),
        ba=st.floats(0.1, 50), bb=st.floats(0.1, 50),
    )
    @settings(max_examples=25, deadline=None)
    def test_complement_noninteger(self, aa, ab, ba, bb):
        # the quadrature path answers both orderings from one value, so the
        # complement identity should hold far inside the 1e-9 contract even
        # with singular shapes
        a, b = BetaPosterior(aa, ab), BetaPosterior(ba, bb)
        assert prob_greater(a, b) + prob_greater(b, a) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "params,expected",
        [
            # frozen from a 35-digit oracle; shapes below 1 put density
            # singularities at the endpoints, the hard case for quadrature
            ((2.0, 0.5, 2.0, 0.375), 0.4236024844720497),
            ((0.25, 0.25, 3.5, 0.125), 0.12846644227411866),
            ((0.1, 0.1, 0.1, 0.2), 0.6132672329479417),
            ((10.5, 0.2, 0.3, 9.7), 0.9999999706297469),
            ((50.0, 0.1, 0.1, 50.0), 1.0),
        ],
    )
    def test_singular_shape_accuracy(self, params, expected):
        aa, ab, ba, bb = params
        p = prob_greater(BetaPosterior(aa, ab), BetaPosterior(ba, bb))
        assert p == pytest.approx(expected, abs=1e-9)

    def test_monte_carlo_reproducible_and_converging(self):
        a, b = BetaPosterior(4, 2), BetaPosterior(3, 7)
        exact = prob_greater(a, b)
        mc1 = prob_greater_mc(a, b, MonteCarlo(draws=10**6, seed=5))
        mc2 = prob_greater_mc(a, b, MonteCarlo(draws=10**6, seed=5))
        assert mc1 == mc2
        se = math.sqrt(exact * (1 - exact) / 10**6)
        assert abs(mc1 - exact) <= 3 * se

    def test_unknown_method_rejected(self):
        # exact evaluation is the only method: there is no method argument
        with pytest.raises(TypeError):
            prob_greater(BetaPosterior(1, 1), BetaPosterior(1, 1), "magic")


class TestProbMax:
    def test_three_identical_uniforms(self):
        posteriors = [BetaPosterior(1, 1)] * 3
        pm = prob_max_all(posteriors, MonteCarlo(draws=100_000, seed=3))
        for k in range(3):
            assert pm[k] == pytest.approx(1 / 3, abs=0.005)

    def test_sums_to_exactly_one(self):
        rng = np.random.default_rng(12)
        for trial in range(60):
            k = int(rng.integers(2, 6))
            draws = int(rng.integers(1, 40)) if trial % 2 else 100_000
            posteriors = [
                BetaPosterior(int(rng.integers(1, 12)), int(rng.integers(1, 12)))
                for _ in range(k)
            ]
            pm = prob_max_all(posteriors, MonteCarlo(draws=draws, seed=trial))
            assert sum(pm) == 1.0

    def test_two_arm_case_equals_prob_greater(self):
        a, b = BetaPosterior(2, 1), BetaPosterior(1, 1)
        exact = prob_greater(a, b)  # 2/3
        est = prob_max([a, b], 0, MonteCarlo(draws=10**6, seed=9))
        se = math.sqrt(exact * (1 - exact) / 10**6)
        assert abs(est - exact) <= 3 * se

    def test_dominant_arm_vs_brute_force_oracle(self):
        posteriors = [BetaPosterior(50, 1), BetaPosterior(1, 1), BetaPosterior(1, 1)]
        est = prob_max(posteriors, 0, MonteCarlo(draws=10**6, seed=21))

        rng = np.random.default_rng(20_240_101)
        x = rng.beta(50, 1, 10**6)
        y = rng.beta(1, 1, 10**6)
        z = rng.beta(1, 1, 10**6)
        oracle = float(np.mean((x > y) & (x > z)))
        # analytic truth: with Y, Z uniform, P(X > max(Y,Z)) = E[X^2] = 50/52
        assert oracle == pytest.approx(50 / 52, abs=0.001)
        se = math.sqrt(2 * oracle * (1 - oracle) / 10**6)
        assert abs(est - oracle) <= 3 * se

    def test_deterministic_given_seed(self):
        posteriors = [BetaPosterior(3, 2), BetaPosterior(2, 3)]
        mc = MonteCarlo(draws=5000, seed=77)
        assert np.array_equal(prob_max_all(posteriors, mc), prob_max_all(posteriors, mc))

    def test_arm_index_out_of_range(self):
        with pytest.raises(ValueError, match="arm index"):
            prob_max([BetaPosterior(1, 1)] * 2, 2, MonteCarlo(seed=0))

    def test_single_posterior_rejected(self):
        with pytest.raises(ValueError):
            prob_max_all([BetaPosterior(1, 1)], MonteCarlo(seed=0))

    def test_zero_draws_rejected(self):
        with pytest.raises(ValueError, match="draws"):
            MonteCarlo(draws=0)


def _random_states(seed, k, n_states, hi):
    rng = np.random.default_rng(seed)
    return [
        [
            BetaPosterior(int(rng.integers(1, hi + 1)), int(rng.integers(1, hi + 1)))
            for _ in range(k)
        ]
        for _ in range(n_states)
    ]


def _assert_within_4se_of_sampling(posteriors, exact, draws, seed):
    est = prob_max_all(posteriors, MonteCarlo(draws=draws, seed=seed))
    for p, e in zip(exact, est):
        se = math.sqrt(p * (1.0 - p) / draws)
        assert abs(e - p) <= 4.0 * se, (posteriors, exact, est)


class TestProbBest:
    @given(
        aa=st.integers(1, 40), ab=st.integers(1, 40),
        ba=st.integers(1, 40), bb=st.integers(1, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_two_arms_equal_closed_form(self, aa, ab, ba, bb):
        a, b = BetaPosterior(aa, ab), BetaPosterior(ba, bb)
        pa, pb = prob_best([a, b])
        assert pa == pytest.approx(prob_greater(a, b), abs=1e-12)
        assert pb == pytest.approx(prob_greater(b, a), abs=1e-12)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_agrees_with_sampling_oracle(self, k):
        for t, posts in enumerate(_random_states(100 + k, k, 3, 12)):
            _assert_within_4se_of_sampling(
                posts, prob_best(posts), 400_000, np.random.SeedSequence([k, t])
            )

    def test_dominant_arm_analytic(self):
        # with two uniform rivals, P(X > max(Y, Z)) = E[X^2] = 50/52
        pm = prob_best([BetaPosterior(50, 1), BetaPosterior(1, 1), BetaPosterior(1, 1)])
        assert pm[0] == pytest.approx(50 / 52, abs=1e-12)
        assert pm[1] == pm[2] == pytest.approx(1 / 52, abs=1e-12)

    @given(
        params=st.lists(
            st.tuples(st.integers(1, 30), st.integers(1, 30)), min_size=2, max_size=5
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_raw_values_sum_to_one(self, params):
        pm = prob_best([BetaPosterior(a, b) for a, b in params])
        assert all(p >= 0.0 for p in pm)
        assert abs(math.fsum(pm) - 1.0) <= 1e-12

    def test_noninteger_prior_path(self):
        # Beta(0.5, 0.5) prior: the density is singular at both ends for the
        # arm still at its prior
        prior = (0.5, 0.5)
        states = [
            [(0, 0), (2, 1), (1, 2)],
            [(3, 1), (1, 3), (2, 2)],
            [(4, 0), (0, 4), (4, 0), (1, 1)],
        ]
        for t, counts in enumerate(states):
            posts = [BetaPosterior(prior[0] + s, prior[1] + f) for s, f in counts]
            exact = prob_best(posts)
            assert abs(math.fsum(exact) - 1.0) <= 1e-9
            _assert_within_4se_of_sampling(
                posts, exact, 400_000, np.random.SeedSequence([7, t])
            )

    def test_noninteger_error_budget(self):
        # independent high-precision oracle for the 1e-9 absolute error bound
        import mpmath

        posts = [BetaPosterior(0.5, 0.5), BetaPosterior(2.5, 1.5), BetaPosterior(1.5, 2.5)]
        with mpmath.workdps(25):
            def pdf(p, x):
                return x ** (p.alpha - 1) * (1 - x) ** (p.beta - 1) / mpmath.beta(
                    p.alpha, p.beta
                )

            def cdf(p, x):
                return mpmath.betainc(p.alpha, p.beta, 0, x, regularized=True)

            oracle = [
                float(
                    mpmath.quad(
                        lambda x, k=k: pdf(posts[k], x)
                        * mpmath.fprod(cdf(p, x) for j, p in enumerate(posts) if j != k),
                        [0, 0.5, 1],
                    )
                )
                for k in range(len(posts))
            ]
        assert prob_best(posts) == pytest.approx(oracle, abs=1e-9)

    def test_single_posterior_rejected(self):
        with pytest.raises(ValueError):
            prob_best([BetaPosterior(1, 1)])


@st.composite
def key_set(draw):
    """A canonical integer key set: D = 1, 2 or 3 distinct posteriors
    (a, b), sorted, each shared by m of at most five arms."""
    d = draw(st.integers(1, 3))
    params = draw(
        st.lists(
            st.tuples(st.integers(1, 30), st.integers(1, 30)),
            min_size=d, max_size=d, unique=True,
        )
    )
    shares = draw(st.lists(st.integers(1, 3), min_size=d, max_size=d))
    if d == 1:
        shares = [max(shares[0], 2)]
    return tuple((a, b, m) for (a, b), m in zip(sorted(params), shares))


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _arm_rows(key_sets, seed=0):
    """Each key set's posteriors arm by arm, (rows, K, 2), in a shuffled arm
    order, and per row each arm's position in its key set; every key set
    has K arms."""
    rng = np.random.default_rng(seed)
    rows, kinds = [], []
    for arms in key_sets:
        kind = rng.permutation([d for d, (_, _, m) in enumerate(arms) for _ in range(m)])
        rows.append([arms[d][:2] for d in kind])
        kinds.append(kind)
    return np.array(rows, dtype=np.int64), kinds


class TestBatchedProbBest:
    """_prob_best_rows evaluates the key sets of all its rows together, one
    binomial table per node count; each arm's value equals the per-key
    formula (reference.prob_best_lone) of its posterior bit for bit,
    whatever the batch and the arm order, and scipy's Beta functions
    (reference.prob_best_int) to 1e-12."""

    @given(key_sets=st.lists(key_set(), min_size=1, max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_batch_equals_the_per_key_formula(self, key_sets):
        # rows of one arm count per call; a key set may repeat
        for k in {sum(m for _, _, m in arms) for arms in key_sets}:
            same = [arms for arms in key_sets if sum(m for _, _, m in arms) == k]
            params, kinds = _arm_rows(same + same[:1])
            got = posterior._prob_best_rows(params)
            assert got.shape == params.shape[:2]
            for arms, kind, values in zip(same + same[:1], kinds, got):
                want = reference.prob_best_lone(arms)
                assert _bits(values) == _bits([want[d] for d in kind]), arms
                scipy = reference.prob_best_int(arms)
                assert np.abs(values - [scipy[d] for d in kind]).max() <= 1e-12, arms

    def test_one_posterior_shared_by_every_arm(self):
        # one posterior shared by three arms, many key sets per node count,
        # alone and beside key sets of two and three posteriors
        shared = [((a, n - a, 3),) for n in (6, 20, 30) for a in range(1, n)]
        mixed = shared + [((1, 4, 1), (3, 2, 2)), ((2, 2, 1), (3, 3, 1), (5, 1, 1))]
        for key_sets in (shared, mixed):
            params, kinds = _arm_rows(key_sets)
            got = posterior._prob_best_rows(params)
            for arms, kind, values in zip(key_sets, kinds, got):
                want = reference.prob_best_lone(arms)
                assert _bits(values) == _bits([want[d] for d in kind]), arms

    def test_prob_best_reads_the_batched_values(self):
        posts = [BetaPosterior(3, 5), BetaPosterior(6, 2), BetaPosterior(3, 5)]
        low, high = reference.prob_best_lone(((3, 5, 2), (6, 2, 1)))
        assert _bits(prob_best(posts)) == _bits((low, high, low))

    @pytest.mark.parametrize("k", [3, 4])
    def test_permuting_the_arms_permutes_the_values(self, k):
        # every arm order of rows with shared and distinct posteriors
        rng = np.random.default_rng(k)
        params = rng.integers(1, 6, size=(400, k, 2))
        got = posterior._prob_best_rows(params)
        for perm in itertools.permutations(range(k)):
            moved = posterior._prob_best_rows(params[:, perm])
            assert _bits(moved) == _bits(got[:, perm]), perm

    @pytest.mark.parametrize("arms", [
        # 184 patients over three arms, the largest stratum validate_design
        # allows, with a uniform prior: even, lopsided and all on one arm
        ((29, 34, 1), (30, 33, 1), (34, 30, 1)),
        ((2, 62, 1), (31, 32, 1), (61, 2, 1)),
        ((1, 1, 2), (92, 94, 1)),
    ])
    def test_a_full_stratum_key_set(self, arms):
        got = posterior._prob_best_rows(_arm_rows([arms])[0])[0]
        want = reference.prob_best_int(arms)
        assert np.abs(np.sort(got) - np.sort([
            want[d] for d, (_, _, m) in enumerate(arms) for _ in range(m)
        ])).max() <= 1e-9

    def test_binomial_table_is_taken_in_node_slices(self, monkeypatch):
        # past its cell budget the table is built a few nodes at a time;
        # every node's column is computed on its own, so no bit moves
        rng = np.random.default_rng(11)
        params = rng.integers(1, 40, size=(60, 3, 2))
        whole = posterior._prob_best_rows(params)
        monkeypatch.setattr(posterior, "_TABLE_CELLS", 50)
        assert _bits(posterior._prob_best_rows(params)) == _bits(whole)

    def test_beta_cdf_and_density_at_the_nodes(self):
        # against scipy, every (a, b) with a + b <= 61 at the nodes of two
        # rules, in one call
        from scipy.special import betainc
        from scipy.stats import beta

        a, b = np.array([(a, b) for a in range(1, 61) for b in range(1, 62 - a)]).T
        for nodes in (31, 40):
            cdf, pdf = posterior._beta_at_nodes(a, b, nodes)
            x = 1.0 / posterior._gauss_legendre(nodes)[1]
            assert np.abs(cdf - betainc(a[:, None], b[:, None], x)).max() <= 1e-12
            want = beta.pdf(x, a[:, None], b[:, None])
            assert np.abs(pdf - want).max() <= 1e-12 * max(1.0, want.max())

    def test_gauss_legendre_against_numpy(self):
        for n in (1, 2, 7, 30, 94):
            w, inv_x = posterior._gauss_legendre(n)[:2]
            x, want = np.polynomial.legendre.leggauss(n)
            assert np.abs(1.0 / inv_x - (x + 1.0) / 2.0).max() <= 1e-14
            assert np.abs(w - want / 2.0).max() <= 1e-14
