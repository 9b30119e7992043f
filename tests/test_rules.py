import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radapt import rules
from radapt.posterior import BetaPosterior
from radapt.rules import ArmCounts, ProbVector, fixed_equal, trippa_brar, ts_brar


class TestContainers:
    def test_prob_vector_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ProbVector((0.5, 0.4))

    def test_prob_vector_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ProbVector((1.2, -0.2))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ArmCounts((-1, 2, 2))


class TestFixedEqual:
    def test_three_arms(self):
        assert fixed_equal(3).probs == (1 / 3, 1 / 3, 1 / 3)

    def test_two_arms(self):
        assert fixed_equal(2).probs == (0.5, 0.5)

    def test_five_arms(self):
        assert fixed_equal(5).probs == (0.2,) * 5

    def test_single_arm_rejected(self):
        with pytest.raises(ValueError):
            fixed_equal(1)


class TestTsBrar:
    def test_gamma_zero_bypasses_monte_carlo(self, monkeypatch):
        # the balanced shortcut must not compute P(best) at all
        def boom(*args, **kwargs):
            raise AssertionError("prob-of-max should not be called")

        monkeypatch.setattr(rules, "prob_best", boom)
        pi = ts_brar([BetaPosterior(3, 2)] * 3, 0.0)
        assert pi.probs == (1 / 3, 1 / 3, 1 / 3)

    def test_identical_posteriors_equal_shares(self):
        pi = ts_brar([BetaPosterior(2, 2)] * 3, 1.0)
        for p in pi.probs:
            assert p == pytest.approx(1 / 3, abs=1e-12)

    def test_gamma_two_hand_arithmetic(self, monkeypatch):
        # (0.6, 0.3, 0.1) squared is (0.36, 0.09, 0.01), total 0.46
        monkeypatch.setattr(rules, "prob_best", lambda posts: [0.6, 0.3, 0.1])
        posts = [BetaPosterior(2, 1), BetaPosterior(1, 1), BetaPosterior(1, 2)]
        pi = ts_brar(posts, 2.0)
        assert pi[0] == pytest.approx(0.36 / 0.46, abs=1e-12)
        assert pi[1] == pytest.approx(0.09 / 0.46, abs=1e-12)
        assert pi[2] == pytest.approx(0.01 / 0.46, abs=1e-12)

    @pytest.mark.parametrize("lo,hi", [(0.2, 0.3), (0.3, 0.5), (0.5, 0.8)])
    def test_monotone_in_prob_max(self, monkeypatch, lo, hi):
        shares = []
        for x in (lo, hi):
            monkeypatch.setattr(
                rules, "prob_best", lambda posts, x=x: [x, 0.15, 0.05]
            )
            shares.append(ts_brar([BetaPosterior(1, 1)] * 3, 1.7)[0])

        assert shares[1] >= shares[0]

    def test_permutation_equivariance_exact(self):
        posts = [BetaPosterior(5, 3), BetaPosterior(2, 7), BetaPosterior(4, 4)]
        base = ts_brar(posts, 1.3)
        for perm in itertools.permutations(range(3)):
            pi = ts_brar([posts[i] for i in perm], 1.3)
            assert pi.probs == tuple(base[i] for i in perm)

    def test_identical_pair_shares_estimate(self):
        posts = [BetaPosterior(3, 3), BetaPosterior(3, 3), BetaPosterior(4, 2)]
        pi = ts_brar(posts, 1.0)
        assert pi[0] == pi[1]

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            ts_brar([BetaPosterior(1, 1)] * 3, -0.5)

    def test_all_zero_estimates_internal_error(self, monkeypatch):
        monkeypatch.setattr(rules, "prob_best", lambda posts: [0.0, 0.0, 0.0])
        with pytest.raises(RuntimeError):
            ts_brar([BetaPosterior(1, 1)] * 3, 1.0)

    @given(
        params=st.lists(
            st.tuples(st.integers(1, 30), st.integers(1, 30)), min_size=2, max_size=5
        ),
        gamma=st.floats(0.0, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_probability_vector_contract(self, params, gamma):
        posts = [BetaPosterior(a, b) for a, b in params]
        pi = ts_brar(posts, gamma)
        assert all(p >= 0 for p in pi.probs)
        assert math.fsum(pi.probs) == pytest.approx(1.0, abs=1e-12)


class TestTrippaBrar:
    @pytest.mark.parametrize("gamma,eta", [(1.7, 0.9), (0.5, 0.0), (3.0, 1.2)])
    def test_equal_posteriors_equal_counts(self, gamma, eta):
        # raw (1/3, 1/2, 1/2) regardless of the exponents
        posts = [BetaPosterior(2, 2)] * 3
        pi = trippa_brar(posts, ArmCounts((4, 4, 4)), gamma, eta)
        assert pi[0] == pytest.approx(0.25, abs=1e-12)
        assert pi[1] == pytest.approx(0.375, abs=1e-12)
        assert pi[2] == pytest.approx(0.375, abs=1e-12)

    def test_control_protection_when_lagging(self):
        # counts (2,4,4), exp(2 eta) = 3: raw (1, 1/2, 1/2)
        posts = [BetaPosterior(3, 3)] * 3
        pi = trippa_brar(posts, ArmCounts((2, 4, 4)), 2.0, math.log(3) / 2)
        assert pi[0] == pytest.approx(0.5, abs=1e-12)
        assert pi[1] == pytest.approx(0.25, abs=1e-12)
        assert pi[2] == pytest.approx(0.25, abs=1e-12)

    def test_gamma_zero_equalises_actives(self):
        posts = [BetaPosterior(1, 1), BetaPosterior(9, 1), BetaPosterior(1, 9)]
        pi = trippa_brar(posts, ArmCounts((3, 3, 3)), 0.0, 0.5)
        assert pi[1] == pi[2]

    @pytest.mark.parametrize("form", ["ProductForm", "PowerForm"])
    def test_control_share_nondecreasing_in_lag(self, form):
        posts = [BetaPosterior(2, 3), BetaPosterior(4, 2), BetaPosterior(3, 3)]
        shares = [
            trippa_brar(posts, ArmCounts((6 - d, 6, 6 + d)), 1.0, 0.4, form)[0]
            for d in range(5)
        ]
        assert shares == sorted(shares)

    def test_forms_agree_at_zero_lag(self):
        posts = [BetaPosterior(2, 2)] * 3
        a = trippa_brar(posts, ArmCounts((5, 5, 5)), 1.0, 0.7, "ProductForm")
        b = trippa_brar(posts, ArmCounts((5, 5, 5)), 1.0, 0.7, "PowerForm")
        assert a.probs == b.probs

    def test_negative_parameters_rejected(self):
        posts = [BetaPosterior(1, 1)] * 3
        with pytest.raises(ValueError):
            trippa_brar(posts, ArmCounts((2, 2, 2)), -1.0, 0.5)
        with pytest.raises(ValueError):
            trippa_brar(posts, ArmCounts((2, 2, 2)), 1.0, -0.1)

    def test_wrong_arm_count_rejected(self):
        with pytest.raises(ValueError):
            trippa_brar([BetaPosterior(1, 1)] * 2, ArmCounts((2, 2)), 1.0, 0.5)

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError, match="form"):
            trippa_brar([BetaPosterior(1, 1)] * 3, ArmCounts((2, 2, 2)), 1.0, 0.5, "Exotic")

    @given(
        params=st.lists(
            st.tuples(st.integers(1, 20), st.integers(1, 20)), min_size=3, max_size=3
        ),
        counts=st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)),
        gamma=st.floats(0.0, 3.0),
        eta=st.floats(0.0, 1.5),
        form=st.sampled_from(["ProductForm", "PowerForm"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_probability_vector_contract(self, params, counts, gamma, eta, form):
        posts = [BetaPosterior(a, b) for a, b in params]
        pi = trippa_brar(posts, ArmCounts(counts), gamma, eta, form)
        assert all(p >= 0 for p in pi.probs)
        assert math.fsum(pi.probs) == pytest.approx(1.0, abs=1e-12)
