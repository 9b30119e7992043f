"""Beta-Bernoulli inference for the binary adaptation endpoint.

Success counts come from dichotomised outcomes only; the conjugate update and
the two comparison probabilities here feed the allocation rules. Both are
computed deterministically, as pure functions over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "BetaPosterior",
    "SuccessCount",
    "update",
    "prob_greater",
    "prob_best",
]


@dataclass(frozen=True)
class BetaPosterior:
    """Beta(alpha, beta) state for one arm's success probability."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for p in (self.alpha, self.beta):
            if not (math.isfinite(p) and p > 0):
                raise ValueError(f"Beta parameters must be positive finite, got {self}")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


@dataclass(frozen=True)
class SuccessCount:
    """Dichotomised outcome tally for one arm."""

    successes: int
    failures: int

    def __post_init__(self) -> None:
        if self.successes < 0 or self.failures < 0:
            raise ValueError(f"counts must be non-negative, got {self}")


def update(prior: BetaPosterior, counts: SuccessCount) -> BetaPosterior:
    """Conjugate update: Beta(a, b) + (s, f) -> Beta(a + s, b + f)."""
    return BetaPosterior(prior.alpha + counts.successes, prior.beta + counts.failures)


def _is_integral(x: float) -> bool:
    return float(x).is_integer()


@lru_cache(maxsize=65536)
def _prob_greater_int(aa: int, ab: int, ba: int, bb: int) -> float:
    # P(X > Y), X ~ Beta(aa, ab), Y ~ Beta(ba, bb), all parameters integers.
    # Finite sum over i < aa of exp(log-Beta ratios); every term is positive
    # so fsum keeps the result well below the 1e-9 error budget.
    def lbeta(x: float, y: float) -> float:
        return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)

    terms = [
        math.exp(
            lbeta(ba + i, ab + bb)
            - math.log(ab + i)
            - lbeta(1 + i, ab)
            - lbeta(ba, bb)
        )
        for i in range(aa)
    ]
    return min(1.0, math.fsum(terms))


def _prob_greater_quad(a: BetaPosterior, b: BetaPosterior) -> float:
    # For two arms P(best) is P(X > Y). Canonical orientation: both orderings
    # of a pair are answered from the same quadrature value, so the
    # complement identity holds to one ulp no matter what the quadrature
    # error is.
    ka = (a.alpha, a.beta)
    kb = (b.alpha, b.beta)
    if ka == kb:
        return 0.5
    lo, hi = sorted((ka, kb))
    v = _prob_best_quad(((*lo, 1), (*hi, 1)))[0]
    return min(1.0, max(0.0, v if ka < kb else 1.0 - v))


def prob_greater(a: BetaPosterior, b: BetaPosterior) -> float:
    """P(X > Y) for X ~ a and Y ~ b, evaluated deterministically.

    A closed-form finite sum when all four parameters are integers (the only
    case reachable from integer priors and counts), adaptive quadrature
    otherwise; absolute error <= 1e-9 either way.
    """
    return _prob_greater_of(a.alpha, a.beta, b.alpha, b.beta)


def _prob_greater_of(aa: float, ab: float, ba: float, bb: float) -> float:
    # prob_greater on the parameters of Beta(aa, ab) and Beta(ba, bb)
    params = (aa, ab, ba, bb)
    if all(_is_integral(p) for p in params):
        return _prob_greater_int(*(int(p) for p in params))
    return _prob_greater_quad(BetaPosterior(aa, ab), BetaPosterior(ba, bb))


@lru_cache(maxsize=256)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    # n-point rule moved to [0, 1]; read-only because every caller shares it
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = (x + 1.0) / 2.0, w / 2.0
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _prob_best_rows(params: np.ndarray) -> np.ndarray:
    """P(best) of every row of integer Beta parameters, (rows, K, 2) as
    [alpha, beta] per arm, as (rows, K) in arm order.

    Each row is sorted to its canonical key set, (a, b, m) per distinct
    posterior shared by m arms, and every distinct key set is evaluated
    once. An arm of type d is best with probability int_0^1 f_d
    F_d^(m_d - 1) prod_{e != d} F_e^(m_e) dx. With integer parameters the
    integrand is a polynomial of degree sum(a + b) - K - 1 over all K arms,
    so ceil((degree + 1) / 2) Gauss-Legendre nodes integrate it exactly up
    to rounding. The key sets are evaluated in one array pass per (distinct
    posteriors, node count): element for element the arithmetic of a lone
    key set, so neither the batch nor the arm order moves a bit.
    """
    from scipy.special import betainc, betaln, xlog1py, xlogy

    rows, k = params.shape[:2]
    each = np.arange(rows)[:, None]
    order = np.lexsort((params[:, :, 1], params[:, :, 0]))
    ranked = params[each, order]
    # equal sorted rows hold the same key set; they are found by their
    # bytes, as the decision tables find keys (np.unique over rows costs
    # ~70 us even for one row on a 2-CPU Xeon, which interim would pay)
    row_bytes = np.dtype((np.void, ranked.itemsize * 2 * k))
    raw = ranked.reshape(rows, -1).view(row_bytes)[:, 0].tolist()
    last = dict(zip(raw, range(rows)))
    ids = dict(zip(last, range(len(last))))
    inverse = np.array([ids[key] for key in raw])
    sets = ranked[list(last.values())]
    new = np.ones(sets.shape[:2], dtype=bool)
    new[:, 1:] = (sets[:, 1:] != sets[:, :-1]).any(axis=2)
    # the sorted position's distinct posterior, counted from 0 in its set
    kind = np.cumsum(new, axis=1) - 1
    # per set the (a, b, m) of each distinct posterior, zero-padded to K
    key_sets = np.zeros((len(sets), k, 3), dtype=np.int64)
    at = np.nonzero(new)
    key_sets[at[0], kind[at], :2] = sets[at]
    key_sets[:, :, 2] = (kind[:, :, None] == np.arange(k)).sum(axis=1)
    d = kind[:, -1] + 1
    # the degree is sum(a + b) - K - 1 over all K arms
    nodes = (sets.sum(axis=(1, 2)) - k - 1) // 2 + 1
    values = np.zeros((len(key_sets), k))
    for d_g, nodes_g in set(zip(d.tolist(), nodes.tolist())):
        group = np.flatnonzero((d == d_g) & (nodes == nodes_g))
        abm = key_sets[group, :d_g].astype(np.float64)[..., None]
        a, b, m = abm[:, :, 0], abm[:, :, 1], abm[:, :, 2]
        x, w = _gauss_legendre(nodes_g)
        cdf = betainc(a, b, x)
        pdf = np.exp(xlogy(a - 1.0, x) + xlog1py(b - 1.0, -x) - betaln(a, b))
        # a zero exponent gives a factor of exactly 1 even where F_e underflows
        powers = m.transpose(0, 2, 1) - np.eye(d_g)
        if d_g == 1:
            # a lone key set of one posterior has a scalar power, which numpy
            # squares exactly; over a batch the power varies, and it would not
            others = np.stack([c ** p for c, p in zip(cdf, powers[:, 0, 0])])
        else:
            others = np.prod(cdf[:, None, :, :] ** powers[:, :, :, None], axis=2)
        values[group, :d_g] = (pdf * others) @ w
    out = np.empty((rows, k))
    out[each, order] = values[inverse[:, None], kind[inverse]]
    return out


@lru_cache(maxsize=4096)
def _prob_best_quad(arms: tuple[tuple[float, float, int], ...]) -> tuple[float, ...]:
    # The same integrals for non-integer shapes. Shapes below 1 make f_d
    # singular at an endpoint, and no float64 quadrature node can resolve
    # mass closer to 1 than ~1e-16, so: split at 1/2, evaluate the upper
    # half in u = 1 - x via F_e(1 - u) = 1 - I_u(b_e, a_e) so nothing is
    # evaluated near 1, then remove f_d's algebraic singularity at each end
    # exactly with the power substitution x = w**(1/shape)
    # (x**(shape-1) dx = dw / shape). Both integrands are then bounded on
    # their intervals and tanh-sinh quadrature resolves the remaining
    # endpoint derivative cusps to well below the 1e-9 budget.
    from scipy.integrate import tanhsinh
    from scipy.special import betainc, betaincc, betaln

    out = []
    for d, (ad, bd, _) in enumerate(arms):
        powers = [m - (e == d) for e, (_, _, m) in enumerate(arms)]
        lb = betaln(ad, bd)

        def lower(w: np.ndarray) -> np.ndarray:
            x = np.power(w, 1.0 / ad)
            val = np.exp((bd - 1.0) * np.log1p(-x) - lb) / ad
            for (ae, be, _), pe in zip(arms, powers):
                val = val * betainc(ae, be, x) ** pe
            return val

        def upper(w: np.ndarray) -> np.ndarray:
            u = np.power(w, 1.0 / bd)
            val = np.exp((ad - 1.0) * np.log1p(-u) - lb) / bd
            for (ae, be, _), pe in zip(arms, powers):
                val = val * betaincc(be, ae, u) ** pe
            return val

        total = 0.0
        for integrand, shape in ((lower, ad), (upper, bd)):
            top = 0.5**shape
            if top > 0.0:
                res = tanhsinh(integrand, 0.0, top, atol=5e-13, rtol=0.0)
                total += float(res.integral)
        out.append(total)
    return tuple(out)


def prob_best(
    posteriors: list[BetaPosterior] | tuple[BetaPosterior, ...],
) -> tuple[float, ...]:
    """P(each arm has the maximum success probability), computed exactly.

    P(k is best) = int_0^1 f_k(x) prod_{j != k} F_j(x) dx. With integer
    parameters (the only case reachable from integer priors and counts) a
    Gauss-Legendre rule integrates the polynomial integrand exactly up to
    rounding; otherwise tanh-sinh quadrature keeps the absolute error
    <= 1e-9. Each distinct (alpha, beta) is evaluated once on the canonically
    sorted multiset, so permuting the input permutes the output bit for bit
    and arms with equal posteriors get equal values. The values are not
    renormalised. The decision tables evaluate integer parameters through
    the same array function, a block's keys at once, which gives each
    multiset the values it gets here, bit for bit.
    """
    if len(posteriors) < 2:
        raise ValueError("need at least two posteriors")
    keys = [(p.alpha, p.beta) for p in posteriors]
    if all(_is_integral(x) for key in keys for x in key):
        params = np.array([[[int(a), int(b)] for a, b in keys]], dtype=np.int64)
        return tuple(_prob_best_rows(params)[0].tolist())
    arms = tuple((a, b, keys.count((a, b))) for a, b in sorted(set(keys)))
    by_key = {(a, b): v for (a, b, _), v in zip(arms, _prob_best_quad(arms))}
    return tuple(by_key[key] for key in keys)
