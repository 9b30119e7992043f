"""Beta-Bernoulli inference for the binary adaptation endpoint.

Success counts come from dichotomised outcomes only; the conjugate update and
the two comparison probabilities here feed the allocation rules. Both are
computed deterministically, as pure functions over immutable inputs. With
integer Beta parameters, the only ones integer priors and counts reach, both
run on numpy alone: P(X > Y) as a finite sum, and P(best) by Gauss-Legendre
quadrature with Golub-Welsch nodes and each Beta CDF a binomial tail sum.
Other parameters take tanh-sinh quadrature through scipy, imported on first
use.
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
    if all(float(p).is_integer() for p in params):
        return _prob_greater_int(*(int(p) for p in params))
    return _prob_greater_quad(BetaPosterior(aa, ab), BetaPosterior(ba, bb))


# a binomial table holds at most this many cells, or one node's column where
# that is more: past it the nodes are taken in slices (every node's column
# is computed on its own)
_TABLE_CELLS = 1 << 18


@lru_cache(maxsize=256)
def _gauss_legendre(n: int) -> tuple[np.ndarray, ...]:
    """The n-point Gauss-Legendre rule on [0, 1] and the log-space binomial
    terms of its nodes x, read-only because every caller shares them:
    (weights, 1 / x, log i!, i log x - log i!, i log(1 - x) - log i!), the
    last three for i < 2n, which no arm a + b - 1 of a key set with n nodes
    reaches.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    the Legendre polynomials shifted to [0, 1] (diagonal 1/2, off-diagonal
    k / (2 sqrt(4k^2 - 1))), the weights the squared first components of
    its unit eigenvectors.
    """
    k = np.arange(1.0, n)
    jacobi = np.zeros((n, n))
    jacobi.flat[:: n + 1] = 0.5
    # eigh reads the lower triangle only
    jacobi.flat[n :: n + 1] = k / (2.0 * np.sqrt(4.0 * k * k - 1.0))
    x, vectors = np.linalg.eigh(jacobi)
    lf = np.array([math.lgamma(i + 1.0) for i in range(2 * n)])
    i = np.arange(2 * n)[:, None]
    terms = (
        vectors[0] ** 2,
        1.0 / x,
        lf,
        i * np.log(x) - lf[:, None],
        i * np.log1p(-x) - lf[:, None],
    )
    for t in terms:
        t.flags.writeable = False
    return terms


def _beta_at_nodes(a: np.ndarray, b: np.ndarray, nodes: int):
    """The Beta(a, b) CDF and density of integer a, b >= 1 at the nodes x
    of the `nodes`-point rule, each a.shape + (nodes,).

    With n = a + b - 1, F(x) = P(Bin(n, x) >= a) and f(x) = a P(Bin(n, x)
    = a) / x, which is n P(Bin(n - 1, x) = a - 1). One table of binomial
    terms serves every arm: a row per distinct n, and in column i the term
    of j = n - i successes, exp(log n! + (j log x - log j!) + (i log(1 - x)
    - log i!)). The running sum along a row is the tail from j, so an arm
    reads F at i = b - 1, summed from j = n down, and f from the term
    there; no cell or sum it reads depends on the other arms. Columns run
    to the largest b. A row's cells past its own n read j < 0 from the
    end of the tables and are never read; they stay at most 1, because
    log n! - log i! <= 0 there and the other terms are never positive.
    """
    _, inv_x, lf, xterm, yterm = _gauss_legendre(nodes)
    rest = b - 1
    n = a + rest
    rows = np.array(sorted(set(n.ravel().tolist())))
    width = int(rest.max()) + 1
    j = np.subtract.outer(rows, np.arange(width))
    at = np.searchsorted(rows, n) * width + rest
    head = lf[rows][:, None, None]
    scale = a[..., None] * inv_x
    step = max(1, _TABLE_CELLS // j.size)
    parts = []
    for lo in range(0, nodes, step):
        cols = slice(lo, lo + step)
        terms = head + xterm[:, cols][j] + yterm[:width, cols]
        np.exp(terms, out=terms)
        flat = terms.reshape(-1, terms.shape[2])
        pdf = flat[at] * scale[..., cols]
        np.cumsum(terms, axis=1, out=terms)
        parts.append((flat[at], pdf))
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(part, axis=-1) for part in zip(*parts))


def _prob_best_rows(params: np.ndarray) -> np.ndarray:
    """P(best) of every row of Beta parameters, (rows, K, 2) as [alpha,
    beta] per arm, as (rows, K) in arm order."""
    return _in_arm_order(*_prob_best_sets(params))


def _in_arm_order(values, inverse, order) -> np.ndarray:
    """Values per key set and sorted position, (sets, K), as (rows, K) in
    each row's arm order, with inverse and order as _prob_best_sets gives
    them."""
    out = np.empty(order.shape)
    out[np.arange(len(order))[:, None], order] = values[inverse]
    return out


def _prob_best_sets(params: np.ndarray):
    """P(best) of the distinct key sets of rows of Beta parameters,
    (rows, K, 2) as [alpha, beta] per arm: (best, inverse, order), where row
    r's key set is inverse[r], its arm order[r, j] holds the j-th smallest
    [alpha, beta] of the row, and best[s, j] is the P(best) of the arm at
    sorted position j of key set s, (sets, K).

    Each row is sorted to its canonical key set, (a, b, m) per distinct
    posterior shared by m arms, and every distinct key set is evaluated
    once. An arm of type d is best with probability int_0^1 f_d
    F_d^(m_d - 1) prod_{e != d} F_e^(m_e) dx. A set with a non-integer
    parameter takes _prob_best_quad. With integer parameters the integrand
    is a polynomial of degree sum(a + b) - K - 1 over all K arms, so
    ceil((degree + 1) / 2) Gauss-Legendre nodes integrate it exactly up to
    rounding. The integer key sets are evaluated in one array pass per node
    count, each padded to K distinct posteriors with (1, 1, 0), whose
    factor F^0 is exactly 1, and every Beta CDF and density read from one
    table of binomial terms: element for element the arithmetic of a lone
    key set, so neither the batch nor the arm order moves a bit.
    """
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
    # per set the (a, b) and m of each distinct posterior, padded to K with
    # (1, 1) and 0: a posterior no arm has, whose factor is F^0 = 1
    shapes = np.ones((len(sets), k, 2), dtype=sets.dtype)
    at = np.nonzero(new)
    shapes[at[0], kind[at]] = sets[at]
    counts = (kind[:, :, None] == np.arange(k)).sum(axis=1)
    values = np.empty((len(sets), k))
    integral = (sets == np.floor(sets)).all(axis=(1, 2))
    for s in np.flatnonzero(~integral).tolist():
        d = int(kind[s, -1]) + 1
        arms = zip(*shapes[s, :d].T.tolist(), counts[s, :d].tolist())
        values[s, :d] = _prob_best_quad(tuple(arms))
    whole = np.flatnonzero(integral)
    # the degree is sum(a + b) - K - 1 over all K arms
    nodes = (sets[whole].sum(axis=(1, 2)).astype(np.int64) - k - 1) // 2 + 1
    for nodes_g in set(nodes.tolist()):
        group = whole[nodes == nodes_g]
        a, b = shapes[group].astype(np.int64).transpose(2, 0, 1)
        cdf, pdf = _beta_at_nodes(a, b, nodes_g)
        powers = counts[group][:, None, :] - np.eye(k)
        others = np.prod(cdf[:, None, :, :] ** powers[:, :, :, None], axis=2)
        values[group] = (pdf * others) @ _gauss_legendre(nodes_g)[0]
    return values[np.arange(len(sets))[:, None], kind], inverse, order


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
    rounding, on numpy alone; otherwise tanh-sinh quadrature through scipy
    keeps the absolute error <= 1e-9. This is the one-row call of the array
    function the decision tables evaluate a block's keys with: each distinct
    (alpha, beta) is evaluated once on the canonically sorted multiset, so
    permuting the input permutes the output bit for bit, arms with equal
    posteriors get equal values, and a multiset gets the same values in any
    batch. The values are not renormalised.
    """
    if len(posteriors) < 2:
        raise ValueError("need at least two posteriors")
    params = np.array([[[p.alpha, p.beta] for p in posteriors]], dtype=np.float64)
    return tuple(_prob_best_rows(params)[0].tolist())
