"""Continuous randomisation probability vectors for the unmapped rules.

Three rules are provided: fixed equal randomisation, posterior-probability-of-
maximum weighting with exponent gamma, and the control-protected rule whose
active arms are weighted by their posterior probability of beating control
while the control weight grows with its sample-size lag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .posterior import BetaPosterior, prob_best, prob_greater

__all__ = ["ProbVector", "ArmCounts", "fixed_equal", "ts_brar", "trippa_brar"]

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ProbVector:
    """Per-arm randomisation probabilities; entries in [0,1] summing to 1."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(not (0.0 <= p <= 1.0) for p in self.probs):
            raise ValueError(f"probabilities outside [0,1]: {self.probs}")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, i: int) -> float:
        return self.probs[i]


@dataclass(frozen=True)
class ArmCounts:
    """Accrued allocation counts per arm."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts):
            raise ValueError(f"counts must be non-negative: {self.counts}")

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, i: int) -> int:
        return self.counts[i]


# The rules' arithmetic on plain floats: the public rules wrap it in a checked
# ProbVector, and engine's decision tables call it directly, so both give pi
# bit for bit alike.


def _normalised(weights: list[float]) -> tuple[float, ...]:
    total = math.fsum(weights)
    if total <= 0 or not math.isfinite(total):
        raise RuntimeError(f"degenerate weight vector {weights}")
    return tuple(w / total for w in weights)


def _equal_probs(k: int) -> tuple[float, ...]:
    return (1.0 / k,) * k


def _ts_probs(best: tuple[float, ...], gamma: float) -> tuple[float, ...]:
    """ts_brar's pi from each arm's P(best), for gamma > 0."""
    weights = [p**gamma for p in best]
    if all(w == 0.0 for w in weights):
        raise RuntimeError("all probability-of-maximum values are zero")
    return _normalised(weights)


def fixed_equal(k: int) -> ProbVector:
    """Equal probability 1/K for each of K >= 2 arms."""
    if k < 2:
        raise ValueError(f"need at least two arms, got {k}")
    return ProbVector(_equal_probs(k))


def ts_brar(
    posteriors: list[BetaPosterior] | tuple[BetaPosterior, ...],
    gamma: float,
) -> ProbVector:
    """Probability-of-maximum weighting: pi_k proportional to P(k is best)^gamma.

    P(k is best) is computed exactly (`prob_best`). gamma = 0 returns
    fixed_equal exactly without computing it; gamma = 1 is vanilla
    posterior-probability weighting.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    k = len(posteriors)
    if gamma == 0:
        return fixed_equal(k)
    return ProbVector(_ts_probs(prob_best(posteriors), gamma))


def trippa_brar(
    posteriors: list[BetaPosterior] | tuple[BetaPosterior, ...],
    counts: ArmCounts,
    gamma_t: float,
    eta_t: float,
    form: str = "ProductForm",
) -> ProbVector:
    """Control-protected rule for one control (arm 0) and two active arms.

    Raw active weights are p(theta_k > theta_C)^gamma_t normalised over the
    actives (so they sum to 1 before the control term joins); the control's
    raw weight is (1/K) * g(dn, eta_t) with dn = max(n_T1, n_T2) - n_C and g
    either exp(eta_t * dn) (ProductForm, default) or
    exp(sign(dn) * |dn|^eta_t) (PowerForm). The joint raw vector is then
    normalised to a probability vector.
    """
    _check_trippa(len(posteriors), len(counts), gamma_t, eta_t)
    control = posteriors[0]
    beats = [prob_greater(p, control) for p in posteriors[1:]]
    return ProbVector(_trippa_probs(beats, counts.counts, gamma_t, eta_t, form))


def _check_trippa(k: int, n_counts: int, gamma_t: float, eta_t: float) -> None:
    if gamma_t < 0 or eta_t < 0:
        raise ValueError(f"gamma_t and eta_t must be >= 0, got {gamma_t}, {eta_t}")
    if k != 3 or n_counts != 3:
        raise ValueError("rule is defined for exactly 3 arms with arm 0 as control")


def _trippa_probs(
    beats: list[float],
    counts: tuple[int, ...],
    gamma_t: float,
    eta_t: float,
    form: str,
) -> tuple[float, ...]:
    """trippa_brar's pi from each active arm's P(beats control) and the
    assigned counts, for parameters _check_trippa accepts."""
    raw_active = [b**gamma_t for b in beats]
    active_total = math.fsum(raw_active)
    if active_total <= 0:
        raise RuntimeError("active-arm weights vanished")
    raw_active = [w / active_total for w in raw_active]

    dn = max(counts[1], counts[2]) - counts[0]
    if form == "ProductForm":
        g = math.exp(eta_t * dn)
    elif form == "PowerForm":
        g = math.exp(math.copysign(abs(dn) ** eta_t, dn)) if dn != 0 else 1.0
    else:
        raise ValueError(f"unknown control exponent form {form!r}")
    w_control = (1.0 / 3.0) * g
    return _normalised([w_control] + raw_active)
