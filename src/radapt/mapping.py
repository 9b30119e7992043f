"""Discretise continuous randomisation probabilities into stage allocation ratios.

Each active arm's probability share is placed into an adaptation category
(Drop / Disfavour / Balance / Favour / Keep) by half-open threshold intervals,
and the category pair picks a ratio from the fixed per-stage menu. Stage 1 is
always the balanced 2:2:2 block and the control count is fixed at 2 in every
mapped stage.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import MappingConfig, ThresholdSet, TrialDesign
from .rules import ProbVector

__all__ = [
    "AdaptationCategory",
    "RatioVector",
    "STAGE2_MENU",
    "STAGE3_MENU",
    "decide_category",
    "allocation_options",
    "resolve_allocation",
    "stage_ratio",
    "active_shares",
]


class AdaptationCategory(enum.Enum):
    DROP = "Drop"
    DISFAVOUR = "Disfavour"
    BALANCE = "Balance"
    FAVOUR = "Favour"
    KEEP = "Keep"


@dataclass(frozen=True)
class RatioVector:
    """Exact per-arm patient counts for one stage, ordered C:T1:T2."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts):
            raise ValueError(f"ratio counts must be non-negative: {self.counts}")

    @property
    def total(self) -> int:
        return sum(self.counts)

    def __getitem__(self, i: int) -> int:
        return self.counts[i]

    def __len__(self) -> int:
        return len(self.counts)

    def label(self) -> str:
        return ":".join(str(c) for c in self.counts)


# Ratio menus; every mapped stage-2 ratio sums to 6 and stage-3 ratio to 8,
# always with 2 controls.
STAGE2_MENU = frozenset({(2, 1, 3), (2, 2, 2), (2, 3, 1)})
STAGE3_MENU = frozenset(
    {(2, 0, 6), (2, 1, 5), (2, 2, 4), (2, 3, 3), (2, 4, 2), (2, 5, 1), (2, 6, 0)}
)

BALANCED = {2: RatioVector((2, 2, 2)), 3: RatioVector((2, 3, 3))}

# Two-sided options for the stage-3 single-Disfavour and single-Favour cases:
# (disfavoured, other) and (favoured, other) pairs, picked by a fair coin.
_STAGE3_DIS_OPTIONS = ((1, 5), (2, 4))
_STAGE3_FAV_OPTIONS = ((5, 1), (4, 2))


def _cuts(thresholds: ThresholdSet, stage: int, variant: str):
    """Interior cut-points and the category for each interval, low to high."""
    C = AdaptationCategory
    if stage == 2:
        if variant == "MappedAlpha":
            return thresholds.stage2, (C.DISFAVOUR, C.FAVOUR)
        return thresholds.stage2, (C.DISFAVOUR, C.BALANCE, C.FAVOUR)
    if stage == 3:
        if variant == "MappedAlpha":
            return thresholds.stage3, (C.DROP, C.DISFAVOUR, C.FAVOUR, C.KEEP)
        return thresholds.stage3, (C.DROP, C.DISFAVOUR, C.BALANCE, C.FAVOUR, C.KEEP)
    raise ValueError(f"categories are defined for stages 2 and 3, got {stage}")


def decide_category(
    pi_k: float, stage: int, config: MappingConfig
) -> AdaptationCategory:
    """Category for one active arm's probability share.

    Intervals are half-open [p_{j-1}, p_j) with p_0 = 0 and the top interval
    closed at 1, so the function is total on [0, 1].
    """
    if not (0.0 <= pi_k <= 1.0) or not math.isfinite(pi_k):
        raise ValueError(f"probability share outside [0,1]: {pi_k}")
    if config.thresholds is None:
        raise ValueError(f"variant {config.variant} has no thresholds to apply")
    cuts, categories = _cuts(config.thresholds, stage, config.variant)
    for cut, category in zip(cuts, categories):
        if pi_k < cut:
            return category
    return categories[-1]


def _placed(i: int, own: int, other: int) -> RatioVector:
    # 2 controls; active position i gets `own` patients, the other `other`
    parts = [0, 0]
    parts[i] = own
    parts[1 - i] = other
    return RatioVector((2, *parts))


def _stage2_options(cats) -> tuple[RatioVector, ...]:
    C = AdaptationCategory
    if C.DROP in cats or C.KEEP in cats:
        raise ValueError(f"{cats} illegal at stage 2 (Drop/Keep are stage-3 only)")
    dis = [i for i, c in enumerate(cats) if c is C.DISFAVOUR]
    fav = [i for i, c in enumerate(cats) if c is C.FAVOUR]
    if len(dis) == 1:
        return (_placed(dis[0], 1, 3),)
    if len(fav) == 1:
        return (_placed(fav[0], 3, 1),)
    # both arms share a category: keep the stage balanced
    return (BALANCED[2],)


def _stage3_options(cats) -> tuple[RatioVector, ...]:
    # first-match over the listed cases: Drop, Disfavour, Favour, single
    # Balance, Keep, otherwise balanced
    C = AdaptationCategory
    drop = [i for i, c in enumerate(cats) if c is C.DROP]
    dis = [i for i, c in enumerate(cats) if c is C.DISFAVOUR]
    fav = [i for i, c in enumerate(cats) if c is C.FAVOUR]
    bal = [i for i, c in enumerate(cats) if c is C.BALANCE]
    keep = [i for i, c in enumerate(cats) if c is C.KEEP]

    if len(drop) == 1:
        return (_placed(drop[0], 0, 8 - 2),)
    if len(dis) == 1:
        return tuple(_placed(dis[0], low, high) for low, high in _STAGE3_DIS_OPTIONS)
    if len(fav) == 1:
        return tuple(_placed(fav[0], high, low) for high, low in _STAGE3_FAV_OPTIONS)
    if len(bal) == 1:
        return (BALANCED[3],)
    if len(keep) == 1:
        return (_placed(keep[0], 8 - 2, 0),)
    # both-same (including both Drop / both Keep)
    return (BALANCED[3],)


def allocation_options(
    categories: tuple[AdaptationCategory, AdaptationCategory], stage: int
) -> tuple[RatioVector, ...]:
    """The ratios the two active arms' categories admit at a mapped stage:
    one, or for a stage-3 single Disfavour or single Favour the two that
    resolve_allocation's fair coin picks between, in the coin's order."""
    if len(categories) != 2:
        raise ValueError("exactly two active arms are supported")
    if stage == 2:
        return _stage2_options(categories)
    if stage == 3:
        return _stage3_options(categories)
    raise ValueError(f"mapped stages are 2 and 3, got {stage}")


def resolve_allocation(
    categories: tuple[AdaptationCategory, AdaptationCategory],
    stage: int,
    rng: np.random.Generator,
) -> RatioVector:
    """Ratio for the two active arms' categories at a mapped stage.

    Output is ordered C:T1:T2 with the control fixed at 2. When a category
    admits two ratios (stage-3 single Disfavour or single Favour) one is drawn
    from the caller's stream with equal probability.
    """
    options = allocation_options(categories, stage)
    if len(options) == 1:
        return options[0]
    return options[rng.integers(2)]


def active_shares(pi: ProbVector) -> tuple[float, float]:
    """Active-arm probability shares renormalised to sum to 1.

    The control-protected rule builds its active weights on this scale before
    the control term joins, so renormalising the final vector recovers the raw
    shares the thresholds are defined on.
    """
    a1, a2 = pi[1], pi[2]
    total = a1 + a2
    if total <= 0:
        return (0.5, 0.5)
    return (a1 / total, a2 / total)


def stage_ratio(
    design: TrialDesign,
    stage: int,
    pi: ProbVector,
    rng: np.random.Generator,
    category_override=None,
) -> tuple[RatioVector, tuple[AdaptationCategory, ...] | None]:
    """Stage ratio plus the categories that produced it (None for stage 1 / PB).

    Stage 1 always returns 2:2:2; the PermutedBlock variant returns its fixed
    2:2:2 / 2:2:2 / 2:3:3 schedule unconditionally. `category_override` lets a
    caller substitute post-policy categories (same arity as the actives).
    """
    if design.mapping is None:
        raise ValueError("design has no mapping config")
    if not 1 <= stage <= design.n_stages:
        raise ValueError(f"stage {stage} outside 1..{design.n_stages}")
    if stage == 1:
        return BALANCED[2], None
    if design.mapping.variant == "PermutedBlock":
        return BALANCED[stage], None
    if category_override is not None:
        cats = tuple(category_override)
    else:
        x1, x2 = active_shares(pi)
        cats = (
            decide_category(x1, stage, design.mapping),
            decide_category(x2, stage, design.mapping),
        )
    return resolve_allocation(cats, stage, rng), cats
