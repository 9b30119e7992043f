"""Discretise continuous randomisation probabilities into stage allocation ratios.

Each active arm's probability share is placed into an adaptation category
(Drop / Disfavour / Balance / Favour / Keep) by half-open threshold intervals,
and the category pair picks a ratio from the fixed per-stage menu
(allocation_options). Stage 1 is always the balanced 2:2:2 block and the
control count is fixed at 2 in every mapped stage; planned_ratio gives the
ratios a design fixes before any data.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import MappingConfig, TrialDesign
from .rules import ProbVector

__all__ = [
    "AdaptationCategory",
    "RatioVector",
    "STAGE2_MENU",
    "STAGE3_MENU",
    "CATEGORIES",
    "decide_category",
    "category_codes",
    "allocation_options",
    "planned_ratio",
    "active_shares",
    "active_share_rows",
]


class AdaptationCategory(enum.Enum):
    DROP = "Drop"
    DISFAVOUR = "Disfavour"
    BALANCE = "Balance"
    FAVOUR = "Favour"
    KEEP = "Keep"


# Every category, low to high; category_codes gives positions in it.
CATEGORIES = tuple(AdaptationCategory)


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


_C = AdaptationCategory
# The category of each threshold interval, low to high, as codes (positions
# in CATEGORIES), by stage and whether the variant is MappedAlpha, which has
# no Balance band.
_INTERVAL_CODES = {
    key: np.array([CATEGORIES.index(c) for c in categories])
    for key, categories in {
        (2, True): (_C.DISFAVOUR, _C.FAVOUR),
        (2, False): (_C.DISFAVOUR, _C.BALANCE, _C.FAVOUR),
        (3, True): (_C.DROP, _C.DISFAVOUR, _C.FAVOUR, _C.KEEP),
        (3, False): (_C.DROP, _C.DISFAVOUR, _C.BALANCE, _C.FAVOUR, _C.KEEP),
    }.items()
}


def decide_category(
    pi_k: float, stage: int, config: MappingConfig
) -> AdaptationCategory:
    """Category for one active arm's probability share.

    Intervals are half-open [p_{j-1}, p_j) with p_0 = 0 and the top interval
    closed at 1, so the function is total on [0, 1].
    """
    if not (0.0 <= pi_k <= 1.0) or not math.isfinite(pi_k):
        raise ValueError(f"probability share outside [0,1]: {pi_k}")
    return CATEGORIES[int(category_codes(pi_k, stage, config))]


def category_codes(shares, stage: int, config: MappingConfig) -> np.ndarray:
    """decide_category of each share in an array, as positions in
    CATEGORIES. The cuts ascend, so the first interval [p_{j-1}, p_j) that
    holds a share is the one after the cuts at or below it."""
    if config.thresholds is None:
        raise ValueError(f"variant {config.variant} has no thresholds to apply")
    if stage not in (2, 3):
        raise ValueError(f"categories are defined for stages 2 and 3, got {stage}")
    cuts = config.thresholds.stage2 if stage == 2 else config.thresholds.stage3
    codes = _INTERVAL_CODES[stage, config.variant == "MappedAlpha"]
    return codes[np.searchsorted(cuts, shares, side="right")]


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
    one, or for a stage-3 single Disfavour or single Favour the two that a
    fair coin picks between, in the coin's order."""
    if len(categories) != 2:
        raise ValueError("exactly two active arms are supported")
    if stage == 2:
        return _stage2_options(categories)
    if stage == 3:
        return _stage3_options(categories)
    raise ValueError(f"mapped stages are 2 and 3, got {stage}")


def active_shares(pi: ProbVector) -> tuple[float, float]:
    """Active-arm probability shares renormalised to sum to 1.

    The control-protected rule builds its active weights on this scale before
    the control term joins, so renormalising the final vector recovers the raw
    shares the thresholds are defined on.
    """
    (shares,) = active_share_rows(np.array([pi.probs])).tolist()
    return tuple(shares)


def active_share_rows(pi: np.ndarray) -> np.ndarray:
    """active_shares of each row of a (rows, K) array of probabilities, as
    (rows, 2): arms 1 and 2 over their sum, or 1/2 each where it is 0."""
    total = pi[:, 1:2] + pi[:, 2:3]
    positive = total > 0
    return np.where(positive, pi[:, 1:3], 0.5) / np.where(positive, total, 1.0)


def planned_ratio(design: TrialDesign, stage: int) -> RatioVector | None:
    """The ratio a stage runs whatever the data: the balanced first block of
    mapped designs and of designs with stage1_balanced_block, and every stage
    of the PermutedBlock schedule (2:2:2, 2:2:2, 2:3:3). None where the
    interim's data (allocation_options) or i.i.d. assignment decide it."""
    if not 1 <= stage <= design.n_stages:
        raise ValueError(f"stage {stage} outside 1..{design.n_stages}")
    if stage == 1 and (design.mapping is not None or design.stage1_balanced_block):
        return RatioVector((design.stages[0].size // design.k,) * design.k)
    if design.mapping is not None and design.mapping.variant == "PermutedBlock":
        return BALANCED[stage]
    return None
