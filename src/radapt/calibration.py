"""Threshold calibration: sweep a mapped design's top adaptation threshold
of one stage over a grid and weigh false against useful adaptation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .core import TrialDesign, validate_design
from .engine import MissingPolicy, _fmt, replicate
from .outcomes import CALIBRATED_SIGMA, DEFAULT_SHAPE, MissingCase, OutcomeModel

__all__ = [
    "CalibrationRow",
    "CalibrationResult",
    "calibrate_threshold",
    "write_tradeoff_csv",
]


@dataclass(frozen=True)
class CalibrationRow:
    """One grid point: threshold, null-scenario metric, effect-scenario metric."""

    threshold: float
    metric_h0: float
    metric_h1: float
    pareto: bool


@dataclass(frozen=True)
class CalibrationResult:
    stage: int
    criterion: str
    selected: float | None
    rows: tuple[CalibrationRow, ...]


def _with_threshold(design: TrialDesign, stage: int, g: float) -> TrialDesign:
    """Grid design: substitute the stage's top threshold, clamping the lower
    interior thresholds down to keep the cut-points non-decreasing."""
    mapping = design.mapping
    th = mapping.thresholds
    if stage == 2:
        if len(th.stage2) == 1:
            stage2 = (g,)
        else:
            stage2 = (min(th.stage2[0], g), g)
        new_th = replace(th, stage2=stage2)
    else:
        lower = tuple(min(c, g) for c in th.stage3[1:-1])
        new_th = replace(th, stage3=(th.stage3[0],) + lower + (g,))
    candidate = replace(design, mapping=replace(mapping, thresholds=new_th))
    problems = validate_design(candidate)
    if problems:
        raise ValueError(
            f"threshold {g} at stage {stage} yields an invalid design: "
            + "; ".join(problems)
        )
    return candidate


def _pareto_flags(points: list[tuple[float, float]]) -> list[bool]:
    # maximise metric_h1, minimise metric_h0
    flags = []
    for i, (h0_i, h1_i) in enumerate(points):
        dominated = any(
            (h0_j <= h0_i and h1_j >= h1_i) and (h0_j < h0_i or h1_j > h1_i)
            for j, (h0_j, h1_j) in enumerate(points)
            if j != i
        )
        flags.append(not dominated)
    return flags


def calibrate_threshold(
    design: TrialDesign,
    stage: int,
    grid,
    n_reps: int = 1000,
    master_seed: int = 0,
    h0_effects: tuple[float, ...] = (0.0, 0.0, 0.0),
    h1_effects: tuple[float, ...] = (0.0, 0.0, 0.3),
    case: MissingCase | None = None,
    policy: MissingPolicy = MissingPolicy(),
    workers: int = 1,
    criterion: str = "corner",
    scale: float = CALIBRATED_SIGMA,
    shape: float = DEFAULT_SHAPE,
) -> CalibrationResult:
    """Sweep the stage's top adaptation threshold over a grid.

    The target metric is the stage-2 adaptation rate for stage 2 and the
    rate of some active arm receiving zero stage-3 patients for stage 3,
    evaluated under the null effects (false adaptation) and under the
    alternative effects (useful adaptation). All grid points share the same
    replicate seeds, so differences between rows are never seed noise.

    criterion "corner" selects the threshold minimising the Euclidean
    distance to the ideal point (metric 0 under the null, metric 1 under the
    alternative), ties to the smaller threshold; "pareto" only flags the
    non-dominated rows and selects nothing.
    """
    if design.mapping is None or design.mapping.thresholds is None:
        raise ValueError("threshold calibration needs a mapped design")
    if stage not in (2, 3):
        raise ValueError(f"calibration stage must be 2 or 3, got {stage}")
    if criterion not in ("corner", "pareto"):
        raise ValueError(f"unknown criterion {criterion!r}")
    grid = tuple(float(g) for g in grid)
    if not grid:
        raise ValueError("empty threshold grid")

    model_h0 = OutcomeModel.parametric(h0_effects, scale=scale, shape=shape)
    model_h1 = OutcomeModel.parametric(h1_effects, scale=scale, shape=shape)

    metric = "stage2_adapt" if stage == 2 else "stage3_zero"
    rows = []
    for g in grid:
        d_g = _with_threshold(design, stage, g)
        h0, h1 = (
            replicate(
                d_g, model, case=case, policy=policy, n_reps=n_reps,
                master_seed=master_seed, workers=workers,
            ).rates[metric]
            for model in (model_h0, model_h1)
        )
        rows.append((g, h0, h1))

    flags = _pareto_flags([(m0, m1) for _, m0, m1 in rows])
    out_rows = tuple(
        CalibrationRow(g, m0, m1, flag)
        for (g, m0, m1), flag in zip(rows, flags)
    )
    selected = None
    if criterion == "corner":
        best = min(
            out_rows,
            key=lambda r: (math.hypot(r.metric_h0, 1.0 - r.metric_h1), r.threshold),
        )
        selected = best.threshold
    return CalibrationResult(
        stage=stage, criterion=criterion, selected=selected, rows=out_rows
    )


def write_tradeoff_csv(result: CalibrationResult, path: str | Path) -> None:
    """Calibration sweep, one row per grid point.

    Pareto flags and the selected threshold stay on the CalibrationResult;
    the file carries only the sweep itself.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["threshold", "metric_H0", "metric_H1"])
        for row in result.rows:
            writer.writerow(
                [_fmt(row.threshold), _fmt(row.metric_h0), _fmt(row.metric_h1)]
            )
