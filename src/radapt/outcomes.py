"""Continuous outcome generation, dichotomisation and missingness.

Outcomes are differences from baseline (delta_y). The parametric model draws
mu_k + sigma * Z with Z a centered, unit-variance log-normal shape (skewed on
purpose); the bootstrap model resamples a pilot dataset uniformly and adds the
arm's location shift. Missingness is applied uniformly at random within a
stage.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "OutcomeModel",
    "PatientRecord",
    "MissingCase",
    "Scenario",
    "SCENARIOS",
    "CALIBRATED_SIGMA",
    "DEFAULT_SHAPE",
    "outcomes_from_raw",
    "dichotomise",
    "load_pilot",
]

# Outcome noise scale for the parametric model, calibrated by
# scripts/calibrate_outcome_scale.py so the FixedEqual design at effect 0.4,
# n=20, alpha=0.1 lands at power 0.748.
CALIBRATED_SIGMA = 0.398

# Log-normal sigma of the underlying normal for the skewed noise shape.
DEFAULT_SHAPE = 0.6

# The largest outcome noise scale. A standardised noise draw stays below 10**4
# in size (numpy's normals stay below 14), so outcomes, and sums of a trial's
# outcomes, stay finite up to this scale; past it they can overflow.
MAX_SCALE = 1e300


# The largest effect, and the largest pilot value, in size. An outcome is
# its arm's effect plus a pilot value or at most MAX_SCALE times a
# standardised draw below 10**4, so outcomes stay below 2e304 in size and
# sums over a trial's or a pooled sample's outcomes (the imputed means, the
# final tests) stay finite; past it they can overflow. It also keeps every
# outcome below the +inf that rank_sum_rows pads with.
MAX_EFFECT = 1e300


def _check_effects(values, name: str = "effects") -> None:
    """Refuse effects (or pilot values) that are not finite or are above
    MAX_EFFECT in size, naming the first."""
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise ValueError(f"{name} must be finite, got {bad[0]}")
    big = [v for v in values if abs(v) > MAX_EFFECT]
    if big:
        raise ValueError(
            f"{name} must be at most {MAX_EFFECT:g} in size, or outcomes can "
            f"overflow; got {big[0]:g}"
        )


def _check_scale(scale: float, name: str = "scale") -> None:
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"{name} must be finite and positive, got {scale}")
    if scale > MAX_SCALE:
        raise ValueError(
            f"{name} must be at most {MAX_SCALE:g}, or outcomes can overflow; "
            f"got {scale:g}"
        )


@dataclass(frozen=True)
class OutcomeModel:
    """Per-arm outcome distribution: parametric noise or pilot resampling.

    effects[k] is E[delta_y for arm k] - E[delta_y for control]; the control
    entry is 0 by construction.
    """

    kind: str  # "parametric" | "bootstrap"
    effects: tuple[float, ...]
    scale: float = CALIBRATED_SIGMA
    pilot: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("parametric", "bootstrap"):
            raise ValueError(f"unknown outcome model kind {self.kind!r}")
        if self.kind == "bootstrap" and not self.pilot:
            raise ValueError("bootstrap model needs a non-empty pilot sample")
        _check_scale(self.scale)
        _check_effects(self.effects)
        _check_effects(self.pilot, "pilot values")

    @staticmethod
    def parametric(
        effects: tuple[float, ...], scale: float = CALIBRATED_SIGMA
    ) -> "OutcomeModel":
        return OutcomeModel(kind="parametric", effects=effects, scale=scale)

    @staticmethod
    def bootstrap(
        pilot: tuple[float, ...], effects: tuple[float, ...]
    ) -> "OutcomeModel":
        return OutcomeModel(kind="bootstrap", effects=effects, pilot=pilot)


@dataclass(frozen=True)
class PatientRecord:
    """One patient: stage, arm label, outcome (None while missing), imputed
    flag."""

    patient_id: int
    stage: int
    arm: str
    delta_y: float | None
    imputed: bool = False

    @property
    def missing(self) -> bool:
        return self.delta_y is None


@dataclass(frozen=True)
class MissingCase:
    """One of six missing-data patterns: per-stage missing counts
    (m1, m2, m3), fixed by the case id; m3 is always 0."""

    case_id: int

    _CASES = {
        0: (0, 0, 0),
        1: (1, 0, 0),
        2: (2, 0, 0),
        3: (0, 1, 0),
        4: (0, 2, 0),
        5: (1, 1, 0),
    }

    def __post_init__(self) -> None:
        if self.case_id not in self._CASES:
            raise ValueError(f"case id must be 0..5, got {self.case_id}")

    def count_for_stage(self, stage: int) -> int:
        if not 1 <= stage <= 3:
            return 0
        return self._CASES[self.case_id][stage - 1]


@dataclass(frozen=True)
class Scenario:
    """Effect vectors (C, T1, T2) for the two mutation strata."""

    scenario_id: str
    effects_a: tuple[float, float, float]
    effects_b: tuple[float, float, float]


SCENARIOS: dict[str, Scenario] = {
    s.scenario_id: s
    for s in (
        Scenario("S1", (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        Scenario("S2", (0.0, 0.0, 0.3), (0.0, 0.0, 0.3)),
        Scenario("S3", (0.0, 0.2, 0.3), (0.0, 0.2, 0.3)),
        Scenario("S4", (0.0, 0.3, 0.4), (0.0, 0.3, 0.4)),
        Scenario("S5", (0.0, 0.0, 0.2), (0.0, 0.0, 0.3)),
        Scenario("S6", (0.0, 0.0, 0.3), (0.0, 0.0, 0.4)),
        Scenario("S7", (0.0, 0.0, 0.0), (0.0, 0.0, 0.3)),
        Scenario("S8", (0.0, 0.0, 0.3), (0.0, 0.3, 0.3)),
        Scenario("S9", (0.0, 0.3, 0.0), (0.0, 0.0, 0.3)),
    )
}


def outcomes_from_raw(
    model: OutcomeModel, arms: np.ndarray, raw: np.ndarray
) -> np.ndarray:
    """delta_y for raw draws: a pilot index for the bootstrap model, a
    LogNormal(0, DEFAULT_SHAPE) value for the parametric one. raw[i] belongs
    to a patient on arm index arms[i] (any array shape, the same for both)."""
    shift = np.asarray(model.effects, dtype=float)[arms]
    if model.kind == "bootstrap":
        return np.asarray(model.pilot, dtype=float)[raw] + shift
    # L ~ LogNormal(0, DEFAULT_SHAPE) shifted and scaled to mean 0, variance 1.
    s2 = DEFAULT_SHAPE**2
    mean = math.exp(s2 / 2)
    sd = math.sqrt((math.exp(s2) - 1.0) * math.exp(s2))
    return shift + model.scale * ((raw - mean) / sd)


def dichotomise(delta_y: float, delta: float) -> bool:
    """Success indicator: delta_y >= delta (inclusive at the cutoff)."""
    if delta_y is None:
        raise ValueError("cannot dichotomise a missing outcome; filter first")
    if not (math.isfinite(delta_y) and math.isfinite(delta)):
        raise ValueError(f"non-finite inputs: {delta_y}, {delta}")
    return delta_y >= delta


def load_pilot(path: str | Path) -> tuple[float, ...]:
    """Read a pilot dataset CSV: single `delta_y` column, header mandatory."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["delta_y"]:
                raise ValueError(f"{path}: expected single-column header 'delta_y'")
            values = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    value = float(row[0])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: not a number: {row[0]!r}") from exc
                if not math.isfinite(value):
                    raise ValueError(f"{path}:{lineno}: delta_y must be finite: {row[0]!r}")
                if abs(value) > MAX_EFFECT:
                    raise ValueError(
                        f"{path}:{lineno}: delta_y must be at most {MAX_EFFECT:g} "
                        f"in size, or outcomes can overflow: {row[0]!r}"
                    )
                values.append(value)
    except OSError as exc:
        raise OSError(f"cannot read pilot data from {path}: {exc}") from exc
    if not values:
        raise ValueError(f"{path}: pilot dataset is empty")
    return tuple(values)
