"""Continuous outcome generation, dichotomisation, missingness, and imputation.

Outcomes are differences from baseline (delta_y). The parametric model draws
mu_k + sigma * Z with Z a centered, unit-variance log-normal shape (skewed on
purpose); the bootstrap model resamples a pilot dataset uniformly and adds the
arm's location shift. Missingness is applied uniformly at random within a
stage; mean imputation is available for stage 2 only.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import ArmId

__all__ = [
    "OutcomeModel",
    "PatientRecord",
    "MissingCase",
    "Scenario",
    "SCENARIOS",
    "CALIBRATED_SIGMA",
    "DEFAULT_SHAPE",
    "draw_outcome",
    "draw_raw",
    "outcomes_from_raw",
    "dichotomise",
    "apply_missingness",
    "mark_missing",
    "impute_stage2_mean",
    "load_pilot",
]

# Outcome noise scale for the parametric model, calibrated by
# scripts/calibrate_outcome_scale.py so the FixedEqual design at effect 0.4,
# n=20, alpha=0.1 lands at power 0.748.
CALIBRATED_SIGMA = 0.398

# Log-normal sigma of the underlying normal for the skewed noise shape.
DEFAULT_SHAPE = 0.6


@dataclass(frozen=True)
class OutcomeModel:
    """Per-arm outcome distribution: parametric noise or pilot resampling.

    effects[k] is E[delta_y for arm k] - E[delta_y for control]; the control
    entry is 0 by construction.
    """

    kind: str  # "parametric" | "bootstrap"
    effects: tuple[float, ...]
    scale: float = CALIBRATED_SIGMA
    shape: float = DEFAULT_SHAPE
    pilot: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("parametric", "bootstrap"):
            raise ValueError(f"unknown outcome model kind {self.kind!r}")
        if self.kind == "bootstrap" and not self.pilot:
            raise ValueError("bootstrap model needs a non-empty pilot sample")
        if self.kind == "parametric" and self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if any(not math.isfinite(e) for e in self.effects):
            raise ValueError(f"effects must be finite: {self.effects}")

    @staticmethod
    def parametric(
        effects: tuple[float, ...],
        scale: float = CALIBRATED_SIGMA,
        shape: float = DEFAULT_SHAPE,
    ) -> "OutcomeModel":
        return OutcomeModel(kind="parametric", effects=effects, scale=scale, shape=shape)

    @staticmethod
    def bootstrap(
        pilot: tuple[float, ...], effects: tuple[float, ...]
    ) -> "OutcomeModel":
        return OutcomeModel(kind="bootstrap", effects=effects, pilot=pilot)


@dataclass(frozen=True)
class PatientRecord:
    """One patient: stage, arm, outcome (None while missing), imputed flag."""

    patient_id: int
    stage: int
    arm: ArmId
    delta_y: float | None
    imputed: bool = False

    @property
    def missing(self) -> bool:
        return self.delta_y is None


@dataclass(frozen=True)
class MissingCase:
    """Per-stage missing-data counts (m1, m2, m3); m3 is always 0."""

    case_id: int
    missing_per_stage: tuple[int, int, int]

    _CASES = {
        0: (0, 0, 0),
        1: (1, 0, 0),
        2: (2, 0, 0),
        3: (0, 1, 0),
        4: (0, 2, 0),
        5: (1, 1, 0),
    }

    def __post_init__(self) -> None:
        expected = self._CASES.get(self.case_id)
        if expected is None or self.missing_per_stage != expected:
            raise ValueError(
                f"case {self.case_id} with counts {self.missing_per_stage} is not "
                f"one of the six supported patterns"
            )

    @classmethod
    def from_id(cls, case_id: int) -> "MissingCase":
        if case_id not in cls._CASES:
            raise ValueError(f"case id must be 0..5, got {case_id}")
        return cls(case_id, cls._CASES[case_id])

    def count_for_stage(self, stage: int) -> int:
        if not 1 <= stage <= 3:
            return 0
        return self.missing_per_stage[stage - 1]


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


def draw_outcome(model: OutcomeModel, arm: ArmId, rng: np.random.Generator) -> float:
    """One delta_y draw for the given arm."""
    raw = draw_raw(model, 1, rng)
    return float(outcomes_from_raw(model, np.array([arm.index]), raw)[0])


def draw_raw(model: OutcomeModel, size: int, rng: np.random.Generator) -> np.ndarray:
    """The generator draws behind `size` consecutive draw_outcome calls, in
    one call: the same values, and the generator left in the same state."""
    if model.kind == "bootstrap":
        return rng.integers(len(model.pilot), size=size)
    return rng.lognormal(0.0, model.shape, size)


def outcomes_from_raw(
    model: OutcomeModel, arms: np.ndarray, raw: np.ndarray
) -> np.ndarray:
    """delta_y for each draw of draw_raw: raw[i] belongs to a patient on arm
    index arms[i] (any array shape, the same for both)."""
    shift = np.asarray(model.effects, dtype=float)[arms]
    if model.kind == "bootstrap":
        return np.asarray(model.pilot, dtype=float)[raw] + shift
    # L ~ LogNormal(0, shape) shifted and scaled to mean 0, variance 1.
    mean = math.exp(model.shape**2 / 2)
    sd = math.sqrt((math.exp(model.shape**2) - 1.0) * math.exp(model.shape**2))
    return shift + model.scale * ((raw - mean) / sd)


def dichotomise(delta_y: float, delta: float) -> bool:
    """Success indicator: delta_y >= delta (inclusive at the cutoff)."""
    if delta_y is None:
        raise ValueError("cannot dichotomise a missing outcome; filter first")
    if not (math.isfinite(delta_y) and math.isfinite(delta)):
        raise ValueError(f"non-finite inputs: {delta_y}, {delta}")
    return delta_y >= delta


def mark_missing(
    records: list[PatientRecord], count: int, rng: np.random.Generator
) -> list[PatientRecord]:
    """Mark `count` uniformly chosen records as missing (all-or-nothing)."""
    if count == 0:
        return list(records)
    if count > len(records):
        raise ValueError(f"cannot drop {count} of {len(records)} records")
    chosen = set(rng.choice(len(records), size=count, replace=False).tolist())
    return [
        replace(r, delta_y=None, imputed=False) if i in chosen else r
        for i, r in enumerate(records)
    ]


def apply_missingness(
    records: list[PatientRecord], case: MissingCase, rng: np.random.Generator
) -> list[PatientRecord]:
    """Apply the case's per-stage missing counts; assignments untouched."""
    out: list[PatientRecord] = []
    stages = sorted({r.stage for r in records})
    by_stage = {t: [r for r in records if r.stage == t] for t in stages}
    for t in stages:
        out.extend(mark_missing(by_stage[t], case.count_for_stage(t), rng))
    out.sort(key=lambda r: r.patient_id)
    return out


def impute_stage2_mean(records: list[PatientRecord]) -> list[PatientRecord]:
    """Replace stage-2 missing outcomes by their arm's observed mean so far.

    Donors are the observed (never imputed) values in the same arm accrued
    before the missing record, in patient order; stage-1 missing records are
    left untouched. A stage-2 record with no donors stays missing and emits a
    warning.
    """
    ordered = sorted(records, key=lambda r: r.patient_id)
    out: list[PatientRecord] = []
    for rec in ordered:
        if rec.stage == 2 and rec.missing:
            donors = [
                r.delta_y
                for r in ordered
                if r.arm.index == rec.arm.index
                and r.patient_id < rec.patient_id
                and r.delta_y is not None
                and not r.imputed
            ]
            if donors:
                out.append(replace(rec, delta_y=float(np.mean(donors)), imputed=True))
            else:
                warnings.warn(
                    f"no observed values in arm {rec.arm.label} before patient "
                    f"{rec.patient_id}; record left missing",
                    stacklevel=2,
                )
                out.append(rec)
        else:
            out.append(rec)
    return out


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
                    values.append(float(row[0]))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: not a number: {row[0]!r}") from exc
    except OSError as exc:
        raise OSError(f"cannot read pilot data from {path}: {exc}") from exc
    if not values:
        raise ValueError(f"{path}: pilot dataset is empty")
    return tuple(values)
