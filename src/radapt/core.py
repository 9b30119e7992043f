"""Domain types, design configuration, and validation shared by every module.

A trial design is a static, immutable description of one stratum: its stages,
its allocation rule, the optional probability-to-ratio mapping, priors, and
thresholds. All other modules consume designs only through this module, and a
design can round-trip through the external JSON schema (`design_to_dict` /
`design_from_dict`) without changing its validation outcome.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .analysis import EXACT_CELL_GUARD, table_cells

__all__ = [
    "ArmId",
    "StagePlan",
    "RuleConfig",
    "ThresholdSet",
    "MappingConfig",
    "TrialDesign",
    "default_arms",
    "validate_design",
    "design_to_dict",
    "design_from_dict",
    "load_design",
    "save_design",
    "DEFAULT_TAU",
    "DEFAULT_DELTA",
    "DEFAULT_ALPHA_LEVEL",
    "DEFAULT_ETA",
]

CONTROL = "Control"
ACTIVE = "Active"

RULE_KINDS = ("FixedEqual", "TSBRAR", "TrippaBRAR")
EXPONENT_FORMS = ("ProductForm", "PowerForm")
MAPPING_VARIANTS = ("MappedAlpha", "MappedBeta", "PermutedBlock")

DEFAULT_TAU = 0.1
DEFAULT_DELTA = 0.3
DEFAULT_ALPHA_LEVEL = 0.1

# Control-weight exponent for the control-protected rule, calibrated by
# scripts/calibrate_control_weight.py so that the mean control allocation of
# the ControlProtected design stays near 1/3 under equal arm effects.
DEFAULT_ETA = 0.322


@dataclass(frozen=True)
class ArmId:
    """One treatment arm: positional index, role, and display label."""

    index: int
    role: str
    label: str

    def __post_init__(self) -> None:
        if self.role not in (CONTROL, ACTIVE):
            raise ValueError(f"unknown arm role {self.role!r}")

    @property
    def is_control(self) -> bool:
        return self.role == CONTROL


def default_arms(k: int = 3) -> tuple[ArmId, ...]:
    """Arm set with arm 0 as control, labelled C, T1, T2, ..."""
    if k < 2:
        raise ValueError("need at least two arms")
    arms = [ArmId(0, CONTROL, "C")]
    arms += [ArmId(i, ACTIVE, f"T{i}") for i in range(1, k)]
    return tuple(arms)


@dataclass(frozen=True)
class StagePlan:
    """Size and restrictions of one accrual stage.

    Parameters
    ----------
    stage_index : int
        1-based stage number.
    size : int
        Patients accrued in this stage.
    control_fix : int | None
        Exact number of control patients in this stage, when the design
        restricts it (mapped designs fix 2 per stage). None = unrestricted.
    arm_dropping_allowed : bool
        Whether an active arm may receive zero patients in this stage.
    """

    stage_index: int
    size: int
    control_fix: int | None = None
    arm_dropping_allowed: bool = False


@dataclass(frozen=True)
class RuleConfig:
    """Continuous randomisation rule and its stage-varying hyper-parameters.

    `gamma_schedule` and `eta_schedule` are indexed by adaptive stage: entry 0
    applies to the interim before stage 2, entry 1 before stage 3, and so on.
    `eta_schedule` is only consulted by the control-protected rule kind.
    """

    kind: str
    gamma_schedule: tuple[float, ...] = ()
    eta_schedule: tuple[float, ...] = ()
    control_exponent_form: str = "ProductForm"

    def gamma_for_stage(self, stage: int) -> float:
        return self.gamma_schedule[stage - 2]

    def eta_for_stage(self, stage: int) -> float:
        return self.eta_schedule[stage - 2]


@dataclass(frozen=True)
class ThresholdSet:
    """Probability cut-points splitting [0, 1] into adaptation categories.

    stage2 and stage3 are the ordered interior thresholds for the stage-2 and
    stage-3 decisions. Arity depends on the mapping variant:

    - MappedAlpha: stage2 = (p21,), stage3 = (p31, p32, p33)
    - MappedBeta:  stage2 = (p21_lo, p21_hi), stage3 = (p31, p32_lo, p32_hi, p33)

    The first stage-3 threshold is the arm-dropping threshold tau.
    """

    stage2: tuple[float, ...]
    stage3: tuple[float, ...]

    @staticmethod
    def alpha_defaults(tau: float = DEFAULT_TAU) -> "ThresholdSet":
        return ThresholdSet(stage2=(0.45,), stage3=(tau, 0.45, 0.55))

    @staticmethod
    def beta_defaults(tau: float = DEFAULT_TAU) -> "ThresholdSet":
        return ThresholdSet(stage2=(1 / 3, 0.45), stage3=(tau, 1 / 3, 0.45, 0.55))


@dataclass(frozen=True)
class MappingConfig:
    """Probability-to-ratio mapping variant plus its thresholds."""

    variant: str
    thresholds: ThresholdSet | None = None
    control_fix: int = 2


@dataclass(frozen=True)
class TrialDesign:
    """Complete static specification of a one-stratum design."""

    stages: tuple[StagePlan, ...]
    rule: RuleConfig
    mapping: MappingConfig | None = None
    arms: tuple[ArmId, ...] = field(default_factory=default_arms)
    prior_alpha: tuple[float, ...] = (1.0, 1.0, 1.0)
    prior_beta: tuple[float, ...] = (1.0, 1.0, 1.0)
    delta: float = DEFAULT_DELTA
    tau: float = DEFAULT_TAU
    alpha_level: float = DEFAULT_ALPHA_LEVEL
    planned_n: int | None = None
    stratum_label: str = "A"
    name: str = "custom"
    # Baseline-style extras for designs without a mapping: run stage 1 as a
    # balanced restricted block, and drop actives whose raw share falls below
    # tau at the last interim.
    stage1_balanced_block: bool = False
    tau_dropping: bool = False

    @property
    def k(self) -> int:
        return len(self.arms)

    @property
    def n_total(self) -> int:
        return sum(s.size for s in self.stages)

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def control_index(self) -> int:
        for arm in self.arms:
            if arm.is_control:
                return arm.index
        raise ValueError("design has no control arm")

    def active_indices(self) -> tuple[int, ...]:
        return tuple(a.index for a in self.arms if not a.is_control)

    def with_tau(self, tau: float) -> "TrialDesign":
        """Copy with a new drop threshold, keeping thresholds consistent."""
        mapping = self.mapping
        if mapping is not None and mapping.thresholds is not None:
            th = mapping.thresholds
            mapping = replace(
                mapping, thresholds=replace(th, stage3=(tau,) + th.stage3[1:])
            )
        return replace(self, tau=tau, mapping=mapping)


def validate_design(design: TrialDesign) -> list[str]:
    """Collect every invariant violation; an empty list means valid.

    Violations are data, not exceptions: each entry is a human-readable
    message naming the failed constraint.
    """
    v: list[str] = []
    k = design.k

    if k < 2:
        v.append(f"need at least 2 arms, got {k}")
    controls = [a for a in design.arms if a.is_control]
    if len(controls) != 1:
        v.append(f"exactly one control arm required, got {len(controls)}")
    labels = [a.label for a in design.arms]
    if len(set(labels)) != len(labels):
        v.append(f"arm labels not unique: {labels}")
    if tuple(a.index for a in design.arms) != tuple(range(k)):
        v.append("arm indices must be 0..K-1 in order")

    if not design.stages:
        v.append("design has no stages")
    for i, plan in enumerate(design.stages, start=1):
        if plan.stage_index != i:
            v.append(f"stage {i} has stage_index {plan.stage_index}")
        if plan.size <= 0:
            v.append(f"stage {i} size must be positive, got {plan.size}")
        if plan.control_fix is None:
            if plan.size < k:
                v.append(f"stage {i} size {plan.size} smaller than K={k}")
        elif not 0 <= plan.control_fix <= plan.size:
            v.append(
                f"stage {i} control_fix {plan.control_fix} outside [0, {plan.size}]"
            )
    if design.stages and design.stages[0].arm_dropping_allowed:
        v.append("stage 1 never allows arm dropping")
    if design.stage1_balanced_block and design.stages and k:
        size = design.stages[0].size
        if size % k:
            v.append(
                f"balanced stage-1 block needs a stage-1 size divisible by "
                f"K={k}, got {size}"
            )

    if design.planned_n is not None and design.planned_n != design.n_total:
        v.append(
            f"declared stratum size {design.planned_n} != sum of stage sizes "
            f"{design.n_total}"
        )
    if table_cells(2 * design.n_total) > EXACT_CELL_GUARD:
        v.append(
            f"stratum of {design.n_total} patients: two pooled strata must fit "
            f"the exact rank-sum table, which takes strata of at most "
            f"{_largest_stratum()} patients"
        )

    if not 0.0 <= design.tau <= 0.2:
        v.append(f"tau outside [0,0.2]: {design.tau}")
    if not math.isfinite(design.delta):
        v.append(f"delta not finite: {design.delta}")
    if not 0.0 < design.alpha_level < 1.0:
        v.append(f"alpha_level outside (0,1): {design.alpha_level}")

    if len(design.prior_alpha) != k or len(design.prior_beta) != k:
        v.append("prior parameter tuples must have one entry per arm")
    for name, params in (("prior_alpha", design.prior_alpha),
                         ("prior_beta", design.prior_beta)):
        if any(not (math.isfinite(p) and p > 0) for p in params):
            v.append(f"{name} entries must be positive finite reals")

    v.extend(_validate_rule(design))
    if design.mapping is not None:
        v.extend(_validate_mapping(design))
    return v


def _largest_stratum() -> int:
    n = 1
    while table_cells(2 * n + 2) <= EXACT_CELL_GUARD:
        n += 1
    return n


def _validate_rule(design: TrialDesign) -> list[str]:
    v: list[str] = []
    rule = design.rule
    if rule.kind not in RULE_KINDS:
        v.append(f"unknown rule kind {rule.kind!r}")
        return v
    if rule.control_exponent_form not in EXPONENT_FORMS:
        v.append(f"unknown control exponent form {rule.control_exponent_form!r}")
    n_adaptive = max(design.n_stages - 1, 0)
    if rule.kind != "FixedEqual":
        if len(rule.gamma_schedule) < n_adaptive:
            v.append(
                f"gamma_schedule covers {len(rule.gamma_schedule)} stages, "
                f"{n_adaptive} adaptive stages need one each"
            )
        if any(g < 0 for g in rule.gamma_schedule):
            v.append("gamma_schedule entries must be >= 0")
    if rule.kind == "TrippaBRAR":
        if len(rule.eta_schedule) < n_adaptive:
            v.append(
                f"eta_schedule covers {len(rule.eta_schedule)} stages, "
                f"{n_adaptive} adaptive stages need one each"
            )
        if any(e < 0 for e in rule.eta_schedule):
            v.append("eta_schedule entries must be >= 0")
    return v


def _validate_mapping(design: TrialDesign) -> list[str]:
    v: list[str] = []
    mapping = design.mapping
    assert mapping is not None
    if mapping.variant not in MAPPING_VARIANTS:
        v.append(f"unknown mapping variant {mapping.variant!r}")
        return v
    if design.k != 3:
        v.append(f"mapping requires K=3 (one control, two actives), got K={design.k}")
    # Every variant's ratios (2:2:2, 2:2:2, then 2:3:3 or a mapped stage-3
    # ratio) fill stages of sizes (6, 6, 8).
    sizes = tuple(s.size for s in design.stages)
    if sizes != (6, 6, 8):
        v.append(f"mapped designs require stage sizes (6, 6, 8), got {sizes}")
    if mapping.variant == "PermutedBlock":
        return v

    # The ratio menu assumes 2 controls per stage.
    if mapping.control_fix != 2:
        v.append(f"mapped designs fix 2 controls per stage, got {mapping.control_fix}")

    th = mapping.thresholds
    if th is None:
        v.append("mapped variant needs a ThresholdSet")
        return v
    want2, want3 = (1, 3) if mapping.variant == "MappedAlpha" else (2, 4)
    if len(th.stage2) != want2:
        v.append(f"{mapping.variant} needs {want2} stage-2 threshold(s), got {len(th.stage2)}")
    if len(th.stage3) != want3:
        v.append(f"{mapping.variant} needs {want3} stage-3 threshold(s), got {len(th.stage3)}")
    for stage_name, cuts in (("stage2", th.stage2), ("stage3", th.stage3)):
        if any(not 0.0 <= c <= 1.0 for c in cuts):
            v.append(f"{stage_name} thresholds must lie in [0,1]: {cuts}")
        if any(a > b for a, b in zip(cuts, cuts[1:])):
            v.append(f"{stage_name} thresholds must be non-decreasing: {cuts}")
    if th.stage3 and th.stage3[0] != design.tau:
        v.append(
            f"first stage-3 threshold {th.stage3[0]} must equal the design tau "
            f"{design.tau}"
        )
    return v


# ---------------------------------------------------------------------------
# JSON design schema (documented field-by-field in README.md)

def design_to_dict(design: TrialDesign) -> dict:
    d: dict = {
        "name": design.name,
        "stratum_label": design.stratum_label,
        "arms": [
            {"index": a.index, "role": a.role, "label": a.label}
            for a in design.arms
        ],
        "stages": [
            {
                "stage_index": s.stage_index,
                "size": s.size,
                "control_fix": s.control_fix,
                "arm_dropping_allowed": s.arm_dropping_allowed,
            }
            for s in design.stages
        ],
        "rule": {
            "kind": design.rule.kind,
            "gamma_schedule": list(design.rule.gamma_schedule),
            "eta_schedule": list(design.rule.eta_schedule),
            "control_exponent_form": design.rule.control_exponent_form,
        },
        "mapping": None,
        "prior_alpha": list(design.prior_alpha),
        "prior_beta": list(design.prior_beta),
        "delta": design.delta,
        "tau": design.tau,
        "alpha_level": design.alpha_level,
        "planned_n": design.planned_n,
        "stage1_balanced_block": design.stage1_balanced_block,
        "tau_dropping": design.tau_dropping,
    }
    if design.mapping is not None:
        m: dict = {
            "variant": design.mapping.variant,
            "control_fix": design.mapping.control_fix,
            "thresholds": None,
        }
        if design.mapping.thresholds is not None:
            m["thresholds"] = {
                "stage2": list(design.mapping.thresholds.stage2),
                "stage3": list(design.mapping.thresholds.stage3),
            }
        d["mapping"] = m
    return d


def design_from_dict(d: dict) -> TrialDesign:
    try:
        arms = tuple(
            ArmId(a["index"], a["role"], a["label"]) for a in d["arms"]
        )
        stages = tuple(
            StagePlan(
                stage_index=s["stage_index"],
                size=s["size"],
                control_fix=s.get("control_fix"),
                arm_dropping_allowed=s.get("arm_dropping_allowed", False),
            )
            for s in d["stages"]
        )
        r = d["rule"]
        rule = RuleConfig(
            kind=r["kind"],
            gamma_schedule=tuple(r.get("gamma_schedule", ())),
            eta_schedule=tuple(r.get("eta_schedule", ())),
            control_exponent_form=r.get("control_exponent_form", "ProductForm"),
        )
        mapping = None
        if d.get("mapping") is not None:
            m = d["mapping"]
            thresholds = None
            if m.get("thresholds") is not None:
                thresholds = ThresholdSet(
                    stage2=tuple(m["thresholds"]["stage2"]),
                    stage3=tuple(m["thresholds"]["stage3"]),
                )
            mapping = MappingConfig(
                variant=m["variant"],
                thresholds=thresholds,
                control_fix=m.get("control_fix", 2),
            )
        return TrialDesign(
            stages=stages,
            rule=rule,
            mapping=mapping,
            arms=arms,
            prior_alpha=tuple(d.get("prior_alpha", (1.0,) * len(arms))),
            prior_beta=tuple(d.get("prior_beta", (1.0,) * len(arms))),
            delta=d.get("delta", DEFAULT_DELTA),
            tau=d.get("tau", DEFAULT_TAU),
            alpha_level=d.get("alpha_level", DEFAULT_ALPHA_LEVEL),
            planned_n=d.get("planned_n"),
            stratum_label=d.get("stratum_label", "A"),
            name=d.get("name", "custom"),
            stage1_balanced_block=d.get("stage1_balanced_block", False),
            tau_dropping=d.get("tau_dropping", False),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed design dict: {exc}") from exc


def load_design(path: str | Path) -> TrialDesign:
    """Read a design from its JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return design_from_dict(payload)


def save_design(design: TrialDesign, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(design_to_dict(design), indent=2) + "\n", encoding="utf-8"
    )
