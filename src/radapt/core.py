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
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import EXACT_CELL_GUARD, table_cells

__all__ = [
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


def default_arms(k: int = 3) -> tuple[str, ...]:
    """Arm labels C, T1, T2, ...: arm 0 is the control."""
    if k < 2:
        raise ValueError("need at least two arms")
    return ("C", *(f"T{i}" for i in range(1, k)))


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
    def alpha_defaults() -> "ThresholdSet":
        return ThresholdSet(stage2=(0.45,), stage3=(DEFAULT_TAU, 0.45, 0.55))

    @staticmethod
    def beta_defaults() -> "ThresholdSet":
        return ThresholdSet(
            stage2=(1 / 3, 0.45), stage3=(DEFAULT_TAU, 1 / 3, 0.45, 0.55)
        )


@dataclass(frozen=True)
class MappingConfig:
    """Probability-to-ratio mapping variant plus its thresholds."""

    variant: str
    thresholds: ThresholdSet | None = None


@dataclass(frozen=True)
class TrialDesign:
    """Complete static specification of a one-stratum design.

    `arms` holds the arms' labels in position order: arm 0 is the control,
    arms 1..K-1 the actives. `stage_sizes[t - 1]` is the number of patients
    stage t accrues. What a stage's block fixes follows from the rest of the
    design: mapped designs run mapping.MAPPED_CONTROLS controls in every
    stage, and the last stage may leave an active arm without patients where
    the design drops arms there (a MappedAlpha or MappedBeta Drop category,
    or tau_dropping).
    """

    stage_sizes: tuple[int, ...]
    rule: RuleConfig
    mapping: MappingConfig | None = None
    arms: tuple[str, ...] = field(default_factory=default_arms)
    prior_alpha: tuple[float, ...] = (1.0, 1.0, 1.0)
    prior_beta: tuple[float, ...] = (1.0, 1.0, 1.0)
    delta: float = DEFAULT_DELTA
    tau: float = DEFAULT_TAU
    alpha_level: float = DEFAULT_ALPHA_LEVEL
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
        return sum(self.stage_sizes)

    @property
    def n_stages(self) -> int:
        return len(self.stage_sizes)


def validate_design(design: TrialDesign) -> list[str]:
    """Collect every invariant violation; an empty list means valid.

    Violations are data, not exceptions: each entry is a human-readable
    message naming the failed constraint.
    """
    v: list[str] = []
    k = design.k

    if k < 2:
        v.append(f"need at least 2 arms, got {k}")
    if len(set(design.arms)) != k:
        v.append(f"arm labels not unique: {list(design.arms)}")

    if not design.stage_sizes:
        v.append("design has no stages")
    for i, size in enumerate(design.stage_sizes, start=1):
        if size <= 0:
            v.append(f"stage {i} size must be positive, got {size}")
        if size < k:
            v.append(f"stage {i} size {size} smaller than K={k}")
    if design.stage1_balanced_block and design.stage_sizes and k:
        size = design.stage_sizes[0]
        if size % k:
            v.append(
                f"balanced stage-1 block needs a stage-1 size divisible by "
                f"K={k}, got {size}"
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
        if design.tau_dropping:
            v.append(
                "tau_dropping applies to designs without a mapping; a mapped "
                "design drops arms through its Drop category"
            )
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
        if design.k != 3:
            v.append(
                f"TrippaBRAR requires K=3 (one control, two actives), "
                f"got K={design.k}"
            )
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
    if design.stage_sizes != (6, 6, 8):
        v.append(
            f"mapped designs require stage sizes (6, 6, 8), got {design.stage_sizes}"
        )
    if mapping.variant == "PermutedBlock":
        return v

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
        "arms": [{"label": label} for label in design.arms],
        "stages": [{"size": size} for size in design.stage_sizes],
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
        "stage1_balanced_block": design.stage1_balanced_block,
        "tau_dropping": design.tau_dropping,
    }
    if design.mapping is not None:
        m: dict = {"variant": design.mapping.variant, "thresholds": None}
        if design.mapping.thresholds is not None:
            m["thresholds"] = {
                "stage2": list(design.mapping.thresholds.stage2),
                "stage3": list(design.mapping.thresholds.stage3),
            }
        d["mapping"] = m
    return d


def _typed(key: str, value, kind=(int, float)):
    """`value`, or a ValueError naming `key` where it is not of `kind` (a
    number unless given); a bool is of kind bool alone."""
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        what = {int: "an integer", str: "a string", bool: "a boolean"}.get(kind, "a number")
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return value


def _numbers(key: str, values) -> tuple:
    return tuple(_typed(f"{key}[{i}]", v) for i, v in enumerate(values))


# Every key a design dict may hold, nested as the dict nests: the keys
# design_to_dict writes, the older keys _check_old_keys reads, and
# rule.mc_draws, which exact P(best) made moot. A list's entries share one
# schema, numbered from 0 for arms and from 1 for stages.
_SCHEMA = dict.fromkeys((
    "name", "stratum_label", "prior_alpha", "prior_beta", "delta", "tau",
    "alpha_level", "stage1_balanced_block", "tau_dropping", "planned_n",
)) | {
    "arms": (0, dict.fromkeys(("label", "index", "role"))),
    "stages": (1, dict.fromkeys(
        ("size", "stage_index", "control_fix", "arm_dropping_allowed")
    )),
    "rule": dict.fromkeys((
        "kind", "gamma_schedule", "eta_schedule", "control_exponent_form",
        "mc_draws",
    )),
    "mapping": dict.fromkeys(("variant", "control_fix")) | {
        "thresholds": dict.fromkeys(("stage2", "stage3")),
    },
}


def _check_keys(value, schema, path: str = "") -> None:
    """Refuse a key of `value` outside `schema` at any depth, naming its
    path; a value of another shape than its schema is left to the reader."""
    if isinstance(schema, tuple) and isinstance(value, list):
        start, entry = schema
        for i, item in enumerate(value, start):
            _check_keys(item, entry, f"{path}[{i}]")
    elif isinstance(schema, dict) and isinstance(value, dict):
        for key, item in value.items():
            where = f"{path}.{key}" if path else str(key)
            if key not in schema:
                raise ValueError(f"unknown key {where}")
            _check_keys(item, schema[key], where)


def design_from_dict(d: dict) -> TrialDesign:
    _check_keys(d, _SCHEMA)
    try:
        arms = tuple(_typed(f"arms[{i}].label", a["label"], str)
                     for i, a in enumerate(d["arms"]))
        r = d["rule"]
        rule = RuleConfig(
            kind=r["kind"],
            gamma_schedule=_numbers("rule.gamma_schedule", r.get("gamma_schedule", ())),
            eta_schedule=_numbers("rule.eta_schedule", r.get("eta_schedule", ())),
            control_exponent_form=r.get("control_exponent_form", "ProductForm"),
        )
        mapping = None
        if d.get("mapping") is not None:
            m = d["mapping"]
            thresholds = None
            if m.get("thresholds") is not None:
                thresholds = ThresholdSet(*(
                    _numbers(f"mapping.thresholds.{t}", m["thresholds"][t])
                    for t in ("stage2", "stage3")
                ))
            mapping = MappingConfig(variant=m["variant"], thresholds=thresholds)
        design = TrialDesign(
            stage_sizes=tuple(_typed(f"stages[{t}].size", s["size"], int)
                              for t, s in enumerate(d["stages"], start=1)),
            rule=rule,
            mapping=mapping,
            arms=arms,
            prior_alpha=_numbers("prior_alpha", d.get("prior_alpha", (1.0,) * len(arms))),
            prior_beta=_numbers("prior_beta", d.get("prior_beta", (1.0,) * len(arms))),
            delta=_typed("delta", d.get("delta", DEFAULT_DELTA)),
            tau=_typed("tau", d.get("tau", DEFAULT_TAU)),
            alpha_level=_typed("alpha_level", d.get("alpha_level", DEFAULT_ALPHA_LEVEL)),
            stratum_label=_typed("stratum_label", d.get("stratum_label", "A"), str),
            name=_typed("name", d.get("name", "custom"), str),
            stage1_balanced_block=_typed(
                "stage1_balanced_block", d.get("stage1_balanced_block", False), bool
            ),
            tau_dropping=_typed("tau_dropping", d.get("tau_dropping", False), bool),
        )
        _check_old_keys(d, design)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed design dict: {exc}") from exc
    return design


def _check_old_keys(d: dict, design: TrialDesign) -> None:
    """Refuse a key of older files that the design now implies where it
    states another value than the one radapt runs; null or absent is fine.
    An arm's index is its position, counted from 0, its role Control at
    position 0 and Active elsewhere, and a stage's stage_index its position,
    counted from 1. Mapped designs run mapping.MAPPED_CONTROLS controls in
    every stage, and only the last stage of a design that drops arms there
    may drop one."""
    from .mapping import MAPPED_CONTROLS

    mapped = design.mapping is not None
    drops_last = (
        design.mapping.variant in ("MappedAlpha", "MappedBeta")
        if mapped
        else design.tau_dropping
    )
    checks = [("planned_n", d.get("planned_n"), design.n_total)]
    if mapped:
        checks.append(
            ("mapping.control_fix", d["mapping"].get("control_fix"), MAPPED_CONTROLS)
        )
    for i, a in enumerate(d["arms"]):
        checks.append((f"arms[{i}].index", a.get("index"), i))
        role = "Active" if i else "Control"
        checks.append((f"arms[{i}].role", a.get("role"), role))
    controls = MAPPED_CONTROLS if mapped else None
    for t, s in enumerate(d["stages"], start=1):
        checks.append((f"stages[{t}].stage_index", s.get("stage_index"), t))
        checks.append((f"stages[{t}].control_fix", s.get("control_fix"), controls))
        checks.append((
            f"stages[{t}].arm_dropping_allowed",
            s.get("arm_dropping_allowed"),
            drops_last and t == design.n_stages,
        ))
    for key, value, implied in checks:
        if value is not None and (
            value != implied or isinstance(value, bool) != isinstance(implied, bool)
        ):
            advice = (
                "an arm's position sets it, so list the arms in position "
                "order, control first"
                if key.startswith("arms[")
                else "radapt no longer reads the key, so omit it"
            )
            raise ValueError(
                f"{key} is {json.dumps(value)}, but the design implies "
                f"{json.dumps(implied)}; {advice}"
            )


def load_design(path: str | Path) -> TrialDesign:
    """Read a design from its JSON file; a ValueError names the file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return design_from_dict(payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_design(design: TrialDesign, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(design_to_dict(design), indent=2) + "\n", encoding="utf-8"
    )
