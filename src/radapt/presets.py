"""Built-in design taxonomy: the seven evaluated designs, ready to run.

Every preset uses the reference stratum structure (stages of 6, 6, and 8
patients, three arms, uniform priors, delta 0.3, test size 0.1). They differ
in the randomisation rule, whether stages are drawn i.i.d. or realised as
restricted blocks, and whether/how continuous probabilities are mapped to
discrete ratios.
"""

from __future__ import annotations

from .core import (
    DEFAULT_ETA,
    MappingConfig,
    RuleConfig,
    ThresholdSet,
    TrialDesign,
)

__all__ = ["PRESET_NAMES", "preset_design"]

PRESET_NAMES = (
    "fixed_equal",
    "unrestricted",
    "control_protected",
    "baseline",
    "permuted_block",
    "mapped_alpha",
    "mapped_beta",
)

# Interim exponent schedule: information fraction accrued before each
# adaptive stage, (6/20, 12/20) for the reference stages.
_GAMMA_INFO = (0.3, 0.6)

_STAGES = (6, 6, 8)


def preset_design(name: str, eta: float = DEFAULT_ETA) -> TrialDesign:
    """Build one of the named designs; raises ValueError for unknown names."""
    trippa = RuleConfig(
        kind="TrippaBRAR", gamma_schedule=_GAMMA_INFO, eta_schedule=(eta, eta)
    )
    common = dict(stage_sizes=_STAGES, name=name)

    if name == "fixed_equal":
        return TrialDesign(rule=RuleConfig(kind="FixedEqual"), **common)
    if name == "unrestricted":
        return TrialDesign(
            rule=RuleConfig(kind="TSBRAR", gamma_schedule=(1.0, 1.0)), **common
        )
    if name == "control_protected":
        return TrialDesign(rule=trippa, **common)
    if name == "baseline":
        return TrialDesign(
            rule=trippa,
            stage1_balanced_block=True,
            tau_dropping=True,
            **common,
        )
    if name == "permuted_block":
        return TrialDesign(
            rule=RuleConfig(kind="FixedEqual"),
            mapping=MappingConfig(variant="PermutedBlock"),
            **common,
        )
    if name == "mapped_alpha":
        return TrialDesign(
            rule=trippa,
            mapping=MappingConfig(
                variant="MappedAlpha", thresholds=ThresholdSet.alpha_defaults()
            ),
            **common,
        )
    if name == "mapped_beta":
        return TrialDesign(
            rule=trippa,
            mapping=MappingConfig(
                variant="MappedBeta", thresholds=ThresholdSet.beta_defaults()
            ),
            **common,
        )
    raise ValueError(f"unknown design preset {name!r}; choose from {PRESET_NAMES}")
