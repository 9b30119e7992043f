"""Simulation and conduct engine for small-sample response-adaptive trials
whose continuous randomisation probabilities are mapped to restricted
randomisation blocks with exact allocation ratios.
"""

from .analysis import wilcoxon_one_sided
from .calibration import (
    CalibrationResult,
    CalibrationRow,
    calibrate_threshold,
    write_tradeoff_csv,
)
from .core import (
    DEFAULT_ALPHA_LEVEL,
    DEFAULT_DELTA,
    DEFAULT_ETA,
    DEFAULT_TAU,
    ArmId,
    MappingConfig,
    RuleConfig,
    StagePlan,
    ThresholdSet,
    TrialDesign,
    default_arms,
    design_from_dict,
    design_to_dict,
    load_design,
    save_design,
    validate_design,
)
from .engine import (
    InterimRecord,
    InterimResult,
    MissingPolicy,
    OCReport,
    interim_recommendation,
    read_accrued,
    replicate,
    replicate_pooled,
    write_adaptability_csv,
    write_oc_csv,
)
from .mapping import (
    AdaptationCategory,
    RatioVector,
    active_shares,
    allocation_options,
    decide_category,
    planned_ratio,
)
from .outcomes import (
    CALIBRATED_SIGMA,
    SCENARIOS,
    MissingCase,
    OutcomeModel,
    PatientRecord,
    Scenario,
    dichotomise,
    load_pilot,
)
from .posterior import (
    BetaPosterior,
    SuccessCount,
    prob_best,
    prob_greater,
    update,
)
from .presets import PRESET_NAMES, preset_design
from .randlist import RandomisationBlock, export_list, generate_block, import_list
from .rules import ArmCounts, ProbVector, fixed_equal, trippa_brar, ts_brar

__version__ = "0.1.0"
