"""The benchmark's four workloads and the inputs generated for them.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned. An operation is one in-process call of
``radapt.cli.main``: a ``simulate`` call of a fixed replicate count on the
three ``sim_*`` workloads, one ``interim`` call on ``interim_mix``. A unit of
work is one replicate (for ``sim_pooled``: both strata plus the pooled tests)
or one interim decision.

All inputs come from the workload seed. radapt receives only the generated
inputs: the master ``--seed`` of each simulate call, and for ``interim_mix``
the accrued CSV files and the coin seed of each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class SimWorkload:
    """Back-to-back ``simulate`` calls of one design and data scenario."""

    flags: tuple[str, ...]
    reps: int  # replicates per simulate call
    mapped: bool  # mapped designs fix the control at 2 patients per stage
    pooled: bool  # scenario runs report strata A and B plus a pooled row


SIM_WORKLOADS = {
    # The paper's headline mapped design on complete parametric data: the
    # rank-sum test, the interim decision, block permutation and the outcome
    # draw share the time, and no Monte Carlo runs.
    "sim_mapped": SimWorkload(
        ("--design", "mapped_alpha", "--effects", "0,0.3,0.4", "--case", "0"),
        reps=1000, mapped=True, pooled=False,
    ),
    # The 100k-draw Monte Carlo P(best) takes about 95% of the time. The
    # replicate count stays fixed because the P(best) memo fills as
    # posterior states repeat within one call.
    "sim_unrestricted": SimWorkload(
        ("--design", "unrestricted", "--effects", "0,0.3,0.4", "--case", "0"),
        reps=150, mapped=False, pooled=False,
    ),
    # The CLI's default pooled scenario path with stage-2 imputation and
    # MappedBeta's Balance bands: larger pooled rank-sum samples, with ties.
    "sim_pooled": SimWorkload(
        ("--design", "mapped_beta", "--scenario", "S4", "--case", "4",
         "--impute-stage2"),
        reps=500, mapped=True, pooled=True,
    ),
}

# interim_mix rotates these designs over --next-stage 2 and 3.
INTERIM_DESIGNS = (
    "mapped_alpha", "mapped_beta", "baseline", "control_protected", "unrestricted",
)
MAPPED_DESIGNS = frozenset({"mapped_alpha", "mapped_beta"})
# Designs whose first stage is a balanced 2:2:2 block; the others randomise
# stage 1 i.i.d.
BLOCK_STAGE1 = MAPPED_DESIGNS | {"baseline"}

WORKLOADS = tuple(SIM_WORKLOADS) + ("interim_mix",)

ARM_LABELS = ("C", "T1", "T2")
STAGE_SIZES = (6, 6, 8)
STAGE2_MENU = ((2, 1, 3), (2, 2, 2), (2, 3, 1))
NA_SHARE = 0.05
# Effect vectors (C, T1, T2) an accrued file is drawn from, and the outcome
# noise: the calibrated scale on a centred log-normal of shape 0.6.
INTERIM_EFFECTS = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.3), (0.0, 0.3, 0.4))
NOISE_SCALE = 0.398
NOISE_SHAPE = 0.6
# Distinct accrued files, one interim call each.
INTERIM_FILES = 1000


def op_seeds(seed: int):
    """Endless stream of simulate master seeds for one run, below 2**31.

    The reference rates in references.json use seeds above 2**40, so no timed
    call ever repeats a reference replicate.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x51]))
    while True:
        yield int(rng.integers(2**31))


def simulate_args(name: str, master_seed: int, out_dir: Path, reps: int) -> list[str]:
    return [
        "simulate", *SIM_WORKLOADS[name].flags,
        "--reps", str(reps),
        "--seed", str(master_seed), "--workers", "1", "--out", str(out_dir),
    ]


@dataclass(frozen=True)
class InterimCall:
    """One ``interim`` call of interim_mix and what its input holds."""

    args: tuple[str, ...]
    design: str
    next_stage: int
    counts: tuple[int, int, int]  # assigned patients per arm, outcomes or not
    missing_stages: frozenset[int]  # stages with at least one NA outcome

    def to_json(self) -> dict:
        return {
            "args": list(self.args), "design": self.design,
            "next_stage": self.next_stage, "counts": list(self.counts),
            "missing_stages": sorted(self.missing_stages),
        }

    @classmethod
    def from_json(cls, data: dict) -> "InterimCall":
        return cls(
            tuple(data["args"]), data["design"], data["next_stage"],
            tuple(data["counts"]), frozenset(data["missing_stages"]),
        )


def _outcome(rng: np.random.Generator, effect: float) -> float:
    mean = math.exp(NOISE_SHAPE**2 / 2)
    sd = math.sqrt((math.exp(NOISE_SHAPE**2) - 1.0) * math.exp(NOISE_SHAPE**2))
    return effect + NOISE_SCALE * (rng.lognormal(0.0, NOISE_SHAPE) - mean) / sd


def _stage_arms(rng, design: str, stage: int) -> list[int]:
    size = STAGE_SIZES[stage - 1]
    if stage == 1 and design in BLOCK_STAGE1:
        ratio = (2, 2, 2)
    elif stage == 2 and design in MAPPED_DESIGNS:
        ratio = STAGE2_MENU[rng.integers(len(STAGE2_MENU))]
    else:
        return [int(a) for a in rng.integers(3, size=size)]
    return [int(a) for a in rng.permutation(np.repeat(np.arange(3), ratio))]


def write_accrued(rng, design: str, next_stage: int, path: Path):
    """Write one accrued CSV for the stages before `next_stage`.

    Returns the assigned count per arm and the stages holding an NA outcome.
    """
    effects = INTERIM_EFFECTS[rng.integers(len(INTERIM_EFFECTS))]
    counts = [0, 0, 0]
    missing = set()
    lines = ["patient_id,stage,arm_label,delta_y"]
    pid = 0
    for stage in range(1, next_stage):
        for arm in _stage_arms(rng, design, stage):
            pid += 1
            counts[arm] += 1
            if rng.random() < NA_SHARE:
                missing.add(stage)
                value = "NA"
            else:
                value = f"{_outcome(rng, effects[arm]):.6f}"
            lines.append(f"{pid},{stage},{ARM_LABELS[arm]},{value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tuple(counts), frozenset(missing)


def interim_plan(seed: int, work_dir: Path) -> list[InterimCall]:
    """Write the accrued files and list one interim call per file.

    Call i uses design i mod 5 and next stage 2 or 3 in turn, so every ten
    calls cover each (design, next stage) pair once. A run cycles through
    the list for as long as it lasts.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A]))
    calls = []
    for i in range(INTERIM_FILES):
        design = INTERIM_DESIGNS[i % len(INTERIM_DESIGNS)]
        next_stage = 2 + (i // len(INTERIM_DESIGNS)) % 2
        path = work_dir / f"accrued_{i:04d}.csv"
        counts, missing = write_accrued(rng, design, next_stage, path)
        args = (
            "interim", "--design", design, "--data", str(path),
            "--next-stage", str(next_stage), "--seed", str(int(rng.integers(2**31))),
        )
        calls.append(InterimCall(args, design, next_stage, counts, missing))
    return calls
