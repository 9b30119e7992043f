"""Pin the control-weight exponent of the control-protected rule.

Finds the exponent eta at which the control_protected design's mean final
control allocation equals 1/3 under equal arm effects (all zero). The
control weight grows with eta, so the mean control allocation is monotone
increasing in it and a bisection converges; the chosen value is meant to be
pinned as DEFAULT_ETA in src/radapt/core.py.

Run scripts/calibrate_outcome_scale.py first: the outcome scale shapes the
posterior noise this calibration runs under.

Usage: python3 scripts/calibrate_control_weight.py [--reps N] [--seed S]
"""

from __future__ import annotations

import argparse

from radapt import MissingCase, OutcomeModel, preset_design
from radapt.engine import MissingPolicy, replicate

TARGET_ALLOC = 1.0 / 3.0
NULL_EFFECTS = (0.0, 0.0, 0.0)


def control_alloc_at(eta: float, reps: int, seed: int) -> float:
    design = preset_design("control_protected", eta=eta)
    model = OutcomeModel.parametric(NULL_EFFECTS)
    report = replicate(
        design,
        model,
        case=MissingCase.from_id(0),
        policy=MissingPolicy(),
        n_reps=reps,
        master_seed=seed,
    )
    return report.rates["alloc_mean"][design.control_index()]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--lo", type=float, default=0.0)
    parser.add_argument("--hi", type=float, default=2.0)
    parser.add_argument("--iterations", type=int, default=12)
    args = parser.parse_args()

    lo, hi = args.lo, args.hi
    a_lo = control_alloc_at(lo, args.reps, args.seed)
    a_hi = control_alloc_at(hi, args.reps, args.seed)
    print(f"eta={lo:.4f} control_alloc={a_lo:.4f}")
    print(f"eta={hi:.4f} control_alloc={a_hi:.4f}")
    if not (a_lo < TARGET_ALLOC < a_hi):
        raise SystemExit("target allocation not bracketed; widen --lo/--hi")

    for _ in range(args.iterations):
        mid = 0.5 * (lo + hi)
        a_mid = control_alloc_at(mid, args.reps, args.seed)
        print(f"eta={mid:.4f} control_alloc={a_mid:.4f}")
        if a_mid < TARGET_ALLOC:
            lo = mid
        else:
            hi = mid

    final = round(0.5 * (lo + hi), 3)
    a_final = control_alloc_at(final, args.reps, args.seed)
    print(f"\npin DEFAULT_ETA = {final} (mean control allocation {a_final:.4f}, "
          f"target {TARGET_ALLOC:.4f}) in src/radapt/core.py")


if __name__ == "__main__":
    main()
