"""Pin the parametric outcome noise scale.

Finds the scale sigma at which the fixed_equal design with effects
(0, 0.3, 0.4) attains power 0.748 for the best arm (n = 20 per stratum,
one-sided test size 0.1). Power is monotone decreasing in sigma, so a
bisection on the Monte Carlo estimate converges; the chosen value is meant
to be pinned as CALIBRATED_SIGMA in src/radapt/outcomes.py.

Usage: python3 scripts/calibrate_outcome_scale.py [--reps N] [--seed S]
"""

from __future__ import annotations

import argparse

from radapt import MissingCase, OutcomeModel, preset_design
from radapt.engine import MissingPolicy, replicate

TARGET_POWER = 0.748
EFFECTS = (0.0, 0.3, 0.4)


def power_at(sigma: float, reps: int, seed: int) -> float:
    design = preset_design("fixed_equal")
    model = OutcomeModel.parametric(EFFECTS, scale=sigma)
    report = replicate(
        design,
        model,
        case=MissingCase.from_id(0),
        policy=MissingPolicy(),
        n_reps=reps,
        master_seed=seed,
    )
    return report.rates["power"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--lo", type=float, default=0.2)
    parser.add_argument("--hi", type=float, default=1.0)
    parser.add_argument("--iterations", type=int, default=12)
    args = parser.parse_args()

    lo, hi = args.lo, args.hi
    p_lo = power_at(lo, args.reps, args.seed)
    p_hi = power_at(hi, args.reps, args.seed)
    print(f"sigma={lo:.4f} power={p_lo:.4f}")
    print(f"sigma={hi:.4f} power={p_hi:.4f}")
    if not (p_hi < TARGET_POWER < p_lo):
        raise SystemExit("target power not bracketed; widen --lo/--hi")

    for _ in range(args.iterations):
        mid = 0.5 * (lo + hi)
        p_mid = power_at(mid, args.reps, args.seed)
        print(f"sigma={mid:.4f} power={p_mid:.4f}")
        if p_mid > TARGET_POWER:
            lo = mid
        else:
            hi = mid

    final = round(0.5 * (lo + hi), 3)
    p_final = power_at(final, args.reps, args.seed)
    print(f"\npin CALIBRATED_SIGMA = {final} (power {p_final:.4f}, "
          f"target {TARGET_POWER}) in src/radapt/outcomes.py")


if __name__ == "__main__":
    main()
