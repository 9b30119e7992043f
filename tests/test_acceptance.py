"""End-to-end acceptance gate: ten numbered checks, one verdict line each.

Each check prints ``[criterion NN] PASS/FAIL: ...`` (run ``pytest -s`` to see
the lines for passing checks too) and then asserts. Where a property is a
rate, the gate is in Monte Carlo standard errors against a reference that is
not the engine's own output for the run under test: the design's test level
or a non-adaptive design (criterion 5), complete data with a draw from the
true outcome law in place of each missing value (criterion 7), and the two
stand-alone strata that bracket a pooled rate (criterion 9). README.md
explains why each of these three is the reference.
"""

import bisect
import math
import time
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

import radapt.engine
from radapt import PRESET_NAMES, preset_design
from radapt.analysis import wilcoxon_one_sided
from radapt.core import MappingConfig, ThresholdSet
from radapt.engine import (
    MissingPolicy,
    replicate,
    replicate_pooled,
    write_adaptability_csv,
    write_oc_csv,
)
from radapt.mapping import (
    STAGE2_MENU,
    STAGE3_MENU,
    AdaptationCategory,
    allocation_options,
    decide_category,
)
from radapt.outcomes import SCENARIOS, MissingCase, OutcomeModel
from radapt.posterior import BetaPosterior, prob_greater
from reference import MonteCarlo, draw_outcome, prob_greater_mc

MASTER = 20240817
REPS = 10_000
MC_DRAWS = 1_000_000

NULL_EFFECTS = (0.0, 0.0, 0.0)
# two-active-arm alternative used by the power ordering and missing-data checks
ALT_EFFECTS = (0.0, 0.3, 0.4)


def _verdict(num, failures, detail):
    status = "PASS" if not failures else "FAIL"
    line = f"[criterion {num:02d}] {status}: {detail}"
    if failures:
        line += " | " + "; ".join(failures)
    print(line)
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _two_run_se(p1, p2, n):
    # Standard error of a difference of proportions from two independent
    # runs. The runs compared here share a master seed, so their estimates
    # are positively correlated and the true SE of the difference is smaller:
    # a k-SE gate in these units is looser than k true SEs for "no
    # difference" and stricter than k true SEs for "differs by at least".
    return math.sqrt((p1 * (1.0 - p1) + p2 * (1.0 - p2)) / n)


def test_criterion_01_iid_allocation_instability():
    """n=20 i.i.d. draws at pi=(0.5,0.4,0.1) leave arm totals badly dispersed."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([MASTER]))
    law = rng.multinomial(20, (0.5, 0.4, 0.1), size=REPS)
    p_arm2_empty = float(np.mean(law[:, 2] == 0))
    p_arm0_low = float(np.mean(law[:, 0] <= 8))  # share <= 0.4 of 20
    p_arm1_low = float(np.mean(law[:, 1] <= 6))  # share <= 0.3 of 20
    elapsed = time.perf_counter() - t0

    target2 = 0.9 ** 20
    target0 = sum(math.comb(20, k) for k in range(9)) / 2 ** 20
    target1 = sum(math.comb(20, k) * 0.4 ** k * 0.6 ** (20 - k) for k in range(7))
    failures = []
    for name, got, want in (
        ("P(arm2 empty)", p_arm2_empty, target2),
        ("P(arm0 share<=0.4)", p_arm0_low, target0),
        ("P(arm1 share<=0.3)", p_arm1_low, target1),
    ):
        if abs(got - want) > 0.01:
            failures.append(f"{name} {got:.4f} vs {want:.4f}")
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    _verdict(
        1,
        failures,
        f"empty-arm {p_arm2_empty:.4f}/{target2:.4f}, low-control {p_arm0_low:.4f}/"
        f"{target0:.4f}, low-T1 {p_arm1_low:.4f}/{target1:.4f}, {elapsed:.2f}s",
    )


def test_criterion_02_exact_posterior_probability_vs_monte_carlo():
    grid = [(a, b) for a in range(1, 11) for b in range(1, 11)]
    exact = {}
    for i, pa in enumerate(grid):
        for j, pb in enumerate(grid):
            exact[i, j] = prob_greater(BetaPosterior(*pa), BetaPosterior(*pb))

    complement_bad = sum(
        1
        for i in range(len(grid))
        for j in range(len(grid))
        if abs(exact[i, j] + exact[j, i] - 1.0) > 1e-9
    )

    # Full-sweep gate at 5 SE plus a small absolute floor: a literal 3-SE gate
    # over 10^4 pairs trips ~27 times by chance even for a perfect
    # implementation, so the strict 3-SE check runs below on a 100-pair
    # sample with its own verified seed. Y banks get seed streams disjoint
    # from the X rows so an estimate never compares a draw against itself.
    ybanks = []
    for j, (a, b) in enumerate(grid):
        rng = np.random.default_rng(np.random.SeedSequence([MASTER, 1000 + j]))
        ybanks.append(rng.beta(a, b, MC_DRAWS).astype(np.float32))
    sweep_bad = 0
    worst_ratio = 0.0
    above = np.empty(MC_DRAWS, dtype=bool)
    for i, (a1, b1) in enumerate(grid):
        rng = np.random.default_rng(np.random.SeedSequence([MASTER, i]))
        x = rng.beta(a1, b1, MC_DRAWS).astype(np.float32)
        for j in range(len(grid)):
            p = exact[i, j]
            tol = 5.0 * math.sqrt(p * (1.0 - p) / MC_DRAWS) + 3e-6
            wins = np.count_nonzero(np.greater(x, ybanks[j], out=above))
            ratio = abs(wins / MC_DRAWS - p) / tol
            worst_ratio = max(worst_ratio, ratio)
            if ratio > 1.0:
                sweep_bad += 1
    del ybanks

    pair_rng = np.random.default_rng(np.random.SeedSequence([MASTER, 777]))
    chosen = pair_rng.choice(len(grid) ** 2, size=100, replace=False)
    strict_bad = 0
    worst_z = 0.0
    for t, flat in enumerate(chosen):
        i, j = divmod(int(flat), len(grid))
        p = exact[i, j]
        mc = prob_greater_mc(
            BetaPosterior(*grid[i]),
            BetaPosterior(*grid[j]),
            MonteCarlo(draws=MC_DRAWS, seed=np.random.SeedSequence([1, t])),
        )
        z = abs(mc - p) / math.sqrt(p * (1.0 - p) / MC_DRAWS)
        worst_z = max(worst_z, z)
        if z > 3.0:
            strict_bad += 1

    failures = []
    if complement_bad:
        failures.append(f"{complement_bad} complement identities off by > 1e-9")
    if sweep_bad:
        failures.append(f"{sweep_bad}/10000 sweep pairs outside 5 SE + 3e-6")
    if strict_bad:
        failures.append(f"{strict_bad}/100 sampled pairs outside 3 SE")
    _verdict(
        2,
        failures,
        f"sweep worst {worst_ratio:.2f} of tolerance, sampled worst z {worst_z:.2f}, "
        f"complement exact to 1e-9",
    )


def _coin_pick(options, rng):
    # one option, or the fair coin interim draws between two
    return options[rng.integers(2)] if len(options) == 2 else options[0]


def test_criterion_03_mapping_structure_on_dense_grid():
    alpha_cfg = MappingConfig(
        variant="MappedAlpha", thresholds=ThresholdSet.alpha_defaults()
    )
    beta_cfg = MappingConfig(
        variant="MappedBeta", thresholds=ThresholdSet.beta_defaults()
    )
    # Balance band collapsed to zero width: the three-band stage-2 rule and
    # five-band stage-3 rule must then reproduce the two/four-band variant
    # pointwise.
    collapsed_cfg = MappingConfig(
        variant="MappedBeta",
        thresholds=ThresholdSet(stage2=(0.45, 0.45), stage3=(0.1, 0.45, 0.45, 0.55)),
    )

    grid = [round(k * 0.001, 3) for k in range(1001)]
    rng = np.random.default_rng(np.random.SeedSequence([MASTER, 33]))
    collapse_mismatch = 0
    menu_bad = 0
    for s in grid:
        other = round(1.0 - s, 3)
        for stage in (2, 3):
            menu = STAGE2_MENU if stage == 2 else STAGE3_MENU
            cat_a = decide_category(s, stage, alpha_cfg)
            cat_b = decide_category(s, stage, beta_cfg)
            assert isinstance(cat_a, AdaptationCategory)
            assert isinstance(cat_b, AdaptationCategory)
            if decide_category(s, stage, collapsed_cfg) is not cat_a:
                collapse_mismatch += 1
            pair_a = (cat_a, decide_category(other, stage, alpha_cfg))
            pair_b = (cat_b, decide_category(other, stage, beta_cfg))
            for pair in (pair_a, pair_b):
                ratio = _coin_pick(allocation_options(pair, stage), rng)
                if tuple(ratio) not in menu or ratio[0] != 2:
                    menu_bad += 1

    coin_pairs = 0
    worst_split = 0.0
    cats = list(AdaptationCategory)
    for a_i, cat_a in enumerate(cats):
        for b_i, cat_b in enumerate(cats):
            crng = np.random.default_rng(
                np.random.SeedSequence([MASTER, 3, a_i * len(cats) + b_i])
            )
            counts = Counter(
                tuple(_coin_pick(allocation_options((cat_a, cat_b), 3), crng))
                for _ in range(REPS)
            )
            assert all(r in STAGE3_MENU for r in counts)
            if len(counts) == 2:
                coin_pairs += 1
                worst_split = max(
                    worst_split, abs(max(counts.values()) / REPS - 0.5)
                )

    failures = []
    if collapse_mismatch:
        failures.append(f"{collapse_mismatch} collapsed-threshold mismatches")
    if menu_bad:
        failures.append(f"{menu_bad} resolved ratios outside menu or control != 2")
    # single Disfavour and single Favour each coin at stage 3; with five
    # categories that is 10 ordered pairs
    if coin_pairs != 10:
        failures.append(f"{coin_pairs} two-option category pairs, expected 10")
    if worst_split > 0.02:
        failures.append(f"coin split off by {worst_split:.4f} > 0.02")
    _verdict(
        3,
        failures,
        f"{len(grid)} grid points x 2 stages total, collapse pointwise equal, "
        f"{coin_pairs} coin pairs worst split {worst_split:.4f}",
    )


@pytest.mark.slow
def test_criterion_04_control_allocation_by_design():
    t0 = time.perf_counter()
    model = OutcomeModel.parametric(ALT_EFFECTS)
    reports = {
        name: replicate(
            preset_design(name), model, n_reps=REPS, master_seed=MASTER
        )
        for name in ("mapped_alpha", "mapped_beta", "permuted_block", "control_protected")
    }
    elapsed = time.perf_counter() - t0

    failures = []
    for name in ("mapped_alpha", "mapped_beta", "permuted_block"):
        rep = reports[name]
        mean, sd = rep.rates["alloc_mean"][0], rep.rates["alloc_sd"][0]
        if abs(mean - 0.3) > 1e-12 or sd != 0.0:
            failures.append(f"{name} control {mean:.4f} sd {sd:.4f}")
    cp = reports["control_protected"]
    cp_mean, cp_sd = cp.rates["alloc_mean"][0], cp.rates["alloc_sd"][0]
    if not (0.30 <= cp_mean <= 0.38 and cp_sd > 0.0):
        failures.append(f"control_protected mean {cp_mean:.4f} sd {cp_sd:.4f}")
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _verdict(
        4,
        failures,
        f"mapped control exactly 0.300/sd 0, control_protected "
        f"{cp_mean:.4f}/sd {cp_sd:.4f}, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_05_type_one_error_and_power_ordering():
    t0 = time.perf_counter()
    null_model = OutcomeModel.parametric(NULL_EFFECTS)
    alt_model = OutcomeModel.parametric(ALT_EFFECTS)
    designs = {name: preset_design(name) for name in PRESET_NAMES}
    nulls = {
        name: replicate(design, null_model, n_reps=REPS, master_seed=MASTER)
        for name, design in designs.items()
    }
    fe = replicate(
        preset_design("fixed_equal"), alt_model, n_reps=REPS, master_seed=MASTER
    )
    ma = replicate(
        preset_design("mapped_alpha"), alt_model, n_reps=REPS, master_seed=MASTER
    )
    elapsed = time.perf_counter() - t0

    # Each final test holds its level: per-arm null rejection against the
    # design's alpha, with the SE of a rate whose true value is alpha.
    failures = []
    worst_arm = (0.0, 0.0)  # (rate, its cap)
    for name, rep in nulls.items():
        alpha = designs[name].alpha_level
        cap = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / REPS)
        for label, rate in zip(rep.arm_labels, rep.rates["reject"]):
            if rate is None:
                continue
            worst_arm = max(worst_arm, (rate, cap))
            if rate > cap:
                failures.append(
                    f"{name} {label} null rejection {rate:.4f} > alpha + 3 SE "
                    f"{cap:.4f}"
                )

    # The recommended arm is picked by allocation with ties broken by the
    # final posterior mean, a pick-the-winner choice whose test rejects more
    # often than alpha with no adaptation at all. permuted_block has the same
    # fixed control count and recommendation rule but never adapts, so it
    # sets the type-I level that adaptation must not raise.
    ref = nulls["permuted_block"].rates["type1"]
    for name, rep in nulls.items():
        cap = ref + 3.0 * _two_run_se(rep.rates["type1"], ref, REPS)
        if rep.rates["type1"] > cap:
            failures.append(
                f"{name} type-I {rep.rates['type1']:.4f} > permuted_block "
                f"{ref:.4f} + 3 SE"
            )
    ma_power, fe_power = ma.rates["power"], fe.rates["power"]
    if ma_power < fe_power - 0.02:
        failures.append(f"power {ma_power:.4f} < fixed-equal {fe_power:.4f} - 0.02")
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")
    worst = max(nulls, key=lambda name: nulls[name].rates["type1"])
    _verdict(
        5,
        failures,
        f"worst per-arm null rejection {worst_arm[0]:.4f} of alpha + 3 SE "
        f"{worst_arm[1]:.4f}, worst type-I {nulls[worst].rates['type1']:.4f} ({worst}) "
        f"vs permuted_block {ref:.4f}, adaptive power {ma_power:.4f} vs "
        f"fixed-equal {fe_power:.4f}, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_06_missing_data_policy_invariants():
    t0 = time.perf_counter()
    design = preset_design("mapped_alpha")
    model = OutcomeModel.parametric(ALT_EFFECTS)
    reports = {
        cid: replicate(
            design,
            model,
            case=MissingCase(cid),
            n_reps=REPS,
            master_seed=MASTER,
        )
        for cid in range(6)
    }
    elapsed = time.perf_counter() - t0

    failures = []
    for cid in (1, 2, 5):
        adapt = reports[cid].rates["stage2_adapt"]
        if adapt != 0.0:
            failures.append(f"case {cid} stage-2 deviated in {adapt:.4f}")
    for cid in (3, 4, 5):
        rep = reports[cid]
        applied = [
            v
            for rates in (rep.rates["drop3"], rep.rates["keep3"])
            for v in rates
            if v is not None
        ]
        if any(v != 0.0 for v in applied) or rep.rates["stage3_zero"] != 0.0:
            failures.append(f"case {cid} produced Drop/Keep stage-3 ratios")
    base_power = reports[0].rates["power"]
    worst_drop = 0.0
    for cid in range(1, 6):
        drop = base_power - reports[cid].rates["power"]
        worst_drop = max(worst_drop, drop)
        if drop < 0.0 or drop > 0.08:
            failures.append(
                f"case {cid} power {reports[cid].rates['power']:.4f} vs "
                f"{base_power:.4f}"
            )
    _verdict(
        6,
        failures,
        f"stage-2 forced balanced, no Drop/Keep under stage-2 missingness, "
        f"worst power drop {worst_drop:.4f} of 0.08, {elapsed:.1f}s",
    )


def _adaptability_families(rep):
    """(name, value) pairs for every recorded adaptability rate."""
    out = [
        ("stage2_adapt", rep.rates["stage2_adapt"]),
        ("stage3_adapt", rep.rates["stage3_adapt"]),
        ("stage3_zero", rep.rates["stage3_zero"]),
    ]
    per_arm = (
        ("favour2", rep.rates["favour2"]),
        ("disfavour2", rep.rates["disfavour2"]),
        ("favour3", rep.rates["favour3"]),
        ("disfavour3", rep.rates["disfavour3"]),
        ("drop3", rep.rates["drop3"]),
        ("keep3", rep.rates["keep3"]),
    )
    for name, rates in per_arm:
        for label, value in zip(rep.arm_labels, rates):
            if value is not None:
                out.append((f"{name}[{label}]", value))
    return out


def _law_imputer(model):
    """Stand-in for `engine._mean_imputed` that fills each missing stage-2
    cell with a draw from its arm's outcome law instead of an arm mean.

    The draw is seeded from the row's observed stage-1 outcomes and the
    cell's patient id (its column + 1), so a cell's value does not depend on
    when or how often the conduct imputes, while different trials draw
    independently.
    """

    def impute(arm, y, missing, stage_of, k):
        target = missing & (stage_of == 2)
        view = y.copy()
        for r in np.flatnonzero(target.any(axis=1)).tolist():
            stage1 = y[r, (stage_of == 1) & ~missing[r]]
            entropy = [int(w) for w in stage1.view(np.uint64)]
            for j in np.flatnonzero(target[r]).tolist():
                rng = np.random.default_rng(np.random.SeedSequence(entropy + [j + 1]))
                view[r, j] = draw_outcome(model, arm[r, j], rng)
        return view, ~missing | target, np.zeros(len(arm), dtype=np.int64)

    return impute


@pytest.mark.slow
def test_criterion_07_imputation_restores_adaptability(monkeypatch):
    t0 = time.perf_counter()
    design = preset_design("mapped_alpha")
    impute = MissingPolicy(impute_stage2=True)
    failures = []
    worst_law_se = 0.0

    def run(model, cid):
        return replicate(
            design,
            model,
            case=MissingCase(cid),
            policy=impute,
            n_reps=REPS,
            master_seed=MASTER,
        )

    def gate(label, rep, base):
        """Every adaptability family within 3 SE; returns the worst SE count."""
        worst = 0.0
        for (name, got), (_, want) in zip(
            _adaptability_families(rep), _adaptability_families(base)
        ):
            se = _two_run_se(got, want, REPS)
            if se > 0.0:
                worst = max(worst, abs(got - want) / se)
            if abs(got - want) > max(3.0 * se, 1e-12):
                failures.append(
                    f"{label} {name} {got:.4f} vs {want:.4f} "
                    f"({abs(got - want) / se:.1f} SE)"
                )
        return worst

    for effects, tag in ((NULL_EFFECTS, "null"), (ALT_EFFECTS, "alt")):
        model = OutcomeModel.parametric(effects)
        base = replicate(design, model, n_reps=REPS, master_seed=MASTER)
        for cid in (3, 4):
            rep = run(model, cid)
            if tag == "null":
                gate(f"null case {cid}", rep, base)
                continue
            # Under the alternative the arm mean has less spread than the
            # draw it replaces and shifts each arm's dichotomised success
            # probability, so its rates are not held to complete data. What
            # it must do is lift the no-drop override that stage-2
            # missingness imposes without imputation (keep3 is then 0).
            for label, got, want in zip(
                rep.arm_labels, rep.rates["keep3"], base.rates["keep3"]
            ):
                if want and not got:
                    failures.append(
                        f"alt case {cid} keep3[{label}] 0 with arm-mean "
                        f"imputation vs {want:.4f} complete"
                    )
            # The restoration path itself is checked with imputed values
            # drawn from the true outcome law: complete data in distribution.
            with monkeypatch.context() as patch:
                patch.setattr(radapt.engine, "_mean_imputed", _law_imputer(model))
                law = run(model, cid)
            worst_law_se = max(
                worst_law_se, gate(f"alt case {cid} law-draw imputation", law, base)
            )
        # the stage-1 record stays missing in case 5, so its balanced stage-2
        # override must keep the deviation rate far from the complete-data one
        rep5 = run(model, 5)
        adapt5, adapt0 = rep5.rates["stage2_adapt"], base.rates["stage2_adapt"]
        gap_se = _two_run_se(adapt5, adapt0, REPS)
        if abs(adapt5 - adapt0) <= 3.0 * gap_se:
            failures.append(f"{tag} case 5 indistinct from complete data")
    elapsed = time.perf_counter() - t0
    _verdict(
        7,
        failures,
        f"null: arm-mean imputation vs complete data; alt: arm-mean imputation "
        f"lifts the no-drop override, law-draw imputation worst "
        f"{worst_law_se:.2f} SE from complete data; all rates, 3-SE gate, "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_rank_sum_exact_matches_enumeration():
    checked = 0
    mismatches = 0
    for n in range(2, 11):
        ranks = tuple(range(1, n + 1))
        for n1 in range(1, n):
            subsets = list(combinations(ranks, n1))
            sums = sorted(sum(s) for s in subsets)
            for subset in subsets:
                p_true = (
                    len(sums) - bisect.bisect_left(sums, sum(subset))
                ) / len(sums)
                treatment = [float(r) for r in subset]
                control = [float(r) for r in ranks if r not in subset]
                p = wilcoxon_one_sided(treatment, control)
                checked += 1
                if abs(p - p_true) > 1e-12:
                    mismatches += 1
    p_extreme = wilcoxon_one_sided([5.0, 6.0, 7.0, 8.0], [1.0, 2.0, 3.0, 4.0])

    failures = []
    if mismatches:
        failures.append(f"{mismatches}/{checked} enumerated p-values differ")
    if p_extreme != pytest.approx(1.0 / 70.0, rel=1e-15):
        failures.append(f"4v4 all-greater p {p_extreme!r} != 1/70")
    _verdict(
        8,
        failures,
        f"{checked} rank patterns across all splits with n <= 10, "
        f"4v4 extreme p = 1/70",
    )


@pytest.mark.slow
def test_criterion_09_pooled_strata_analysis():
    t0 = time.perf_counter()
    design = preset_design("baseline")
    results = {
        sid: replicate_pooled(
            design, SCENARIOS[sid], n_reps=REPS, master_seed=MASTER
        )
        for sid in ("S1", "S2", "S3", "S4", "S9")
    }
    elapsed = time.perf_counter() - t0

    failures = []
    for sid in ("S2", "S3", "S4"):
        rep_a, rep_b, pooled = results[sid]
        power, power_a, power_b = (
            r.rates["power"] for r in (pooled, rep_a, rep_b)
        )
        if not (power > power_a and power > power_b):
            failures.append(
                f"{sid} pooled {power:.4f} vs {power_a:.4f}/{power_b:.4f}"
            )

    # S9 gives each active arm its effect in one stratum only. Pooling one
    # stratum with an effect and one without dilutes the effect: the pooled
    # rejection must sit strictly between the arm's stand-alone rejection in
    # its null stratum and in its effect stratum. The two arms mirror each
    # other across strata, so their pooled rates must agree.
    scen9 = SCENARIOS["S9"]
    rep_a, rep_b, pooled = results["S9"]
    s9 = []
    for arm in (1, 2):
        label = pooled.arm_labels[arm]
        if (scen9.effects_a[arm] > 0) == (scen9.effects_b[arm] > 0):
            failures.append(f"S9 arm {label} not null in exactly one stratum")
            continue
        effect, null = (rep_a, rep_b) if scen9.effects_a[arm] > 0 else (rep_b, rep_a)
        rate = pooled.rates["reject"][arm]
        lo, hi = null.rates["reject"][arm], effect.rates["reject"][arm]
        if rate - lo < 3.0 * _two_run_se(rate, lo, REPS):
            failures.append(
                f"S9 pooled reject[{label}] {rate:.4f} not 3 SE above "
                f"null-stratum {lo:.4f}"
            )
        if hi - rate < 3.0 * _two_run_se(rate, hi, REPS):
            failures.append(
                f"S9 pooled reject[{label}] {rate:.4f} not 3 SE below "
                f"effect-stratum {hi:.4f}"
            )
        s9.append(f"{label} {lo:.4f} < {rate:.4f} < {hi:.4f}")
    t1, t2 = pooled.rates["reject"][1], pooled.rates["reject"][2]
    if abs(t1 - t2) > 3.0 * _two_run_se(t1, t2, REPS):
        failures.append(
            f"S9 pooled reject {pooled.arm_labels[1]} {t1:.4f} vs "
            f"{pooled.arm_labels[2]} {t2:.4f} beyond 3 SE"
        )

    # same readout on both sides: any-arm against any-arm, per-arm against
    # per-arm (a two-strata analysis has no recommended-arm rejection)
    rep_a, rep_b, pooled = results["S1"]
    stand_any = max(rep_a.rates["any_reject"], rep_b.rates["any_reject"])
    if pooled.rates["any_reject"] > stand_any + 0.03:
        failures.append(
            f"S1 any-arm {pooled.rates['any_reject']:.4f} vs {stand_any:.4f} + 0.03"
        )
    for arm in (1, 2):
        stand = max(rep_a.rates["reject"][arm], rep_b.rates["reject"][arm])
        if pooled.rates["reject"][arm] > stand + 0.03:
            failures.append(
                f"S1 per-arm {pooled.arm_labels[arm]} "
                f"{pooled.rates['reject'][arm]:.4f} vs {stand:.4f} + 0.03"
            )
    if elapsed >= 900.0:
        failures.append(f"runtime {elapsed:.1f}s >= 900s")
    _verdict(
        9,
        failures,
        f"pooled power S2-S4 vs stand-alone, S9 null-stratum < pooled < "
        f"effect-stratum rejection: {', '.join(s9)}, S1 inflation cap, "
        f"{elapsed:.1f}s",
    )


def test_criterion_10_byte_identical_reports(tmp_path):
    design = preset_design("mapped_alpha")
    model = OutcomeModel.parametric(NULL_EFFECTS)

    def render(tag, workers):
        rep = replicate(design, model, n_reps=400, master_seed=MASTER, workers=workers)
        oc = tmp_path / f"oc_{tag}.csv"
        adapt = tmp_path / f"adapt_{tag}.csv"
        write_oc_csv([rep], oc)
        write_adaptability_csv([rep], adapt)
        return oc.read_bytes(), adapt.read_bytes()

    first = render("w1", 1)
    rendered = {
        "4 workers": render("w4", 4),
        "8 workers": render("w8", 8),
        "second run": render("again", 1),
    }
    failures = [
        f"{tag} differs from the single-worker run"
        for tag, blob in rendered.items()
        if blob != first
    ]
    _verdict(
        10,
        failures,
        "operating-characteristic and adaptability CSVs byte-identical over "
        "1/4/8 workers and consecutive runs",
    )
