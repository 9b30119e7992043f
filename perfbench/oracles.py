"""Output checks that survive a one-time change of the random stream.

simulate calls: facts that hold at any replicate count, plus key rates gated
in standard-error units against reference values computed once at a high
replicate count (references.json). interim calls: the exit code, the ratio
menu, and the randomisation probabilities recomputed by numerical
integration from the audited posteriors. Nothing is compared byte for byte,
so a change that alters the random stream once still passes; the SHA-256 of
every report is recorded for information only.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from pathlib import Path

import numpy as np
from scipy.special import betainc, betaln

from workloads import ARM_LABELS, MAPPED_DESIGNS, STAGE2_MENU

GATE_SE = 4.0
KEY_RATES = ("power", "stage3_adapt", "recommend_T2")

# The presets' rule constants as published: the control-protected exponent
# schedule by the stage about to open, its control exponent eta (product
# form), the drop threshold tau of `baseline`, and gamma = 1 for
# `unrestricted`, whose pi is therefore P(best) itself.
TRIPPA_GAMMA = {2: 0.3, 3: 0.6}
TRIPPA_ETA = 0.322
TAU = 0.1
STAGE_MENU = {2: set(STAGE2_MENU), 3: {(2, t, 6 - t) for t in range(7)}}
# The audit prints pi with six decimals.
PI_TOL_EXACT = 2e-6
# Over six standard errors of a 100k-draw Monte Carlo P(best) (at most
# 0.0016), so both that estimate and an exact one pass.
PI_TOL_MC = 0.01

# Gauss-Legendre rule on [0, 1]. With integer Beta parameters every integrand
# below is a polynomial of degree < 60, which 256 nodes integrate exactly.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(256)
_X = (_NODES + 1.0) / 2.0
_W = _WEIGHTS / 2.0


# ---------------------------------------------------------------------------
# simulate

def _rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def report_sha256(out_dir: Path) -> str:
    return hashlib.sha256((out_dir / "oc_report.csv").read_bytes()).hexdigest()


def check_simulate(spec, out_dir: Path) -> tuple[list[str], dict[str, list[int]]]:
    """Problems with one simulate call's reports, and its key-rate counts.

    Counts map a rate name to [events, replicates]. Strata A and B of a
    scenario run have the same effects, so their counts are summed.
    """
    try:
        oc = {r["stratum"]: r for r in _rows(out_dir / "oc_report.csv")}
        adapt = {r["stratum"]: r for r in _rows(out_dir / "adaptability.csv")}
    except (OSError, KeyError, csv.Error) as exc:
        return [f"{out_dir}: unreadable report: {exc}"], {}
    strata = ("A", "B") if spec.pooled else ("A",)
    expected = set(strata) | ({"pooled"} if spec.pooled else set())
    if set(oc) != expected or set(adapt) != expected:
        return [f"{out_dir}: strata {sorted(oc)}, expected {sorted(expected)}"], {}

    problems = []
    counts = {name: [0, 0] for name in KEY_RATES}
    try:
        for s in strata:
            row = {**oc[s], **adapt[s]}
            n = int(row["n_reps"])
            if n != spec.reps:
                problems.append(f"stratum {s}: n_reps {n}, expected {spec.reps}")
            rec = float(row["recommend_T1"]) + float(row["recommend_T2"])
            if abs(rec - 1.0) > 1e-9:
                problems.append(f"stratum {s}: recommend rates sum to {rec!r}")
            if spec.mapped and (
                abs(float(row["alloc_mean_C"]) - 0.3) > 1e-12
                or abs(float(row["alloc_sd_C"])) > 1e-12
            ):
                problems.append(
                    f"stratum {s}: control allocation {row['alloc_mean_C']} "
                    f"sd {row['alloc_sd_C']}, expected 0.3 sd 0"
                )
            for name in KEY_RATES:
                counts[name][0] += round(float(row[name]) * n)
                counts[name][1] += n
        if spec.pooled:
            row = oc["pooled"]
            n = int(row["n_reps"])
            counts["pooled.power"] = [round(float(row["power"]) * n), n]
    except (KeyError, ValueError) as exc:
        problems.append(f"{out_dir}: malformed report: {exc}")
    return problems, counts


def rate_gate(counts: dict[str, list[int]], reference: dict[str, list[int]]) -> list[str]:
    """Key rates pooled over a run against the reference, in SE units.

    The SE combines both binomial samples; a reference rate of 0 or 1 is
    floored at one event so the gate never collapses to exact equality.
    """
    problems = []
    for name, (ref_events, ref_n) in reference.items():
        events, n = counts.get(name, (0, 0))
        if n == 0:
            problems.append(f"{name}: no replicates")
            continue
        p_ref = ref_events / ref_n
        q = min(max(p_ref, 1.0 / ref_n), 1.0 - 1.0 / ref_n)
        se = math.sqrt(q * (1.0 - q) * (1.0 / n + 1.0 / ref_n))
        z = (events / n - p_ref) / se
        if abs(z) > GATE_SE:
            problems.append(
                f"{name}: {events}/{n} vs reference {ref_events}/{ref_n} "
                f"({z:+.2f} SE)"
            )
    return problems


# ---------------------------------------------------------------------------
# interim

_POSTERIOR = re.compile(r"^posterior (\S+): Beta\(([^,]+), ([^)]+)\)", re.M)
_PI = re.compile(r"^randomisation probabilities: (.*)$", re.M)
_RATIO = re.compile(r"^stage-(\d+) ratio: (\d+):(\d+):(\d+)$", re.M)


def _pdf(a: float, b: float) -> np.ndarray:
    return np.exp((a - 1.0) * np.log(_X) + (b - 1.0) * np.log1p(-_X) - betaln(a, b))


def prob_greater(t: tuple[float, float], c: tuple[float, float]) -> float:
    """P(theta_t > theta_c) = integral of f_c(x) (1 - F_t(x))."""
    return float(np.sum(_W * _pdf(*c) * (1.0 - betainc(t[0], t[1], _X))))


def prob_best(posteriors) -> list[float]:
    """P(arm k is best) = integral of f_k(x) times the product of F_j(x), j != k."""
    cdfs = [betainc(a, b, _X) for a, b in posteriors]
    out = []
    for k, (a, b) in enumerate(posteriors):
        others = np.prod([cdfs[j] for j in range(len(posteriors)) if j != k], axis=0)
        out.append(float(np.sum(_W * _pdf(a, b) * others)))
    return out


def control_protected_pi(posteriors, counts, next_stage: int) -> list[float]:
    gamma = TRIPPA_GAMMA[next_stage]
    raw = [prob_greater(p, posteriors[0]) ** gamma for p in posteriors[1:]]
    actives = [w / sum(raw) for w in raw]
    control = math.exp(TRIPPA_ETA * (max(counts[1], counts[2]) - counts[0])) / 3.0
    total = control + sum(actives)
    return [control / total] + [w / total for w in actives]


def _tau_dropped(pi: list[float]) -> list[float]:
    shares = [pi[1] / (pi[1] + pi[2]), pi[2] / (pi[1] + pi[2])]
    drops = [i + 1 for i, s in enumerate(shares) if s < TAU]
    if len(drops) != 1:
        return pi
    kept = [0.0 if i in drops else p for i, p in enumerate(pi)]
    return [p / sum(kept) for p in kept]


def expected_pi(call, posteriors) -> tuple[list[float], float]:
    """Randomisation probabilities the call should print, and the tolerance.

    The default missing-data policy applies: a missing stage-1 outcome holds
    an unmapped design's stage-2 pi at 1/3, and a missing stage-2 outcome
    suppresses `baseline`'s tau dropping before stage 3.
    """
    if call.design == "unrestricted":
        pi, tol = prob_best(posteriors), PI_TOL_MC
    else:
        pi, tol = control_protected_pi(posteriors, call.counts, call.next_stage), PI_TOL_EXACT
    if call.design not in MAPPED_DESIGNS:
        if call.next_stage == 2 and 1 in call.missing_stages:
            pi = [1.0 / 3.0] * 3
        elif call.next_stage == 3 and call.design == "baseline" and 2 not in call.missing_stages:
            pi = _tau_dropped(pi)
    return pi, tol


def check_interim(call, code, output: str) -> list[str]:
    """Problems with one interim call's exit code and audit."""
    where = f"interim {call.design} next-stage {call.next_stage}"
    if code != 0:
        return [f"{where}: exit {code}: {output.strip()[-300:]}"]
    posts = {m[0]: (float(m[1]), float(m[2])) for m in _POSTERIOR.findall(output)}
    pi_line = _PI.search(output)
    if set(posts) != set(ARM_LABELS) or pi_line is None:
        return [f"{where}: audit lacks posteriors or probabilities"]
    try:
        printed = dict(part.split() for part in pi_line[1].split(", "))
        pi = [float(printed[label]) for label in ARM_LABELS]
    except (KeyError, ValueError):
        return [f"{where}: unreadable probabilities: {pi_line[0]}"]

    problems = []
    if abs(sum(pi) - 1.0) > PI_TOL_EXACT:
        problems.append(f"{where}: pi sums to {sum(pi)!r}")
    want, tol = expected_pi(call, [posts[label] for label in ARM_LABELS])
    if max(abs(p - w) for p, w in zip(pi, want)) > tol:
        problems.append(f"{where}: pi {pi}, recomputed {[round(w, 6) for w in want]}")
    if call.design in MAPPED_DESIGNS:
        ratio = _RATIO.search(output)
        if ratio is None or int(ratio[1]) != call.next_stage:
            problems.append(f"{where}: no stage-{call.next_stage} ratio in the audit")
        elif tuple(int(x) for x in ratio.groups()[1:]) not in STAGE_MENU[call.next_stage]:
            problems.append(f"{where}: ratio {ratio[0]} is not on the stage menu")
    return problems
