"""Command-line front end.

Five subcommands: simulate (operating characteristics), calibrate (threshold
sweep), interim (one decision on accrued data), genlist (randomisation list
CSV), report (merge OC report files). Every subcommand is deterministic given
its flags; the seed comes from --seed, then the RADAPT_SEED environment
variable, then 0.

Exit codes: 0 success, 1 usage error, 2 data/configuration error, 3
unexpected internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys
from pathlib import Path

import numpy as np

from .calibration import calibrate_threshold, write_tradeoff_csv
from .core import TrialDesign, load_design, validate_design
from .engine import (
    MissingPolicy,
    OCReport,
    _split_problem,
    interim_recommendation,
    read_accrued,
    replicate,
    replicate_pooled,
    write_adaptability_csv,
    write_oc_csv,
)
from .mapping import RatioVector, planned_ratio
from .outcomes import (
    CALIBRATED_SIGMA,
    SCENARIOS,
    MissingCase,
    OutcomeModel,
    _check_effects,
    _check_scale,
    load_pilot,
)
from .presets import PRESET_NAMES, preset_design
from .randlist import export_list, generate_block

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # fail fast on unknown flags, but through our exit-code convention
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.seed
    env = os.environ.get("RADAPT_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ValueError(f"RADAPT_SEED must be an integer, got {env!r}") from exc
        if seed < 0:
            raise ValueError(f"RADAPT_SEED must be a non-negative integer, got {env!r}")
        return seed
    return 0


def _out_dir(text: str) -> Path:
    """--out, a directory made only after a run succeeds, so that a refused
    run leaves none behind; refused before any work if it, or the nearest
    part of it that exists, is not a directory."""
    part = text
    while not os.path.exists(part):
        part = os.path.dirname(part) or "."
    if not os.path.isdir(part):
        raise ValueError(f"--out {text}: {part} exists and is not a directory")
    return Path(text)


def _resolve_design(spec: str) -> TrialDesign:
    if spec in PRESET_NAMES:
        design = preset_design(spec)
    else:
        path = Path(spec)
        if not path.exists():
            raise ValueError(
                f"design {spec!r} is neither a preset ({', '.join(PRESET_NAMES)}) "
                f"nor an existing file: {path}"
            )
        design = load_design(path)
    problems = validate_design(design)
    if problems:
        raise ValueError(f"invalid design {spec!r}: " + "; ".join(problems))
    return design


def _parse_effects(text: str, k: int, flag: str) -> tuple[float, ...]:
    try:
        effects = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"effects must be comma-separated numbers: {text!r}") from exc
    if len(effects) != k:
        raise ValueError(f"expected {k} effects, got {len(effects)}: {text!r}")
    _check_effects(effects, flag)
    return effects


def _parse_grid(text: str) -> tuple[float, ...]:
    if ":" in text:
        try:
            lo, hi, count = text.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError as exc:
            raise ValueError(f"grid range must be lo:hi:count, got {text!r}") from exc
        if count < 2 or hi <= lo:
            raise ValueError(f"grid range needs hi > lo and count >= 2: {text!r}")
        return tuple(round(float(g), 10) for g in np.linspace(lo, hi, count))
    try:
        grid = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"grid must be numbers or lo:hi:count: {text!r}") from exc
    if not grid:
        raise ValueError("empty grid")
    return grid


def _policy_from(args) -> MissingPolicy:
    return MissingPolicy(
        no_adapt_on_stage1_missing=not args.adapt_on_stage1_missing,
        no_drop_on_stage2_missing=not args.drop_on_stage2_missing,
        impute_stage2=args.impute_stage2,
    )


def _add_policy_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--impute-stage2", action="store_true",
        help="impute missing stage-2 outcomes by the arm's observed mean",
    )
    sub.add_argument(
        "--adapt-on-stage1-missing", action="store_true",
        help="adapt stage 2 even when stage-1 outcomes are missing "
        "(default holds the stage-2 allocation balanced)",
    )
    sub.add_argument(
        "--drop-on-stage2-missing", action="store_true",
        help="allow arm dropping even when stage-2 outcomes are missing "
        "(default demotes Drop/Keep and skips tau dropping)",
    )


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--design", required=True,
                     help=f"preset name ({', '.join(PRESET_NAMES)}) or design JSON path")
    sub.add_argument("--seed", type=int, default=None,
                     help="master seed (default: RADAPT_SEED env var, then 0)")


def _fmt_cell(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _print_summary(reports: list[OCReport]) -> None:
    head = reports[0]
    print(
        f"design={head.design_name} scenario={head.scenario} case={head.case_id} "
        f"reps={head.n_reps} seed={head.master_seed}"
    )
    alloc_head = "/".join(head.arm_labels)
    print(f"{'stratum':<8} {'type1':>7} {'power':>7} {'any_rej':>8}  alloc {alloc_head}")
    for rep in reports:
        rates = rep.rates
        if rates["alloc_mean"] is None:
            alloc = "NA"
        else:
            alloc = "/".join(f"{m:.3f}" for m in rates["alloc_mean"])
        print(
            f"{rep.stratum:<8} {_fmt_cell(rates['type1']):>7} "
            f"{_fmt_cell(rates['power']):>7} {rates['any_reject']:>8.4f}  {alloc}"
        )


# ---------------------------------------------------------------------------
# Subcommands

def _outcome_scale(args) -> float:
    """--scale, or the calibrated scale; refused with --pilot, whose model
    resamples the pilot values and reads no scale."""
    if args.scale is None:
        return CALIBRATED_SIGMA
    if args.pilot:
        raise ValueError("--scale does not apply to --pilot runs, which resample the pilot")
    _check_scale(args.scale, "--scale")
    return args.scale


def _cmd_simulate(args) -> int:
    out_dir = _out_dir(args.out)
    design = _resolve_design(args.design)
    policy = _policy_from(args)
    case = MissingCase(args.case)
    seed = _resolve_seed(args)
    scale = _outcome_scale(args)

    if args.effects:
        effects = _parse_effects(args.effects, design.k, "--effects")
        if args.pilot:
            model = OutcomeModel.bootstrap(load_pilot(args.pilot), effects)
        else:
            model = OutcomeModel.parametric(effects, scale=scale)
        reports = [
            replicate(
                design, model, case=case, policy=policy, n_reps=args.reps,
                master_seed=seed, workers=args.workers,
            )
        ]
    else:
        if args.pilot:
            raise ValueError("--pilot applies only to --effects runs")
        scenario = SCENARIOS.get(args.scenario)
        if scenario is None:
            raise ValueError(
                f"unknown scenario {args.scenario!r}; "
                f"choose from {', '.join(sorted(SCENARIOS))}"
            )
        reports = list(
            replicate_pooled(
                design, scenario, case=case, policy=policy, n_reps=args.reps,
                master_seed=seed, workers=args.workers, scale=scale,
            )
        )

    out_dir.mkdir(parents=True, exist_ok=True)
    oc_path = out_dir / "oc_report.csv"
    adapt_path = out_dir / "adaptability.csv"
    write_oc_csv(reports, oc_path)
    write_adaptability_csv(reports, adapt_path)
    _print_summary(reports)
    print(f"wrote {oc_path} and {adapt_path}")
    return 0


def _cmd_calibrate(args) -> int:
    out_dir = _out_dir(args.out)
    design = _resolve_design(args.design)
    seed = _resolve_seed(args)
    grid = _parse_grid(args.grid)
    h1_effects = _parse_effects(args.h1_effects, design.k, "--h1-effects")
    result = calibrate_threshold(
        design,
        stage=args.stage,
        grid=grid,
        n_reps=args.reps,
        master_seed=seed,
        h1_effects=h1_effects,
        case=MissingCase(args.case),
        policy=_policy_from(args),
        workers=args.workers,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "tradeoff.csv"
    write_tradeoff_csv(result, path)

    print(f"{'threshold':>10} {'metric_H0':>10} {'metric_H1':>10}  pareto")
    for row in result.rows:
        mark = "*" if row.pareto else ""
        print(
            f"{row.threshold:>10.4f} {row.metric_h0:>10.4f} "
            f"{row.metric_h1:>10.4f}  {mark}"
        )
    print(f"selected threshold: {result.selected:g}")
    print(f"wrote {path}")
    return 0


def _cmd_interim(args) -> int:
    out_dir = _out_dir(args.out) if args.out else None
    design = _resolve_design(args.design)
    records = read_accrued(args.data, design, upcoming_stage=args.next_stage)
    seed = _resolve_seed(args)
    result = interim_recommendation(
        design, records, args.next_stage, policy=_policy_from(args), seed=seed
    )
    lines = list(result.audit)
    for line in lines:
        print(line)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        audit_path = out_dir / "interim_audit.txt"
        audit_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {audit_path}")
    return 0


def _parse_ratio(text: str, k: int) -> RatioVector:
    try:
        counts = tuple(int(x) for x in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"ratio must be colon-separated integers: {text!r}") from exc
    if len(counts) != k:
        raise ValueError(f"ratio needs {k} entries, got {len(counts)}: {text!r}")
    return RatioVector(counts)


def _cmd_genlist(args) -> int:
    if args.stage is not None and not args.ratio:
        raise ValueError("--stage names the stage of the first --ratio block; "
                         "pass --ratio with it")
    design = _resolve_design(args.design)
    seed = _resolve_seed(args)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    tag = f"seed={seed}"

    if args.ratio:
        entries = []
        first = 1 if args.stage is None else args.stage
        for stage, text in enumerate(args.ratio, start=first):
            ratio = _parse_ratio(text, design.k)
            # the checks interim applies to accrued stages
            problem = _split_problem(design, stage, ratio.counts)
            if problem is not None:
                raise ValueError(f"--ratio {text}: stage {stage} {problem}")
            entries.append((stage, ratio))
    else:
        # the permuted-block schedule, or a fixed balanced first stage
        planned = [(t, planned_ratio(design, t)) for t in range(1, design.n_stages + 1)]
        entries = [(t, ratio) for t, ratio in planned if ratio is not None]
        if not entries:
            raise ValueError(
                "design has no pre-determined blocks (i.i.d. randomisation); "
                "pass --ratio to generate a block for a decided ratio"
            )

    blocks = [
        generate_block(ratio, rng, design.arms, stage_index=stage, seed_tag=tag)
        for stage, ratio in entries
    ]
    export_list(blocks, args.out)
    total = sum(len(b.assignments) for b in blocks)
    print(f"wrote {args.out}: {len(blocks)} block(s), {total} positions")
    return 0


def _cmd_report(args) -> int:
    # every input is read and checked before anything is written
    fieldnames: list[str] = []
    rows: list[dict] = []
    for spec in args.inputs:
        path = Path(spec)
        if not path.exists():
            raise ValueError(f"report file not found: {path}")
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty report file")
            for name in header:
                if name not in fieldnames:
                    fieldnames.append(name)
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValueError(
                        f"{path}:{reader.line_num}: {len(row)} cells under a "
                        f"{len(header)}-column header"
                    )
                rows.append(dict(zip(header, row)))
    if not rows:
        raise ValueError("no report rows in the input files")

    target = Path(args.out) if args.out else None
    with (
        target.open("w", newline="", encoding="utf-8") if target
        else contextlib.nullcontext(sys.stdout)
    ) as fh:
        writer = csv.DictWriter(
            fh, fieldnames=fieldnames, restval="NA", lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(rows)
    if target:
        print(f"wrote {target}: {len(rows)} rows")
    return 0


# ---------------------------------------------------------------------------
# Parser

def _build_parser() -> _Parser:
    parser = _Parser(
        prog="radapt",
        description="Simulate and conduct small-sample response-adaptive "
        "trials with discrete allocation-ratio mapping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="operating characteristics of a design")
    _add_common_flags(p)
    p.add_argument("--scenario", default="S1",
                   help="two-stratum scenario id S1..S9 (default S1)")
    p.add_argument("--effects", default=None,
                   help="single-stratum run with these comma-separated effects "
                   "instead of a scenario")
    p.add_argument("--case", type=int, default=0, choices=range(6),
                   help="missing-data case id 0..5 (default 0)")
    p.add_argument("--reps", type=int, default=1000, help="replicates (default 1000)")
    p.add_argument("--workers", type=int, default=1, help="worker processes (>= 1)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--scale", type=float, default=None,
                   help="outcome noise scale of the parametric model (default: "
                   f"the calibrated {CALIBRATED_SIGMA}; not with --pilot)")
    p.add_argument("--pilot", default=None,
                   help="pilot-sample CSV for the resampling outcome model "
                   "(only with --effects)")
    _add_policy_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("calibrate", help="sweep an adaptation threshold")
    _add_common_flags(p)
    p.add_argument("--stage", type=int, required=True, choices=(2, 3),
                   help="which stage's top threshold to sweep")
    p.add_argument("--grid", required=True,
                   help="comma-separated values or lo:hi:count")
    p.add_argument("--h1-effects", default="0,0,0.3",
                   help="alternative-scenario effects (default 0,0,0.3)")
    p.add_argument("--case", type=int, default=0, choices=range(6))
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--workers", type=int, default=1, help="worker processes (>= 1)")
    p.add_argument("--out", default=".", help="output directory")
    _add_policy_flags(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("interim", help="decision on accrued data")
    _add_common_flags(p)
    p.add_argument("--data", required=True,
                   help="accrued CSV: patient_id,stage,arm_label,delta_y (NA ok)")
    p.add_argument("--next-stage", type=int, required=True,
                   help="the stage about to open")
    p.add_argument("--out", default=None,
                   help="directory for the audit log file (optional)")
    _add_policy_flags(p)
    p.set_defaults(func=_cmd_interim)

    p = sub.add_parser("genlist", help="generate a randomisation list CSV")
    _add_common_flags(p)
    p.add_argument("--ratio", action="append", default=None,
                   help="C:T1:T2 block ratio; repeat for consecutive stages "
                   "(default: the design's pre-determined blocks)")
    p.add_argument("--stage", type=int, default=None,
                   help="stage of the first --ratio block (default 1; only "
                   "with --ratio)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_genlist)

    p = sub.add_parser("report", help="merge OC report CSV files")
    p.add_argument("inputs", nargs="+", help="oc_report.csv files to merge")
    p.add_argument("--out", default=None,
                   help="merged CSV path (default: print to stdout)")
    p.set_defaults(func=_cmd_report)

    return parser


# argparse keeps no state between parse_args calls, so one parser serves
# every main() call in the process
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
