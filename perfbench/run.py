"""radapt benchmark: simulation throughput, interim latency, layer trace.

Run from the root of a radapt checkout:

    python3 perfbench/run.py --workload sim_mapped --seed 1 --seconds 20 --trace 0

The workloads are listed in workloads.py and README.md. Each run starts
fresh processes: five set-up probes, then one workload process that drives
radapt in-process through ``radapt.cli.main`` with ``--workers 1``. The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, from a run whose first half is untraced and whose second
half repeats the same operations traced. Times are scaled to a reference
machine speed (README.md says why). The line before the result is
provenance (versions, CPU, seeds, counts, unscaled values, report digests).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from layertrace import LAYERS  # noqa: E402
from oracles import rate_gate  # noqa: E402
from workloads import (  # noqa: E402
    SIM_WORKLOADS, WORKLOADS, interim_plan, op_seeds, simulate_args,
)

SETUP_PROBES = 5
# Times are reported at the machine speed on which worker.calibrate() takes
# this long: each measured time is multiplied by REFERENCE_CALIB_S over the
# calibration measured around it.
REFERENCE_CALIB_S = 0.0025
# A run must end within 180 s; a hung process is stopped before that.
DEADLINE_S = 170


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _run_worker(job: dict, job_path: Path, deadline: float) -> dict:
    job_path.write_text(json.dumps(job), encoding="utf-8")
    result_path = Path(job["result"])
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(
            f"workload process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(result_path.read_text(encoding="utf-8"))


def _records(phase) -> list[dict]:
    """One record per operation of a worker phase."""
    return [
        {"seconds": s, "units": u, "calib": c}
        for s, u, c in zip(phase["seconds"], phase["units"], phase["calib"])
    ]


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _scaled(record) -> float:
    """An operation's seconds at the reference machine speed."""
    return record["seconds"] * REFERENCE_CALIB_S / record["calib"]


def _end_to_end(ops, setup, peak_rss_mb: float, interim: bool, seconds=_scaled) -> dict:
    if interim:
        units_per_s = sum(r["units"] for r in ops) / sum(seconds(r) for r in ops)
    else:
        units_per_s = statistics.median(r["units"] / seconds(r) for r in ops)
    ms = [seconds(r) * 1000.0 for r in ops]
    return {
        "units_per_s": (units_per_s, "1/s"),
        "op_ms_p50": (_percentile(ms, 50), "ms"),
        "op_ms_p99": (_percentile(ms, 99), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    # a ratio with nothing to count (no lookups of that kind) reads 0
    return num / den if den else 0.0


def _per_layer(raw) -> dict:
    trace = raw["trace"]
    plain, traced = (_records(phase) for phase in raw["phases"])
    units = sum(r["units"] for r in traced)
    calls, self_ns, counters = trace["calls"], trace["self_ns"], trace["counters"]
    # self times at the reference speed, scaled by the traced half's calibration
    us_per_unit = REFERENCE_CALIB_S / statistics.median(r["calib"] for r in traced) / 1e3 / units
    metrics = {}
    for name, _, _ in LAYERS:
        metrics[f"{name}.calls_per_unit"] = (calls.get(name, 0) / units, "count")
        metrics[f"{name}.self_us_per_unit"] = (self_ns.get(name, 0) * us_per_unit, "us")
    for name in ("engine.tally", "cli.main"):
        metrics[f"{name}.self_us_per_unit"] = (self_ns.get(name, 0) * us_per_unit, "us")
    named_ns = sum(self_ns.get(name, 0) for name, _, _ in LAYERS) + self_ns.get("engine.tally", 0)

    hits, misses = raw["null_table"]
    metrics["analysis.null_table_hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    metrics["analysis.rank_sum_tie_frac"] = (
        _ratio(counters.get("rank_sum_tied", 0), counters.get("rank_sum_calls", 0)),
        "ratio",
    )
    interims = counters.get("tsbrar_interims", 0)
    metrics["rules.pbest_memo_hit_ratio"] = (
        _ratio(interims - calls.get("rules.ts_brar", 0), interims), "ratio"
    )
    # cli.main is the outermost span, so it holds all time no layer claims;
    # coverage is the share of the traced wall time that named layers explain.
    metrics["trace.coverage_frac"] = (
        named_ns / 1e9 / sum(r["seconds"] for r in traced), "ratio"
    )
    # same operations in both halves: compare the common prefix per unit
    n = min(len(plain), len(traced))
    per_unit = [
        sum(_scaled(r) for r in half[:n]) / sum(r["units"] for r in half[:n])
        for half in (plain, traced)
    ]
    metrics["trace.overhead_frac"] = (per_unit[1] / per_unit[0] - 1.0, "ratio")
    return metrics


def _check(workload: str, raw) -> tuple[list[str], int]:
    """Problems and failed operation count of a run.

    The worker checked each operation as it returned; here the key rates
    pooled over a simulate run meet the reference rates.
    """
    problems = [p for phase in raw["phases"] for p in phase["problems"]]
    failed = sum(phase["failed"] for phase in raw["phases"])
    if workload in SIM_WORKLOADS:
        references = json.loads((BENCH_DIR / "references.json").read_text(encoding="utf-8"))
        gate = rate_gate(raw["rate_counts"], references[workload]["counts"])
        if gate:
            # the rates come from all calls together, so all of them fail
            problems += gate
            failed = sum(len(phase["seconds"]) for phase in raw["phases"])
    return problems, failed


def _setup_samples(workload, seed, plan, root: Path, work: Path, deadline: float):
    """Set-up seconds of each probe that succeeded, and the failure count."""
    samples, failures = [], 0
    for i in range(SETUP_PROBES):
        probe_dir = work / f"probe_{i}"
        probe_dir.mkdir()
        if plan:
            first_unit = list(plan[0].args)
        else:
            first_unit = simulate_args(workload, next(op_seeds(seed)), probe_dir, 1)
        result = _run_worker(
            {"mode": "probe", "root": str(root), "probe_args": first_unit,
             "result": str(probe_dir / "result.json")},
            probe_dir / "job.json", deadline,
        )
        if result["code"] == 0:
            samples.append(result["setup_s"])
        else:
            failures += 1
    return samples, failures


def run(
    workload: str, seed: int, seconds: float, trace: bool, root: Path,
    reps: int | None = None,
) -> dict:
    """One benchmark run; `reps` shrinks the simulate calls for the smoke test."""
    deadline = time.monotonic() + DEADLINE_S
    if not (root / "src" / "radapt" / "__init__.py").is_file():
        raise BenchError(f"{root} is not a radapt checkout (no src/radapt)")
    work = root / ".perfbench_run" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        job = {
            "root": str(root), "workload": workload, "seed": seed,
            "seconds": seconds, "trace": trace, "reps": reps,
        }
        plan = []
        if workload == "interim_mix":
            plan = interim_plan(seed, work)
            job["interim_calls"] = [c.to_json() for c in plan]

        setup, probe_failures = _setup_samples(workload, seed, plan, root, work, deadline)
        if not setup:
            raise BenchError("every set-up probe failed")

        raw = _run_worker(
            {**job, "mode": "measure", "work_dir": str(work),
             "result": str(work / "result.json")},
            work / "job.json", deadline,
        )
        ops = [r for phase in raw["phases"] for r in _records(phase)]
        if not ops:
            raise BenchError("no operation completed")
        problems, failed = _check(workload, raw)
        interim = workload == "interim_mix"
        if trace:
            metrics = _per_layer(raw)
        else:
            metrics = _end_to_end(ops, setup, raw["peak_rss_mb"], interim)
            measured = _end_to_end(
                ops, setup, raw["peak_rss_mb"], interim,
                seconds=lambda r: r["seconds"],
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.exists() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    attempted = len(ops) + SETUP_PROBES
    failed += probe_failures
    spec = SIM_WORKLOADS.get(workload)
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        **raw["versions"], "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "reps_per_call": (reps or spec.reps) if spec else None,
        "operations": len(ops),
        "units": sum(r["units"] for r in ops),
        "setup_samples_s": setup,
        "calib_median_s": statistics.median(r["calib"] for r in ops),
        "null_table_hits_misses": raw["null_table"],
        "pm_cache_max_size": raw["pm_cache_max"],
        "report_sha256": raw["digests"],
        "problems": problems[:20],
    }
    if trace:
        info["null_table_present"] = raw["null_table_present"]
        info["untraced_layers"] = raw["trace"]["missing"]
    else:
        info["unscaled"] = {k: v for k, (v, _) in measured.items()}
    return {
        "info": info,
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in out["info"]["problems"]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    print(json.dumps({"info": out["info"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
