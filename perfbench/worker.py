"""The workload process: imports radapt from the checkout and times operations.

run.py starts this file as a fresh process, once per set-up probe and once
for the measured loop, and passes a JSON job file. The process checks each
operation's output as it returns and keeps only the problems, so its memory
does not grow with the number of operations. It writes its raw measurements
as JSON to the path the job names; run.py derives the metrics.

    python3 perfbench/worker.py JOB.json
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
from array import array
from dataclasses import replace
from pathlib import Path

CALIBRATE_EVERY_S = 0.25
CALIBRATION_SPAN = 6
# Problem texts kept per phase; failures beyond these are only counted.
MAX_PROBLEMS = 20


def _load_radapt(root: Path):
    sys.path.insert(0, str(root / "src"))
    import radapt.cli

    return radapt.cli


class Session:
    """radapt's CLI entry point plus reads of its private counters.

    The counters are private names that later changes may delete; each read
    returns None when its name is gone, and the benchmark keeps running.
    """

    def __init__(self, cli) -> None:
        self.main = cli.main
        self.null_hits = 0
        self.null_misses = 0
        self.pm_cache_max: int | None = None

    def reset_caches(self) -> None:
        """Empty radapt's in-process memo caches before each operation.

        Each operation then starts as cold as the same command in a fresh
        process: a user's ``radapt simulate`` or ``radapt interim`` pays for
        every memo it fills. Counter values are read first.
        """
        info = _null_table_info()
        if info is not None:
            self.null_hits += info.hits
            self.null_misses += info.misses
        size = _pm_cache_size()
        if size is not None:
            self.pm_cache_max = max(self.pm_cache_max or 0, size)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "radapt" or name.startswith("radapt.")):
                continue
            for attr, value in list(vars(module).items()):
                if isinstance(value, dict) and attr.startswith("_") and "cache" in attr:
                    value.clear()
                elif callable(value):
                    # a traced wrapper hides the memo it wraps
                    for fn in (value, getattr(value, "__wrapped__", None)):
                        if callable(getattr(fn, "cache_clear", None)):
                            fn.cache_clear()
                            break

    def call(self, main, args) -> tuple[int | str, float, str]:
        """Run one CLI operation; returns exit code, seconds and its output."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            start = time.perf_counter()
            try:
                code = main(list(args))
            except Exception as exc:  # the loop must go on; the check fails it
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        return code, elapsed, out.getvalue()


def _null_table_info():
    analysis = sys.modules.get("radapt.analysis")
    cache_info = getattr(getattr(analysis, "_null_survival", None), "cache_info", None)
    return cache_info() if cache_info is not None else None


def _pm_cache_size() -> int | None:
    cache = getattr(sys.modules.get("radapt.engine"), "_pm_cache", None)
    return len(cache) if isinstance(cache, dict) else None


def calibrate() -> float:
    """Seconds taken by a fixed piece of interpreter and numpy work (~2 ms).

    The work resembles a trial's: small numpy draws and sorts, Python
    sorting and dict building. A shared machine can change speed by up to a
    factor of two within a minute (measured on a shared 2-CPU Xeon); run.py
    divides each operation's time by the calibration around it, which
    cancels the machine's speed and keeps radapt's.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(120):
        x = rng.lognormal(0.0, 0.6, 20)
        ranks = np.empty(20)
        ranks[np.argsort(x)] = np.arange(20)
        table = dict(enumerate(sorted(float(v) for v in x)))
        table.clear()
    return time.perf_counter() - start


class SimChecks:
    """Checks each simulate call as it returns, then deletes its reports.

    Keeps the key-rate counts pooled over the run's distinct seeds (the
    traced half of a traced run repeats the untraced half's seeds), for
    run.py's rate gate, and the SHA-256 of every report that passed.
    """

    def __init__(self, spec) -> None:
        self.spec = spec
        self.counts: dict[str, list[int]] = {}
        self.seen_seeds: set[str] = set()
        self.digests: list[str] = []

    def __call__(self, index: int, args, code, output: str) -> list[str]:
        from oracles import check_simulate, report_sha256

        out_dir = Path(args[args.index("--out") + 1])
        if code != 0:
            return [f"simulate exit {code}: {output.strip()[-300:]}"]
        found, counts = check_simulate(self.spec, out_dir)
        if not found:
            self.digests.append(report_sha256(out_dir))
            seed = args[args.index("--seed") + 1]
            if seed not in self.seen_seeds:
                self.seen_seeds.add(seed)
                for name, (events, n) in counts.items():
                    total = self.counts.setdefault(name, [0, 0])
                    total[0] += events
                    total[1] += n
        shutil.rmtree(out_dir, ignore_errors=True)
        return found


def _run_phase(session: Session, main, ops, seconds: float, check) -> dict:
    """Closed loop over `ops` for about `seconds`, checking each op.

    An op starts only if it should end less than half an op past the
    deadline, so long simulate calls do not stretch the run by a whole call.
    The calibration runs between ops at least every CALIBRATE_EVERY_S. Each
    op gets the median of the CALIBRATION_SPAN calibrations nearest to it,
    so one disturbed calibration does not distort an op. Per op, only its
    time, units and calibration interval are kept, in flat arrays.

    Each calibration is preceded by a full garbage collection. radapt
    leaves reference cycles behind (an argparse parser per call), which
    otherwise pile up until Python's rare full collection: the peak memory
    would depend on how many calls a run makes, and later calls would pay
    for more full collections than the same command in a fresh process.
    """
    times, units, intervals = array("d"), array("q"), array("q")
    failed, problems = 0, []
    calibs = [calibrate()]
    calibrated_at = start = time.perf_counter()
    last = 0.0
    for index, (args, op_units) in enumerate(ops):
        if time.perf_counter() - start + last / 2 >= seconds:
            break
        session.reset_caches()
        code, elapsed, output = session.call(main, args)
        last = elapsed
        times.append(elapsed)
        units.append(op_units)
        intervals.append(len(calibs) - 1)
        found = check(index, args, code, output)
        if found:
            failed += 1
            problems += found[: MAX_PROBLEMS - len(problems)]
        if time.perf_counter() - calibrated_at >= CALIBRATE_EVERY_S:
            gc.collect()
            calibs.append(calibrate())
            calibrated_at = time.perf_counter()
    calibs.append(calibrate())
    half = CALIBRATION_SPAN // 2
    # calibrations interval and interval + 1 bracket the op
    op_calibs = array("d")
    for interval in intervals:
        lo = max(0, interval + 1 - half)
        op_calibs.append(statistics.median(calibs[lo : lo + CALIBRATION_SPAN]))
    session.reset_caches()  # fold the last op's counters in
    return {
        "seconds": times, "units": units, "calib": op_calibs,
        "failed": failed, "problems": problems,
    }


def _warm_up(session: Session, job) -> None:
    """Run each code path once, untimed, before the loop.

    The process's one-time costs (lazy imports, first calls into numpy and
    scipy) belong to set-up, which the probes measure; without this the
    first timed call would carry them and the latency tail with it.
    """
    if job["workload"] == "interim_mix":
        from workloads import INTERIM_DESIGNS

        warm = [call["args"] for call in job["interim_calls"][: len(INTERIM_DESIGNS)]]
    else:
        warm = [next(_sim_ops(job, "warm", reps=1))[0]]
    for args in warm:
        session.call(session.main, args)
    session.reset_caches()
    session.null_hits = session.null_misses = 0


def _sim_reps(job) -> int:
    from workloads import SIM_WORKLOADS

    return job["reps"] or SIM_WORKLOADS[job["workload"]].reps


def _sim_ops(job, tag: str, reps=None):
    from workloads import op_seeds, simulate_args

    reps = reps or _sim_reps(job)
    out_root = Path(job["work_dir"])
    for i, seed in enumerate(op_seeds(job["seed"])):
        yield simulate_args(job["workload"], seed, out_root / f"{tag}_{i:04d}", reps), reps


def _ops(job, tag: str = "op"):
    if job["workload"] == "interim_mix":
        return ((call["args"], 1) for call in itertools.cycle(job["interim_calls"]))
    return _sim_ops(job, tag)


def _checks(job):
    """The check each operation's output goes through as it returns."""
    from oracles import check_interim
    from workloads import SIM_WORKLOADS, InterimCall

    if job["workload"] == "interim_mix":
        calls = [InterimCall.from_json(c) for c in job["interim_calls"]]
        return lambda index, args, code, output: check_interim(
            calls[index % len(calls)], code, output
        )
    return SimChecks(replace(SIM_WORKLOADS[job["workload"]], reps=_sim_reps(job)))


def probe(job) -> dict:
    """Set-up time: import radapt (numpy and scipy with it) plus the first
    unit of work, whose arguments run.py passes ready-made."""
    start = time.perf_counter()
    cli = _load_radapt(Path(job["root"]))
    code = cli.main(job["probe_args"])
    return {"code": code, "setup_s": time.perf_counter() - start}


def measure(job) -> dict:
    cli = _load_radapt(Path(job["root"]))
    import numpy
    import scipy

    from layertrace import Tracer

    session = Session(cli)
    check = _checks(job)
    _warm_up(session, job)
    seconds = job["seconds"]
    result = {
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if not job["trace"]:
        phases = [_run_phase(session, session.main, _ops(job), seconds, check)]
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    else:
        # An untraced half, then a traced half over the same operations, so
        # the difference between them is the tracing overhead.
        plain = _run_phase(session, session.main, _ops(job), seconds / 2, check)
        session.null_hits = session.null_misses = 0
        tracer = Tracer()
        tracer.install()
        traced_main = tracer.wrap("cli.main", session.main)
        try:
            traced = _run_phase(
                session, traced_main, _ops(job, "traced"), seconds / 2, check
            )
        finally:
            tracer.uninstall()
        phases = [plain, traced]
        result["trace"] = {
            "calls": dict(tracer.calls),
            "self_ns": dict(tracer.self_ns),
            "counters": dict(tracer.counters),
            "missing": tracer.missing,
        }
        result["null_table_present"] = _null_table_info() is not None
    result.update(
        phases=phases,
        null_table=[session.null_hits, session.null_misses],
        pm_cache_max=session.pm_cache_max,
        rate_counts=getattr(check, "counts", None),
        digests=getattr(check, "digests", []),
    )
    return result


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    result = probe(job) if job["mode"] == "probe" else measure(job)
    # default=list writes the phases' arrays as JSON lists
    Path(job["result"]).write_text(json.dumps(result, default=list), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
