"""Compute the reference rates that gate the simulate workloads' outputs.

Run from the root of a radapt checkout; it rewrites perfbench/references.json:

    python3 perfbench/make_references.py

Each workload's design and scenario runs once at a high replicate count with
a master seed above 2**40, which no timed call uses (their seeds are below
2**31). It takes about three minutes on a 2-CPU Xeon.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from oracles import check_simulate  # noqa: E402
from workloads import SIM_WORKLOADS, simulate_args  # noqa: E402

REFERENCE_REPS = {"sim_mapped": 40_000, "sim_unrestricted": 4_000, "sim_pooled": 20_000}
REFERENCE_SEED = 2**40


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import radapt.cli

    references = {}
    for i, (name, spec) in enumerate(SIM_WORKLOADS.items()):
        reps, seed = REFERENCE_REPS[name], REFERENCE_SEED + i
        out_dir = Path.cwd() / ".perfbench_run" / f"reference-{name}"
        cli_args = simulate_args(name, seed, out_dir, reps)
        with contextlib.redirect_stdout(io.StringIO()):
            code = radapt.cli.main(cli_args)
        if code != 0:
            raise SystemExit(f"{name}: simulate exited {code}")
        problems, counts = check_simulate(replace(spec, reps=reps), out_dir)
        shutil.rmtree(out_dir)
        if problems:
            raise SystemExit(f"{name}: " + "; ".join(problems))
        references[name] = {"seed": seed, "reps": reps, "counts": counts}
        print(name, counts, flush=True)
    path = BENCH_DIR / "references.json"
    path.write_text(json.dumps(references, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
