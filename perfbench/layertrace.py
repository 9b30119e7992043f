"""Outside-in layer trace: timing wrappers installed from the benchmark.

Each traced function is wrapped at every place a caller looks it up. radapt
modules bind names at import (``from .outcomes import draw_outcome``), so
patching only the defining module would miss the engine's calls; instead
every radapt module attribute that *is* the original function is replaced.
Self time is a span's duration minus the time of the traced spans it
encloses. Counting hooks run inside the span but are subtracted like a child,
so harness work lands in no layer's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (metric name, defining module, function). The defining module only locates
# the original object; the wrapper goes wherever that object is bound.
LAYERS = (
    ("engine.run_trial", "radapt.engine", "run_trial"),
    ("engine.interim_decision", "radapt.engine", "interim_decision"),
    ("engine.posterior_snapshot", "radapt.engine", "posterior_snapshot"),
    ("engine.read_accrued", "radapt.engine", "read_accrued"),
    ("engine.interim_recommendation", "radapt.engine", "interim_recommendation"),
    ("core.validate_design", "radapt.core", "validate_design"),
    ("rules.trippa_brar", "radapt.rules", "trippa_brar"),
    ("rules.ts_brar", "radapt.rules", "ts_brar"),
    ("posterior.prob_greater", "radapt.posterior", "prob_greater"),
    ("posterior.prob_max_all", "radapt.posterior", "prob_max_all"),
    ("mapping.stage_ratio", "radapt.mapping", "stage_ratio"),
    ("mapping.decide_category", "radapt.mapping", "decide_category"),
    ("randlist.generate_block", "radapt.randlist", "generate_block"),
    ("outcomes.draw_outcome", "radapt.outcomes", "draw_outcome"),
    ("outcomes.mark_missing", "radapt.outcomes", "mark_missing"),
    ("outcomes.impute_stage2_mean", "radapt.outcomes", "impute_stage2_mean"),
    ("analysis.stratum_decision", "radapt.analysis", "stratum_decision"),
    ("analysis.pooled_analysis", "radapt.analysis", "pooled_analysis"),
    ("analysis.wilcoxon_one_sided", "radapt.analysis", "wilcoxon_one_sided"),
)

# The replicate loops' self time is the tally: replicate wall time minus
# the traced trials, tests and validation inside it. The tally is private,
# so it is measured as this residual.
RESIDUALS = (
    ("engine.tally", "radapt.engine", "replicate"),
    ("engine.tally", "radapt.engine", "replicate_pooled"),
)


class Tracer:
    """Per-name call counts and self time (ns), plus counters set by hooks."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        stack, calls, self_ns = self._stack, self.calls, self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            if hook is not None:
                hook(args, kwargs)
                # the hook counts like a child span, so its time is no
                # layer's self time: not this one's, not its caller's
                stack[-1] += clock() - start
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed

        return traced

    def install(self) -> None:
        """Wrap every layer at each radapt module that binds it."""
        hooks = {
            "engine.interim_decision": self._count_tsbrar_interim,
            "analysis.wilcoxon_one_sided": self._count_ties,
        }
        modules = [
            m for n, m in sys.modules.items()
            if m is not None and (n == "radapt" or n.startswith("radapt."))
        ]
        for name, module_name, attr in LAYERS + RESIDUALS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(name, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _count_tsbrar_interim(self, args, kwargs) -> None:
        design = args[0] if args else kwargs.get("design")
        if getattr(getattr(design, "rule", None), "kind", None) == "TSBRAR":
            self.counters["tsbrar_interims"] += 1

    def _count_ties(self, args, kwargs) -> None:
        if len(args) < 2:
            return
        values = [float(v) for v in args[0]] + [float(v) for v in args[1]]
        self.counters["rank_sum_calls"] += 1
        if len(set(values)) < len(values):
            self.counters["rank_sum_tied"] += 1
