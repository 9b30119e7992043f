"""Trial conduct and replication: single trajectories, operating
characteristics over many replicates, report CSVs, and one-off interim
recommendations on accrued data. Threshold calibration is in calibration.py.

Determinism contract
--------------------
Replicates run in blocks of _BLOCK_REPS (256), whatever the worker count.
Block b of a run with master seed m draws every random number of its
replicates from one counter-based generator, Philox keyed by
``SeedSequence([m, b])`` (pooled strata use ``[m, b, 0]`` and ``[m, b, 1]``),
in two whole-block calls of fixed shape: uniforms and outcome normals for a
full block of rows (_draw). Row i of block b is replicate 256 b + i, so a
replicate's numbers depend only on (m, i) and the stage sizes, not on the
rule, the mapping, the run length, the interim decisions or which blocks are
conducted together: runs of two designs at one seed use common random
numbers, and any replicate can be replayed from (m, i). The continuous rules
draw nothing: each one, P(best) included, is computed exactly from the
posterior state and the assigned counts, so memoised values cannot depend on
evaluation order or on how replicates are split across worker processes.
Each conducted group of replicates reduces to integer counters keyed by
metric name, and groups, worker chunks and strata merge by summing them
(_merge). Every reported rate is derived once from the merged integers by
one column spec (_COLUMNS), which also lays out both report CSVs, so reports
are byte-identical for any worker count and across repeated runs.

replicate and replicate_pooled run one path (_run, _run_chunk): one stratum
per outcome model, all conducted with the one design, plus the pooled tests'
counters where there are two strata.

Replicates are conducted in groups of up to _CONDUCT_BLOCKS consecutive
blocks of a worker's range (1,024 rows), each block's rows drawn from its
own generator into the group's arrays. Every row is its own trial, so the
grouping moves no number: it only shares numpy's per-call cost over more
rows. A group is conducted all rows one stage at a time, over
(replicates x patients) arrays of arms, outcomes and missing cells. Per stage
a row's uniform keys order its ratio's arm list (or, for i.i.d. assignment,
fall through pi's cumulative sum), its outcomes come from its normals, the
smallest of its missingness keys mark the missing cells, and its coin picks
between two stage-3 ratios. This is the package's one conduct path: a live
interim decision on accrued data is taken as a block of one row. The record-
level trial in tests/reference.py, one trial at a time on one row of the same
draws, is the tests' oracle for it.

Interim decisions are pure functions of a few integer counts per row, its
count key (per arm successes, failures and assigned patients, plus whether
any stage-1 and any stage-2 outcome is missing). Each (design, policy,
stage) has one decision table (_DecisionTable, kept in _decision_cache) with
a row per key seen so far, shared by both strata of a pooled run; a conduct
looks its rows' keys up there and decides the keys the table lacks together,
as arrays and through the rules' shared arithmetic. An InterimRecord is
built from a table row only where something prints or inspects it: the
interim audit and the tests.

The ratios a stage may take come from one place. Stage 1 takes
mapping.planned_ratio, or i.i.d. assignment where it is None; every later
stage takes its table row's options, which are planned_ratio's where it
gives one and otherwise, for a mapped stage the data decide,
mapping.allocation_options of the row's category pair. Blocks and interim
both read them from there; the simulated coin is a row's `coin` draw,
interim's a draw from a generator the caller seeds.
"""

from __future__ import annotations

import csv
import itertools
import math
import multiprocessing
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import rank_sum_rows
from .core import TrialDesign, validate_design
from .mapping import (
    BALANCED,
    CATEGORIES,
    MAPPED_CONTROLS,
    AdaptationCategory,
    RatioVector,
    active_share_rows,
    active_shares,
    allocation_options,
    category_codes,
    planned_ratio,
)
from .outcomes import (
    CALIBRATED_SIGMA,
    DEFAULT_SHAPE,
    MissingCase,
    OutcomeModel,
    PatientRecord,
    Scenario,
    outcomes_from_raw,
)
from .posterior import (
    BetaPosterior,
    _in_arm_order,
    _is_integral,
    _prob_best_sets,
    _prob_greater_of,
    prob_best,
)
from .rules import (
    ProbVector,
    _equal_probs,
    _normalised,
    _trippa_probs,
    _ts_probs,
)

__all__ = [
    "MissingPolicy",
    "InterimRecord",
    "OCReport",
    "replicate",
    "replicate_pooled",
    "InterimResult",
    "interim_recommendation",
    "read_accrued",
    "write_oc_csv",
    "write_adaptability_csv",
]

_SHARE_TOL = 1e-9


@dataclass(frozen=True)
class MissingPolicy:
    """Conduct-time handling of missing interim outcomes.

    no_adapt_on_stage1_missing
        Any missing stage-1 outcome at the first interim forces the stage-2
        allocation to be balanced (ratio 2:2:2 for mapped designs, pi = 1/K
        otherwise).
    no_drop_on_stage2_missing
        Any missing stage-2 outcome at the last interim suppresses arm
        dropping: mapped Drop/Keep categories are demoted to Disfavour/Favour
        and tau-based dropping is skipped.
    impute_stage2
        Replace missing stage-2 outcomes by their arm's observed mean before
        each interim and the final analysis. Imputation runs first, so an
        imputed stage-2 outcome no longer counts as missing for the dropping
        policy above.
    """

    no_adapt_on_stage1_missing: bool = True
    no_drop_on_stage2_missing: bool = True
    impute_stage2: bool = False


@dataclass(frozen=True)
class InterimRecord:
    """Everything decided at one interim, before `upcoming_stage` opens.

    `options` are the ratios the stage may take: one, two in the order of
    the fair coin that picks between them, or none for i.i.d. assignment at
    `pi`. `ratio` is the one the stage takes, None for i.i.d. assignment.
    """

    upcoming_stage: int
    posteriors: tuple[BetaPosterior, ...]
    pi: ProbVector
    categories: tuple[AdaptationCategory, ...] | None
    applied_categories: tuple[AdaptationCategory, ...] | None
    overrides: tuple[str, ...]
    options: tuple[RatioVector, ...]
    ratio: RatioVector | None
    dropped: tuple[int, ...] = ()


# ---------------------------------------------------------------------------
# Interim decisions

_DEMOTE = {
    AdaptationCategory.DROP: AdaptationCategory.DISFAVOUR,
    AdaptationCategory.KEEP: AdaptationCategory.FAVOUR,
}
# Each category code's code (position in CATEGORIES) after the Drop/Keep
# demotion.
_DEMOTED = np.array([CATEGORIES.index(_DEMOTE.get(c, c)) for c in CATEGORIES])
# The rows of a table's `marks`, and by option slot of a category pair the
# marks of its two actives, (slots, 4, 2).
_MARKED = (
    AdaptationCategory.DROP,
    AdaptationCategory.KEEP,
    AdaptationCategory.FAVOUR,
    AdaptationCategory.DISFAVOUR,
)
_PAIR_MARKS = np.array([
    [[CATEGORIES[c] is mark for c in pair] for mark in _MARKED]
    for pair in itertools.product(range(len(CATEGORIES)), repeat=2)
])
# Option slots: the applied category codes c1, c2 of the two actives take
# slot c1 * 5 + c2 (the dot product with _SLOT_OF), as in _PAIR_MARKS; then
# come the held stage-2 block and the planned ratio.
_SLOT_OF = np.array([len(CATEGORIES), 1])
_HELD_SLOT = len(CATEGORIES) ** 2
_PLANNED_SLOT = _HELD_SLOT + 1


def _stacked(column: np.ndarray | None, new: np.ndarray) -> np.ndarray:
    return new if column is None else np.concatenate([column, new])


class _DecisionTable:
    """The interim decisions before one stage of one design under one
    missing-data policy, one row per count key, in the order first seen.

    A count key is everything an interim decision reads from the data: per
    arm the successes, failures and assigned patients, arm after arm, then
    whether any stage-1 and whether any stage-2 outcome is missing (1 or 0).
    `count_keys` holds them, (rows, 3K + 2) int64, and `rows` maps each
    key's bytes to its row.

    Every other column is a pure function of its row's key. Blocks read
    `pi`, the randomisation probabilities after every override, (rows, K);
    `ratios`, the first and last of the row's options, the coin's two
    choices or one ratio twice, (rows, 2, K), or None for i.i.d. assignment
    at `pi`; and, on the last stage's table, `marks`. Where the data decide
    a mapped stage, `slot` holds each row's key into `options` and `codes`
    the two actives' categories, then their applied categories, as
    CATEGORIES codes, (rows, 4); where the stage drops arms by tau,
    `dropped` holds the arms dropped, (rows, K). table[row] builds the row's
    InterimRecord. Columns are None until the first key is decided.
    """

    def __init__(self, design: TrialDesign, policy: MissingPolicy, stage: int):
        self.design, self.policy, self.stage = design, policy, stage
        k, rule = design.k, design.rule
        planned = planned_ratio(design, stage)
        self.categorised = planned is None and design.mapping is not None
        self.tau_stage = (
            design.mapping is None and stage == design.n_stages and design.tau_dropping
        )
        if rule.kind == "TrippaBRAR":
            self.gamma, self.eta = rule.gamma_for_stage(stage), rule.eta_for_stage(stage)
        elif rule.kind == "TSBRAR":
            self.gamma = rule.gamma_for_stage(stage)
        self._priors = list(zip(design.prior_alpha, design.prior_beta))
        # with integer priors every key's Beta parameters are integers, and
        # P(best) takes them as one array
        self._int_priors = None
        if all(map(_is_integral, design.prior_alpha + design.prior_beta)):
            self._int_priors = np.array(self._priors, dtype=np.int64)
        self._reads_held = (
            stage == 2 and planned is None and policy.no_adapt_on_stage1_missing
        )
        self._reads_kept = policy.no_drop_on_stage2_missing and (
            self.categorised and stage == 3 or self.tau_stage
        )
        self.rows: dict[bytes, int] = {}
        self.hits = self.misses = 0
        # the ratio options by slot, and each slot's first and last option
        self.options: dict[int, tuple[RatioVector, ...]] = {}
        if planned is not None or self.categorised:
            self._option_counts = np.zeros((_PLANNED_SLOT + 1, 2, k), dtype=np.int64)
        if planned is not None:
            self._add_option(_PLANNED_SLOT, (planned,))
        self.count_keys = self.pi = self.ratios = self._marks = None
        self.slot = self.codes = self.dropped = None

    def __len__(self) -> int:
        return len(self.rows)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """The row of each count key, one key per row of `keys`; the keys
        the table lacks are decided together. `hits` and `misses` count the
        keys looked up that the table held and lacked."""
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        row_bytes = np.dtype((np.void, keys.itemsize * keys.shape[1]))
        raw = keys.view(row_bytes)[:, 0].tolist()
        get = self.rows.get
        found = [get(key) for key in raw]
        absent = found.count(None)
        self.hits += len(found) - absent
        self.misses += absent
        if absent:
            new: dict[bytes, int] = {}
            for i, (key, row) in enumerate(zip(raw, found)):
                if row is None:
                    new.setdefault(key, i)
            if len(new) < len(raw):
                keys = keys[list(new.values())]
            self._decide_keys(list(new), keys)
            found = [get(key) for key in raw]
        return np.array(found, dtype=np.intp)

    def _rule_pi(self, counts: np.ndarray) -> np.ndarray:
        """The rule's pi for every key, from each arm's successes, failures
        and assigned count, (keys, K, 3): P(beats control) once per distinct
        pair through the exact scalar function and its memo, then the rule's
        arithmetic on plain floats per key; or P(best) of every key in one
        array call, then the rule's arithmetic once per distinct key set,
        scattered to each key's arm order (row by row where the priors are
        not integers). Each weight is a power of its own arm's value, their
        sum is exact (fsum) and each division element-wise, so permuting the
        arms permutes pi bit for bit."""
        design, k = self.design, self.design.k
        kind = design.rule.kind
        if kind == "FixedEqual" or (kind == "TSBRAR" and self.gamma == 0):
            return np.tile(_equal_probs(k), (len(counts), 1))
        if kind == "TSBRAR":
            if self._int_priors is None:
                params = (counts[:, :, :2] + self._priors).tolist()
                return np.array([
                    _ts_probs(prob_best([BetaPosterior(*arm) for arm in arms]), self.gamma)
                    for arms in params
                ])
            best, inverse, order = _prob_best_sets(counts[:, :, :2] + self._int_priors)
            pi = [_ts_probs(tuple(row), self.gamma) for row in best.tolist()]
            return _in_arm_order(np.array(pi), inverse, order)
        params = (counts[:, :, :2] + self._priors).tolist()
        assigned = counts[:, :, 2].tolist()
        form = design.rule.control_exponent_form
        beats: dict[tuple[float, ...], float] = {}
        out = []
        for arms, n in zip(params, assigned):
            pairs = [(*arms[i], *arms[0]) for i in range(1, k)]
            for pair in pairs:
                if pair not in beats:
                    beats[pair] = _prob_greater_of(*pair)
            out.append(
                _trippa_probs([beats[p] for p in pairs], n, self.gamma, self.eta, form)
            )
        return np.array(out)

    def _decide_keys(self, raw: list[bytes], key: np.ndarray) -> None:
        design, stage, k, m = self.design, self.stage, self.design.k, len(key)
        counts = key[:, :-2].reshape(m, k, 3)
        # a held stage-2 allocation and kept arms, where the stage reads them
        held = key[:, -2] == 1 if self._reads_held else None
        kept = key[:, -1] == 1 if self._reads_kept else None
        pi = self._rule_pi(counts)
        slot = None

        if self.categorised:
            cats = category_codes(active_share_rows(pi), stage, design.mapping)
            applied = cats
            if kept is not None and kept.any():
                applied = np.where(kept[:, None], _DEMOTED[cats], cats)
            slot = applied @ _SLOT_OF
            if held is not None:
                slot[held] = _HELD_SLOT
            for s in set(slot.tolist()) - self.options.keys():
                if s == _HELD_SLOT:
                    self._add_option(s, (BALANCED[2],))
                else:
                    pair = tuple(CATEGORIES[c] for c in divmod(s, len(CATEGORIES)))
                    self._add_option(s, allocation_options(pair, stage))
            self.slot = _stacked(self.slot, slot)
            self.codes = _stacked(self.codes, np.concatenate([cats, applied], axis=1))
        elif self.options:  # a planned ratio
            slot = np.full(m, _PLANNED_SLOT)
        else:
            if held is not None and held.any():
                pi[held] = _equal_probs(k)
            if self.tau_stage:
                drops = active_share_rows(pi) < design.tau
                n_drops = drops.sum(axis=1)
                apply = (n_drops > 0) & (n_drops < k - 1)
                if kept is not None:
                    apply &= ~kept
                dropped = np.zeros((m, k), dtype=bool)
                dropped[:, 1:] = drops & apply[:, None]
                for r in np.flatnonzero(apply).tolist():
                    pi[r] = _normalised(np.where(dropped[r], 0.0, pi[r]).tolist())
                self.dropped = _stacked(self.dropped, dropped)

        self.rows.update(zip(raw, range(len(self.rows), len(self.rows) + m)))
        self.count_keys = _stacked(self.count_keys, key)
        self.pi = _stacked(self.pi, pi)
        if slot is not None:
            self.ratios = _stacked(self.ratios, self._option_counts[slot])

    @property
    def marks(self) -> np.ndarray:
        """Per row and arm whether the row drops, keeps, favours or
        disfavours it (_MARKED), (rows, 4, K): from the applied categories,
        or else from pi and tau drops. Only the last stage's counters read
        it, so it is built when read, for the rows added since."""
        done = 0 if self._marks is None else len(self._marks)
        if done < len(self):
            self._marks = _stacked(self._marks, self._marks_from(done))
        return self._marks

    def _marks_from(self, done: int) -> np.ndarray:
        k, pi = self.design.k, self.pi[done:]
        marks = np.zeros((len(pi), 4, k), dtype=bool)
        if self.categorised:
            marks[:, :, 1:] = _PAIR_MARKS[self.slot[done:]]
            return marks
        # favour or disfavour by pi, unless the row drops an arm: then drop
        # it and keep the others
        marks[:, 2] = pi > 1.0 / k + _SHARE_TOL
        marks[:, 3] = pi < 1.0 / k - _SHARE_TOL
        if self.dropped is not None:
            dropped = self.dropped[done:]
            any_drop = dropped.any(axis=1)
            marks[any_drop] = False
            marks[:, 0] = dropped
            marks[:, 1] = ~dropped & any_drop[:, None]
        marks[:, :, 0] = False
        return marks

    def _add_option(self, slot: int, options: tuple[RatioVector, ...]) -> None:
        self.options[slot] = options
        self._option_counts[slot] = (options[0].counts, options[-1].counts)

    def __getitem__(self, row: int) -> InterimRecord:
        design, policy, stage = self.design, self.policy, self.stage
        key = self.count_keys[row].tolist()
        posteriors = tuple(
            BetaPosterior(a + key[3 * i], b + key[3 * i + 1])
            for i, (a, b) in enumerate(zip(design.prior_alpha, design.prior_beta))
        )
        held = policy.no_adapt_on_stage1_missing and key[-2] == 1
        kept = policy.no_drop_on_stage2_missing and key[-1] == 1
        dropped = ()
        if self.dropped is not None:
            dropped = tuple(np.flatnonzero(self.dropped[row]).tolist())
        categories = applied = None
        overrides = []
        options = self.options.get(_PLANNED_SLOT, ())
        if self.categorised:
            codes = [CATEGORIES[c] for c in self.codes[row].tolist()]
            categories, applied = tuple(codes[:2]), tuple(codes[2:])
            options = self.options[int(self.slot[row])]
            if stage == 2 and held:
                overrides.append("stage-1 outcomes missing: stage-2 block held balanced")
            elif stage == 3 and kept and applied != categories:
                overrides.append(
                    "stage-2 outcomes missing: Drop/Keep demoted to Disfavour/Favour"
                )
        elif design.mapping is None:
            if stage == 2 and held:
                overrides.append(
                    "stage-1 outcomes missing: stage-2 randomisation held at 1/K"
                )
            if self.tau_stage and kept:
                overrides.append(
                    "stage-2 outcomes missing: tau-based arm dropping suppressed"
                )
            elif dropped:
                labels = ", ".join(design.arms[i] for i in dropped)
                overrides.append(f"active share below tau, dropped: {labels}")
        return InterimRecord(
            upcoming_stage=stage,
            posteriors=posteriors,
            pi=ProbVector(tuple(self.pi[row].tolist())),
            categories=categories,
            applied_categories=applied,
            overrides=tuple(overrides),
            options=options,
            ratio=options[0] if len(options) == 1 else None,
            dropped=dropped,
        )


# Count keys the decision tables keep, all tables together. Emptied whenever
# the tables hold this many at the start of a lookup, so one lookup can pass
# it by at most one key per row it looks up: a conduct's rows, up to
# _CONDUCT_BLOCKS blocks.
_DECISION_MEMO = 4096

# One _DecisionTable per (design, policy, stage), keyed by the design's id:
# hashing a TrialDesign takes microseconds, and the table holds its design,
# so no other design can take that id while the entry lives.
_decision_cache: dict[tuple[int, MissingPolicy, int], _DecisionTable] = {}


def _decision_table(
    design: TrialDesign, policy: MissingPolicy, stage: int
) -> _DecisionTable:
    """The decision table of (design, policy, stage), made empty if new."""
    if sum(map(len, _decision_cache.values())) >= _DECISION_MEMO:
        _decision_cache.clear()
    key = (id(design), policy, stage)
    table = _decision_cache.get(key)
    if table is None:
        table = _decision_cache[key] = _DecisionTable(design, policy, stage)
    return table


# ---------------------------------------------------------------------------
# Random numbers

@dataclass(frozen=True)
class _Draws:
    """Every random number of a set of trials, one row per trial and one
    column per patient (per stage for `coin`): uniform assignment keys,
    outcome draws as outcomes_from_raw takes them, uniform missingness keys
    and a uniform coin. Indexing selects rows: a slice gives a block, an
    integer one trial's numbers."""

    key: np.ndarray
    raw: np.ndarray
    miss: np.ndarray
    coin: np.ndarray

    def __getitem__(self, rows) -> "_Draws":
        return _Draws(
            self.key[rows], self.raw[rows], self.miss[rows], self.coin[rows]
        )


def _draw(rngs, design: TrialDesign, model: OutcomeModel, rows: int) -> _Draws:
    """Fixed-shape draws for `rows` trials from each generator in turn,
    stacked in one set of arrays: per generator one uniform call, then one
    outcome call (log-normal as exp(DEFAULT_SHAPE * Z), or pilot indices),
    each filling that generator's rows in place."""
    n, stages, total = design.n_total, design.n_stages, len(rngs) * rows
    u = np.empty((total, 2 * n + stages))
    bootstrap = model.kind == "bootstrap"
    raw = np.empty((total, n), dtype=np.int64 if bootstrap else float)
    for j, rng in enumerate(rngs):
        part = slice(j * rows, (j + 1) * rows)
        rng.random(out=u[part])
        if bootstrap:
            raw[part] = rng.integers(len(model.pilot), size=(rows, n))
        else:
            rng.standard_normal(out=raw[part])
    if not bootstrap:
        raw *= DEFAULT_SHAPE
        np.exp(raw, out=raw)
    return _Draws(u[:, :n], raw, u[:, n : 2 * n], u[:, 2 * n :])


def _stage_columns(design: TrialDesign) -> list[slice]:
    ends = np.cumsum((0,) + design.stage_sizes).tolist()
    return [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]


def _missing_count(case: MissingCase, stage: int, size: int) -> int:
    drop = case.count_for_stage(stage)
    if drop > size:
        raise ValueError(f"cannot drop {drop} of {size} records")
    return drop


def _require_valid(design: TrialDesign) -> None:
    problems = validate_design(design)
    if problems:
        raise ValueError("invalid design: " + "; ".join(problems))


def _require_arity(design: TrialDesign, model: OutcomeModel) -> None:
    if len(model.effects) != design.k:
        raise ValueError(
            f"model has {len(model.effects)} effects for {design.k} arms"
        )


# ---------------------------------------------------------------------------
# Replicates conducted in groups of blocks, stage by stage

# Replicates per block, the unit that keys the random stream: block b draws
# from its own generator (_block_draws), so this is fixed whatever the worker
# count or the grouping below.
_BLOCK_REPS = 256

# Consecutive blocks of a worker's range conducted together, as one set of
# draws through one _conduct_block and one _block_counts: numpy's per-call
# cost and the decision lookup's are paid once per group (up to 1,024 rows)
# rather than once per block. It is a cap, not the whole range, because
# memory grows with the rows conducted at once: a 20,000-replicate pooled,
# imputed mapped_beta run conducted in one group peaked at 129 MB RSS,
# against 44 MB one block at a time and 49 MB four blocks at a time.
_CONDUCT_BLOCKS = 4


@dataclass(frozen=True)
class _Block:
    """Trials conducted together: row r is one trial, its columns the
    trial's patients in accrual order.

    `arm` holds each patient's arm index; `y` the outcome drawn, or the
    imputed value where imputation, run once when stage 2 closed, filled the
    cell; `missing` the cells the conduct left without an outcome;
    `observed` the cells the decisions after stage 2 and the final analysis
    read. `stage_of` gives each column's stage. `ratios[t - 1]` is the
    (rows, k) ratio stage t was conducted with, or None for an i.i.d. stage.
    Row r's decision before stage t is row `which[t - 2][r]` of the decision
    table `decisions[t - 2]`, and `decisions[t - 2][which[t - 2][r]]` builds
    it as an InterimRecord; a ratio the stage-3 coin chose is in `ratios`
    only. `p_value`, `reject` and `skipped` hold the final tests, one column
    per active arm, `assigned` the patients assigned to each arm, (rows, k),
    and `recommended` the recommended arm's index.
    """

    arm: np.ndarray
    y: np.ndarray
    missing: np.ndarray
    observed: np.ndarray
    stage_of: np.ndarray
    ratios: tuple[np.ndarray | None, ...]
    decisions: tuple[_DecisionTable, ...]
    which: tuple[np.ndarray, ...]
    impute_failures: np.ndarray
    p_value: np.ndarray
    reject: np.ndarray
    skipped: np.ndarray
    assigned: np.ndarray
    recommended: np.ndarray


def _tallies(design: TrialDesign, arm, y, observed) -> np.ndarray:
    """Per row, for each arm in turn: dichotomised successes and failures
    among the outcomes available, and patients assigned, as (rows, 3k)."""
    rows, k = len(arm), design.k
    # each cell counts in slot 3 arm + 0 (success), 1 (failure) or 2
    # (missing) of its row; the missing slot then takes the row's sum
    cell = arm * 3
    cell += np.arange(2, 3 * k * rows, 3 * k)[:, None]
    cell -= observed
    cell -= observed & (y >= design.delta)
    counts = np.bincount(cell.ravel(), minlength=rows * k * 3)
    counts[2::3] += counts[0::3] + counts[1::3]
    return counts.reshape(rows, 3 * k)


def _mean_imputed(arm, y, missing, stage_of, k: int):
    """Stage-2 mean imputation on every row at once: a missing stage-2 cell
    takes the mean of its donors, as np.mean gives it. A conduct calls it
    once, on stages 1-2 when stage 2 closes; an interim decision, on the
    accrued records.

    A missing stage-2 cell's donors are the observed cells of its arm in
    earlier columns; cells imputed here are missing in `missing`, so they
    donate nothing. Stage-1 and stage-3 cells are never imputed. Per arm,
    prefix sums and counts over the columns give each of its cells its
    donors' sum and count. The sums run left to right, which is how np.mean
    sums fewer than 8 values, so those means match it bit for bit; np.mean
    sums 8 or more pairwise, so such cells take np.mean of their donors. A
    cell with no donor stays missing and is a failure.
    """
    target = missing & (stage_of == 2)
    if not target.any():
        return y, ~missing, np.zeros(len(arm), dtype=np.int64)
    total = np.zeros_like(y)
    n = np.zeros(y.shape, dtype=np.int64)
    for a in range(k):
        own = arm == a
        donor = own & ~missing
        # a target cell donates nothing, so its inclusive prefix sum and
        # count are its donors'; its own +0.0 turns a -0.0 sum into the +0.0
        # that np.mean's sum from 0.0 gives
        np.copyto(total, np.cumsum(np.where(donor, y, 0.0), axis=1), where=own)
        np.copyto(n, np.cumsum(donor, axis=1), where=own)
    filled = target & (n > 0)
    view = y.copy()
    view[filled] = total[filled] / n[filled]
    for r, j in np.argwhere(filled & (n >= 8)).tolist():
        donors = (arm[r, :j] == arm[r, j]) & ~missing[r, :j]
        view[r, j] = np.mean(y[r, :j][donors])
    return view, ~missing | filled, (target & (n == 0)).sum(axis=1)


def _block_decisions(design, policy, stage, arm, y, observed, stage_of):
    """Each row's interim decision before `stage`: the decision table of
    (design, policy, stage), which decides the count keys it lacks, and each
    row's row in it."""
    tallies = _tallies(design, arm, y, observed)
    # whether any stage-1 and any stage-2 cell is unobserved
    flags = ~observed @ (stage_of[:, None] == (1, 2))
    table = _decision_table(design, policy, stage)
    return table, table.lookup(np.concatenate([tallies, flags], axis=1))


def _final_tests(design: TrialDesign, arm, y, observed):
    """The final rank-sum tests of every row, each active arm's available
    values against the control's: p-values, rejections and skips, one column
    per active arm. A test with an empty sample is skipped with p 1."""
    # 16 bits hold every arm: a stratum has at most 184 patients
    sample = np.where(observed, arm.astype(np.int16), np.int16(-1))
    p = rank_sum_rows(y, sample, design.k)
    seen = np.stack([np.count_nonzero(sample == i, axis=1) for i in range(design.k)], 1)
    skipped = (seen[:, 1:] == 0) | (seen[:, :1] == 0)
    return p, p < design.alpha_level, skipped


def _recommended(design: TrialDesign, tallies: np.ndarray) -> np.ndarray:
    """Every row's recommended arm, from its final _tallies: the active arm
    with the most patients assigned, then the larger final posterior mean
    of the adaptation endpoint, then the lower index."""
    wins, losses, assigned = (tallies[:, j::3] for j in range(3))
    alpha = np.asarray(design.prior_alpha) + wins
    beta = np.asarray(design.prior_beta) + losses
    mean = alpha / (alpha + beta)
    rows = np.arange(len(tallies))
    best = np.ones(len(tallies), dtype=np.intp)
    for i in range(2, design.k):
        held, held_mean = assigned[rows, best], mean[rows, best]
        ahead = (assigned[:, i] > held) | (
            (assigned[:, i] == held) & (mean[:, i] > held_mean)
        )
        best[ahead] = i
    return best


def _conduct_stages(design, model, case, policy, draws: _Draws):
    """Every stage of one trial for every row of `draws`, all rows a stage
    at a time: arm, y, missing, observed and the imputation failures as
    _Block holds them, stage_of, and per stage the ratios, decision tables
    and each row's row in them. Between the stages' decisions everything is
    array arithmetic over the rows.

    A missing stage-2 cell's donors all lie in stages 1-2, so imputation
    runs once, when stage 2 closes: every later decision and the final
    analysis read that view, extended by the later stages' cells as drawn.
    """
    k, n_rows = design.k, len(draws.coin)
    arm = np.empty((n_rows, 0), dtype=np.int64)
    y = np.empty((n_rows, 0))
    missing = np.empty((n_rows, 0), dtype=bool)
    observed = np.empty((n_rows, 0), dtype=bool)
    failures = np.zeros(n_rows, dtype=np.int64)
    stage_of = np.empty(0, dtype=np.int64)
    ratios, decisions, which = [], [], []

    stages = zip(design.stage_sizes, _stage_columns(design))
    for t, (size, cols) in enumerate(stages, start=1):
        keys = draws.key[:, cols]
        if t == 1:
            planned = planned_ratio(design, 1)
            row_pi = np.tile(_equal_probs(k), (n_rows, 1))
            row_ratios = None if planned is None else np.tile(planned.counts, (n_rows, 1))
        else:
            table, rows = _block_decisions(
                design, policy, t, arm, y, observed, stage_of
            )
            decisions.append(table)
            which.append(rows)
            row_pi, row_ratios = table.pi[rows], table.ratios
            if row_ratios is not None:
                # each row's first and last option: the coin's two choices,
                # or one ratio twice
                heads = (draws.coin[:, t - 1] >= 0.5).astype(np.intp)
                row_ratios = row_ratios[rows, heads]
        if row_ratios is not None:
            # position j of a ratio's sorted arm list holds the arm whose
            # cumulative count first exceeds j
            order = np.argsort(keys, axis=1, kind="stable")
            cum = np.cumsum(row_ratios, axis=1)
            stage_arm = (order[:, :, None] >= cum[:, None, :]).sum(axis=2)
        else:
            # the arm whose cumulative pi first exceeds the key times the total
            cum = np.cumsum(row_pi, axis=1)
            scaled = (keys * cum[:, -1:])[:, :, None]
            stage_arm = (cum[:, None, :-1] <= scaled).sum(axis=2)
        stage_missing = np.zeros((n_rows, size), dtype=bool)
        drop = _missing_count(case, t, size)
        if drop:
            order = np.argsort(draws.miss[:, cols], axis=1, kind="stable")
            np.put_along_axis(stage_missing, order[:, :drop], True, axis=1)

        arm = np.hstack([arm, stage_arm])
        y = np.hstack([y, outcomes_from_raw(model, stage_arm, draws.raw[:, cols])])
        missing = np.hstack([missing, stage_missing])
        observed = np.hstack([observed, ~stage_missing])
        stage_of = np.concatenate([stage_of, np.full(size, t)])
        ratios.append(row_ratios)
        if t == 2 and policy.impute_stage2:
            y, observed, failures = _mean_imputed(arm, y, missing, stage_of, k)
    return (
        arm, y, missing, observed, failures, stage_of,
        tuple(ratios), tuple(decisions), tuple(which),
    )


def _conduct_block(
    design: TrialDesign,
    model: OutcomeModel,
    case: MissingCase,
    policy: MissingPolicy,
    draws: _Draws,
) -> _Block:
    """One trial for every row of `draws`: the stages, then the final
    analysis. Row r is the trial tests/reference.py conducts as records on
    draws[r]. The stages' working arrays are freed before the final tests,
    which set the peak memory of a conduct."""
    (
        arm, y, missing, observed, failures, stage_of, ratios, decisions, which
    ) = _conduct_stages(design, model, case, policy, draws)
    p_value, reject, skipped = _final_tests(design, arm, y, observed)
    tallies = _tallies(design, arm, y, observed)
    return _Block(
        arm=arm,
        y=y,
        missing=missing,
        observed=observed,
        stage_of=stage_of,
        ratios=ratios,
        decisions=decisions,
        which=which,
        impute_failures=failures,
        p_value=p_value,
        reject=reject,
        skipped=skipped,
        assigned=tallies[:, 2::3],
        recommended=_recommended(design, tallies),
    )


def _pooled_tests(block_a: _Block, block_b: _Block, design: TrialDesign):
    """The final tests on two strata's pooled samples for every row of their
    blocks, as p-values, rejections and skips: each arm's sample is stratum
    A's values followed by stratum B's, so an arm one stratum left empty
    pools the other's."""
    arm = np.hstack([block_a.arm, block_b.arm])
    y = np.hstack([block_a.y, block_b.y])
    observed = np.hstack([block_a.observed, block_b.observed])
    return _final_tests(design, arm, y, observed)


def _off_centre(pi: np.ndarray, centre: float) -> np.ndarray:
    return np.abs(pi - centre) > _SHARE_TOL


# ---------------------------------------------------------------------------
# Counters: int64 arrays keyed by metric name, summed by _merge. A stratum
# block has every name below; the pooled tests have only _test_counts' names.

Counts = dict[str, np.ndarray]


def _merge(parts) -> Counts:
    """Sum counter maps by name: blocks, worker chunks, strata and the
    pooled tests alike. Integer sums, so the order never matters."""
    total: Counts = {}
    for part in parts:
        for name, value in part.items():
            total[name] = total[name] + value if name in total else value
    return total


def _test_counts(reject, skipped, design: TrialDesign, effects) -> Counts:
    """Rejections and skips per arm, and rows with any rejection, with a
    best arm's rejection (only when the best effect is positive) and with a
    null arm's rejection; `reject` and `skipped` have one column per active
    arm."""
    active_effects = np.array(effects[1:])
    top = active_effects.max()
    per_arm = np.zeros((2, design.k), dtype=np.int64)
    per_arm[0, 1:] = reject.sum(axis=0)
    per_arm[1, 1:] = skipped.sum(axis=0)
    best = (top > 0) & (active_effects == top)
    return {
        "n": np.int64(len(reject)),
        "reject": per_arm[0],
        "skip": per_arm[1],
        "any_reject": reject.any(axis=1).sum(),
        "best_reject": reject[:, best].any(axis=1).sum(),
        "null_reject": reject[:, active_effects == 0.0].any(axis=1).sum(),
    }


def _stage2_counts(block: _Block, design: TrialDesign) -> Counts:
    """Rows whose stage-2 allocation left balance, and per active arm the
    rows that favoured or disfavoured it: from the realised ratio where the
    stage has one, from pi otherwise. No counters without a stage 2."""
    if design.n_stages < 2:
        return {}
    k = design.k
    fav, dis = np.zeros((2, k), dtype=np.int64)
    ratio = block.ratios[1]
    if ratio is not None:
        base = ratio.sum(axis=1, keepdims=True) // k
        moved, up, down = ratio != base, ratio > base, ratio < base
    else:
        pi, centre = block.decisions[0].pi[block.which[0]], 1.0 / k
        moved = _off_centre(pi, centre)
        up, down = pi > centre + _SHARE_TOL, pi < centre - _SHARE_TOL
    fav[1:] = up[:, 1:].sum(axis=0)
    dis[1:] = down[:, 1:].sum(axis=0)
    return {"adapt2": moved.any(axis=1).sum(), "fav2": fav, "dis2": dis}


def _stage3_counts(block: _Block, design: TrialDesign) -> Counts:
    """Rows whose last-stage allocation left balance or gave an active arm
    no patient, and per active arm the rows of each stage-3 category. No
    counters without a stage 3."""
    if design.n_stages < 3:
        return {}
    k = design.k
    last = block.stage_of == design.n_stages
    last_counts = _tallies(
        design, block.arm[:, last], block.y[:, last], block.observed[:, last]
    )[:, 2::3]
    table, rows = block.decisions[-1], block.which[-1]
    ratio = block.ratios[-1]
    if ratio is not None:
        moved = ratio != np.asarray(BALANCED[3].counts)
    else:
        moved = _off_centre(table.pi[rows], 1.0 / k)
    drop, keep, fav, dis = table.marks[rows].sum(axis=0)
    return {
        "adapt3": moved.any(axis=1).sum(),
        "zero3": (last_counts[:, 1:] == 0).any(axis=1).sum(),
        "drop3": drop, "keep3": keep, "fav3": fav, "dis3": dis,
    }


def _block_counts(block: _Block, design: TrialDesign, effects) -> Counts:
    """Every counter of one stratum's block."""
    k, rows, alloc = design.k, len(block.arm), block.assigned
    return {
        **_test_counts(block.reject, block.skipped, design, effects),
        "alloc_sum": alloc.sum(axis=0),
        "alloc_sumsq": (alloc * alloc).sum(axis=0),
        "recommend": np.bincount(block.recommended, minlength=k),
        "rec_reject": block.reject[np.arange(rows), block.recommended - 1].sum(),
        "impute_fail": np.int64(np.count_nonzero(block.impute_failures)),
        **_stage2_counts(block, design),
        **_stage3_counts(block, design),
    }


# ---------------------------------------------------------------------------
# Reports

@dataclass(frozen=True)
class OCReport:
    """Operating characteristics of one design under one data scenario.

    `rates` maps each CSV column stem (_COLUMNS; README.md defines them) to
    a fraction of replicates: a float, or a tuple aligned with `arm_labels`.
    None marks what is undefined: the control's entry of an active-arm stem,
    a stem whose effects rule fails, and a stem whose counter the row lacks
    (a pooled row has only the tests' counters). CSV output renders None as
    NA. A pooled row's effects are the two strata's sums.
    """

    design_name: str
    scenario: str
    stratum: str
    case_id: int
    impute: bool
    n_reps: int
    master_seed: int
    arm_labels: tuple[str, ...]
    effects: tuple[float, ...]
    rates: dict[str, float | tuple[float | None, ...] | None]


def _alloc_mean(counts: Counts, n: int, n_total: int):
    if "alloc_sum" not in counts:
        return None
    return counts["alloc_sum"] / n_total / n


def _alloc_sd(counts: Counts, n: int, n_total: int):
    if "alloc_sumsq" not in counts:
        return None
    if n == 1:
        return np.zeros(len(counts["alloc_sum"]))
    sum_p = counts["alloc_sum"] / n_total
    sum_p2 = counts["alloc_sumsq"] / (n_total * n_total)
    return np.sqrt(np.maximum((sum_p2 - sum_p * sum_p / n) / (n - 1), 0.0))


def _global_null(effects) -> bool:
    return all(e == 0.0 for e in effects)


def _has_best(effects) -> bool:
    return max(effects) > 0


def _has_null(effects) -> bool:
    return any(e == 0.0 for e in effects)


_ARM, _ACTIVE, _SCALAR = "arm", "active", "scalar"

# Each report column stem in file order, after the identity columns: its
# file; its numerator, a counter name (the rate is the count over the
# replicates; given several, the first counter the row has), a function of
# the counters, or None for the report's own effects; its domain, every arm,
# the active arms or one value; and the active-arm effects it needs to be
# defined, or None for always.
_COLUMNS = (
    ("oc", "effect", None, _ARM, None),
    ("oc", "alloc_mean", _alloc_mean, _ARM, None),
    ("oc", "alloc_sd", _alloc_sd, _ARM, None),
    ("oc", "reject", "reject", _ACTIVE, None),
    ("oc", "skip", "skip", _ACTIVE, None),
    ("oc", "recommend", "recommend", _ACTIVE, None),
    ("oc", "any_reject", "any_reject", _SCALAR, None),
    ("oc", "recommended_reject", "rec_reject", _SCALAR, None),
    ("oc", "type1", ("rec_reject", "any_reject"), _SCALAR, _global_null),
    ("oc", "power", "best_reject", _SCALAR, _has_best),
    ("oc", "null_arm_reject", "null_reject", _SCALAR, _has_null),
    ("oc", "imputation_failures", "impute_fail", _SCALAR, None),
    ("adaptability", "stage2_adapt", "adapt2", _SCALAR, None),
    ("adaptability", "stage3_adapt", "adapt3", _SCALAR, None),
    ("adaptability", "stage3_zero", "zero3", _SCALAR, None),
    ("adaptability", "favour2", "fav2", _ACTIVE, None),
    ("adaptability", "disfavour2", "dis2", _ACTIVE, None),
    ("adaptability", "favour3", "fav3", _ACTIVE, None),
    ("adaptability", "disfavour3", "dis3", _ACTIVE, None),
    ("adaptability", "drop3", "drop3", _ACTIVE, None),
    ("adaptability", "keep3", "keep3", _ACTIVE, None),
)


def _rate(numerator, counts: Counts, n: int, n_total: int):
    if callable(numerator):
        return numerator(counts, n, n_total)
    names = (numerator,) if isinstance(numerator, str) else numerator
    present = [counts[name] for name in names if name in counts]
    return present[0] / n if present else None


def _report(
    counts: Counts,
    design: TrialDesign,
    effects: tuple[float, ...],
    case: MissingCase,
    policy: MissingPolicy,
    scenario_label: str,
    stratum: str,
    master_seed: int,
) -> OCReport:
    n = int(counts["n"])
    rates = {}
    for _, stem, numerator, domain, applies in _COLUMNS:
        if numerator is None:
            continue
        value = None
        if applies is None or applies(effects[1:]):
            value = _rate(numerator, counts, n, design.n_total)
        if value is None or domain == _SCALAR:
            rates[stem] = None if value is None else float(value)
        else:
            rates[stem] = tuple(
                float(value[i]) if domain == _ARM or i > 0 else None
                for i in range(design.k)
            )
    return OCReport(
        design_name=design.name,
        scenario=scenario_label,
        stratum=stratum,
        case_id=case.case_id,
        impute=policy.impute_stage2,
        n_reps=n,
        master_seed=master_seed,
        arm_labels=design.arms,
        effects=tuple(effects),
        rates=rates,
    )


def _chunks(n: int, parts: int) -> list[tuple[int, int]]:
    """Up to `parts` contiguous replicate ranges covering 0..n, split only
    at block boundaries so that every worker conducts whole blocks."""
    blocks = -(-n // _BLOCK_REPS)
    parts = min(parts, blocks)
    size, extra = divmod(blocks, parts)
    out, lo = [], 0
    for j in range(parts):
        hi = lo + size + (1 if j < extra else 0)
        out.append((lo * _BLOCK_REPS, min(hi * _BLOCK_REPS, n)))
        lo = hi
    return out


def _block_draws(design, model, master_seed: int, lo: int, hi: int, stream=None):
    """The draws of replicates lo..hi (lo on a block boundary), up to
    _CONDUCT_BLOCKS blocks at a time: each block's full _BLOCK_REPS rows
    from the block's keyed generator, stacked, then cut to the run's end. A
    cut block still draws every row, since its normals' place in the stream
    follows all of its uniforms."""
    group = _CONDUCT_BLOCKS * _BLOCK_REPS
    for start in range(lo, hi, group):
        stop = min(start + group, hi)
        rngs = []
        for first in range(start, stop, _BLOCK_REPS):
            keys = [master_seed, first // _BLOCK_REPS]
            if stream is not None:
                keys.append(stream)
            seeds = np.random.SeedSequence(keys)
            rngs.append(np.random.Generator(np.random.Philox(seeds)))
        yield _draw(rngs, design, model, _BLOCK_REPS)[: stop - start]


def _run_chunk(args) -> tuple[Counts, ...]:
    """The counters of replicates lo..hi: one map per outcome model's
    stratum, each drawn from its block stream (stratum s of two from
    [m, b, s]), then, for two strata, the pooled tests'."""
    design, models, case, policy, master_seed, lo, hi = args
    streams = (None,) if len(models) == 1 else range(len(models))
    parts = []
    for draws in zip(*(
        _block_draws(design, model, master_seed, lo, hi, stream)
        for model, stream in zip(models, streams)
    )):
        blocks = [
            _conduct_block(design, model, case, policy, d)
            for model, d in zip(models, draws)
        ]
        counts = [
            _block_counts(block, design, model.effects)
            for block, model in zip(blocks, models)
        ]
        if len(blocks) == 2:
            _, reject, skipped = _pooled_tests(*blocks, design)
            counts.append(_test_counts(reject, skipped, design, _summed(models)))
        parts.append(counts)
    return tuple(_merge(column) for column in zip(*parts))


def _summed(models) -> tuple[float, ...]:
    """The effects of two strata's pooled tests: the strata's sums."""
    a, b = models
    return tuple(x + y for x, y in zip(a.effects, b.effects))


def _pool_map(worker, jobs):
    if len(jobs) == 1:
        return [worker(jobs[0])]
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    with ctx.Pool(processes=len(jobs)) as pool:
        return pool.map(worker, jobs)


def _run(design, models, case, policy, n_reps: int, master_seed: int, workers: int):
    """The merged counters of `n_reps` trials of `design`, as _run_chunk
    returns them, split over up to `workers` processes. Every argument is
    checked before any worker starts."""
    _require_valid(design)
    for model in models:
        _require_arity(design, model)
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    jobs = [
        (design, models, case, policy, master_seed, lo, hi)
        for lo, hi in _chunks(n_reps, workers)
    ]
    parts = _pool_map(_run_chunk, jobs)
    return tuple(_merge(column) for column in zip(*parts))


def replicate(
    design: TrialDesign,
    model: OutcomeModel,
    case: MissingCase | None = None,
    policy: MissingPolicy = MissingPolicy(),
    n_reps: int = 1000,
    master_seed: int = 0,
    workers: int = 1,
) -> OCReport:
    """Operating characteristics of one design stratum over `n_reps` trials,
    reported under the scenario label "custom".

    The result is identical for any `workers` value (at least 1): each block
    of replicates draws from its own keyed generator, workers take whole
    blocks, and counts are integers, so the split into processes cannot
    change a single reported digit.
    """
    if case is None:
        case = MissingCase(0)
    (counts,) = _run(design, (model,), case, policy, n_reps, master_seed, workers)
    return _report(
        counts, design, model.effects, case, policy, "custom",
        design.stratum_label, master_seed,
    )


def replicate_pooled(
    design: TrialDesign,
    scenario: Scenario,
    case: MissingCase | None = None,
    policy: MissingPolicy = MissingPolicy(),
    n_reps: int = 1000,
    master_seed: int = 0,
    workers: int = 1,
    scale: float = CALIBRATED_SIGMA,
) -> tuple[OCReport, OCReport, OCReport]:
    """Run the same design independently in two strata and pool the tests.

    Returns the reports of strata "A" and "B" and of the pooled tests
    ("pooled"), whose effects are the strata's sums. Stratum s of block b
    draws from Philox keyed by SeedSequence([master_seed, b, s]); both
    strata conduct with `design` itself and share its decision tables.
    """
    if case is None:
        case = MissingCase(0)
    models = (
        OutcomeModel.parametric(scenario.effects_a, scale=scale),
        OutcomeModel.parametric(scenario.effects_b, scale=scale),
    )
    counts = _run(design, models, case, policy, n_reps, master_seed, workers)
    effects = (scenario.effects_a, scenario.effects_b, _summed(models))
    return tuple(
        _report(c, design, e, case, policy, scenario.scenario_id, label, master_seed)
        for c, label, e in zip(counts, ("A", "B", "pooled"), effects)
    )


# ---------------------------------------------------------------------------
# Interim recommendation on accrued data

_ACCRUED_HEADER = ["patient_id", "stage", "arm_label", "delta_y"]


def read_accrued(
    path: str | Path, design: TrialDesign, upcoming_stage: int | None = None
) -> list[PatientRecord]:
    """Parse an accrued-data CSV (patient_id, stage, arm_label, delta_y).

    delta_y is a float or the literal NA for a missing outcome. Malformed
    content raises ValueError naming the offending line. Given
    `upcoming_stage`, a value outside 2..n_stages raises before the file is
    opened, and so, once it is read, does data the interim before that
    stage must not decide on (_accrued_problem), naming the line of the
    record the refusal names, or else the file.
    """
    if upcoming_stage is not None:
        _check_upcoming(design, upcoming_stage)
    path = Path(path)
    records: list[PatientRecord] = []
    lines: list[int] = []
    seen: set[int] = set()
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _ACCRUED_HEADER:
            raise ValueError(
                f"{path}:1: expected header {','.join(_ACCRUED_HEADER)}, "
                f"got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
            pid_s, stage_s, label, delta_s = row
            try:
                pid = int(pid_s)
                stage = int(stage_s)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: patient_id and stage must be integers"
                ) from exc
            if pid in seen:
                raise ValueError(f"{path}:{lineno}: duplicate patient_id {pid}")
            seen.add(pid)
            if not 1 <= stage <= design.n_stages:
                raise ValueError(
                    f"{path}:{lineno}: stage {stage} outside 1..{design.n_stages}"
                )
            if label not in design.arms:
                raise ValueError(
                    f"{path}:{lineno}: unknown arm label {label!r} "
                    f"(expected one of {sorted(design.arms)})"
                )
            if delta_s == "NA":
                delta = None
            else:
                try:
                    delta = float(delta_s)
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{lineno}: delta_y must be a number or NA, "
                        f"got {delta_s!r}"
                    ) from exc
                if not math.isfinite(delta):
                    raise ValueError(f"{path}:{lineno}: delta_y must be finite")
            records.append(PatientRecord(pid, stage, label, delta))
            lines.append(lineno)
    if not records:
        raise ValueError(f"{path}: no patient rows")
    if upcoming_stage is not None:
        problem = _accrued_problem(design, records, upcoming_stage)
        if problem is not None:
            at, message = problem
            where = path if at is None else f"{path}:{lines[at]}"
            raise ValueError(f"{where}: {message}")
    records.sort(key=lambda r: r.patient_id)
    return records


def _check_upcoming(design: TrialDesign, upcoming_stage: int) -> None:
    if not 2 <= upcoming_stage <= design.n_stages:
        raise ValueError(
            f"upcoming stage must be in 2..{design.n_stages}, got {upcoming_stage}"
        )


def _accrued_problem(
    design: TrialDesign, records: list[PatientRecord], upcoming_stage: int
) -> tuple[int | None, str] | None:
    """Why the interim before `upcoming_stage` must not decide on these
    records, or None, with the position of the record the refusal names:
    the first record of that stage or a later one (or of a stage before 1),
    or whose arm is not one of the design's arms; no record, where a stage
    before it has none; or the stage's first record, where a stage before
    it has an arm split _split_problem refuses. read_accrued and
    interim_recommendation refuse alike by it."""
    counts = [[0] * design.k for _ in range(upcoming_stage)]
    first: dict[int, int] = {}
    for i, r in enumerate(records):
        if r.stage < 1:
            return i, f"stage {r.stage} outside 1..{design.n_stages}"
        if r.stage >= upcoming_stage:
            return i, (
                f"a stage-{r.stage} patient, but the interim before stage "
                f"{upcoming_stage} may use only stages before it"
            )
        if r.arm not in design.arms:
            return i, (
                f"arm {r.arm!r} is not one of the design's arms "
                f"{', '.join(design.arms)}"
            )
        counts[r.stage][design.arms.index(r.arm)] += 1
        first.setdefault(r.stage, i)
    absent = [str(t) for t in range(1, upcoming_stage) if t not in first]
    if absent:
        return None, f"accrued data has no patients in stage(s) {', '.join(absent)}"
    for t in range(1, upcoming_stage):
        problem = _split_problem(design, t, tuple(counts[t]))
        if problem is not None:
            return first[t], f"stage {t} {problem}"
    return None


def _split_problem(design: TrialDesign, stage: int, counts) -> str | None:
    """Why a stage's per-arm patient counts do not fit the design, or None:
    a total other than the stage's planned size, a split other than the
    stage's planned_ratio, or for mapped designs a control count other than
    MAPPED_CONTROLS. read_accrued and genlist check with it alike."""
    planned = planned_ratio(design, stage)
    size = design.stage_sizes[stage - 1]
    if sum(counts) != size:
        return f"has {sum(counts)} patients, the design plans {size}"
    if planned is not None and counts != planned.counts:
        return (
            f"splits the arms {':'.join(map(str, counts))}, the design's "
            f"stage-{stage} block is {planned.label()}"
        )
    if design.mapping is not None and counts[0] != MAPPED_CONTROLS:
        return f"has {counts[0]} control patients, the design fixes {MAPPED_CONTROLS}"
    return None


def _accrued_decision(
    design: TrialDesign,
    records: list[PatientRecord],
    upcoming_stage: int,
    policy: MissingPolicy,
    coin_rng: Callable[[], np.random.Generator],
) -> InterimRecord:
    """The interim decision on accrued records, taken as a block of one row
    whose columns are the patients in patient-id order. The coin between two
    options is drawn from the generator `coin_rng` builds, called only for
    such a decision. Every record's arm is one of the design's
    (_accrued_problem); its column holds the arm's position."""
    records = sorted(records, key=lambda r: r.patient_id)
    arm = np.array([[design.arms.index(r.arm) for r in records]])
    y = np.array([[0.0 if r.missing else r.delta_y for r in records]])
    missing = np.array([[r.missing for r in records]])
    stage_of = np.array([r.stage for r in records])
    if policy.impute_stage2:
        y, observed, _ = _mean_imputed(arm, y, missing, stage_of, design.k)
    else:
        observed = ~missing
    table, (row,) = _block_decisions(
        design, policy, upcoming_stage, arm, y, observed, stage_of
    )
    decision = table[row]
    if len(decision.options) > 1:
        decision = replace(decision, ratio=decision.options[coin_rng().integers(2)])
    return decision


@dataclass(frozen=True)
class InterimResult:
    """An interim decision on accrued data plus its human-readable audit."""

    upcoming_stage: int
    record: InterimRecord
    audit: tuple[str, ...]


def interim_recommendation(
    design: TrialDesign,
    records: list[PatientRecord],
    upcoming_stage: int,
    policy: MissingPolicy = MissingPolicy(),
    seed: int = 0,
) -> InterimResult:
    """One interim decision for real accrued data, with an audit trail.

    `seed`, a non-negative integer, feeds only the fair coin a two-option
    mapped category may need; everything else is deterministic in the data.
    Records that read_accrued would refuse raise ValueError, naming the
    patient where it names a line.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    _require_valid(design)
    _check_upcoming(design, upcoming_stage)
    problem = _accrued_problem(design, records, upcoming_stage)
    if problem is not None:
        at, message = problem
        if at is not None:
            message = f"patient {records[at].patient_id}: {message}"
        raise ValueError(message)

    rec = _accrued_decision(
        design, records, upcoming_stage, policy,
        lambda: np.random.default_rng(np.random.SeedSequence([seed])),
    )

    audit = []
    for label, post in zip(design.arms, rec.posteriors):
        audit.append(
            f"posterior {label}: Beta({post.alpha:g}, {post.beta:g}), "
            f"mean {post.mean:.6f}"
        )
    audit.append(
        "randomisation probabilities: "
        + ", ".join(
            f"{label} {p:.6f}" for label, p in zip(design.arms, rec.pi.probs)
        )
    )
    if rec.categories is not None:
        actives = design.arms[1:]
        audit.append(
            "active shares: "
            + ", ".join(
                f"{label} {s:.6f}" for label, s in zip(actives, active_shares(rec.pi))
            )
        )
        audit.append(
            "categories: "
            + ", ".join(
                f"{label} {c.value}" for label, c in zip(actives, rec.categories)
            )
        )
        if rec.applied_categories != rec.categories:
            audit.append(
                "applied categories: "
                + ", ".join(
                    f"{label} {c.value}"
                    for label, c in zip(actives, rec.applied_categories)
                )
            )
    for line in rec.overrides:
        audit.append(f"override: {line}")
    if rec.dropped:
        audit.append(
            "dropped arms: "
            + ", ".join(design.arms[i] for i in rec.dropped)
        )
    if rec.ratio is not None:
        audit.append(f"stage-{upcoming_stage} ratio: {rec.ratio.label()}")
    else:
        audit.append(
            f"stage-{upcoming_stage} randomisation is i.i.d. at the "
            "probabilities above"
        )
    return InterimResult(
        upcoming_stage=upcoming_stage, record=rec, audit=tuple(audit)
    )


# ---------------------------------------------------------------------------
# CSV report output

def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# Identity columns leading both report files: (header, OCReport field).
_IDENTITY = (
    ("design", "design_name"),
    ("scenario", "scenario"),
    ("stratum", "stratum"),
    ("case", "case_id"),
    ("impute", "impute"),
    ("n_reps", "n_reps"),
    ("master_seed", "master_seed"),
)


def _write_report_csv(reports: list[OCReport], path: str | Path, file: str) -> None:
    """One row per report: the identity columns, then the file's _COLUMNS;
    a per-arm stem gets one column per arm of its domain."""
    if not reports:
        raise ValueError("no reports to write")
    labels = reports[0].arm_labels
    if any(r.arm_labels != labels for r in reports):
        raise ValueError("reports in one CSV must share their arm labels")
    arms = {_ARM: range(len(labels)), _ACTIVE: range(1, len(labels)), _SCALAR: None}
    columns = [(stem, arms[domain]) for f, stem, _, domain, _ in _COLUMNS if f == file]
    header = [name for name, _ in _IDENTITY]
    for stem, index in columns:
        header += [stem] if index is None else [f"{stem}_{labels[i]}" for i in index]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for rep in reports:
            values = {"effect": rep.effects, **rep.rates}
            row = [getattr(rep, attr) for _, attr in _IDENTITY]
            for stem, index in columns:
                value = values[stem]
                if index is None:
                    row.append(value)
                else:
                    row += [None if value is None else value[i] for i in index]
            writer.writerow([_fmt(v) for v in row])


def write_oc_csv(reports: list[OCReport], path: str | Path) -> None:
    """Decision metrics and allocations, one row per report."""
    _write_report_csv(reports, path, "oc")


def write_adaptability_csv(reports: list[OCReport], path: str | Path) -> None:
    """Stage-level adaptation rates, one row per report."""
    _write_report_csv(reports, path, "adaptability")
