"""Parameter sweeps behind the figure-reproduction CLI.

Each sweep (bound curves, minimizer comparison, estimation-strategy
comparison, threshold duel) lands in one fixed CSV schema, so every
experiment has the same plottable format. A sweep builds its rows as
dicts: an abort row carries the reason a design could not be built, a
design row its CSV fields and the rates it is scored at, plus its Monte
Carlo seed in the fig3 and duel sweeps. ``_score`` scores every design
row in one pass (one exact call, and, where rows carry a seed, one
batched draw and one vectorized score per identity) and returns the
rows as one block of columns. fig1a instead builds a block per noise
level, its shared values held once, and scores all of them in one
exact call. The blocks become the sweep's read-only ``SweepRows``,
which builds a ``SweepRow`` only when a row is read. ``emit_csv``
checks the blocks against the CSV schema before it opens the file and
writes them as they are. All randomness is derived from one master
seed; rerunning a sweep with the same seed reproduces the file byte
for byte.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import MISSING, Field, dataclass, fields
from pathlib import Path

import numpy as np

from .asymptotic import asymptotic_threshold
from .bounds import (
    optimal_rounds,
    optimal_threshold,
    rounds_loss_bound,
    threshold_curve,
    threshold_loss_bound,
)
from .channel import (
    attacker_per_round_error,
    score_histograms,
    simulate_error_histograms,
    swiss_hitomi_rates,
    user_per_round_error,
)
from .exact import _MAX_ROUNDS, brute_force_optimal, exact_expected_losses
from .loss import (
    ErrorRateBounds,
    GapCollapseError,
    LossParameters,
    ProverIdentity,
    _is_count,
    rejected_count_min,
)
from .noise import (
    NoiseEstimate,
    coded_phase_streams,
    default_transparent_code,
    high_probability_rates,
    simulate_coded_phase,
)

DEFAULT_LOSSES = LossParameters(false_accept=10.0, false_reject=1.0, per_round=1e-2)
DEFAULT_SEED = 1729


@dataclass(slots=True, kw_only=True)
class SweepRow:
    """One output record; its fields, in order, are the CSV columns.

    A slotted, keyword-only record, built only by its constructor: by
    ``parse_csv``, and by a sweep's ``SweepRows`` when a row is read
    from its blocks. A field a row does not set stays empty: numbers
    default to None and the abort marker to "". Reals are held as the
    sweep computed them, full doubles; ``emit_csv`` writes them at 12
    significant digits, so a row read back by ``parse_csv`` holds those
    12-digit values. A row holds whatever it is given; the CSV schema
    (``_schema_fault``) is checked where rows are written and read.
    """

    omega: float
    n: int | None = None
    tau: float | None = None
    threshold_strategy: str
    rate_strategy: str
    exact_worst: float | None = None
    elb1: float | None = None
    elb2: float | None = None
    mc_worst: float | None = None
    mc_stderr: float | None = None
    aborted: str = ""


CSV_HEADER = tuple(f.name for f in fields(SweepRow))
_LABELS = tuple(f.name for f in fields(SweepRow) if f.type == "str")
_NONNEGATIVE = ("exact_worst", "elb1", "elb2", "mc_worst", "mc_stderr")
_DEFAULTS = {f.name: f.default for f in fields(SweepRow) if f.default is not MISSING}
_FIELDS = operator.attrgetter(*CSV_HEADER)  # a row's values in CSV order


@dataclass(frozen=True, slots=True)
class _Block:
    """Consecutive rows of a sweep: ``fixed`` values shared by all of
    them, and ``columns`` of one value per row. A field in neither takes
    its ``SweepRow`` default."""

    fixed: dict[str, object]
    columns: dict[str, Sequence]

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def row(self, i: int) -> SweepRow:
        return SweepRow(**self.fixed, **{name: col[i] for name, col in self.columns.items()})


def _rows_block(rows: Sequence[SweepRow]) -> _Block:
    """The rows as one all-varying block: a column for every field."""
    return _Block({}, dict(zip(CSV_HEADER, zip(*map(_FIELDS, rows)))))


def _sums_finite(reals: Iterable[int | float]) -> bool:
    """Whether the reals sum to a finite real.

    nan and the infinities carry through a sum, and finite reals sum to
    a finite real unless it overflows. An int past the float range, whose
    digits parse_csv reads as inf, overflows the sum or ``math.isfinite``.
    """
    try:
        return math.isfinite(sum(reals))
    except OverflowError:
        return False


def _cell_fault(name: str, value: object) -> str:
    """Why the CSV schema rejects a cell of the named column, or ""."""
    if name in _LABELS:
        if not isinstance(value, str):
            return f"is not a string: {value!r}"
        # emit_csv would write a lone \r unquoted, which parse_csv cannot read
        return f"holds a line break: {value!r}" if "\r" in value or "\n" in value else ""
    if value is None:
        return "is empty" if name == "omega" else ""
    if name == "n":
        return "" if _is_count(value) else f"is not an integer >= 1: {value!r}"
    # a bool or a Fraction would be written as text that parse_csv cannot read
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return f"is not a real number: {value!r}"
    if not _sums_finite((value,)):
        return f"is not finite: {value!r}"
    return f"is negative: {value!r}" if name in _NONNEGATIVE and value < 0 else ""


def _kinds(block: _Block) -> dict[str, set[type]]:
    """The types each column of a block holds: one pass per column, shared
    by the schema check and the writer."""
    return {name: set(map(type, column)) for name, column in block.columns.items()}


def _column_passes(name: str, column: Sequence, kinds: set[type]) -> bool:
    """Whether whole-column checks show no cell of the column, holding
    values of these types, at fault."""
    if name in _LABELS:
        return kinds <= {str} and not any("\r" in label or "\n" in label for label in set(column))
    if type(None) in kinds:
        if name == "omega":  # every row sets omega
            return False
        column = [value for value in column if value is not None]
    if name == "n":
        return kinds <= {int, type(None)} and min(column, default=1) >= 1
    return kinds <= {int, float, type(None)} and _sums_finite(column) and (
        name not in _NONNEGATIVE or min(column, default=0) >= 0
    )


def _schema_fault(block: _Block, kinds: dict[str, set[type]]) -> tuple[str, int, str] | None:
    """The first cell of a block, whose columns hold ``kinds`` (``_kinds``),
    that the CSV schema rejects, as (column, row in the block, why), or None.

    A label is a string without a line break. Every row sets omega.
    Where a row sets n, it is an integer >= 1. Where it sets a real, the
    real is an int or a float, not a bool, and finite (an int past the
    float range is not, as parse_csv reads it as inf), and a loss or a
    Monte Carlo figure (``_NONNEGATIVE``) is >= 0. An abort row, one that
    carries an abort reason, leaves every number but omega empty.
    Columns are taken in CSV order, and a column is searched row by row
    only if whole-column checks fail.
    """
    if not len(block):
        return None
    fixed = _DEFAULTS | block.fixed
    reasons = block.columns.get("aborted")
    if reasons is None:
        aborts = range(len(block)) if fixed["aborted"] else range(0)
    else:
        aborts = [i for i, reason in enumerate(reasons) if reason]
    for name in CSV_HEADER:
        emptied = aborts if name not in _LABELS and name != "omega" else ()
        if name not in block.columns:  # a fixed value, one check for every row
            value = fixed.get(name)
            if value is not None and emptied:
                return name, emptied[0], f"is set in an abort row: {value!r}"
            if why := _cell_fault(name, value):
                return name, 0, why
            continue
        column = block.columns[name]
        if all(column[i] is None for i in emptied) and _column_passes(name, column, kinds[name]):
            continue
        for i, value in enumerate(column):
            if value is not None and i in emptied:
                return name, i, f"is set in an abort row: {value!r}"
            if why := _cell_fault(name, value):
                return name, i, why
    return None


class SweepRows(Sequence):
    """A sweep's rows, read-only, held as a list of blocks.

    Reading a row, by index or iteration, builds its ``SweepRow`` from
    its block; ``len`` builds none, and ``emit_csv`` writes the blocks
    without building any.
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks: Iterable[_Block]) -> None:
        self._blocks = [block for block in blocks if len(block)]

    def __len__(self) -> int:
        return sum(map(len, self._blocks))

    def __getitem__(self, index: int) -> SweepRow:
        i = operator.index(index)
        if i < 0:
            i += len(self)
        for block in self._blocks if i >= 0 else ():
            if i < len(block):
                return block.row(i)
            i -= len(block)
        raise IndexError("sweep row index out of range")

    def __iter__(self) -> Iterator[SweepRow]:
        for block in self._blocks:
            yield from map(block.row, range(len(block)))


# Rate strategies by label kind: whether the kind reads the coded-phase
# error count, and how it derives rate bounds from (argument, true noise,
# observed errors, codeword length). A label is "true-omega" (oracle),
# "guess:<noise>" (fixed design-time guess), "ml" (plug-in estimate) or
# "hp:<confidence>" (widened estimate); the CSV carries it as given.
_RATE_KINDS = {
    "true-omega": (False, lambda arg, w, theta, k: swiss_hitomi_rates(w)),
    "guess": (False, lambda arg, w, theta, k: swiss_hitomi_rates(arg)),
    "ml": (True, lambda arg, w, theta, k: swiss_hitomi_rates(theta / k)),
    "hp": (True, lambda arg, w, theta, k: high_probability_rates(NoiseEstimate(theta, k, arg))),
}


def _rate_strategy(label: str) -> tuple:
    """(needs_estimate, derive, argument) of a rate-strategy label.

    A guess is a noise level in [0, 1] and an hp confidence lies in
    (0, 1); an argument outside its domain, nan included, raises
    ValueError, so a spec holding one is rejected before any work.
    """
    kind, _, arg = label.partition(":")
    if kind not in _RATE_KINDS:
        raise ValueError(f"unknown rate strategy {label!r}")
    # float() would strip the whitespace a label carries into the CSV as given
    if (kind in ("guess", "hp")) != bool(arg) or arg != arg.strip():
        raise ValueError(f"malformed rate strategy {label!r}")
    needs_estimate, derive = _RATE_KINDS[kind]
    value = float(arg) if arg else None
    # each comparison is false for nan
    if kind == "guess" and not 0.0 <= value <= 1.0:
        raise ValueError(f"rate strategy {label!r}: guessed noise not in [0,1]")
    if kind == "hp" and not 0.0 < value < 1.0:
        raise ValueError(f"rate strategy {label!r}: confidence not in (0,1)")
    return needs_estimate, derive, value


# Threshold strategies by CSV label, in the order a design's rows take:
# each maps (params, rates, rounds) to a raw threshold, and raises
# ValueError on rates outside its formula's domain. The formulas are
# looked up when a rule is called, so a wrapper later installed on this
# module's names (the tracer of bench/spans.py) sees every call.
_THRESHOLD_RULES = {
    "finite-sample": lambda params, rates, n: optimal_threshold(params, rates, n).raw,
    "asymptotic": lambda params, rates, n: asymptotic_threshold(params, rates, n),
}


def default_noise_grid(points: int = 24) -> tuple[float, ...]:
    """Log-spaced noise grid spanning quiet channels to near gap collapse."""
    return tuple(float(w) for w in np.geomspace(1e-3, 0.3, points))


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a sweep needs: losses, grids, strategies, seed."""

    params: LossParameters = DEFAULT_LOSSES
    noise_grid: tuple[float, ...] = (0.1, 0.01)
    n_grid: tuple[int, ...] = tuple(range(1, 257))
    n_max: int = 512
    trials: int = 10_000
    threshold_strategies: tuple[str, ...] = ("finite-sample",)
    rate_strategies: tuple[str, ...] = ("true-omega",)
    codeword_length: int = 1024
    master_seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not self.params.per_round > 0:
            raise ValueError("per_round must be positive to optimize the round count")
        if not self.noise_grid:
            raise ValueError("noise_grid must be nonempty")
        for w in self.noise_grid:
            if isinstance(w, bool) or not isinstance(w, numbers.Real):
                raise ValueError(f"noise level not a real number: {w!r}")
            if not 0.0 <= w <= 1.0:  # also false for nan
                raise ValueError(f"noise level not in [0,1]: {w}")
        if not self.n_grid:
            raise ValueError("n_grid must be nonempty")
        for n in self.n_grid:
            if not _is_count(n):
                raise ValueError(f"round counts must be integers >= 1, got {n!r}")
        for name in ("n_max", "trials", "codeword_length"):
            value = getattr(self, name)
            if not _is_count(value):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
            object.__setattr__(self, name, int(value))
        # rows carry these values, so numpy scalars become built-in numbers
        object.__setattr__(self, "noise_grid", tuple(map(float, self.noise_grid)))
        object.__setattr__(self, "n_grid", tuple(map(int, self.n_grid)))
        if not _is_count(self.master_seed, least=0):
            raise ValueError(f"master_seed must be an integer >= 0, got {self.master_seed!r}")
        for name in ("threshold_strategies", "rate_strategies"):
            labels = getattr(self, name)
            if not labels:
                raise ValueError(f"{name} must be nonempty")
            if len(set(labels)) != len(labels):
                raise ValueError(f"{name} repeats a label: {labels!r}")
        for label in self.threshold_strategies:
            if label not in _THRESHOLD_RULES:
                raise ValueError(f"unknown threshold strategy {label!r}")
        for label in self.rate_strategies:
            _rate_strategy(label)

    # Each factory sets only what differs from the class defaults, which
    # are fig1a's; the keyword overrides win over both.
    @classmethod
    def figure1b(cls, **overrides) -> "ExperimentSpec":
        return cls(**(dict(noise_grid=default_noise_grid()) | overrides))

    @classmethod
    def figure3(cls, **overrides) -> "ExperimentSpec":
        defaults = dict(
            noise_grid=default_noise_grid(),
            threshold_strategies=tuple(_THRESHOLD_RULES),
            rate_strategies=("guess:0.1", "guess:0.01", "guess:0.001", "ml", "hp:0.1", "hp:0.01"),
        )
        return cls(**(defaults | overrides))

    @classmethod
    def duel(cls, **overrides) -> "ExperimentSpec":
        defaults = dict(
            # channel noise at rate gaps 0.05, 0.10, 0.15 and 0.20
            noise_grid=tuple((1.0 - 2.0 * g) / 3.0 for g in (0.05, 0.10, 0.15, 0.20)),
            n_grid=(4, 8, 16, 32),
        )
        return cls(**(defaults | overrides))


def _aborts(
    rows: list, w: float, labels: Iterable[str], rate_strategy: str, reason: str
) -> None:
    """Append one abort row per threshold strategy label at noise level
    ``w``, carrying the reason and leaving every number but omega empty."""
    for label in labels:
        rows.append(dict(omega=w, threshold_strategy=label, rate_strategy=rate_strategy,
                         aborted=reason))


def _threshold_rows(
    rows: list, params: LossParameters, rates: ErrorRateBounds, labels: Iterable[str], **design
) -> None:
    """Append one row per threshold strategy label, in label order: a
    design row holding ``design`` (omega, n, the rate strategy and the
    scoring fields) and the threshold the label's rule gives at
    ``rates`` and n, or an invalid-rates abort row where the rule
    rejects the rates."""
    for label in labels:
        try:
            tau = _THRESHOLD_RULES[label](params, rates, design["n"])
        except ValueError:
            _aborts(rows, design["omega"], (label,), design["rate_strategy"], "invalid-rates")
        else:
            rows.append(dict(design, threshold_strategy=label, tau=tau))


def _score(spec: ExperimentSpec, rows: list[dict]) -> _Block:
    """Score a sweep's design rows in place, in one pass; return its rows as one block.

    ``rows`` holds the sweep's rows in output order as dicts: design
    rows, and abort rows, those that carry an abort reason, which pass
    through. A design row holds its CSV fields, the per-round rates of
    the channel it is scored on (``_attacker_rate``, ``_user_rate``)
    and, in the Monte Carlo sweeps, the seed of its streams (``_seed``).
    One per-design ``exact_expected_losses`` call scores every design;
    exact_worst is the larger of its two losses. Where the designs carry
    a seed, the decision rule turns every threshold into its least
    rejected count in one call. A seed's Monte Carlo histograms of error
    counts, ``spec.trials`` trials per identity, are drawn once, all of
    the sweep's in one ``simulate_error_histograms`` call, and scored
    under each threshold that shares the seed, so those designs are
    compared on the same trials; designs that share a seed but differ in
    round count or rates raise ValueError before any stream is built.
    One ``score_histograms`` call per identity scores every design.
    mc_worst is the larger Monte Carlo mean and mc_stderr the error of
    the identity that attains it (the attacker on ties). Each design row
    gets its scores as fields. The block is all-varying, a column per
    ``CSV_HEADER`` name, so the scoring fields stay out of the CSV; a
    field a row does not set takes its ``SweepRow`` default.
    """
    designs = [row for row in rows if not row.get("aborted")]
    names = ("n", "tau", "_attacker_rate", "_user_rate", "_seed")
    ns, taus, att_rates, use_rates, seeds = ([row.get(name) for row in designs] for name in names)
    scores = {}
    if designs:
        # an integer array spares the kernel its check of each Python int
        losses = exact_expected_losses(spec.params, np.asarray(ns), taus, att_rates, use_rates)
        scores["exact_worst"] = np.maximum(*losses).tolist()
    if designs and seeds[0] is not None:
        # seed -> (its histograms' index, n, rates), in first-seen order
        draws: dict[tuple, tuple] = {}
        which = []
        for n, seed, att, use in zip(ns, seeds, att_rates, use_rates):
            j, *drawn = draws.setdefault(seed, (len(draws), n, att, use))
            if drawn != [n, att, use]:
                raise ValueError(f"designs of seed {seed!r} differ in round count or rates")
            which.append(j)
        _, rounds, att_draws, use_draws = zip(*draws.values())
        sides = ((ProverIdentity.ATTACKER, att_draws), (ProverIdentity.USER, use_draws))
        histograms = simulate_error_histograms(rounds, sides, spec.trials, list(draws))
        cuts = rejected_count_min(taus, ns)
        (attacker, attacker_err), (user, user_err) = (
            score_histograms(h, which, cuts, spec.params, identity, rates)
            for h, (identity, _), rates in zip(histograms, sides, (att_rates, use_rates))
        )
        attacker_worse = attacker >= user
        scores["mc_worst"] = np.where(attacker_worse, attacker, user).tolist()
        scores["mc_stderr"] = np.where(attacker_worse, attacker_err, user_err).tolist()
    for row, *values in zip(designs, *scores.values()):
        row.update(zip(scores, values))
    columns = {name: [row.get(name, _DEFAULTS.get(name)) for row in rows] for name in CSV_HEADER}
    return _Block({}, columns)


def _scored_at(rates: ErrorRateBounds) -> dict:
    """The scoring rates of a design scored at these rate bounds."""
    return dict(_attacker_rate=rates.attacker_floor, _user_rate=rates.user_ceiling)


def _closed_form_block(
    params: LossParameters, w: float, rates: ErrorRateBounds, n_grid: Sequence[int]
) -> _Block:
    """The closed-form design's rows at one noise level, over ``n_grid`` in its order, unscored.

    A row holds the unclamped closed-form threshold (so very small round
    counts fall back to an always-reject rule) and both bound values.
    The block holds omega, the strategy labels and elb2 once, and n, tau
    and elb1 as columns; the caller adds exact_worst, scored at the
    level's rate bounds. A level costs one ``threshold_curve`` call, and
    its arrays become built-in numbers by ``tolist``.
    """
    taus, elb1 = threshold_curve(params, rates, n_grid)
    fixed = dict(omega=w, threshold_strategy="finite-sample", rate_strategy="true-omega",
                 elb2=rounds_loss_bound(params, rates))
    return _Block(fixed, dict(n=n_grid, tau=taus.tolist(), elb1=elb1.tolist()))


def figure1a_sweep(spec: ExperimentSpec) -> SweepRows:
    """Bound vs exact worst-case loss as the round count grows.

    The closed-form block (``_closed_form_block``) of every live noise
    level over every round count, each level one block of the CSV, then
    a gap-collapse abort row per collapsed level, passed through
    ``_score``. One ``exact_expected_losses`` call scores every level's
    block, on arrays: the round grid once per level (``np.tile``), the
    levels' thresholds concatenated, and each level's rate bounds
    repeated over the grid. The levels are sorted and their rate bounds
    collapse exactly when w >= 1/3, so all rows are in noise order.
    """
    levels, aborts = [], []
    for w in sorted(spec.noise_grid):
        try:
            levels.append((w, swiss_hitomi_rates(w)))
        except GapCollapseError:
            _aborts(aborts, w, ("finite-sample",), "true-omega", "gap-collapse")
    blocks = [_closed_form_block(spec.params, w, rates, spec.n_grid) for w, rates in levels]
    if blocks:
        size = len(spec.n_grid)
        losses = exact_expected_losses(
            spec.params, np.tile(spec.n_grid, len(blocks)),
            np.concatenate([block.columns["tau"] for block in blocks]),
            np.repeat([rates.attacker_floor for _, rates in levels], size),
            np.repeat([rates.user_ceiling for _, rates in levels], size),
        )
        for block, worst in zip(blocks, np.maximum(*losses).reshape(len(blocks), size).tolist()):
            block.columns["exact_worst"] = worst
    return SweepRows([*blocks, _score(spec, aborts)])


def figure1b_sweep(spec: ExperimentSpec) -> SweepRows:
    """Best-possible vs formula-chosen round count across noise levels.

    Per live noise level: the exhaustive-search optimum (rounds, integer
    threshold), then the closed-form row (``_closed_form_block``) at the
    formula's round count, both design rows at the level's rate bounds.
    Two gap-collapse abort rows per collapsed level come last, as in
    ``figure1a_sweep``. ``_score`` scores every design in one exact call
    and makes all rows one all-varying block, so ``emit_csv`` sets up
    one line template for the sweep rather than one per row. Every
    level's formula round count is checked before any search: one past
    the exact kernel's int64 limit raises ValueError naming its level.
    """
    levels, collapsed = [], []
    for w in sorted(spec.noise_grid):
        try:
            rates = swiss_hitomi_rates(w)
        except GapCollapseError:
            collapsed.append(w)
            continue
        n_hat = optimal_rounds(spec.params, rates).value
        if n_hat > _MAX_ROUNDS:
            raise ValueError(
                f"omega {w!r}: closed-form n_hat {n_hat} is past the exact kernel's "
                f"limit of {_MAX_ROUNDS} rounds"
            )
        levels.append((w, rates, n_hat))
    rows = []
    for w, rates, n_hat in levels:
        best = brute_force_optimal(spec.params, rates, spec.n_max)
        scored = _scored_at(rates)
        rows.append(dict(omega=w, n=best.rounds, tau=float(best.threshold),
                         threshold_strategy="brute-force", rate_strategy="true-omega", **scored))
        closed_form = _closed_form_block(spec.params, w, rates, (n_hat,))  # one row
        rows.append(closed_form.fixed | {k: v[0] for k, v in closed_form.columns.items()} | scored)
    for w in collapsed:
        _aborts(rows, w, ("brute-force", "finite-sample"), "true-omega", "gap-collapse")
    return SweepRows([_score(spec, rows)])


def figure3_comparison(spec: ExperimentSpec) -> SweepRows:
    """Noise-estimation and threshold strategies under a real channel.

    For each noise level one coded phase is simulated and its error
    count shared by every estimating strategy, so strategies are
    compared on identical information. Each strategy derives rate
    bounds, a round count (capped by the codeword length), and a
    threshold. Its worst-case loss on the true channel, attacker at
    (1 + w) / 2 and user at the physical rate 1 - (1 - w)^2, is
    computed exactly and estimated by Monte Carlo, every design of every
    noise level in one pass per sweep (``_score``): one exact call, one
    batched draw and one vectorized score per identity. These true
    rates need not be separated: above w = 1/2 the physical user errs
    more often than the attacker. The error-count histogram is drawn
    once per noise level and round count and scored under every
    threshold that uses it, so strategies choosing the same round count
    are compared on the same trials. Strategies that cannot proceed
    (hopeless coded phase, collapsed rate bounds, rates outside the
    threshold formula's domain) yield rows carrying an abort marker
    instead of numbers. The rows are returned as one all-varying block.
    """
    rows = []
    code = default_transparent_code(spec.codeword_length)
    levels = sorted(spec.noise_grid)
    streams = coded_phase_streams(spec.master_seed, range(len(levels)))
    for wi, (w, stream) in enumerate(zip(levels, streams)):
        theta, phase_hopeless = simulate_coded_phase(w, code, stream)
        channel_rates = dict(_attacker_rate=attacker_per_round_error(w),
                             _user_rate=user_per_round_error(w))
        for rstrat in spec.rate_strategies:
            needs_estimate, derive, arg = _rate_strategy(rstrat)
            if needs_estimate and phase_hopeless:
                _aborts(rows, w, spec.threshold_strategies, rstrat, "coded-abort")
                continue
            try:
                rates = derive(arg, w, theta, spec.codeword_length)
            except GapCollapseError:
                _aborts(rows, w, spec.threshold_strategies, rstrat, "gap-collapse")
                continue
            n = min(optimal_rounds(spec.params, rates).value, spec.codeword_length)
            _threshold_rows(
                rows, spec.params, rates, spec.threshold_strategies,
                omega=w, n=n, rate_strategy=rstrat,
                elb1=threshold_loss_bound(spec.params, rates, n),
                elb2=rounds_loss_bound(spec.params, rates),
                _seed=(spec.master_seed, wi, n), **channel_rates,
            )
    return SweepRows([_score(spec, rows)])


def threshold_duel(spec: ExperimentSpec) -> SweepRows:
    """Finite-sample vs asymptotic threshold at small designs.

    Sweeps the noise grid in the given order and a grid of round counts.
    The exact losses of every design of the sweep, both identities at
    their noise level's rate bounds, come from one per-design call, and
    the Monte Carlo of the sweep is one batched draw and one vectorized
    score per identity (``_score``). It draws each identity's
    error-count histogram once per grid point and scores it under both
    thresholds, so the comparison is paired and equal decision rules tie
    exactly. A collapsed noise level yields one gap-collapse abort row per
    threshold, and a threshold whose formula rejects the rates (the
    asymptotic one at zero noise) an invalid-rates abort row in its place.
    The rows are returned as one all-varying block.
    """
    rows = []
    for wi, w in enumerate(spec.noise_grid):
        try:
            rates = swiss_hitomi_rates(w)
        except GapCollapseError:
            _aborts(rows, w, _THRESHOLD_RULES, "true-omega", "gap-collapse")
            continue
        for ni, n in enumerate(spec.n_grid):
            _threshold_rows(rows, spec.params, rates, _THRESHOLD_RULES, omega=w, n=n,
                            rate_strategy="true-omega", **_scored_at(rates),
                            _seed=(spec.master_seed, wi, ni))
    return SweepRows([_score(spec, rows)])


_EMIT_CHUNK = 1024  # rows emit_csv turns into text at once


def _cell(value: object) -> str:
    """A cell: a real at 12 significant digits, else (None empty) as ``csv`` writes it."""
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    if isinstance(value, int):  # its text needs no quoting
        return str(value)
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerow((value, None))
    return text.getvalue()[:-2]  # without the empty cell after it and the newline


def _column_field(column: Sequence, kinds: set[type]) -> tuple[str, Iterable]:
    """The format field of a column, or a part of it, holding values of
    these types, and the values it formats, in one pass when every value
    has one type."""
    if kinds == {float}:
        return "{:.12g}", column
    if kinds == {int}:
        return "{}", column
    if kinds <= {str, type(None)}:  # labels: each distinct one quoted once
        return "{}", map({label: _cell(label) for label in set(column)}.__getitem__, column)
    return "{}", map(_cell, column)


def _write_block(fh, block: _Block, kinds: dict[str, set[type]]) -> None:
    """Write a block's rows, ``_EMIT_CHUNK`` at a time, through one line template.

    Each fixed cell is rendered once and inlined into the template, its
    braces escaped; each column is a format field of the template.
    """
    fixed = _DEFAULTS | block.fixed
    texts = {
        name: _cell(fixed[name]).replace("{", "{{").replace("}", "}}")
        for name in CSV_HEADER if name not in block.columns
    }
    for lo in range(0, len(block), _EMIT_CHUNK):
        cells, columns = [], []
        for name in CSV_HEADER:
            if name in texts:
                cells.append(texts[name])
                continue
            field, column = _column_field(block.columns[name][lo : lo + _EMIT_CHUNK], kinds[name])
            cells.append(field)
            columns.append(column)
        fh.write("".join(map((",".join(cells) + "\n").format, *columns)))


def emit_csv(rows: Sequence[SweepRow], path: str | Path) -> None:
    """Write rows under the fixed header, reals at 12 significant digits.

    This is the one place a row's real becomes text: each is formatted
    once here, from the double the row holds. A sweep's ``SweepRows``
    is written block by block, building no row; a plain list of rows is
    first made one all-varying block. A block's shared cells are
    rendered once, and its columns go through one line template, at
    most ``_EMIT_CHUNK`` rows at a time: an all-float column as
    ``{:.12g}``, an all-int one as ``{}``, others as cells rendered
    first. Labels are quoted by ``csv`` itself, so every byte is as
    ``csv.writer`` writes it. A cell the CSV schema rejects
    (``_schema_fault``: a label that is not a string or holds a line
    break, an empty omega, an n that is not an integer >= 1, a real that
    is a bool or not a number, nan, infinite or an int past the float
    range, a negative loss, a number other than omega in an abort row)
    raises ValueError naming its column and its row, counted from 0,
    before the file is opened, so no partial CSV is written.
    """
    path = Path(path)
    if not isinstance(rows, SweepRows):
        rows = SweepRows([_rows_block(rows)])
    kinds = list(map(_kinds, rows._blocks))
    first = 0
    for block, block_kinds in zip(rows._blocks, kinds):
        if fault := _schema_fault(block, block_kinds):
            name, i, why = fault
            raise ValueError(f"{name} of row {first + i} {why}")
        first += len(block)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_HEADER) + "\n")
            for block, block_kinds in zip(rows._blocks, kinds):
                _write_block(fh, block, block_kinds)
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc


def _parse_field(f: Field, cell: str) -> float | int | str | None:
    # postponed annotations leave each field's type as its source text
    if f.type == "str":
        return cell
    if cell == "":
        return None
    return int(cell) if f.name == "n" else float(cell)


def parse_csv(path: str | Path) -> list[SweepRow]:
    """Read rows previously written by emit_csv.

    Each real is the value of its 12-digit cell, so re-emitting the rows
    writes the same bytes. A malformed file raises ValueError naming its
    path and line: empty, another header, a record of another width, a
    cell that does not parse, or a row that ``emit_csv`` would not write
    because the CSV schema rejects it (``_schema_fault``), such as a real
    that is nan or infinite or a label holding a line break; the schema
    is checked once every record is read.
    """
    path = Path(path)
    columns = fields(SweepRow)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != CSV_HEADER:
            raise ValueError(f"{path}, line 1: unexpected CSV header {header}")
        rows, lines = [], []
        for rec in reader:
            try:
                if len(rec) != len(columns):
                    raise ValueError(f"{len(rec)} cells, want {len(columns)}")
                rows.append(SweepRow(**{f.name: _parse_field(f, c) for f, c in zip(columns, rec)}))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from exc
            lines.append(reader.line_num)
    block = _rows_block(rows)
    if fault := _schema_fault(block, _kinds(block)):
        name, i, why = fault
        raise ValueError(f"{path}, line {lines[i]}: {name} {why}")
    return rows
