"""Parameter sweeps behind the figure-reproduction CLI.

Each sweep produces rows of one fixed CSV schema so every experiment
(bound curves, minimizer comparison, estimation-strategy comparison,
threshold duel) lands in the same plottable format. A sweep returns its
rows as a read-only ``SweepRows`` sequence of blocks: a closed-form
block holds one noise level's shared values once and its per-round-count
values as columns, and other rows join as all-varying blocks. A
``SweepRow`` is built only when a row is read; ``emit_csv`` writes the
blocks as they are. The Monte Carlo sweeps (fig3 and the threshold
duel) collect every design of every noise level first and score them
once per sweep: one exact call, one batched draw and one vectorized
score per identity. All randomness is derived from one master seed;
rerunning a sweep with the same seed reproduces the file byte for byte.
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
    12-digit values. A label (a strategy or the abort marker) holding
    a line break raises ValueError.
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

    def __post_init__(self) -> None:
        for name in _LABELS:
            _check_labels(name, (getattr(self, name),))


def _check_reals(name: str, column: Sequence, first: int = 0) -> None:
    """Raise ValueError naming the column and row of a nan or infinite real.

    ``column`` holds rows ``first``, ``first + 1``, ... of a sweep.
    """
    # nan and the infinities carry through a sum, and finite reals sum to a
    # finite real unless it overflows, so only a column whose sum is not
    # finite is searched; filter(None, ...) passes over the empty cells and zeros
    if not math.isfinite(sum(filter(None, column))):
        for i, value in enumerate(column):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} of row {first + i} is not finite: {value!r}")


def _check_labels(name: str, labels: Iterable[str]) -> None:
    """Raise ValueError if a label holds a line break.

    emit_csv would write a lone \\r unquoted, which parse_csv cannot read.
    """
    for label in labels:
        if "\r" in label or "\n" in label:
            raise ValueError(f"{name} holds a line break: {label!r}")


CSV_HEADER = tuple(f.name for f in fields(SweepRow))
_LABELS = tuple(f.name for f in fields(SweepRow) if f.type == "str")
_REALS = tuple(f.name for f in fields(SweepRow) if f.type.startswith("float"))
_DEFAULTS = {f.name: f.default for f in fields(SweepRow) if f.default is not MISSING}
_FIELDS = operator.attrgetter(*CSV_HEADER)  # a row's values in CSV order
_ROW_DEFAULTS = {name: _DEFAULTS.get(name) for name in CSV_HEADER}
_ROW_VALUES = operator.itemgetter(*CSV_HEADER)  # a full dict of fields' values in CSV order


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


def _values_block(rows: Iterable[tuple]) -> _Block:
    """Rows given as tuples of their values in CSV order, as one all-varying block."""
    return _Block({}, dict(zip(CSV_HEADER, zip(*rows))))


def _rows_block(rows: Sequence[SweepRow]) -> _Block:
    """The rows as one all-varying block: a column for every field."""
    return _values_block(map(_FIELDS, rows))


class SweepRows(Sequence):
    """A sweep's rows, read-only, held as a list of blocks.

    Reading a row, by index, slice or iteration, builds its ``SweepRow``
    from its block; ``len`` builds none, and ``emit_csv`` writes the
    blocks without building any. A slice is a list of rows. Equality
    with a list of rows, or another ``SweepRows``, and ``repr`` are
    those of the list of its rows.
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks: Iterable[_Block]) -> None:
        self._blocks = [block for block in blocks if len(block)]

    def __len__(self) -> int:
        return sum(map(len, self._blocks))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
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

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, SweepRows)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


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
    """(needs_estimate, derive, argument) of a rate-strategy label."""
    kind, _, arg = label.partition(":")
    if kind not in _RATE_KINDS:
        raise ValueError(f"unknown rate strategy {label!r}")
    # float() would strip the whitespace a label carries into the CSV as given
    if (kind in ("guess", "hp")) != bool(arg) or arg != arg.strip():
        raise ValueError(f"malformed rate strategy {label!r}")
    needs_estimate, derive = _RATE_KINDS[kind]
    return needs_estimate, derive, float(arg) if arg else None


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


def _true_rates(
    w: float, labels: tuple[str, ...], rows: list[SweepRow]
) -> ErrorRateBounds | None:
    """Rate bounds at the true noise level, or None if they collapse.

    On collapse appends one gap-collapse abort row for each threshold
    strategy label the point would have produced.
    """
    try:
        return swiss_hitomi_rates(w)
    except GapCollapseError:
        rows.extend(
            SweepRow(omega=w, threshold_strategy=label, rate_strategy="true-omega",
                     aborted="gap-collapse")
            for label in labels
        )
        return None


def _closed_form_rows(
    params: LossParameters, levels: list[tuple[float, ErrorRateBounds]], n_grid: Sequence[int]
) -> list[_Block]:
    """The closed-form design's rows: one block per level, each over ``n_grid`` in its order.

    ``levels`` holds (noise level, rate bounds) pairs. A row holds the
    unclamped closed-form threshold (so very small round counts fall
    back to an always-reject rule), its exact worst-case loss and both
    bound values. A level's block holds omega, the strategy labels and
    elb2 once, and n, tau, exact_worst and elb1 as columns. A level
    costs one ``threshold_curve`` call, and its arrays become built-in
    numbers by ``tolist``; every level's designs, the grid once per
    level at that level's rates, are scored by one
    ``exact_expected_losses`` call.
    """
    if not levels:
        return []
    curves = [threshold_curve(params, rates, n_grid) for _, rates in levels]
    losses = exact_expected_losses(
        params, np.tile(n_grid, len(levels)), np.concatenate([taus for taus, _ in curves]),
        np.repeat([r.attacker_floor for _, r in levels], len(n_grid)),
        np.repeat([r.user_ceiling for _, r in levels], len(n_grid)),
    )
    return [
        _Block(
            dict(omega=w, threshold_strategy="finite-sample", rate_strategy="true-omega",
                 elb2=rounds_loss_bound(params, rates)),
            dict(n=n_grid, tau=taus.tolist(), exact_worst=exact.tolist(), elb1=elb1.tolist()),
        )
        for (w, rates), (taus, elb1), exact in zip(
            levels, curves, np.maximum(*losses).reshape(len(levels), len(n_grid))
        )
    ]


def figure1a_sweep(spec: ExperimentSpec) -> SweepRows:
    """Bound vs exact worst-case loss as the round count grows.

    The closed-form block (``_closed_form_rows``) of every live noise
    level over every round count, built in one call, then a gap-collapse
    abort row per collapsed level. The levels are sorted and their rate
    bounds collapse exactly when w >= 1/3, so all rows are in noise order.
    """
    aborts, levels = [], []
    for w in sorted(spec.noise_grid):
        rates = _true_rates(w, ("finite-sample",), aborts)
        if rates is not None:
            levels.append((w, rates))
    return SweepRows([*_closed_form_rows(spec.params, levels, spec.n_grid), _rows_block(aborts)])


def figure1b_sweep(spec: ExperimentSpec) -> SweepRows:
    """Best-possible vs formula-chosen round count across noise levels.

    Per live noise level: the exhaustive-search optimum (rounds, integer
    threshold, loss), then the closed-form row (``_closed_form_rows``)
    at the formula's round count. Two gap-collapse abort rows per
    collapsed level come last, as in ``figure1a_sweep``; all rows are one
    all-varying block, so ``emit_csv`` sets up one line template for the
    sweep rather than one per row. Every level's
    formula round count is checked before any search: one past the
    exact kernel's int64 limit raises ValueError naming its level.
    """
    levels, aborts = [], []
    for w in sorted(spec.noise_grid):
        rates = _true_rates(w, ("brute-force", "finite-sample"), aborts)
        if rates is None:
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
        rows.append(SweepRow(
            omega=w,
            n=best.rounds,
            tau=float(best.threshold),
            threshold_strategy="brute-force",
            rate_strategy="true-omega",
            exact_worst=best.worst_loss,
        ))
        rows += SweepRows(_closed_form_rows(spec.params, [(w, rates)], (n_hat,)))
    return SweepRows([_rows_block(rows + aborts)])


def _score_designs(spec: ExperimentSpec, entries: list[tuple[dict, tuple | None]]) -> list[tuple]:
    """A sweep's rows, every design of every noise level scored in one pass.

    ``entries`` holds the rows in output order as (fields, design) pairs:
    an abort row's fields and None, which pass through, or a design's
    fields, holding its omega, n and tau, and its (seed, attacker rate,
    user rate), the seed that of its Monte Carlo streams and the rates
    those of the channel it is scored on; the design's scored fields are
    added to its dict. A row is returned as the tuple of its values in
    CSV order. One per-design ``exact_expected_losses`` call scores every
    design; exact_worst is the larger of its two losses. The decision
    rule turns every threshold into its least rejected count in one call.
    A seed's Monte Carlo histograms of error counts, ``spec.trials``
    trials per identity, are drawn once, all of the sweep's in one
    ``simulate_error_histograms`` call, and scored under each threshold
    that shares the seed, so those designs are compared on the same
    trials; designs that share a seed but differ in round count or rates
    raise ValueError before any stream is built. One ``score_histograms``
    call per identity scores every design. mc_worst is the larger Monte
    Carlo mean and mc_stderr the error of the identity that attains it
    (the attacker on ties).
    """
    designs = [(fields, design) for fields, design in entries if design is not None]
    if designs:
        ns = [fields["n"] for fields, _ in designs]
        taus = [fields["tau"] for fields, _ in designs]
        seeds, att_rates, use_rates = zip(*(design for _, design in designs))
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
        losses = exact_expected_losses(spec.params, ns, taus, att_rates, use_rates)
        scored = zip(
            np.maximum(*losses).tolist(),
            np.where(attacker_worse, attacker, user).tolist(),
            np.where(attacker_worse, attacker_err, user_err).tolist(),
        )
        for (fields, _), (exact_worst, mc_worst, mc_stderr) in zip(designs, scored):
            fields.update(exact_worst=exact_worst, mc_worst=mc_worst, mc_stderr=mc_stderr)
    return [_ROW_VALUES(_ROW_DEFAULTS | fields) for fields, _ in entries]


def _abort_entry(w: float, tstrat: str, rstrat: str, reason: str) -> tuple[dict, None]:
    return dict(omega=w, threshold_strategy=tstrat, rate_strategy=rstrat, aborted=reason), None


def figure3_comparison(spec: ExperimentSpec) -> SweepRows:
    """Noise-estimation and threshold strategies under a real channel.

    For each noise level one coded phase is simulated and its error
    count shared by every estimating strategy, so strategies are
    compared on identical information. Each strategy derives rate
    bounds, a round count (capped by the codeword length), and a
    threshold. Its worst-case loss on the true channel, attacker at
    (1 + w) / 2 and user at the physical rate 1 - (1 - w)^2, is
    computed exactly and estimated by Monte Carlo, every design of every
    noise level in one pass per sweep (``_score_designs``): one exact
    call, one batched draw and one vectorized score per identity. These
    true rates need not be separated: above w = 1/2 the physical user
    errs more often than the attacker. The error-count histogram is drawn
    once per noise level and round count and scored under every
    threshold that uses it, so strategies choosing the same round count
    are compared on the same trials. Strategies that cannot proceed
    (hopeless coded phase, collapsed rate bounds, rates outside the
    threshold formula's domain) yield rows carrying an abort marker
    instead of numbers. The rows are returned as one block, built from
    the value tuples of ``_score_designs``.
    """
    entries = []
    code = default_transparent_code(spec.codeword_length)
    levels = sorted(spec.noise_grid)
    streams = coded_phase_streams(spec.master_seed, range(len(levels)))
    for wi, (w, stream) in enumerate(zip(levels, streams)):
        theta, phase_hopeless = simulate_coded_phase(w, code, stream)
        channel_rates = (attacker_per_round_error(w), user_per_round_error(w))
        for rstrat in spec.rate_strategies:
            needs_estimate, derive, arg = _rate_strategy(rstrat)
            if needs_estimate and phase_hopeless:
                entries.extend(
                    _abort_entry(w, t, rstrat, "coded-abort") for t in spec.threshold_strategies
                )
                continue
            try:
                rates = derive(arg, w, theta, spec.codeword_length)
            except GapCollapseError:
                entries.extend(
                    _abort_entry(w, t, rstrat, "gap-collapse") for t in spec.threshold_strategies
                )
                continue
            n = min(optimal_rounds(spec.params, rates).value, spec.codeword_length)
            bounds = dict(
                elb1=threshold_loss_bound(spec.params, rates, n),
                elb2=rounds_loss_bound(spec.params, rates),
            )
            for tstrat in spec.threshold_strategies:
                try:
                    tau = _THRESHOLD_RULES[tstrat](spec.params, rates, n)
                except ValueError:
                    entries.append(_abort_entry(w, tstrat, rstrat, "invalid-rates"))
                    continue
                fields = dict(omega=w, n=n, tau=tau, threshold_strategy=tstrat,
                              rate_strategy=rstrat)
                entries.append((fields | bounds, ((spec.master_seed, wi, n), *channel_rates)))
    return SweepRows([_values_block(_score_designs(spec, entries))])


def threshold_duel(spec: ExperimentSpec) -> SweepRows:
    """Finite-sample vs asymptotic threshold at small designs.

    Sweeps the noise grid in the given order and a grid of round counts.
    The exact losses of every design of the sweep, both identities at
    their noise level's rate bounds, come from one per-design call, and
    the Monte Carlo of the sweep is one batched draw and one vectorized
    score per identity (``_score_designs``). It draws each identity's
    error-count histogram once per grid point and scores it under both
    thresholds, so the comparison is paired and equal decision rules tie
    exactly. A collapsed noise level yields one gap-collapse abort row per
    threshold, and a threshold whose formula rejects the rates (the
    asymptotic one at zero noise) an invalid-rates abort row in its place.
    """
    entries = []
    for wi, w in enumerate(spec.noise_grid):
        try:
            rates = swiss_hitomi_rates(w)
        except GapCollapseError:
            entries.extend(
                _abort_entry(w, t, "true-omega", "gap-collapse") for t in _THRESHOLD_RULES
            )
            continue
        for ni, n in enumerate(spec.n_grid):
            for tstrat, rule in _THRESHOLD_RULES.items():
                try:
                    tau = rule(spec.params, rates, n)
                except ValueError:
                    entries.append(_abort_entry(w, tstrat, "true-omega", "invalid-rates"))
                    continue
                fields = dict(omega=w, n=n, tau=tau, threshold_strategy=tstrat,
                              rate_strategy="true-omega")
                design = ((spec.master_seed, wi, ni), rates.attacker_floor, rates.user_ceiling)
                entries.append((fields, design))
    return SweepRows([_values_block(_score_designs(spec, entries))])


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


def _column_field(column: Sequence) -> tuple[str, Iterable]:
    """A column's format field and the values it formats, in one pass
    when every value has one type."""
    kinds = set(map(type, column))
    if kinds == {float}:
        return "{:.12g}", column
    if kinds == {int}:
        return "{}", column
    if kinds <= {str, type(None)}:  # labels: each distinct one quoted once
        return "{}", map({label: _cell(label) for label in set(column)}.__getitem__, column)
    return "{}", map(_cell, column)


def _write_block(fh, block: _Block) -> None:
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
            field, column = _column_field(block.columns[name][lo : lo + _EMIT_CHUNK])
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
    ``csv.writer`` writes it. A label holding a line break, or a real
    that is nan or infinite, raises ValueError naming its column (and,
    for a real, its row, counted from 0) before the file is opened, so
    no partial CSV is written.
    """
    path = Path(path)
    if not isinstance(rows, SweepRows):
        rows = SweepRows([_rows_block(rows)])
    first = 0
    for block in rows._blocks:
        fixed = _DEFAULTS | block.fixed
        for name in _LABELS:
            if name in block.columns:
                _check_labels(name, set(block.columns[name]))
            else:
                _check_labels(name, (fixed[name],))
        for name in _REALS:
            _check_reals(name, block.columns.get(name, (fixed.get(name),)), first)
        first += len(block)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_HEADER) + "\n")
            for block in rows._blocks:
                _write_block(fh, block)
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {path}: {exc}") from exc


def _parse_field(f: Field, cell: str) -> float | int | str | None:
    # postponed annotations leave each field's type as its source text
    if f.type == "str":
        return cell
    if cell == "":
        return None
    if f.name == "n":
        return int(cell)
    value = float(cell)
    if not math.isfinite(value):  # emit_csv refuses to write one
        raise ValueError(f"{f.name} is not finite: {cell!r}")
    return value


def parse_csv(path: str | Path) -> list[SweepRow]:
    """Read rows previously written by emit_csv.

    Each real is the value of its 12-digit cell, so re-emitting the rows
    writes the same bytes. A malformed file raises ValueError naming its
    path and line: empty, another header, a record of another width, a
    cell that does not parse or a real that is nan or infinite, which
    ``emit_csv`` would not write.
    """
    path = Path(path)
    columns = fields(SweepRow)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != CSV_HEADER:
            raise ValueError(f"{path}, line 1: unexpected CSV header {header}")
        rows = []
        for rec in reader:
            try:
                if len(rec) != len(columns):
                    raise ValueError(f"{len(rec)} cells, want {len(columns)}")
                rows.append(SweepRow(**{f.name: _parse_field(f, c) for f, c in zip(columns, rec)}))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from exc
        return rows
