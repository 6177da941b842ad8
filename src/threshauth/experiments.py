"""Parameter sweeps behind the figure-reproduction CLI.

Each sweep produces rows of one fixed CSV schema so every experiment
(bound curves, minimizer comparison, estimation-strategy comparison,
threshold duel) lands in the same plottable format. All randomness is
derived from one master seed; rerunning a sweep with the same seed
reproduces the file byte for byte.
"""

from __future__ import annotations

import csv
from dataclasses import Field, dataclass, fields
from pathlib import Path

import numpy as np

from .asymptotic import asymptotic_threshold
from .bounds import optimal_rounds, optimal_threshold, rounds_loss_bound, threshold_loss_bound
from .channel import (
    attacker_per_round_error,
    score_counts,
    simulate_error_counts,
    swiss_hitomi_rates,
    user_per_round_error,
)
from .exact import brute_force_optimal, exact_expected_losses, exact_worst_case_losses
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
    coded_phase_stream,
    default_transparent_code,
    high_probability_rates,
    simulate_coded_phase,
)

DEFAULT_LOSSES = LossParameters(false_accept=10.0, false_reject=1.0, per_round=1e-2)
DEFAULT_SEED = 1729


def _canon(value: float | None) -> float | None:
    # rows store reals at the 12-significant-digit resolution of the
    # CSV schema, making emit/parse an exact round trip
    if value is None:
        return None
    return float(f"{value:.12g}")


@dataclass(frozen=True, slots=True, kw_only=True)
class SweepRow:
    """One output record; its fields, in order, are the CSV columns.

    A field a row does not set stays empty: numbers default to None and
    the abort marker to "".
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
        for name in ("omega", "tau", "exact_worst", "elb1", "elb2", "mc_worst", "mc_stderr"):
            object.__setattr__(self, name, _canon(getattr(self, name)))


CSV_HEADER = tuple(f.name for f in fields(SweepRow))


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
    if (kind in ("guess", "hp")) != bool(arg):
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


def _abort_row(w: float, tstrat: str, rstrat: str, reason: str) -> SweepRow:
    return SweepRow(omega=w, threshold_strategy=tstrat, rate_strategy=rstrat, aborted=reason)


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
        rows.extend(_abort_row(w, label, "true-omega", "gap-collapse") for label in labels)
        return None


def figure1a_sweep(spec: ExperimentSpec) -> list[SweepRow]:
    """Bound vs exact worst-case loss as the round count grows.

    For each noise level and each round count, evaluates the loss bound
    at its minimizing round-independent form and the exact worst-case
    loss at the closed-form threshold (unclamped, so very small round
    counts fall back to an always-reject rule). The exact losses of one
    noise level are computed for the whole round grid in one batched
    call, which gives the same numbers as one call per round count.
    """
    rows = []
    for w in sorted(spec.noise_grid):
        rates = _true_rates(w, ("finite-sample",), rows)
        if rates is None:
            continue
        elb2 = rounds_loss_bound(spec.params, rates)
        taus = [optimal_threshold(spec.params, rates, n).raw for n in spec.n_grid]
        exact = exact_worst_case_losses(spec.params, rates, spec.n_grid, taus).tolist()
        for n, tau, exact_worst in zip(spec.n_grid, taus, exact):
            rows.append(
                SweepRow(
                    omega=w,
                    n=n,
                    tau=tau,
                    threshold_strategy="finite-sample",
                    rate_strategy="true-omega",
                    exact_worst=exact_worst,
                    elb1=threshold_loss_bound(spec.params, rates, n),
                    elb2=elb2,
                )
            )
    return rows


def figure1b_sweep(spec: ExperimentSpec) -> list[SweepRow]:
    """Best-possible vs formula-chosen round count across noise levels.

    Per noise level: the exhaustive-search optimum (rounds, integer
    threshold, loss) and the closed-form design with its exact loss and
    both bound values.
    """
    rows = []
    for w in sorted(spec.noise_grid):
        rates = _true_rates(w, ("brute-force", "finite-sample"), rows)
        if rates is None:
            continue
        best = brute_force_optimal(spec.params, rates, spec.n_max)
        rows.append(
            SweepRow(
                omega=w,
                n=best.rounds,
                tau=float(best.threshold),
                threshold_strategy="brute-force",
                rate_strategy="true-omega",
                exact_worst=best.worst_loss,
            )
        )
        n_hat = optimal_rounds(spec.params, rates).value
        tau_hat = optimal_threshold(spec.params, rates, n_hat).raw
        rows.append(
            SweepRow(
                omega=w,
                n=n_hat,
                tau=tau_hat,
                threshold_strategy="finite-sample",
                rate_strategy="true-omega",
                exact_worst=float(
                    exact_worst_case_losses(spec.params, rates, [n_hat], [tau_hat])[0]
                ),
                elb1=threshold_loss_bound(spec.params, rates, n_hat),
                elb2=rounds_loss_bound(spec.params, rates),
            )
        )
    return rows


def _score_level(
    spec: ExperimentSpec,
    entries: list,
    attacker_rate: float,
    user_rate: float,
) -> list[SweepRow]:
    """The rows of one noise level, its designs scored at the given rates.

    ``entries`` holds the level's rows in output order: abort rows,
    which pass through, and designs ``(n, tau, seed, fields)``, where
    ``fields`` are the row's other columns. One ``exact_expected_losses``
    call scores every design; exact_worst is the larger of its two
    losses. The decision rule turns every threshold into its least
    rejected count in one call. The entries are then walked in order.
    A seed's Monte Carlo histograms of error counts, ``spec.trials``
    trials per identity, are drawn the first time the seed appears and
    scored under each threshold that shares it, so those designs are
    compared on the same trials. mc_worst is the larger Monte Carlo mean
    and mc_stderr the error of the identity that attains it (the
    attacker on ties).
    """
    designs = [e for e in entries if not isinstance(e, SweepRow)]
    if not designs:
        return entries
    ns, taus, _, _ = zip(*designs)
    losses = exact_expected_losses(spec.params, ns, taus, attacker_rate, user_rate)
    scores = zip(np.maximum(*losses).tolist(), rejected_count_min(taus, ns).tolist())
    sides = ((ProverIdentity.ATTACKER, attacker_rate), (ProverIdentity.USER, user_rate))
    histograms: dict[tuple[int, ...], list[np.ndarray]] = {}
    rows = []
    for entry in entries:
        if isinstance(entry, SweepRow):
            rows.append(entry)
            continue
        n, tau, seed, fields = entry
        exact_worst, cut = next(scores)
        if seed not in histograms:
            histograms[seed] = [
                simulate_error_counts(n, p, spec.trials, seed, identity) for identity, p in sides
            ]
        mc_worst, mc_stderr = max(
            (
                score_counts(h, cut, spec.params, identity, p)
                for h, (identity, p) in zip(histograms[seed], sides)
            ),
            key=lambda mc: mc[0],
        )
        rows.append(
            SweepRow(
                n=n, tau=tau, exact_worst=exact_worst, mc_worst=mc_worst, mc_stderr=mc_stderr,
                **fields,
            )
        )
    return rows


def figure3_comparison(spec: ExperimentSpec) -> list[SweepRow]:
    """Noise-estimation and threshold strategies under a real channel.

    For each noise level one coded phase is simulated and its error
    count shared by every estimating strategy, so strategies are
    compared on identical information. Each strategy derives rate
    bounds, a round count (capped by the codeword length), and a
    threshold. Its worst-case loss on the true channel, attacker at
    (1 + w) / 2 and user at the physical rate 1 - (1 - w)^2, is
    computed exactly for all designs of a noise level in one batched
    call, and estimated by Monte Carlo. These true rates need not be
    separated: above w = 1/2 the physical user errs more often than the
    attacker. The error-count histogram is drawn once per noise level and
    round count and scored under every threshold that uses it, so strategies
    choosing the same round count are compared on the same trials.
    Strategies that cannot proceed (hopeless coded phase, collapsed rate
    bounds, rates outside the threshold formula's domain) yield rows
    carrying an abort marker instead of numbers.
    """
    rows = []
    code = default_transparent_code(spec.codeword_length)
    for wi, w in enumerate(sorted(spec.noise_grid)):
        theta, phase_hopeless = simulate_coded_phase(
            w, code, coded_phase_stream(spec.master_seed, wi)
        )
        entries = []
        for rstrat in spec.rate_strategies:
            needs_estimate, derive, arg = _rate_strategy(rstrat)
            if needs_estimate and phase_hopeless:
                entries.extend(
                    _abort_row(w, t, rstrat, "coded-abort") for t in spec.threshold_strategies
                )
                continue
            try:
                rates = derive(arg, w, theta, spec.codeword_length)
            except GapCollapseError:
                entries.extend(
                    _abort_row(w, t, rstrat, "gap-collapse") for t in spec.threshold_strategies
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
                    entries.append(_abort_row(w, tstrat, rstrat, "invalid-rates"))
                    continue
                fields = dict(omega=w, threshold_strategy=tstrat, rate_strategy=rstrat, **bounds)
                entries.append((n, tau, (spec.master_seed, wi, n), fields))
        rows.extend(
            _score_level(spec, entries, attacker_per_round_error(w), user_per_round_error(w))
        )
    return rows


def threshold_duel(spec: ExperimentSpec) -> list[SweepRow]:
    """Finite-sample vs asymptotic threshold at small designs.

    Sweeps the noise grid in the given order and a grid of round counts.
    The exact losses of all designs of a noise level, both identities at
    their rate bounds, come from one batched call. The Monte Carlo
    draws each identity's error-count histogram once per grid point and
    scores it under both thresholds, so the comparison is paired and
    equal decision rules tie exactly. A threshold whose formula rejects
    the rates (the asymptotic one at zero noise) yields an invalid-rates
    abort row in its place.
    """
    rows = []
    for wi, w in enumerate(spec.noise_grid):
        rates = _true_rates(w, tuple(_THRESHOLD_RULES), rows)
        if rates is None:
            continue
        entries = []
        for ni, n in enumerate(spec.n_grid):
            for tstrat, rule in _THRESHOLD_RULES.items():
                try:
                    tau = rule(spec.params, rates, n)
                except ValueError:
                    entries.append(_abort_row(w, tstrat, "true-omega", "invalid-rates"))
                    continue
                fields = dict(omega=w, threshold_strategy=tstrat, rate_strategy="true-omega")
                entries.append((n, tau, (spec.master_seed, wi, ni), fields))
        rows.extend(_score_level(spec, entries, rates.attacker_floor, rates.user_ceiling))
    return rows


def _format_field(value: float | int | str | None) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def emit_csv(rows: list[SweepRow], path: str | Path) -> None:
    """Write rows under the fixed header, reals at 12 significant digits."""
    path = Path(path)
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for row in rows:
                writer.writerow([_format_field(getattr(row, name)) for name in CSV_HEADER])
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
    """Read rows previously written by emit_csv."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header in {path}: {header}")
        columns = fields(SweepRow)
        return [
            SweepRow(**{f.name: _parse_field(f, cell) for f, cell in zip(columns, rec)})
            for rec in reader
        ]
