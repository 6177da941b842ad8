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
from enum import Enum
from pathlib import Path
from typing import Callable

import numpy as np

from .asymptotic import asymptotic_threshold
from .bounds import optimal_rounds, optimal_threshold, rounds_loss_bound, threshold_loss_bound
from .channel import (
    CODED_PHASE_TAG,
    ChannelModel,
    UserErrorModel,
    attacker_per_round_error,
    score_counts,
    simulate_error_counts,
    swiss_hitomi_rates,
)
from .exact import (
    brute_force_optimal,
    exact_expected_loss,
    exact_worst_case_loss,
    exact_worst_case_losses,
)
from .loss import ErrorRateBounds, GapCollapseError, LossParameters, ProverIdentity
from .noise import default_transparent_code, estimate_noise, high_probability_rates, simulate_coded_phase

DEFAULT_LOSSES = LossParameters(false_accept=10.0, false_reject=1.0, per_round=1e-2)
DEFAULT_SEED = 1729


def _canon(value: float | None) -> float | None:
    # rows store reals at the 12-significant-digit resolution of the
    # CSV schema, making emit/parse an exact round trip
    if value is None:
        return None
    return float(f"{value:.12g}")


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One output record; its fields, in order, are the CSV columns."""

    omega: float
    n: int | None
    tau: float | None
    threshold_strategy: str
    rate_strategy: str
    exact_worst: float | None
    elb1: float | None
    elb2: float | None
    mc_worst: float | None
    mc_stderr: float | None
    aborted: str

    def __post_init__(self) -> None:
        for name in ("omega", "tau", "exact_worst", "elb1", "elb2", "mc_worst", "mc_stderr"):
            object.__setattr__(self, name, _canon(getattr(self, name)))


CSV_HEADER = tuple(f.name for f in fields(SweepRow))


class ThresholdStrategy(Enum):
    FINITE = "finite-sample"
    ASYMPTOTIC = "asymptotic"


# Rate strategies by label kind: whether the kind reads the coded-phase
# error count, and how it derives rate bounds from (argument, true noise,
# observed errors, codeword length). A label is "true-omega" (oracle),
# "guess:<noise>" (fixed design-time guess), "ml" (plug-in estimate) or
# "hp:<confidence>" (widened estimate); the CSV carries it as given.
_RATE_KINDS = {
    "true-omega": (False, lambda arg, w, theta, k: swiss_hitomi_rates(ChannelModel(w))),
    "guess": (False, lambda arg, w, theta, k: swiss_hitomi_rates(ChannelModel(arg))),
    "ml": (True, lambda arg, w, theta, k: swiss_hitomi_rates(ChannelModel(theta / k))),
    "hp": (
        True,
        lambda arg, w, theta, k: high_probability_rates(estimate_noise(theta, k, arg)),
    ),
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
    threshold_strategies: tuple[ThresholdStrategy, ...] = (ThresholdStrategy.FINITE,)
    rate_strategies: tuple[str, ...] = ("true-omega",)
    codeword_length: int = 1024
    user_model: UserErrorModel = UserErrorModel.AT_BOUND
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
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ValueError(f"round counts must be integers >= 1, got {n!r}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.codeword_length < 1:
            raise ValueError("codeword_length must be positive")
        for label in self.rate_strategies:
            _rate_strategy(label)

    @classmethod
    def figure1a(cls, seed: int = DEFAULT_SEED, **overrides) -> "ExperimentSpec":
        defaults = dict(
            noise_grid=(0.1, 0.01), n_grid=tuple(range(1, 257)), master_seed=seed
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def figure1b(cls, seed: int = DEFAULT_SEED, **overrides) -> "ExperimentSpec":
        defaults = dict(noise_grid=default_noise_grid(), n_max=512, master_seed=seed)
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def figure3(cls, seed: int = DEFAULT_SEED, **overrides) -> "ExperimentSpec":
        defaults = dict(
            noise_grid=default_noise_grid(),
            trials=10_000,
            codeword_length=1024,
            threshold_strategies=(ThresholdStrategy.FINITE, ThresholdStrategy.ASYMPTOTIC),
            rate_strategies=("guess:0.1", "guess:0.01", "guess:0.001", "ml", "hp:0.1", "hp:0.01"),
            user_model=UserErrorModel.PHYSICAL,
            master_seed=seed,
        )
        defaults.update(overrides)
        return cls(**defaults)

    @classmethod
    def duel(cls, seed: int = DEFAULT_SEED, **overrides) -> "ExperimentSpec":
        defaults = dict(
            # channel noise at rate gaps 0.05, 0.10, 0.15 and 0.20
            noise_grid=tuple((1.0 - 2.0 * g) / 3.0 for g in (0.05, 0.10, 0.15, 0.20)),
            n_grid=(4, 8, 16, 32),
            trials=10_000,
            user_model=UserErrorModel.AT_BOUND,
            master_seed=seed,
        )
        defaults.update(overrides)
        return cls(**defaults)


def _abort_row(
    w: float, tstrat: str, rstrat: str, reason: str
) -> SweepRow:
    return SweepRow(
        omega=w,
        n=None,
        tau=None,
        threshold_strategy=tstrat,
        rate_strategy=rstrat,
        exact_worst=None,
        elb1=None,
        elb2=None,
        mc_worst=None,
        mc_stderr=None,
        aborted=reason,
    )


def _true_rates(
    w: float, labels: tuple[str, ...], rows: list[SweepRow]
) -> ErrorRateBounds | None:
    """Rate bounds at the true noise level, or None if they collapse.

    On collapse appends one gap-collapse abort row for each threshold
    strategy label the point would have produced.
    """
    try:
        return swiss_hitomi_rates(ChannelModel(w))
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
        rates = _true_rates(w, (ThresholdStrategy.FINITE.value,), rows)
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
                    threshold_strategy=ThresholdStrategy.FINITE.value,
                    rate_strategy="true-omega",
                    exact_worst=exact_worst,
                    elb1=threshold_loss_bound(spec.params, rates, n),
                    elb2=elb2,
                    mc_worst=None,
                    mc_stderr=None,
                    aborted="",
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
        rates = _true_rates(w, ("brute-force", ThresholdStrategy.FINITE.value), rows)
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
                elb1=None,
                elb2=None,
                mc_worst=None,
                mc_stderr=None,
                aborted="",
            )
        )
        n_hat = optimal_rounds(spec.params, rates).value
        tau_hat = optimal_threshold(spec.params, rates, n_hat).raw
        rows.append(
            SweepRow(
                omega=w,
                n=n_hat,
                tau=tau_hat,
                threshold_strategy=ThresholdStrategy.FINITE.value,
                rate_strategy="true-omega",
                exact_worst=exact_worst_case_loss(spec.params, rates, n_hat, tau_hat),
                elb1=threshold_loss_bound(spec.params, rates, n_hat),
                elb2=rounds_loss_bound(spec.params, rates),
                mc_worst=None,
                mc_stderr=None,
                aborted="",
            )
        )
    return rows


def _strategy_threshold(
    strategy: ThresholdStrategy,
    params: LossParameters,
    rates: ErrorRateBounds,
    rounds: int,
) -> float:
    if strategy is ThresholdStrategy.FINITE:
        return optimal_threshold(params, rates, rounds).raw
    return asymptotic_threshold(params, rates, rounds)


def _point_scorer(
    spec: ExperimentSpec,
    rounds: int,
    attacker_rate: float,
    user_rate: float,
    seed: tuple[int, ...],
) -> Callable[[float], tuple[float, float, float]]:
    """Score any threshold on one shared draw at a (noise, rounds) point.

    Draws ``spec.trials`` error counts per identity at the given
    per-round error rates once, and returns a function mapping a
    threshold to (exact_worst, mc_worst, mc_stderr): the larger exact
    per-identity loss, and the larger Monte Carlo mean with the stderr
    of the identity that attains it (the attacker on ties). Thresholds
    scored on one draw are compared on the same trials.
    """
    sides = ((ProverIdentity.ATTACKER, attacker_rate), (ProverIdentity.USER, user_rate))
    counts = [
        simulate_error_counts(rounds, p, spec.trials, seed, identity)
        for identity, p in sides
    ]

    def score(tau: float) -> tuple[float, float, float]:
        exact = max(
            exact_expected_loss(spec.params, rounds, tau, p, identity)
            for identity, p in sides
        )
        mc_worst, mc_stderr = max(
            (
                score_counts(c, tau, rounds, spec.params, identity, p)
                for c, (identity, p) in zip(counts, sides)
            ),
            key=lambda scored: scored[0],
        )
        return exact, mc_worst, mc_stderr

    return score


def figure3_comparison(spec: ExperimentSpec) -> list[SweepRow]:
    """Noise-estimation and threshold strategies under a real channel.

    For each noise level one coded phase is simulated and its error
    count shared by every estimating strategy, so strategies are
    compared on identical information. Each strategy derives rate
    bounds, a round count (capped by the codeword length), and a
    threshold, then its worst-case loss is estimated by Monte Carlo on
    the true channel. The error counts are drawn once per noise level
    and round count and scored under every threshold that uses them, so
    strategies choosing the same round count are compared on the same
    trials. Strategies that cannot proceed (hopeless coded phase,
    collapsed rate bounds, rates outside the threshold formula's domain)
    yield rows carrying an abort marker instead of numbers.
    """
    rows = []
    code = default_transparent_code(spec.codeword_length)
    for wi, w in enumerate(sorted(spec.noise_grid)):
        channel = ChannelModel(w)
        phase_rng = np.random.Generator(
            np.random.PCG64(
                np.random.SeedSequence((spec.master_seed, CODED_PHASE_TAG, wi))
            )
        )
        theta, phase_hopeless = simulate_coded_phase(channel, code, phase_rng)
        scorers = {}
        for rstrat in spec.rate_strategies:
            needs_estimate, derive, arg = _rate_strategy(rstrat)
            if needs_estimate and phase_hopeless:
                rows.extend(
                    _abort_row(w, t.value, rstrat, "coded-abort")
                    for t in spec.threshold_strategies
                )
                continue
            try:
                rates = derive(arg, w, theta, spec.codeword_length)
            except GapCollapseError:
                rows.extend(
                    _abort_row(w, t.value, rstrat, "gap-collapse")
                    for t in spec.threshold_strategies
                )
                continue
            n = min(optimal_rounds(spec.params, rates).value, spec.codeword_length)
            for tstrat in spec.threshold_strategies:
                try:
                    tau = _strategy_threshold(tstrat, spec.params, rates, n)
                except ValueError:
                    rows.append(
                        _abort_row(w, tstrat.value, rstrat, "invalid-rates")
                    )
                    continue
                if n not in scorers:
                    scorers[n] = _point_scorer(
                        spec,
                        n,
                        attacker_per_round_error(w),
                        spec.user_model.per_round_error(w),
                        (spec.master_seed, wi, n),
                    )
                exact, mc_worst, mc_stderr = scorers[n](tau)
                rows.append(
                    SweepRow(
                        omega=w,
                        n=n,
                        tau=tau,
                        threshold_strategy=tstrat.value,
                        rate_strategy=rstrat,
                        exact_worst=exact,
                        elb1=threshold_loss_bound(spec.params, rates, n),
                        elb2=rounds_loss_bound(spec.params, rates),
                        mc_worst=mc_worst,
                        mc_stderr=mc_stderr,
                        aborted="",
                    )
                )
    return rows


def threshold_duel(spec: ExperimentSpec) -> list[SweepRow]:
    """Finite-sample vs asymptotic threshold at small designs.

    Sweeps the noise grid in the given order and a grid of round counts,
    simulating both identities at their rate bounds once per grid point
    and scoring the same error counts under both thresholds, so the
    comparison is paired and equal decision rules tie exactly. A
    threshold whose formula rejects the rates (the asymptotic one at
    zero noise) yields an invalid-rates abort row in its place.
    """
    rows = []
    strategies = (ThresholdStrategy.FINITE, ThresholdStrategy.ASYMPTOTIC)
    for wi, w in enumerate(spec.noise_grid):
        rates = _true_rates(w, tuple(t.value for t in strategies), rows)
        if rates is None:
            continue
        for ni, n in enumerate(spec.n_grid):
            score = _point_scorer(
                spec, n, rates.attacker_floor, rates.user_ceiling, (spec.master_seed, wi, ni)
            )
            for tstrat in strategies:
                try:
                    tau = _strategy_threshold(tstrat, spec.params, rates, n)
                except ValueError:
                    rows.append(_abort_row(w, tstrat.value, "true-omega", "invalid-rates"))
                    continue
                exact, mc_worst, mc_stderr = score(tau)
                rows.append(
                    SweepRow(
                        omega=w,
                        n=n,
                        tau=tau,
                        threshold_strategy=tstrat.value,
                        rate_strategy="true-omega",
                        exact_worst=exact,
                        elb1=None,
                        elb2=None,
                        mc_worst=mc_worst,
                        mc_stderr=mc_stderr,
                        aborted="",
                    )
                )
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
            SweepRow(*(_parse_field(f, cell) for f, cell in zip(columns, rec)))
            for rec in reader
        ]
