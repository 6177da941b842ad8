"""Finite-sample loss bounds and the closed-form near-optimal design.

Concentration of the error count around its mean yields an exponential
upper bound on the worst-case expected loss for any threshold between
the two rate means. Equalizing its two branches gives a closed-form
threshold. Balancing the round cost against a relaxed form of the
equalized bound gives a closed-form round choice and a closed-form cap
on the bound it achieves.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .loss import ErrorRateBounds, LossParameters, _is_count


@dataclass(frozen=True)
class BoundReport:
    """Loss-bound value together with the inputs it was evaluated at.

    ``valid`` records whether the threshold lay inside the interval
    [rounds * user_ceiling, rounds * attacker_floor] required for the
    bound to hold; the value is reported either way and callers decide
    how to treat out-of-range thresholds.
    """

    bound_value: float
    threshold: float
    rounds: int
    valid: bool


@dataclass(frozen=True)
class ThresholdChoice:
    """Near-optimal threshold, clamped to its validity interval.

    ``raw`` keeps the unclamped formula value; when it falls outside
    [rounds * user_ceiling, rounds * attacker_floor], ``value`` is the
    nearest endpoint and ``clamped`` is set.
    """

    value: float
    clamped: bool
    raw: float


@dataclass(frozen=True)
class RoundsChoice:
    """Near-optimal integer round count and the real balance point behind it."""

    value: int
    real: float


def loss_bound_at(
    params: LossParameters,
    rates: ErrorRateBounds,
    rounds: int,
    threshold: float,
) -> BoundReport:
    """Exponential upper bound on the worst-case expected loss.

        rounds * per_round + max(exp(-(2/n)(n*pu - tau)^2) * false_reject,
                                 exp(-(2/n)(n*pa - tau)^2) * false_accept)

    Valid when n*pu <= tau <= n*pa; outside that interval the report is
    flagged invalid rather than repaired.
    """
    if not _is_count(rounds):
        raise ValueError(f"rounds must be an integer >= 1, got {rounds!r}")
    n = float(rounds)
    pa, pu = rates.attacker_floor, rates.user_ceiling
    reject_term = math.exp(-(2.0 / n) * (n * pu - threshold) ** 2) * params.false_reject
    accept_term = math.exp(-(2.0 / n) * (n * pa - threshold) ** 2) * params.false_accept
    valid = n * pu <= threshold <= n * pa
    return BoundReport(
        bound_value=rounds * params.per_round + max(reject_term, accept_term),
        threshold=threshold,
        rounds=rounds,
        valid=valid,
    )


def optimal_threshold(
    params: LossParameters,
    rates: ErrorRateBounds,
    rounds: int,
) -> ThresholdChoice:
    """Threshold equalizing the two branches of the loss bound.

        tau = n (pa + pu) / 2 - ln(ratio) / (4 gap)

    For small round counts the formula can leave the validity interval
    [n*pu, n*pa]; the returned value is then the nearest endpoint with
    ``clamped`` set, and ``raw`` preserves the formula output.
    """
    if not _is_count(rounds):
        raise ValueError(f"rounds must be an integer >= 1, got {rounds!r}")
    n = float(rounds)
    raw = _raw_threshold(params, rates, n)
    value = min(max(raw, n * rates.user_ceiling), n * rates.attacker_floor)
    return ThresholdChoice(value=value, clamped=(value != raw), raw=raw)


def threshold_loss_bound(
    params: LossParameters,
    rates: ErrorRateBounds,
    rounds: int,
) -> float:
    """Loss bound at the equalizing threshold, as a function of rounds.

        n * per_round + exp(-n gap^2 / 2) * sqrt(false_accept * false_reject)

    Dominates loss_bound_at(.., optimal_threshold(..)) whenever the
    threshold is unclamped, since equalization drops a factor <= 1.
    """
    if not _is_count(rounds):
        raise ValueError(f"rounds must be an integer >= 1, got {rounds!r}")
    return _equalized_bound(params, rates, rounds, math.exp)


# The two closed forms in n, written once for a scalar n and for a float
# array of round counts: numpy applies the same IEEE operations in the
# same order, so an array entry equals the scalar value bit for bit.
def _raw_threshold(params: LossParameters, rates: ErrorRateBounds, n):
    pa, pu = rates.attacker_floor, rates.user_ceiling
    return n * (pa + pu) / 2.0 - math.log(params.ratio) / (4.0 * rates.gap)


def _equalized_bound(params: LossParameters, rates: ErrorRateBounds, n, exp):
    gap = rates.gap
    return n * params.per_round + exp(-n * gap * gap / 2.0) * math.sqrt(
        params.false_accept * params.false_reject
    )


def _exp_each(x: np.ndarray) -> np.ndarray:
    # math.exp per entry: np.exp can differ from it in the last bit
    return np.fromiter(map(math.exp, x.tolist()), np.float64, x.size)


def threshold_curve(
    params: LossParameters,
    rates: ErrorRateBounds,
    rounds: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Raw equalizing thresholds and their loss bounds over a round grid.

    Entry i of the two arrays is ``optimal_threshold(params, rates,
    rounds[i]).raw`` and ``threshold_loss_bound(params, rates,
    rounds[i])``, bit for bit, for round counts in any order and with
    repeats; each formula is evaluated once over the whole grid.
    """
    if not all(map(_is_count, rounds)):
        bad = next(n for n in rounds if not _is_count(n))
        raise ValueError(f"rounds must be integers >= 1, got {bad!r}")
    n = np.array(rounds, dtype=np.float64)
    return _raw_threshold(params, rates, n), _equalized_bound(params, rates, n, _exp_each)


def optimal_rounds(params: LossParameters, rates: ErrorRateBounds) -> RoundsChoice:
    """Closed-form round count for the equalized loss bound.

    The real value (sqrt(1 + 2 C K) - 1) / C, with C = gap^2 and
    K = sqrt(false_accept * false_reject) / per_round, is computed as
    the equal 2 K / (sqrt(1 + 2 C K) + 1), which tends to K as the gap
    closes where the first form cancels to 0. It is not the minimizer
    of threshold_loss_bound. It is the balance point where

        n * per_round = sqrt(false_accept * false_reject) / (1 + n C / 2),

    the round cost against the decision term of the equalized bound
    after relaxing exp(-x) <= 1 / (1 + x). So the equalized bound at
    the real value is at most 2 * n * per_round. The minimizer of
    threshold_loss_bound itself is (2 / C) ln(C K / 2) when C K > 2;
    for the default losses at omega = 0.1 it is 48.39, against a
    balance point of 64.15. The integer choice is whichever of floor
    or ceiling (at least 1) evaluates to the smaller equalized bound.
    """
    if not params.per_round > 0:
        raise ValueError("per_round must be positive to optimize the round count")
    c = rates.gap * rates.gap
    k = math.sqrt(params.false_accept * params.false_reject) / params.per_round
    real = 2.0 * k / (math.sqrt(1.0 + 2.0 * c * k) + 1.0)
    lo = max(1, math.floor(real))
    hi = max(1, math.ceil(real))
    if threshold_loss_bound(params, rates, lo) <= threshold_loss_bound(params, rates, hi):
        return RoundsChoice(value=lo, real=real)
    return RoundsChoice(value=hi, real=real)


def rounds_loss_bound(params: LossParameters, rates: ErrorRateBounds) -> float:
    """Closed-form cap on the equalized bound at the balance point.

        sqrt(8 * per_round) * (false_accept * false_reject)^(1/4) / gap
            = 2 * per_round * sqrt(2 K / C)

    with C and K as in optimal_rounds. Since the real balance point
    n_r satisfies n_r <= sqrt(2 K / C), the cap is at least
    2 * n_r * per_round, which is at least threshold_loss_bound at n_r.
    It is a ceiling, not the minimum of the bound: for the default
    losses at omega = 0.1 it is 1.437, against a minimum of 0.647.
    """
    if not params.per_round > 0:
        raise ValueError("per_round must be positive")
    return (
        math.sqrt(8.0 * params.per_round)
        * (params.false_accept * params.false_reject) ** 0.25
        / rates.gap
    )
