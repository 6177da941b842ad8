"""Exact binomial tails, expected losses and brute-force optima.

With {0,1} per-round errors the total error count is binomial, so
decision probabilities, expected losses, and the best (rounds,
threshold) pair can all be computed exactly. The functions here serve
as ground truth for the closed-form bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .loss import ErrorRateBounds, LossParameters, ProverIdentity


@dataclass(frozen=True)
class BinomialSpec:
    """Number of trials and per-trial success probability."""

    trials: int
    success_prob: float

    def __post_init__(self) -> None:
        if not (isinstance(self.trials, int) and self.trials >= 1):
            raise ValueError(f"trials must be a positive integer, got {self.trials}")
        if not (0.0 <= self.success_prob <= 1.0):
            raise ValueError(f"success_prob not in [0,1]: {self.success_prob}")


@dataclass(frozen=True)
class BruteForceResult:
    """Outcome of the exhaustive (rounds, threshold) search."""

    rounds: int
    threshold: int
    worst_loss: float


def _pmf(n: int, mu: float) -> np.ndarray:
    if mu == 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    if mu == 1.0:
        out = np.zeros(n + 1)
        out[n] = 1.0
        return out
    k = np.arange(1, n + 1, dtype=np.float64)
    # log C(n, k) built incrementally: log C(n,k) - log C(n,k-1) = log((n-k+1)/k)
    log_comb = np.concatenate(([0.0], np.cumsum(np.log((n - k + 1.0) / k))))
    ks = np.arange(0, n + 1, dtype=np.float64)
    log_pmf = log_comb + ks * math.log(mu) + (n - ks) * math.log1p(-mu)
    return np.exp(log_pmf)


def binomial_pmf(trials: int, success_prob: float) -> np.ndarray:
    """Full probability mass function as an array of length trials + 1.

    Computed in log space with cumulative binomial-coefficient sums, so
    no factorial overflow occurs for trial counts into the thousands.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not (0.0 <= success_prob <= 1.0):
        raise ValueError(f"success_prob not in [0,1]: {success_prob}")
    return _pmf(trials, success_prob)


def _tail(pmf: np.ndarray, upper: bool) -> np.ndarray:
    """Pr(X < t), or Pr(X >= t) if upper, at t = 0..n+1 from a pmf.

    Each tail is a running sum from its own end of the pmf, so a small
    upper tail is not 1 minus a number near 1 (Loader 2000).
    """
    if upper:
        return np.append(np.cumsum(pmf[::-1])[::-1], 0.0)
    return np.concatenate(([0.0], np.cumsum(pmf)))


def binomial_cdf(spec: BinomialSpec, count: int) -> float:
    """Pr(X <= count), summed up from X = 0: 0 for count < 0, 1 for count >= n."""
    if count < 0:
        return 0.0
    if count >= spec.trials:
        return 1.0
    pmf = _pmf(spec.trials, spec.success_prob)
    return min(1.0, float(_tail(pmf, upper=False)[count + 1]))


def binomial_sf(spec: BinomialSpec, count: int) -> float:
    """Pr(X >= count), summed down from X = n: 1 for count <= 0, 0 for count > n."""
    if count <= 0:
        return 1.0
    if count > spec.trials:
        return 0.0
    pmf = _pmf(spec.trials, spec.success_prob)
    return min(1.0, float(_tail(pmf, upper=True)[count]))


def accepted_count_max(threshold: float) -> int:
    """Largest integer error count strictly below the threshold."""
    return math.ceil(threshold) - 1


def exact_expected_loss(
    params: LossParameters,
    rounds: int,
    threshold: float,
    per_round_error: float,
    identity: ProverIdentity,
) -> float:
    """Expected loss of one run, with exact binomial decision probabilities:

        attacker: rounds * per_round + Pr(count < tau)  * false_accept
        user:     rounds * per_round + Pr(count >= tau) * false_reject
    """
    spec = BinomialSpec(rounds, per_round_error)
    cut = accepted_count_max(threshold)
    base = rounds * params.per_round
    if identity is ProverIdentity.ATTACKER:
        return base + binomial_cdf(spec, cut) * params.false_accept
    return base + binomial_sf(spec, cut + 1) * params.false_reject


def exact_worst_case_loss(
    params: LossParameters,
    rates: ErrorRateBounds,
    rounds: int,
    threshold: float,
) -> float:
    """Worst of the two exact per-identity losses at the rate bounds.

    The attacker plays at its error floor and the user at its ceiling;
    those are the extremal behaviors the bounds are designed against.
    """
    loss_att = exact_expected_loss(
        params, rounds, threshold, rates.attacker_floor, ProverIdentity.ATTACKER
    )
    loss_use = exact_expected_loss(
        params, rounds, threshold, rates.user_ceiling, ProverIdentity.USER
    )
    return max(loss_att, loss_use)


def brute_force_optimal(
    params: LossParameters,
    rates: ErrorRateBounds,
    n_max: int,
) -> BruteForceResult:
    """Exhaustive search for the loss-minimizing rounds and threshold.

    Sweeps every round count up to ``n_max`` and every integer threshold
    0..n; integer thresholds suffice because with {0,1} per-round errors
    only they change the decision rule. Ties break toward the smallest
    round count, then the smallest threshold.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    best = BruteForceResult(1, 0, math.inf)
    la, lu, lb = params.false_accept, params.false_reject, params.per_round
    for n in range(1, n_max + 1):
        pmf_att = binomial_pmf(n, rates.attacker_floor)
        pmf_use = binomial_pmf(n, rates.user_ceiling)
        # Pr(attacker accepted) and Pr(user rejected) at thresholds t = 0..n
        acc_att = _tail(pmf_att, upper=False)[:-1]
        rej_use = _tail(pmf_use, upper=True)[:-1]
        worst = np.maximum(n * lb + acc_att * la, n * lb + rej_use * lu)
        t = int(np.argmin(worst))  # argmin returns the first, smallest-t, minimum
        if worst[t] < best.worst_loss:
            best = BruteForceResult(n, t, float(worst[t]))
    return best
