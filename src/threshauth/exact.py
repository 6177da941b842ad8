"""Exact binomial tails, expected losses and brute-force optima.

With {0,1} per-round errors the total error count is binomial, so
decision probabilities, expected losses, and the best (rounds,
threshold) pair can all be computed exactly. The functions here serve
as ground truth for the closed-form bounds.

One tail kernel, ``_tail``, turns pmfs into running sums along their
last axis. Scalar queries feed it one pmf; ``exact_worst_case_losses``
feeds it blocks of zero-padded pmf rows, one per round count, so a
whole round grid costs one numpy pass per block instead of two per
round count. Both paths give bitwise the same numbers.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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


# Largest block of padded pmf entries built at once by the round-grid
# kernel; keeps its transient arrays under a megabyte.
_BLOCK_ENTRIES = 1 << 14


def _pmf_rows(rounds: np.ndarray, mu: float) -> np.ndarray:
    """Rows ``_pmf(n, mu)`` for each n of ``rounds``, zero-padded to max + 1.

    Each entry is the same float expression as in ``_pmf``. Columns past
    a row's n get ratio 1, so their log adds 0 to the coefficient sum,
    and log-mass -inf, where their own formula could overflow the exp;
    they hold exactly 0.0 and add exactly +0.0 to any running sum.
    """
    rows, width = len(rounds), int(rounds.max()) + 1
    if mu == 0.0 or mu == 1.0:
        out = np.zeros((rows, width))
        out[np.arange(rows), rounds if mu == 1.0 else 0] = 1.0
        return out
    n = rounds[:, None].astype(np.float64)
    k = np.arange(1, width, dtype=np.float64)
    ratio = np.where(k > n, 1.0, (n - k + 1.0) / k)
    log_comb = np.concatenate((np.zeros((rows, 1)), np.cumsum(np.log(ratio), axis=-1)), axis=-1)
    ks = np.arange(0, width, dtype=np.float64)
    log_pmf = log_comb + ks * math.log(mu) + (n - ks) * math.log1p(-mu)
    return np.exp(np.where(ks > n, -np.inf, log_pmf))


def _tail(pmf: np.ndarray, upper: bool) -> np.ndarray:
    """Pr(X < t), or Pr(X >= t) if upper, at t = 0..n+1 along a pmf's last axis.

    Each tail is a running sum from its own end of the pmf, so a small
    upper tail is not 1 minus a number near 1 (Loader 2000).
    """
    out = np.zeros(pmf.shape[:-1] + (pmf.shape[-1] + 1,))
    if upper:
        # summed from t = n down, written back to front into t = n..0
        np.cumsum(pmf[..., ::-1], axis=-1, out=out[..., -2::-1])
    else:
        np.cumsum(pmf, axis=-1, out=out[..., 1:])
    return out


def _tails_at(rounds: np.ndarray, mu: float, counts: np.ndarray, upper: bool) -> np.ndarray:
    """``_tail(_pmf(n, mu), upper)[c]`` for each pair of ``rounds`` and ``counts``.

    Needs integer n >= 1 and 0 <= c <= n + 1. Works through the round
    counts in order, in blocks of at most about ``_BLOCK_ENTRIES``
    padded pmf entries.
    """
    out = np.empty(len(rounds))
    step = max(1, _BLOCK_ENTRIES // (int(rounds.max()) + 2))
    for lo in range(0, len(rounds), step):
        block = slice(lo, lo + step)
        tails = _tail(_pmf_rows(rounds[block], mu), upper)
        out[block] = tails[np.arange(tails.shape[0]), counts[block]]
    return out


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


def exact_worst_case_losses(
    params: LossParameters,
    rates: ErrorRateBounds,
    rounds: Sequence[int],
    thresholds: Sequence[float],
) -> np.ndarray:
    """``exact_worst_case_loss`` at each (rounds, threshold) pair, in blocks.

    Equals, bit for bit, the larger of the two ``exact_expected_loss``
    values at each pair, but builds the pmfs of all round counts for one
    identity in blocks and takes each block's tails in one pass.
    """
    ns = np.asarray(rounds)
    taus = np.asarray(thresholds, dtype=np.float64)
    if ns.ndim != 1 or ns.size == 0 or ns.shape != taus.shape:
        raise ValueError("rounds and thresholds must be nonempty and of one length")
    if ns.dtype.kind not in "iu" or ns.min() < 1:
        raise ValueError("rounds must be integers >= 1")
    if np.isnan(taus).any():
        raise ValueError("thresholds must not be nan")
    # the smallest rejected count, clipped to the tail index range 0..n+1
    cuts = np.ceil(np.clip(taus, 0.0, ns + 1.0)).astype(np.int64)
    acc_att = _tails_at(ns, rates.attacker_floor, cuts, upper=False)
    rej_use = _tails_at(ns, rates.user_ceiling, cuts, upper=True)
    # a sure decision is exactly 1, not the pmf's float total
    acc_att = np.where(cuts > ns, 1.0, np.minimum(1.0, acc_att))
    rej_use = np.where(cuts == 0, 1.0, np.minimum(1.0, rej_use))
    base = ns * params.per_round
    return np.maximum(base + acc_att * params.false_accept, base + rej_use * params.false_reject)


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
    return float(exact_worst_case_losses(params, rates, [rounds], [threshold])[0])


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
