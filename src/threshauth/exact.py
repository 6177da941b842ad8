"""Exact binomial tails, expected losses and brute-force optima.

With {0,1} per-round errors the total error count is binomial, so
decision probabilities, expected losses, and the best (rounds,
threshold) pair can all be computed exactly. The functions here serve
as ground truth for the closed-form bounds.

Every pmf comes from a ``_PmfBlock``, which builds the rate-free part
of zero-padded pmf rows for a set of round counts (the log binomial
coefficients, n - k and the padding mask) and adds one rate's terms
per call, and every tail from ``_tail``, which turns those rows into
running sums along their last axis. The expected losses of both
identities (``exact_expected_losses``) and the brute-force search walk
their round counts in blocks (``_pmf_blocks``), each built once and
shared by both identities and, for the losses, by every rate pair whose
designs it holds; a whole sweep costs one numpy pass per block and rate
pair instead of one pmf per design, and the losses build only the pmf
columns their tails sum. The losses take one call shape: designs, each
with its own round count, threshold and rate pair. The brute-force
search, which reads every threshold, adds the round cost after taking
the larger of the two weighted error probabilities, bitwise the larger
of the two losses. The decision rule's cut comes from
``loss.rejected_count_min``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .loss import ErrorRateBounds, LossParameters, _is_count, rejected_count_min


@dataclass(frozen=True)
class BinomialSpec:
    """Number of trials and per-trial success probability."""

    trials: int
    success_prob: float

    def __post_init__(self) -> None:
        if not _is_count(self.trials):
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not (0.0 <= self.success_prob <= 1.0):
            raise ValueError(f"success_prob not in [0,1]: {self.success_prob}")


@dataclass(frozen=True)
class BruteForceResult:
    """Outcome of the exhaustive (rounds, threshold) search."""

    rounds: int
    threshold: int
    worst_loss: float


# Largest round count the kernels take: they count in int64.
_MAX_ROUNDS = int(np.iinfo(np.int64).max)

# Largest block of padded pmf entries built at once by the round-grid
# kernel; keeps its transient arrays under a megabyte.
_BLOCK_ENTRIES = 1 << 14


class _PmfBlock:
    """The rate-free part of the Binomial(n, mu) pmf rows of a set of round counts.

    Row i belongs to ``rounds[i]`` and is zero-padded to max + 1
    columns; ``pad`` marks the columns past each row's n. ``pmf`` adds a
    rate's terms in log space to cumulative binomial-coefficient sums,
    so no factorial overflow occurs for round counts into the thousands.
    Padding columns get log-mass -inf, where their own formula could
    overflow the exp; they hold exactly 0.0 and add exactly +0.0 to any
    running sum, so a row does not depend on its padding.
    """

    def __init__(self, rounds: np.ndarray) -> None:
        n = rounds[:, None].astype(np.float64)
        self.rounds = rounds
        self.ks = np.arange(0, int(rounds.max()) + 1, dtype=np.float64)
        self.n_minus_k = n - self.ks
        self.pad = self.ks > n
        # log C(n,k) - log C(n,k-1) = log((n-k+1)/k); past n any finite
        # ratio will do, as those columns are set to -inf
        ratios = self.n_minus_k[:, 1:] + 1.0
        np.maximum(ratios, 1.0, out=ratios)
        ratios /= self.ks[1:]
        self.log_comb = np.zeros(self.pad.shape)
        np.cumsum(np.log(ratios, out=ratios), axis=-1, out=self.log_comb[:, 1:])
        np.copyto(self.log_comb, -np.inf, where=self.pad)

    def pmf(
        self, mu: float, cols: slice = slice(None), rows: slice | np.ndarray = slice(None)
    ) -> np.ndarray:
        """Columns ``cols`` of pmf rows ``rows`` (a slice or indices) at rate mu,
        each entry bitwise a whole row's."""
        if mu == 0.0 or mu == 1.0:
            ns = self.rounds[rows]
            out = np.zeros((len(ns), self.pad.shape[1]))
            out[np.arange(len(ns)), ns if mu == 1.0 else 0] = 1.0
            return out[:, cols]
        log_pmf = self.log_comb[rows, cols] + self.ks[cols] * math.log(mu)
        log_pmf += self.n_minus_k[rows, cols] * math.log1p(-mu)
        return np.exp(log_pmf, out=log_pmf)


def binomial_pmf(trials: int, success_prob: float) -> np.ndarray:
    """Full probability mass function as an array of length trials + 1."""
    spec = BinomialSpec(trials, success_prob)
    return _PmfBlock(np.array([spec.trials])).pmf(spec.success_prob)[0]


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


def _block_rows(rounds: np.ndarray) -> int:
    """Round counts of ``rounds`` a block holds: about ``_BLOCK_ENTRIES`` padded entries."""
    return max(1, _BLOCK_ENTRIES // (int(rounds.max()) + 2))


def _pmf_blocks(rounds: np.ndarray) -> Iterator[tuple[slice, _PmfBlock]]:
    """Slices of ``rounds``, in order, with their ``_PmfBlock`` of ``_block_rows`` rows."""
    step = _block_rows(rounds)
    for lo in range(0, len(rounds), step):
        block = slice(lo, lo + step)
        yield block, _PmfBlock(rounds[block])


def binomial_cdf(spec: BinomialSpec, count: int) -> float:
    """Pr(X <= count), summed up from X = 0: 0 for count < 0, 1 for count >= n."""
    if count < 0:
        return 0.0
    if count >= spec.trials:
        return 1.0
    pmf = binomial_pmf(spec.trials, spec.success_prob)
    return min(1.0, float(_tail(pmf, upper=False)[count + 1]))


def binomial_sf(spec: BinomialSpec, count: int) -> float:
    """Pr(X >= count), summed down from X = n: 1 for count <= 0, 0 for count > n."""
    if count <= 0:
        return 1.0
    if count > spec.trials:
        return 0.0
    pmf = binomial_pmf(spec.trials, spec.success_prob)
    return min(1.0, float(_tail(pmf, upper=True)[count]))


def exact_expected_losses(
    params: LossParameters,
    rounds: Sequence[int],
    thresholds: Sequence[float],
    attacker_rate: float | Sequence[float],
    user_rate: float | Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Exact expected loss of each identity at each design (rounds[i], thresholds[i]):

        attacker: n * per_round + Pr(count < tau)  * false_accept
        user:     n * per_round + Pr(count >= tau) * false_reject

    with the count Binomial(n, attacker_rate) or Binomial(n, user_rate).
    ``rounds`` and ``thresholds`` are 1-D and of one length, and each
    rate is a scalar, shared by every design, or 1-D of that length. The
    rates are plain per-round error probabilities in [0, 1], in either
    order. Round counts are integers from 1 to the int64 maximum; any
    other input is rejected before any work. A threshold at or below 0
    rejects every count and one above the round count accepts every
    count, infinite ones included; a sure decision costs exactly its
    loss. Each loss is bitwise the call at its design alone.

    The distinct round counts are walked in blocks (``_pmf_blocks``),
    each built once for every rate pair. A block's designs are ordered
    by rate pair, then by round count, and each rate pair's designs in
    a block take one pmf and one tail per side, over a slice of the
    block's rows when those are consecutive.
    """
    ns, taus = np.asarray(rounds), np.asarray(thresholds, dtype=np.float64)
    rates = np.asarray(attacker_rate, dtype=np.float64), np.asarray(user_rate, dtype=np.float64)
    if ns.ndim != 1 or ns.size == 0 or taus.shape != ns.shape:
        raise ValueError("rounds and thresholds must be nonempty, 1-D and of one length")
    if any(rate.shape not in ((), ns.shape) for rate in rates):
        raise ValueError("each rate must be a scalar or hold one value per round count")
    if isinstance(rounds, np.ndarray) and ns.dtype.kind in "iu":  # holds no bool or float
        counts = 1 <= ns.min() and ns.max() <= _MAX_ROUNDS
    else:
        counts = all(_is_count(n) and n <= _MAX_ROUNDS for n in rounds)
    if not counts:
        raise ValueError(f"rounds must be integers in [1, {_MAX_ROUNDS}]")
    ns = ns.astype(np.int64)
    for name, rate in zip(("attacker_rate", "user_rate"), rates):
        if not np.all((rate >= 0.0) & (rate <= 1.0)):  # also false for nan
            raise ValueError(f"{name} not in [0,1]: {rate}")
    cuts = rejected_count_min(taus, ns)
    distinct, row = np.unique(ns, return_inverse=True)
    mu_att, mu_use = (np.broadcast_to(rate, ns.shape) for rate in rates)
    block_of = row // _block_rows(distinct)
    order = np.lexsort((ns, mu_use, mu_att, block_of))
    row, block_of, mu_att, mu_use = row[order], block_of[order], mu_att[order], mu_use[order]
    new_run = (block_of[1:] != block_of[:-1]) | (mu_att[1:] != mu_att[:-1])
    new_run |= mu_use[1:] != mu_use[:-1]
    edges = [0, *(np.flatnonzero(new_run) + 1).tolist(), len(ns)]
    # a run's rows are consecutive when every step between them is 1
    row_gaps = np.cumsum(np.diff(row, prepend=row[0]) != 1)
    runs = zip(edges, edges[1:])  # in block order: each block takes its own in turn
    acc_att, rej_use = np.empty(len(ns)), np.empty(len(ns))
    for block, terms in _pmf_blocks(distinct):
        for start, stop in runs:
            rows, i = row[start:stop] - block.start, order[start:stop]
            if row_gaps[stop - 1] == row_gaps[start]:
                rows = slice(rows[0], rows[-1] + 1)
            # Pr(count < cut), summed up from 0, needs only the columns
            # below the largest cut; Pr(count >= cut), summed down from n,
            # only those from the smallest
            cut, index = cuts[i], np.arange(stop - start)
            below, above = slice(cut.max()), slice(cut.min(), None)
            pmf = terms.pmf(float(mu_att[start]), below, rows)
            acc_att[i] = _tail(pmf, upper=False)[index, cut]
            pmf = terms.pmf(float(mu_use[start]), above, rows)
            rej_use[i] = _tail(pmf, upper=True)[index, cut - above.start]
            if stop == len(ns) or block_of[stop] != block_of[start]:
                break  # the block's last run
    # a sure decision is exactly 1, not the pmf's float total
    acc_att = np.where(cuts > ns, 1.0, np.minimum(1.0, acc_att))
    rej_use = np.where(cuts == 0, 1.0, np.minimum(1.0, rej_use))
    base = ns * params.per_round
    return base + acc_att * params.false_accept, base + rej_use * params.false_reject


def brute_force_optimal(
    params: LossParameters,
    rates: ErrorRateBounds,
    n_max: int,
) -> BruteForceResult:
    """Exhaustive search for the loss-minimizing rounds and threshold.

    Scores every round count up to ``n_max`` and every integer threshold
    0..n, walking the round counts in blocks that build their rate-free
    pmf terms once for both identities; integer thresholds suffice
    because with {0,1} per-round errors only they change the decision
    rule. The round cost is added after the larger of the two weighted
    error probabilities is taken, which is bitwise the larger of the two
    losses, as rounding is monotone. Ties break toward the smallest
    round count, then the smallest threshold.
    """
    if not _is_count(n_max):
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
    best = BruteForceResult(1, 0, math.inf)
    la, lu, lb = params.false_accept, params.false_reject, params.per_round
    mu_att, mu_use = rates.attacker_floor, rates.user_ceiling
    ns = np.arange(1, n_max + 1)
    for block, terms in _pmf_blocks(ns):
        # Pr(attacker accepted) and Pr(user rejected) at thresholds t = 0..max n
        worst = _tail(terms.pmf(mu_att), upper=False)[:, :-1] * la
        np.maximum(worst, _tail(terms.pmf(mu_use), upper=True)[:, :-1] * lu, out=worst)
        worst += ns[block, None] * lb
        np.copyto(worst, np.inf, where=terms.pad)  # padding, not a threshold of row n
        ts = np.argmin(worst, axis=1)  # argmin returns the first, smallest-t, minimum
        row_min = worst[np.arange(len(ts)), ts]
        i = int(np.argmin(row_min))  # and the first, smallest-n, row
        if row_min[i] < best.worst_loss:
            best = BruteForceResult(int(ns[block][i]), int(ts[i]), float(row_min[i]))
    return best
