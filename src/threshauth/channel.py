"""Binary symmetric channel, protocol error-rate mapping, and simulation.

Maps channel noise to the per-round error-rate bounds of the analyzed
challenge-response protocols, and runs deterministic Monte Carlo trials
of the rapid bit-exchange phase for both prover identities: each trial's
error count is one uniform from a per-identity random stream, mapped
through the inverse of the binomial cdf. The trials come back as a
histogram of their error counts, tallied from the sorted uniforms, and
one histogram can be scored under any number of threshold rules. The
cdf table is built here from log-factorials, not taken from ``exact``,
so the Monte Carlo stays an independent check of the exact oracle.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .loss import (
    ErrorRateBounds,
    GapCollapseError,
    LossParameters,
    ProverIdentity,
    _is_count,
)

# Sub-stream tags keep user trials, attacker trials, and coded-phase
# draws on disjoint random streams under one master seed.
_STREAM_TAG = {ProverIdentity.USER: 1, ProverIdentity.ATTACKER: 2}
CODED_PHASE_TAG = 3


def attacker_per_round_error(flip_probability: float) -> float:
    """Per-round error of the guessing relay attacker: (1 + w) / 2."""
    return (1.0 + flip_probability) / 2.0


def user_per_round_error(flip_probability: float) -> float:
    """Per-round error of the legitimate user: 1 - (1 - w)^2.

    A round's challenge and response each cross the channel once; this
    physical rate never exceeds the user ceiling 2w.
    """
    return 1.0 - (1.0 - flip_probability) ** 2


def swiss_hitomi_rates(flip_probability: float) -> ErrorRateBounds:
    """Error-rate bounds of the analyzed protocol family.

    Attacker floor (1 + w) / 2 and user ceiling 2w, which separate only
    for flip probabilities w strictly below 1/3. A w outside [0,1]
    raises ValueError, a w in [1/3, 1] GapCollapseError.
    """
    w = flip_probability
    if not 0.0 <= w <= 1.0:  # also false for nan
        raise ValueError(f"flip_probability not in [0,1]: {w}")
    if w >= 1.0 / 3.0:
        raise GapCollapseError(
            f"rate bounds collapse at flip probability {w} >= 1/3"
        )
    return ErrorRateBounds(
        attacker_floor=attacker_per_round_error(w), user_ceiling=2.0 * w
    )


def _seed_entropy(master_seed: int | Sequence[int]) -> tuple[int, ...]:
    if isinstance(master_seed, (int, np.integer)):
        return (int(master_seed),)
    return tuple(int(s) for s in master_seed)


def _identity_stream(
    master_seed: int | Sequence[int], identity: ProverIdentity
) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(
            np.random.SeedSequence(
                _seed_entropy(master_seed) + (_STREAM_TAG[identity],)
            )
        )
    )


def _cdf_table(rounds: int, p: float) -> np.ndarray:
    """Pr(X <= k) for X ~ Binomial(rounds, p), k = 0..rounds.

    Each mass is exp(log n! - log k! - log (n-k)! + k log p + (n-k)
    log(1-p)) with the log-factorials from ``math.lgamma``; their running
    sum is clipped to 1 and its last entry set to exactly 1, so the table
    never decreases and no count can exceed ``rounds``. For 0 < p < 1 it
    lies within 16 n eps of the exact cdf at every k (measured: at most
    4.6 n eps over 2,000 random draws with n <= 200, and 2.0 n eps at n
    from 512 to 2048).
    """
    k = np.arange(rounds + 1)
    log_fact = np.fromiter(map(math.lgamma, range(1, rounds + 2)), float, rounds + 1)
    log_mass = (
        log_fact[rounds] - log_fact - log_fact[::-1]
        + k * math.log(p) + (rounds - k) * math.log1p(-p)
    )
    cdf = np.minimum(np.cumsum(np.exp(log_mass)), 1.0)
    cdf[-1] = 1.0
    return cdf


def simulate_error_counts(
    rounds: int,
    per_round_error: float,
    trials: int,
    master_seed: int | Sequence[int],
    identity: ProverIdentity,
) -> np.ndarray:
    """Histogram of the error counts of ``trials`` runs of ``rounds`` rounds.

    Entry k of the returned int64 array, of length ``rounds + 1``, is the
    number of trials with exactly k errors. Each trial's count is a
    Binomial(rounds, per_round_error) variate drawn by inversion
    (Devroye 1986, ch. X): one uniform u per trial, all from a single
    vectorized draw on the stream derived from the master seed and the
    identity, maps to the least k with cdf(k) > u in a table of the
    binomial cdf built once per call, which lies within
    16 * rounds * eps of the exact cdf. The counts are tallied without
    being formed: once the uniforms are sorted, the number of them below
    cdf(k) is the number of trials with at most k errors, so placing the
    rounds + 1 table entries among them costs O(T log T + n log T) in
    all, ties included. The result depends only on these arguments and
    the two identities never share draws. A per-round error of 0 or 1
    puts every trial at 0 or ``rounds`` errors.
    """
    if not _is_count(rounds, least=0):
        raise ValueError(f"rounds must be an integer >= 0, got {rounds!r}")
    if not 0.0 <= per_round_error <= 1.0:  # also false for nan
        raise ValueError(f"per_round_error not in [0,1]: {per_round_error}")
    if not _is_count(trials):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if per_round_error in (0.0, 1.0):
        histogram = np.zeros(rounds + 1, dtype=np.int64)
        histogram[rounds if per_round_error == 1.0 else 0] = trials
        return histogram
    uniforms = _identity_stream(master_seed, identity).random(trials)
    uniforms.sort()
    # #{u < cdf(k)} = #{count <= k}: the cumulative histogram
    at_most = np.searchsorted(uniforms, _cdf_table(rounds, per_round_error), side="left")
    return np.diff(at_most, prepend=0)


def score_counts(
    histogram: np.ndarray,
    cut: int,
    params: LossParameters,
    identity: ProverIdentity,
    per_round_error: float,
) -> tuple[float, float]:
    """Mean loss of runs with this error-count histogram, and its standard error.

    ``histogram`` is what ``simulate_error_counts`` returns: entry k
    counts the runs with exactly k errors, k = 0..rounds, so the runs
    had ``rounds = len(histogram) - 1`` rounds each. A run is accepted
    when its count lies below ``cut``, the least rejected count that
    ``loss.rejected_count_min`` derives from a threshold, so 0 rejects
    every run and ``rounds + 1`` accepts every run; a cut outside
    0..rounds + 1 raises ValueError. Every run pays
    ``rounds * per_round``; a fraction p = hits / T of the T runs also
    pays the decision loss ``weight`` (false_accept on accepted attacker
    runs, false_reject on rejected user runs), so the mean is
    ``rounds * per_round + weight * p``. The
    error is weight times the half-width of the Wilson (1927) score
    interval for p at z = 1:

        weight * sqrt(p (1 - p) / T + 1 / (4 T^2)) / (1 + 1 / T)

    It agrees with the plug-in sqrt(p (1 - p) / T) for large T and stays
    honest for rare events: at zero hits it is weight / (2 (T + 1)), so
    six of them are about the rule-of-three bound 3 / T. A per-round
    error of 0 or 1 makes every count equal, the mean exact, and the
    error 0.
    """
    rounds = len(histogram) - 1
    if not 0 <= cut <= rounds + 1:
        raise ValueError(f"cut not in 0..{rounds + 1}: {cut}")
    trials = int(histogram.sum())
    accepts = int(histogram[:cut].sum())
    if identity is ProverIdentity.ATTACKER:
        hits, weight = accepts, params.false_accept
    else:
        hits, weight = trials - accepts, params.false_reject
    p = hits / trials
    mean = rounds * params.per_round + weight * p
    if per_round_error in (0.0, 1.0):
        return mean, 0.0
    return mean, weight * math.sqrt(p * (1.0 - p) / trials + 0.25 / trials**2) / (
        1.0 + 1.0 / trials
    )
