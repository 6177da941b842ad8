"""Binary symmetric channel, protocol error-rate mapping, and simulation.

Maps channel noise to the per-round error-rate bounds of the analyzed
challenge-response protocols, and runs deterministic Monte Carlo trials
of the rapid bit-exchange phase for both prover identities. The trials
come back as a histogram of their error counts, drawn as one multinomial
sample over the binomial pmf, and one histogram can be scored under any
number of threshold rules. The pmf is taken from a cdf table built here
from log-factorials, not from ``exact``, so the Monte Carlo stays an
independent check of the exact oracle. Every random stream, of an
identity's trials here or of a coded phase in ``noise``, is ``_stream``
over the master seed and the stream's tags.
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


def _stream(*entropy: int | Sequence[int]) -> np.random.Generator:
    """PCG64 over a ``SeedSequence`` of the entropy, int or sequence parts flattened in order."""
    flat = [s for e in entropy for s in ((e,) if isinstance(e, (int, np.integer)) else e)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(tuple(map(int, flat)))))


# log k! for k = 0..len - 1, as math.lgamma(k + 1): each entry is a
# constant of k alone, so the table is the same whatever order it grew in
_log_factorials = np.zeros(1)
_log_factorials.flags.writeable = False


def _log_factorial_table(rounds: int) -> np.ndarray:
    """log k! for k = 0..rounds, a read-only view of the shared table.

    The table grows to the largest ``rounds`` asked for so far, each
    growth computing only the entries it adds, one ``math.lgamma`` each.
    """
    global _log_factorials
    have = len(_log_factorials)
    if rounds >= have:
        grown = np.empty(rounds + 1)
        grown[:have] = _log_factorials
        grown[have:] = np.fromiter(
            map(math.lgamma, range(have + 1, rounds + 2)), float, rounds + 1 - have
        )
        grown.flags.writeable = False
        _log_factorials = grown
    return _log_factorials[: rounds + 1]


def _cdf_table(rounds: int, p: float) -> np.ndarray:
    """Pr(X <= k) for X ~ Binomial(rounds, p), k = 0..rounds.

    Each mass is exp(log n! - log k! - log (n-k)! + k log p + (n-k)
    log(1-p)), evaluated left to right into one fresh array, with the
    log-factorials read from one read-only table of ``math.lgamma``
    values in this module that grows on demand; their running sum is
    clipped to 1 and its last entry set to exactly 1, so the table never
    decreases and no count can exceed ``rounds``. The returned array is
    the caller's own. For 0 < p < 1 it lies within 16 n eps of the exact
    cdf at every k (measured: at most 4.6 n eps over 2,000 random draws
    with n <= 200, and 2.0 n eps at n from 512 to 2048).
    """
    log_fact = _log_factorial_table(rounds)
    k = np.arange(rounds + 1)
    cdf = np.subtract(log_fact[rounds], log_fact)
    cdf -= log_fact[::-1]
    cdf += k * math.log(p)
    cdf += k[::-1] * math.log1p(-p)  # k[::-1] is rounds - k
    np.exp(cdf, out=cdf)
    np.cumsum(cdf, out=cdf)
    np.minimum(cdf, 1.0, out=cdf)
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
    number of trials with exactly k errors, each trial's count being a
    Binomial(rounds, per_round_error) variate. The histogram is one
    multinomial draw of ``trials`` over the pmf that the differences of
    a cdf table give, the table lying within 16 * rounds * eps of the
    exact cdf; numpy draws it by conditional binomials, one per entry
    until the trials run out (Devroye 1986, ch. XI). The table takes its
    log-factorials from one read-only table in this module that grows on
    demand, so a call computes only those past the largest ``rounds``
    asked for so far, and the pmf is formed in place in the fresh cdf
    table. So a call costs O(rounds) for the table plus at most
    rounds + 1 binomial draws, and neither its time nor its memory grows
    with ``trials``; no per-trial count is formed. The draw comes from a
    stream derived from the master seed and the identity, so the result
    depends only on these arguments and the two identities never share
    draws. Counts before the first positive table mass are never drawn,
    and counts past the entry where the table reaches 1 only with a
    chance of order trials * eps, through the rounding of numpy's
    running remainder of the masses. A per-round error of 0 or 1 puts
    every trial at 0 or ``rounds`` errors.
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
    # the table is clipped to 1, so the masses before the last sum to at
    # most 1, as the multinomial's check of its probabilities requires
    pmf = _cdf_table(rounds, per_round_error)
    np.subtract(pmf[1:], pmf[:-1], out=pmf[1:])  # np.diff(cdf, prepend=0.0), bit for bit
    return _stream(master_seed, _STREAM_TAG[identity]).multinomial(trials, pmf)


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
    trials = int(np.add.reduce(histogram))
    accepts = int(np.add.reduce(histogram[:cut]))
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
