"""Binary symmetric channel, protocol error-rate mapping, and simulation.

Maps channel noise to the per-round error-rate bounds of the analyzed
challenge-response protocols, and runs deterministic Monte Carlo trials
of the rapid bit-exchange phase for both prover identities. The trials
of a design come back as a histogram of their error counts, drawn as one
multinomial sample over the binomial pmf, and one histogram can be
scored under any number of threshold rules. A sweep's designs, of every
noise level, each at its own rates, are drawn in one call, over one
block of cdf rows, and scored in one vectorized pass per identity. The
pmf is taken from cdf rows built here
from log-factorials, not from ``exact``, so the Monte Carlo stays an
independent check of the exact oracle. Every random stream, of an
identity's trials here or of a coded phase in ``noise``, is PCG64 over
numpy's ``SeedSequence`` of the master seed and the stream's tags, and
comes from ``_streams``: it computes the seed states of a batch of
streams in one vectorized pass of ``SeedSequence``'s own arithmetic, so
a sweep seeds each cdf block's streams, or its coded phases, in one
call, and every stream draws numpy's bits.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import compress
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


def _seed_words(entropy: Sequence[int | Sequence[int]]) -> list[int]:
    """The uint32 words numpy's ``SeedSequence`` makes of these parts.

    Int or sequence parts are flattened in order; each int becomes its
    32-bit words, least significant first, and 0 one zero word, as numpy
    coerces an int. A negative part raises ValueError.
    """
    words = []
    for part in entropy:
        for value in (part,) if isinstance(part, (int, np.integer)) else part:
            value = operator.index(value)
            if value < 0:
                raise ValueError(f"seed parts must be integers >= 0, got {value}")
            words.append(value & 0xFFFFFFFF)
            while value := value >> 32:
                words.append(value & 0xFFFFFFFF)
    return words


# numpy's SeedSequence (bit_generator.pyx), frozen by its stream
# compatibility policy (NEP 19): the entropy words are mixed into a pool
# of four uint32 words, which is hashed out into generate_state's words.
# A hash xors in the next constant of a multiplicative sequence,
# multiplies by the one after it and xors in its own high half; a mix
# takes L * word - R * hash and xors in its high half. All of it is uint32
# array arithmetic, which wraps mod 2**32.
# Scalars are 0-d arrays and tables carry a leading axis of 1, which keeps
# numpy on its fast path for a one-stream pass.
_POOL_SIZE = 4
_SHIFT = np.array(16, dtype=np.uint32)
_MIX_L, _MIX_R = np.array(0xCA01F9DD, dtype=np.uint32), np.array(0x4973F715, dtype=np.uint32)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..count, as uint32."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & 0xFFFFFFFF)
    return np.array(constants, dtype=np.uint32)


def _hash(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    hashed = words ^ xor
    hashed *= mult
    hashed ^= hashed >> _SHIFT
    return hashed


def _mix(pool: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    mixed = pool * _MIX_L
    mixed -= hashed * _MIX_R
    mixed ^= mixed >> _SHIFT
    return mixed


# The entropy hashes take one sequence of constants: one per pool word,
# then one per (source, other pool word) pair, source by source, then
# four per entropy word past the pool's.
_ENTROPY_INIT, _ENTROPY_MULT = 0x43B0D7E5, 0x931E8875
_POOL_HASHES = _hash_constants(_ENTROPY_INIT, _ENTROPY_MULT, 16)
_FILL_XOR = _POOL_HASHES[None, :_POOL_SIZE]
_FILL_MULT = _POOL_HASHES[None, 1 : _POOL_SIZE + 1]
# row s: the constants of source s's hash into each other pool word, 0 at s
_SOURCE_XOR = np.zeros((_POOL_SIZE, 1, _POOL_SIZE), dtype=np.uint32)
_SOURCE_MULT = np.zeros((_POOL_SIZE, 1, _POOL_SIZE), dtype=np.uint32)
_OTHERS = tuple(zip(*((s, 0, d) for s in range(_POOL_SIZE) for d in range(_POOL_SIZE) if d != s)))
_SOURCE_XOR[_OTHERS] = _POOL_HASHES[_POOL_SIZE:-1]
_SOURCE_MULT[_OTHERS] = _POOL_HASHES[_POOL_SIZE + 1 :]
# the output hashes': the pool cycled twice gives generate_state's 8 words
_OUTPUT_HASHES = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE)
_OUTPUT_XOR = _OUTPUT_HASHES[None, :-1]
_OUTPUT_MULT = _OUTPUT_HASHES[None, 1:]


def _pcg64_states(words: np.ndarray) -> np.ndarray:
    """numpy's ``SeedSequence`` of each row of a uint32 array, its ``generate_state(4, np.uint64)``.

    ``words`` has at least four columns. Each step is an array op over
    every row: the pool words' hashes at once; per source, its hashes
    into the three other pool words as one op and their mixes as
    another; the hashes of every word past the fourth at once, then one
    mix per such word; and the 8 output words as one (rows, 8) op.
    """
    pool = _hash(words[:, :_POOL_SIZE], _FILL_XOR, _FILL_MULT)
    for source, (xor, mult) in enumerate(zip(_SOURCE_XOR, _SOURCE_MULT)):
        mixed = _mix(pool, _hash(pool[:, source, None], xor, mult))
        mixed[:, source] = pool[:, source]  # a source does not mix into itself
        pool = mixed
    extra = words.shape[1] - _POOL_SIZE
    if extra:
        constants = _hash_constants(_ENTROPY_INIT, _ENTROPY_MULT, 16 + _POOL_SIZE * extra)[16:]
        shape = (extra, _POOL_SIZE)
        hashed = _hash(
            words[:, _POOL_SIZE:, None], constants[:-1].reshape(shape), constants[1:].reshape(shape)
        )
        for j in range(extra):
            pool = _mix(pool, hashed[:, j])
    state = _hash(np.concatenate((pool, pool), axis=1), _OUTPUT_XOR, _OUTPUT_MULT)
    # each uint64 from a little-endian pair of uint32, as numpy assembles it
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _seed_state_type() -> type:
    """The ``ISeedSequence`` that hands PCG64 a state computed beforehand.

    Defined on first use: the ``numpy.random`` import it needs adds
    about 6 MB of resident memory and 12 ms to the package's import,
    which a command that builds no stream should not pay.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        """A ``SeedSequence``'s ``generate_state(4, np.uint64)``, computed beforehand.

        That is the one request PCG64 makes of its seed sequence; any
        other raises ValueError. It cannot spawn.
        """

        __slots__ = ("_state",)

        def __init__(self, state: np.ndarray) -> None:
            self._state = state

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds 4 uint64 state words, not {n_words} of {np.dtype(dtype)}")
            return self._state

    return SeedState


def _streams(words: Sequence[list[int]]) -> list[np.random.Generator]:
    """PCG64 streams over ``SeedSequence``s of these uint32 word lists, seeded together.

    Stream i draws the bits of PCG64 over numpy's ``SeedSequence`` of
    ``words[i]``: its state comes from ``_pcg64_states`` and reaches
    PCG64 through numpy's ``ISeedSequence`` interface. numpy mixes fewer
    than four words as those words padded with zero words, so the lists
    are padded to at least four and seeded in one pass per padded
    length: one pass in all unless a list holds more than four words.
    """
    seed_state = _seed_state_type()
    lengths: dict[int, list[int]] = {}
    for i, stream_words in enumerate(words):
        lengths.setdefault(max(len(stream_words), _POOL_SIZE), []).append(i)
    streams = [None] * len(words)
    for length, members in lengths.items():
        padded = [words[i] + [0] * (length - len(words[i])) for i in members]
        for i, state in zip(members, _pcg64_states(np.array(padded, dtype=np.uint32))):
            streams[i] = np.random.Generator(np.random.PCG64(seed_state(state)))
    return streams


# Largest block of padded cdf entries a batched draw builds at once, so
# that a sweep's transient tables stay near a megabyte whatever its size.
_CDF_BLOCK_ENTRIES = 1 << 16

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


def _cdf_rows(rounds: np.ndarray, rates: Sequence[Sequence[float]]) -> list[np.ndarray]:
    """For each rate list r, Pr(X <= k) for X ~ Binomial(rounds[i], r[i]) as row i of one block.

    ``rounds`` is a nonempty 1-D int array, and each list in ``rates``
    holds one rate in (0, 1) per row. A block has max(rounds) + 1
    columns; row i is ``rounds[i]``'s cdf at k = 0..rounds[i], and its
    columns past ``rounds[i]`` are padding. Each mass is
    exp(log n! - log k! - log (n-k)! + k log p + (n-k) log(1-p)),
    evaluated left to right, with the log-factorials read from one
    read-only table of ``math.lgamma`` values in this module that grows
    on demand, and each row's log p and log(1-p) taken by ``math.log``
    and ``math.log1p`` of its own rate. The rate-free part is built once
    for all rate lists, with log-mass -inf in the padding, so no exp
    there can overflow. A row's running sum is clipped to 1 and its entry
    at ``rounds[i]`` set to exactly 1, so the table never decreases and
    no count can exceed ``rounds[i]``. Every block is the caller's own.
    For 0 < p < 1 a row lies within 16 n eps of the exact cdf at every k
    (measured: at most 4.6 n eps over 2,000 random draws with n <= 200,
    and 2.0 n eps at n from 512 to 2048).
    """
    log_fact = _log_factorial_table(int(rounds.max()))
    k = np.arange(len(log_fact))
    n_minus_k = rounds[:, None] - k
    padding = n_minus_k < 0
    np.maximum(n_minus_k, 0, out=n_minus_k)
    rate_free = np.subtract.outer(log_fact[rounds], log_fact)
    rate_free -= log_fact[n_minus_k]
    rate_free[padding] = -np.inf
    last = (np.arange(len(rounds)), rounds)
    blocks = []
    for ps in rates:
        cdf = rate_free + k * np.array([math.log(p) for p in ps])[:, None]
        cdf += n_minus_k * np.array([math.log1p(-p) for p in ps])[:, None]
        np.exp(cdf, out=cdf)
        np.cumsum(cdf, axis=1, out=cdf)
        np.minimum(cdf, 1.0, out=cdf)
        cdf[last] = 1.0
        blocks.append(cdf)
    return blocks


def simulate_error_histograms(
    rounds: Sequence[int],
    sides: Sequence[tuple[ProverIdentity, float | Sequence[float]]],
    trials: int,
    master_seeds: Sequence[int | Sequence[int]],
) -> list[list[np.ndarray]]:
    """Error-count histograms of several designs, for each side.

    Design i runs ``rounds[i]`` rounds on the streams of
    ``master_seeds[i]``; a side is an (identity, per_round_error) pair,
    the error one value for every design or one per design. Entry [s][i]
    of the result is bitwise ``simulate_error_counts(rounds[i], p,
    trials, master_seeds[i], identity)`` for side s and design i's rate
    p: one stream per (seed, identity), seeded from the uint32 words of
    the seed and the identity's tag. Every input is checked before any
    stream is built. The designs are sorted by round count and drawn in
    blocks of about ``_CDF_BLOCK_ENTRIES`` padded cdf entries (every
    design of a default fig3 sweep in one): one ``_cdf_rows`` call builds
    the cdf rows of a block's designs at every side's rates, its
    rate-free part shared by the sides, one in-place subtraction per side
    turns them into pmf rows, and one ``_streams`` call seeds every
    stream the block draws on. A design at rate 0 or 1 puts every trial
    at 0 or ``rounds[i]`` errors without a draw or a stream; its row is
    built at rate 1/2 and not read, so no log of 0 is taken.
    """
    if len(rounds) != len(master_seeds):
        raise ValueError(f"{len(rounds)} round counts for {len(master_seeds)} seeds")
    for n in rounds:
        if not _is_count(n, least=0):
            raise ValueError(f"rounds must be an integer >= 0, got {n!r}")
    side_rates = []
    for _, p in sides:
        ps = np.asarray(p, dtype=np.float64)
        if ps.ndim == 0:
            ps = np.full(len(rounds), ps)
        elif ps.shape != (len(rounds),):
            raise ValueError(f"{ps.size} per-round errors for {len(rounds)} designs")
        if not np.all((ps >= 0.0) & (ps <= 1.0)):  # also false for nan
            raise ValueError(f"per_round_error not in [0,1]: {p}")
        side_rates.append(ps.tolist())
    if not _is_count(trials):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    words = [_seed_words((seed,)) for seed in master_seeds]
    ns = [operator.index(n) for n in rounds]
    # blocked in order of round count, so a block's rows pad to near widths
    order = sorted(range(len(ns)), key=ns.__getitem__)
    histograms = [[None] * len(ns) for _ in sides]
    step = max(1, _CDF_BLOCK_ENTRIES // (max(ns, default=0) + 1))
    for lo in range(0, len(ns), step):
        block = order[lo : lo + step]
        block_ns = [ns[i] for i in block]
        rates = [[ps[i] for i in block] for ps in side_rates]
        # the rows are clipped to 1, so the masses before a row's last sum to
        # at most 1, as the multinomial's check of its probabilities requires
        drawn = [any(p not in (0.0, 1.0) for p in ps) for ps in rates]
        tables = [[p if p not in (0.0, 1.0) else 0.5 for p in ps] for ps in compress(rates, drawn)]
        pmfs = streams = iter(())
        if tables:
            pmfs = iter(_cdf_rows(np.array(block_ns), tables))
            # every stream the block draws on, of both sides, seeded in one call
            streams = iter(_streams([
                words[i] + [_STREAM_TAG[identity]]
                for (identity, _), ps in zip(sides, rates)
                for i, p in zip(block, ps)
                if p not in (0.0, 1.0)
            ]))
        for ps, has_table, side in zip(rates, drawn, histograms):
            if has_table:
                pmf = next(pmfs)
                np.subtract(pmf[:, 1:], pmf[:, :-1], out=pmf[:, 1:])  # np.diff(cdf, prepend=0.0)
            for row, (i, n, p) in enumerate(zip(block, block_ns, ps)):
                if p in (0.0, 1.0):
                    histogram = np.zeros(n + 1, dtype=np.int64)
                    histogram[n if p == 1.0 else 0] = trials
                else:
                    histogram = next(streams).multinomial(trials, pmf[row, : n + 1])
                side[i] = histogram
    return histograms


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
    asked for so far. So a call costs O(rounds) for the table plus at
    most rounds + 1 binomial draws, and neither its time nor its memory
    grows with ``trials``; no per-trial count is formed. The draw comes
    from a stream derived from the master seed and the identity, so the
    result depends only on these arguments and the two identities never
    share draws. Counts before the first positive table mass are never
    drawn, and counts past the entry where the table reaches 1 only with
    a chance of order trials * eps, through the rounding of numpy's
    running remainder of the masses. A per-round error of 0 or 1 puts
    every trial at 0 or ``rounds`` errors. This is the one-design case of
    ``simulate_error_histograms``.
    """
    sides = ((identity, per_round_error),)
    return simulate_error_histograms((rounds,), sides, trials, (master_seed,))[0][0]


def score_histograms(
    histograms: Sequence[np.ndarray],
    which: Sequence[int],
    cuts: Sequence[int],
    params: LossParameters,
    identity: ProverIdentity,
    per_round_error: float | Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Mean losses and standard errors of several designs, one identity's histograms scored.

    Design i scores ``histograms[which[i]]``, of its T runs with k
    errors at entry k = 0..rounds, under ``cuts[i]`` at its per-round
    error, one value for every design or one per design. The histograms
    are integer, all of one positive total T. A run is accepted when its
    count lies below the cut (``loss.rejected_count_min``), so 0 rejects
    every run and rounds + 1 accepts every run; a cut outside that range
    raises ValueError. The mean is ``rounds * per_round + weight * p``,
    with p = hits / T the share of runs that also pay the decision loss
    ``weight`` (false_accept on accepted attacker runs, false_reject on
    rejected user runs). The error is weight times the half-width of the
    Wilson (1927) score interval for p at z = 1,

        weight * sqrt(p (1 - p) / T + 1 / (4 T^2)) / (1 + 1 / T),

    the plug-in sqrt(p (1 - p) / T) for large T, and at zero hits
    weight / (2 (T + 1)), so six of them are about the rule-of-three
    bound 3 / T. A per-round error of 0 or 1 makes the mean exact and
    the error 0. One integer running sum over the histograms end to end
    gives every design's accepted runs, and the rest is one vectorized
    pass.
    """
    sizes = np.array([len(h) for h in histograms])  # rounds + 1 each
    which = np.asarray(which, dtype=np.intp)
    cuts = np.asarray(cuts).astype(np.int64, casting="same_kind")
    exact = np.isin(per_round_error, (0.0, 1.0))  # a design at rate 0 or 1 has no error
    if exact.shape not in ((), which.shape):
        raise ValueError(f"{exact.size} per-round errors for {len(which)} designs")
    limits = sizes[which]
    outside = (cuts < 0) | (cuts > limits)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"cut not in 0..{limits[i]}: {cuts[i]}")
    # running[starts[j] + c] - running[starts[j]] counts histogram j's runs below c
    running = np.zeros(int(sizes.sum()) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(histograms, dtype=np.int64), out=running[1:])
    starts = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=starts[1:])
    totals = running[starts[1:]] - running[starts[:-1]]
    trials = int(totals[0])
    if trials < 1 or (totals != trials).any():
        raise ValueError(f"histograms must share a positive total, got {totals.tolist()}")
    first = running[starts[which]]
    accepts = running[starts[which] + cuts] - first
    if identity is ProverIdentity.ATTACKER:
        hits, weight = accepts, params.false_accept
    else:
        hits, weight = trials - accepts, params.false_reject
    p = hits / trials
    means = (limits - 1) * params.per_round + weight * p
    stderrs = weight * np.sqrt(p * (1.0 - p) / trials + 0.25 / trials**2)
    stderrs /= 1.0 + 1.0 / trials
    return means, np.where(exact, 0.0, stderrs)
