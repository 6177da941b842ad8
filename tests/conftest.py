"""Helpers shared by the test modules: binomial masses by integer enumeration,
the one-shot Monte Carlo cdf table, numpy's own seeding of a stream, the
one-design Monte Carlo draw and score, and the worst-case exact loss the
tests use as their oracles; and a spy on the stream builder."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

import threshauth.channel as channel
import threshauth.noise as noise
from threshauth.channel import _STREAM_TAG
from threshauth.exact import BinomialSpec, exact_expected_losses
from threshauth.loss import ProverIdentity


@functools.lru_cache(maxsize=8)
def _enumerated_terms(spec: BinomialSpec) -> tuple[list[int], int]:
    """Integer numerators of Pr(X = k), k = 0..n, over their common denominator b^n.

    Cached, as a test summing several tails of one distribution would
    otherwise rebuild these big integers for each.
    """
    n = spec.trials
    a, b = spec.success_prob.as_integer_ratio()
    return [math.comb(n, k) * a**k * (b - a) ** (n - k) for k in range(n + 1)], b**n


def enumerated_mass(spec: BinomialSpec, lo: int, hi: int) -> Fraction:
    """Exact Pr(lo <= X < hi), summed in integers for mu = a / b."""
    terms, denom = _enumerated_terms(spec)
    return Fraction(sum(terms[max(lo, 0):max(hi, 0)]), denom)


def enumerated_cdf(spec: BinomialSpec) -> list[float]:
    """Pr(X <= k), k = 0..n, each correctly rounded from its integer sum."""
    terms, denom = _enumerated_terms(spec)
    return [running / denom for running in itertools.accumulate(terms)]


def exact_worst_case_losses(params, rates, rounds, thresholds):
    """The larger exact expected loss at each (rounds, threshold) pair.

    The attacker plays at its error floor and the user at its ceiling,
    the extremal behaviors the bounds are designed against.
    """
    return np.maximum(
        *exact_expected_losses(params, rounds, thresholds, rates.attacker_floor, rates.user_ceiling)
    )


def one_shot_cdf_table(rounds: int, p: float) -> np.ndarray:
    """``channel._cdf_table`` as one expression, its log-factorials built per call.

    Each entry of the table the channel builds must carry these bits.
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


def seeded_bits(parts) -> np.random.PCG64:
    """The bit generator numpy seeds from the tuple of the int parts itself.

    ``channel._stream`` over the same parts must draw these bits.
    """
    return np.random.PCG64(np.random.SeedSequence(tuple(parts)))


def one_design_counts(rounds, p, trials, seed_parts, identity) -> np.ndarray:
    """One design's error-count histogram, drawn on its own.

    A multinomial of ``trials`` over the differences of the one-shot
    table, on the stream of the seed's parts and the identity's tag; a
    rate of 0 or 1 puts every trial at 0 or ``rounds`` errors.
    """
    if p in (0.0, 1.0):
        histogram = np.zeros(rounds + 1, dtype=np.int64)
        histogram[rounds if p == 1.0 else 0] = trials
        return histogram
    stream = np.random.Generator(seeded_bits((*seed_parts, _STREAM_TAG[identity])))
    return stream.multinomial(trials, np.diff(one_shot_cdf_table(rounds, p), prepend=0.0))


def one_design_score(histogram, cut, params, identity, p) -> tuple[float, float]:
    """Mean loss and Wilson standard error of one histogram under one cut, in Python floats."""
    rounds = len(histogram) - 1
    trials = int(histogram.sum())
    accepts = int(histogram[:cut].sum())
    if identity is ProverIdentity.ATTACKER:
        hits, weight = accepts, params.false_accept
    else:
        hits, weight = trials - accepts, params.false_reject
    q = hits / trials
    mean = rounds * params.per_round + weight * q
    if p in (0.0, 1.0):
        return mean, 0.0
    return mean, weight * math.sqrt(q * (1.0 - q) / trials + 0.25 / trials**2) / (
        1.0 + 1.0 / trials
    )


def spy_stream_builds(monkeypatch) -> list[int]:
    """The stream count of each ``channel._streams`` call made from here on.

    ``noise`` binds the builder too, so the spy replaces both names.
    """
    built = []
    streams = channel._streams

    def spy(words):
        built.append(len(words))
        return streams(words)

    for module in (channel, noise):
        monkeypatch.setattr(module, "_streams", spy)
    return built
