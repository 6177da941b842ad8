"""Helpers shared by the test modules: binomial masses by integer enumeration,
the one-shot Monte Carlo cdf table and the worst-case exact loss the tests
use as their oracles."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from threshauth.exact import BinomialSpec, exact_expected_losses


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
