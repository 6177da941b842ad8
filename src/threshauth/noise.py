"""Channel-noise estimation from the coded protocol phases.

The initialization and termination messages travel under an error
correcting code; counting the errors the decoder removes gives an
empirical flip-rate estimate, a finite-sample confidence interval, and
widened error-rate bounds that hold with high probability.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .channel import CODED_PHASE_TAG, _seed_words, _streams
from .loss import ErrorRateBounds, GapCollapseError, _is_count


@dataclass(frozen=True)
class TransparentCode:
    """Code of the coded phases, given by its length and radius.

    Exposes only the two quantities the coded-phase simulation needs, a
    codeword length and a correction radius; the true flip count plays
    the role of the decoder's error count, which is exact whenever the
    flip count stays within the radius. No codebook is materialized.
    """

    codeword_length: int
    correction_radius: int

    def __post_init__(self) -> None:
        k, radius = self.codeword_length, self.correction_radius
        if not _is_count(k):
            raise ValueError(f"codeword_length must be an integer >= 1, got {k!r}")
        if not (_is_count(radius, 0) and radius <= k):
            raise ValueError(f"correction_radius not an integer in [0, {k}]: {radius!r}")


def default_transparent_code(codeword_length: int) -> TransparentCode:
    # quarter-block radius: generous but still aborts hopeless channels
    return TransparentCode(codeword_length, codeword_length // 4)


@dataclass(frozen=True)
class NoiseEstimate:
    """Empirical flip-rate estimate with a two-sided confidence width.

    The point estimate is observed_errors / codeword_length; the true
    rate lies within ``half_width`` of it with probability at least
    1 - confidence.
    """

    observed_errors: int
    codeword_length: int
    confidence: float
    point_estimate: float = field(init=False)
    half_width: float = field(init=False)

    def __post_init__(self) -> None:
        theta, k = self.observed_errors, self.codeword_length
        if not _is_count(k):
            raise ValueError(f"codeword_length must be an integer >= 1, got {k!r}")
        if not (_is_count(theta, 0) and theta <= k):
            raise ValueError(f"observed_errors not an integer in [0, {k}]: {theta!r}")
        if not 0 < self.confidence < 1:
            raise ValueError(f"confidence must lie in (0,1), got {self.confidence}")
        object.__setattr__(self, "point_estimate", theta / k)
        object.__setattr__(
            self, "half_width", math.sqrt(math.log(2.0 / self.confidence) / (2.0 * k))
        )


def high_probability_rates(estimate: NoiseEstimate) -> ErrorRateBounds:
    """Error-rate bounds that hold with probability 1 - confidence.

    Widens the plug-in mapping of the estimate by the estimation error:
    attacker floor (1 + w)/2 + sqrt(ln(2/d)/(8k)), user ceiling
    2w - sqrt(2 ln(2/d)/k), clamped into [0,1]. Fails when the widened
    bounds no longer separate.
    """
    w = estimate.point_estimate
    k = estimate.codeword_length
    log_term = math.log(2.0 / estimate.confidence)
    attacker = (1.0 + w) / 2.0 + math.sqrt(log_term / (8.0 * k))
    user = 2.0 * w - math.sqrt(2.0 * log_term / k)
    attacker = min(attacker, 1.0)
    user = max(user, 0.0)
    if attacker <= user:
        raise GapCollapseError(
            f"widened bounds collapse: attacker {attacker} <= user {user}"
        )
    return ErrorRateBounds(attacker_floor=attacker, user_ceiling=user)


def coded_phase_streams(master_seed: int, indices: Iterable[int]) -> list[np.random.Generator]:
    """Random streams of the coded phases ``indices`` under a master seed, seeded together.

    Tagged apart from the Monte Carlo identity streams of ``channel``,
    so a coded phase never shares draws with the trials it informs. The
    master seed and each index must be integers >= 0; every one is
    checked before any stream is built.
    """
    if not _is_count(master_seed, least=0):
        raise ValueError(f"master_seed must be an integer >= 0, got {master_seed!r}")
    return _streams([_seed_words((master_seed, CODED_PHASE_TAG, index)) for index in indices])


def simulate_coded_phase(
    flip_probability: float,
    code: TransparentCode,
    rng: np.random.Generator,
) -> tuple[int, bool]:
    """Transmit one codeword through a channel of this flip probability.

    Returns the number of flipped symbols and whether decoding is
    hopeless, meaning the flip count exceeded the correction radius. A
    flip probability outside [0,1] raises ValueError.
    """
    if not 0.0 <= flip_probability <= 1.0:  # also false for nan
        raise ValueError(f"flip_probability not in [0,1]: {flip_probability}")
    k = code.codeword_length
    theta = int((rng.random(k) < flip_probability).sum())
    return theta, theta > code.correction_radius
