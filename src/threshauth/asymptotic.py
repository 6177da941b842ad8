"""Bayesian threshold family: likelihood-ratio rule and its risk.

For i.i.d. binomial errors the Bayes-optimal accept/reject rule is a
threshold on the error count. This module computes that threshold for
an arbitrary prior, its uniform-prior special case, and the Bayes risk
used to verify optimality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exact import BinomialSpec, binomial_cdf, binomial_sf
from .loss import ErrorRateBounds, LossParameters, _is_count, rejected_count_min


@dataclass(frozen=True)
class HypothesisPrior:
    """Prior probabilities of facing an attacker vs the user."""

    attacker: float
    user: float

    def __post_init__(self) -> None:
        if not (0.0 < self.attacker < 1.0 and 0.0 < self.user < 1.0):
            raise ValueError("prior probabilities must lie strictly in (0,1)")
        if abs(self.attacker + self.user - 1.0) > 1e-12:
            raise ValueError(
                f"priors must sum to 1, got {self.attacker + self.user}"
            )

    @classmethod
    def uniform(cls) -> "HypothesisPrior":
        return cls(0.5, 0.5)


def _check_rates_interior(rates: ErrorRateBounds) -> None:
    # logarithms below need 0 < pu and pa < 1
    if rates.user_ceiling <= 0.0 or rates.attacker_floor >= 1.0:
        raise ValueError(
            "bayes threshold needs user_ceiling > 0 and attacker_floor < 1, "
            f"got ({rates.user_ceiling}, {rates.attacker_floor})"
        )


def bayes_threshold(
    params: LossParameters,
    rates: ErrorRateBounds,
    prior: HypothesisPrior,
    rounds: int,
) -> float:
    """Error-count threshold of the Bayes decision rule.

        [n ln((1-pu)/(1-pa)) - ln(ratio * prior_attacker / prior_user)]
        / [ln((1-pu)/(1-pa)) - ln(pu/pa)]

    Requires both rates strictly inside (0,1) so the likelihood ratios
    are finite.
    """
    if not _is_count(rounds):
        raise ValueError(f"rounds must be an integer >= 1, got {rounds!r}")
    _check_rates_interior(rates)
    pa, pu = rates.attacker_floor, rates.user_ceiling
    log_reject_ratio = math.log((1.0 - pu) / (1.0 - pa))
    log_accept_ratio = math.log(pu / pa)
    numer = rounds * log_reject_ratio - math.log(
        params.ratio * prior.attacker / prior.user
    )
    return numer / (log_reject_ratio - log_accept_ratio)


def asymptotic_threshold(
    params: LossParameters,
    rates: ErrorRateBounds,
    rounds: int,
) -> float:
    """Uniform-prior Bayes threshold, the variant used in experiments."""
    return bayes_threshold(params, rates, HypothesisPrior.uniform(), rounds)


def bayes_risk(
    params: LossParameters,
    rates: ErrorRateBounds,
    prior: HypothesisPrior,
    rounds: int,
    threshold: float,
) -> float:
    """Prior-weighted expected misclassification loss of a threshold rule.

        prior_attacker * Pr(count < tau | attacker) * false_accept
      + prior_user     * Pr(count >= tau | user)    * false_reject

    with exact binomial tails at the two rate bounds. Thresholds at or
    below 0 reject everything and thresholds above the round count
    accept everything; the round cost is not part of this risk.
    """
    if not _is_count(rounds):
        raise ValueError(f"rounds must be an integer >= 1, got {rounds!r}")
    cut = int(rejected_count_min(threshold, rounds))
    acc_att = binomial_cdf(BinomialSpec(rounds, rates.attacker_floor), cut - 1)
    rej_use = binomial_sf(BinomialSpec(rounds, rates.user_ceiling), cut)
    return (
        prior.attacker * acc_att * params.false_accept
        + prior.user * rej_use * params.false_reject
    )
