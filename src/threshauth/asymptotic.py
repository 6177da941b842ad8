"""Bayesian threshold: the uniform-prior likelihood-ratio rule and its risk.

For i.i.d. binomial errors the Bayes-optimal accept/reject rule is a
threshold on the error count. This module computes that threshold under
a uniform prior (attacker and user equally likely a priori), the
asymptotic baseline the experiments compare against, and the Bayes risk
used to verify its optimality.
"""

from __future__ import annotations

import math

from .exact import BinomialSpec, binomial_cdf, binomial_sf
from .loss import ErrorRateBounds, LossParameters, _is_count, rejected_count_min


def asymptotic_threshold(
    params: LossParameters,
    rates: ErrorRateBounds,
    rounds: int,
) -> float:
    """Error-count threshold of the uniform-prior Bayes decision rule.

        [n ln((1-pu)/(1-pa)) - ln(ratio)] / [ln((1-pu)/(1-pa)) - ln(pu/pa)]

    Requires both rates strictly inside (0,1) so the likelihood ratios
    are finite.
    """
    if not _is_count(rounds):
        raise ValueError(f"rounds must be an integer >= 1, got {rounds!r}")
    pa, pu = rates.attacker_floor, rates.user_ceiling
    # the logarithms below need 0 < pu and pa < 1
    if pu <= 0.0 or pa >= 1.0:
        raise ValueError(
            "bayes threshold needs user_ceiling > 0 and attacker_floor < 1, "
            f"got ({pu}, {pa})"
        )
    log_reject_ratio = math.log((1.0 - pu) / (1.0 - pa))
    log_accept_ratio = math.log(pu / pa)
    numer = rounds * log_reject_ratio - math.log(params.ratio)
    return numer / (log_reject_ratio - log_accept_ratio)


def bayes_risk(
    params: LossParameters,
    rates: ErrorRateBounds,
    rounds: int,
    threshold: float,
) -> float:
    """Uniform-prior expected misclassification loss of a threshold rule.

        1/2 * Pr(count < tau | attacker) * false_accept
      + 1/2 * Pr(count >= tau | user)    * false_reject

    with exact binomial tails at the two rate bounds. Thresholds at or
    below 0 reject everything and thresholds above the round count
    accept everything; the round cost is not part of this risk.
    """
    if not _is_count(rounds):
        raise ValueError(f"rounds must be an integer >= 1, got {rounds!r}")
    cut = int(rejected_count_min(threshold, rounds))
    acc_att = binomial_cdf(BinomialSpec(rounds, rates.attacker_floor), cut - 1)
    rej_use = binomial_sf(BinomialSpec(rounds, rates.user_ceiling), cut)
    return 0.5 * acc_att * params.false_accept + 0.5 * rej_use * params.false_reject
