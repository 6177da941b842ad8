"""Tests for the Bayes threshold rule, its approximation, and its risk."""

import math

import pytest

from conftest import approx_threshold, exact_worst_case_losses
from threshauth.asymptotic import (
    HypothesisPrior,
    asymptotic_threshold,
    bayes_risk,
    bayes_threshold,
)
from threshauth.loss import ErrorRateBounds, LossParameters

BENCH = LossParameters(false_accept=10.0, false_reject=1.0, per_round=1e-2)
SWISS_01 = ErrorRateBounds(attacker_floor=0.55, user_ceiling=0.2)

# frozen with a 40-digit arbitrary precision script
BAYES_TAU_64 = 21.75266559125355
APPROX_TAU_64 = 22.458090339512914


class TestHypothesisPrior:
    def test_uniform(self):
        prior = HypothesisPrior.uniform()
        assert prior.attacker == 0.5
        assert prior.user == 0.5

    def test_rejects_probabilities_outside_open_interval(self):
        with pytest.raises(ValueError):
            HypothesisPrior(0.0, 1.0)
        with pytest.raises(ValueError):
            HypothesisPrior(1.0, 0.0)
        with pytest.raises(ValueError):
            HypothesisPrior(-0.2, 1.2)

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError):
            HypothesisPrior(0.5, 0.6)


class TestBayesThreshold:
    def test_frozen_uniform_prior_value(self):
        tau = bayes_threshold(BENCH, SWISS_01, HypothesisPrior.uniform(), 64)
        assert tau == pytest.approx(BAYES_TAU_64, abs=1e-10)

    def test_asymptotic_is_uniform_prior_case(self):
        for n in (1, 8, 64, 500):
            assert asymptotic_threshold(BENCH, SWISS_01, n) == bayes_threshold(
                BENCH, SWISS_01, HypothesisPrior.uniform(), n
            )

    def test_prior_and_loss_ratio_cancel(self):
        # only the product ratio * prior_attacker / prior_user enters, so
        # a 10x loss ratio against a 1:10 prior equals the neutral case
        skew = HypothesisPrior(1.0 / 11.0, 10.0 / 11.0)
        neutral = LossParameters(3.0, 3.0, 1e-2)
        for n in (4, 64):
            assert bayes_threshold(BENCH, SWISS_01, skew, n) == pytest.approx(
                bayes_threshold(neutral, SWISS_01, HypothesisPrior.uniform(), n),
                rel=1e-14,
            )

    def test_grows_linearly_in_rounds(self):
        taus = [asymptotic_threshold(BENCH, SWISS_01, n) for n in (10, 20, 30)]
        assert taus[2] - taus[1] == pytest.approx(taus[1] - taus[0], rel=1e-10)

    def test_requires_interior_rates(self):
        with pytest.raises(ValueError):
            bayes_threshold(
                BENCH, ErrorRateBounds(0.5, 0.0), HypothesisPrior.uniform(), 8
            )
        with pytest.raises(ValueError):
            bayes_threshold(
                BENCH, ErrorRateBounds(1.0, 0.5), HypothesisPrior.uniform(), 8
            )
        with pytest.raises(ValueError):
            bayes_threshold(BENCH, SWISS_01, HypothesisPrior.uniform(), 0)


class TestApproxThreshold:
    def test_frozen_value(self):
        tau = approx_threshold(BENCH, 0.375, 0.35, 64)
        assert tau == pytest.approx(APPROX_TAU_64, abs=1e-12)

    def test_equal_losses_give_mean_count(self):
        neutral = LossParameters(3.0, 3.0, 1e-2)
        assert approx_threshold(neutral, 0.375, 0.35, 64) == pytest.approx(
            64 * 0.375, rel=1e-15
        )

    def test_approaches_exact_threshold_for_small_gaps(self):
        center, n = 0.4, 100
        diffs = []
        for gap in (0.3, 0.1, 0.03, 0.01):
            rates = ErrorRateBounds(center + gap / 2.0, center - gap / 2.0)
            exact = asymptotic_threshold(BENCH, rates, n)
            approx = approx_threshold(BENCH, center, gap, n)
            diffs.append(abs(exact - approx))
        # superlinear shrinkage over the first decade of gaps; below that
        # the signed error terms start to cancel, so only ask for small
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] < 0.01 * diffs[0]
        assert diffs[3] < 5e-3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            approx_threshold(BENCH, 0.0, 0.1, 8)
        with pytest.raises(ValueError):
            approx_threshold(BENCH, 1.0, 0.1, 8)
        with pytest.raises(ValueError):
            approx_threshold(BENCH, 0.4, 0.0, 8)
        with pytest.raises(ValueError):
            approx_threshold(BENCH, 0.4, 0.1, 0)


class TestBayesDecision:
    def test_matches_posterior_loss_comparison(self):
        # the threshold rule must agree with directly comparing the two
        # posterior expected losses built from binomial likelihoods
        n = 8
        priors = [HypothesisPrior.uniform(), HypothesisPrior(0.25, 0.75)]
        params_list = [BENCH, LossParameters(3.0, 3.0, 1e-2), LossParameters(0.5, 1.0, 1e-2)]
        rates_list = [SWISS_01, ErrorRateBounds(0.7, 0.3)]
        for prior in priors:
            for params in params_list:
                for rates in rates_list:
                    tau = bayes_threshold(params, rates, prior, n)
                    pa, pu = rates.attacker_floor, rates.user_ceiling
                    for count in range(n + 1):
                        like_att = (
                            math.comb(n, count) * pa**count * (1 - pa) ** (n - count)
                        )
                        like_use = (
                            math.comb(n, count) * pu**count * (1 - pu) ** (n - count)
                        )
                        accept_cost = params.false_accept * prior.attacker * like_att
                        reject_cost = params.false_reject * prior.user * like_use
                        # counts below the threshold accept (decide user)
                        assert (count < tau) == (accept_cost < reject_cost)


class TestBayesRisk:
    def test_degenerate_thresholds(self):
        prior = HypothesisPrior(0.3, 0.7)
        # threshold 0 rejects everything: only the user term survives
        assert bayes_risk(BENCH, SWISS_01, prior, 8, 0.0) == pytest.approx(
            0.7 * 1.0, rel=1e-15
        )
        # threshold n+1 accepts everything: only the attacker term survives
        assert bayes_risk(BENCH, SWISS_01, prior, 8, 9.0) == pytest.approx(
            0.3 * 10.0, rel=1e-15
        )

    def test_saturates_outside_representable_range(self):
        prior = HypothesisPrior.uniform()
        assert bayes_risk(BENCH, SWISS_01, prior, 8, -5.0) == bayes_risk(
            BENCH, SWISS_01, prior, 8, 0.0
        )
        assert bayes_risk(BENCH, SWISS_01, prior, 8, 15.0) == bayes_risk(
            BENCH, SWISS_01, prior, 8, 9.0
        )
        assert bayes_risk(BENCH, SWISS_01, prior, 8, -math.inf) == bayes_risk(
            BENCH, SWISS_01, prior, 8, 0.0
        )
        assert bayes_risk(BENCH, SWISS_01, prior, 8, math.inf) == bayes_risk(
            BENCH, SWISS_01, prior, 8, 9.0
        )
        with pytest.raises(ValueError):
            bayes_risk(BENCH, SWISS_01, prior, 8, math.nan)

    def test_bayes_threshold_minimizes_risk(self):
        prior = HypothesisPrior.uniform()
        n = 8
        tau = bayes_threshold(BENCH, SWISS_01, prior, n)
        best = bayes_risk(BENCH, SWISS_01, prior, n, tau)
        for t in range(n + 2):
            assert best <= bayes_risk(BENCH, SWISS_01, prior, n, float(t)) + 1e-12

    def test_risk_bounds_worst_case_loss(self):
        # max(a, b) <= a + b, so the worst-case expected loss is at most
        # the round cost plus twice the uniform-prior risk
        prior = HypothesisPrior.uniform()
        for n in (2, 5, 8):
            worst = exact_worst_case_losses(BENCH, SWISS_01, [n] * (n + 2), range(n + 2))
            for t in range(n + 2):
                risk = bayes_risk(BENCH, SWISS_01, prior, n, float(t))
                assert worst[t] <= n * BENCH.per_round + 2.0 * risk + 1e-12

    def test_rejects_nonpositive_rounds(self):
        with pytest.raises(ValueError):
            bayes_risk(BENCH, SWISS_01, HypothesisPrior.uniform(), 0, 1.0)
