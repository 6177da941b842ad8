"""Tests for the loss structure and expected-loss arithmetic."""

import math

import numpy as np
import pytest

from threshauth.loss import (
    ErrorRateBounds,
    GapCollapseError,
    LossParameters,
    ProverIdentity,
    expected_loss,
)

BENCH = LossParameters(false_accept=10.0, false_reject=1.0, per_round=1e-2)

# Pr(count < 2) for 4 rounds at per-round error 0.55, frozen from an
# exhaustive enumeration of the 16 outcome sequences.
ENUM_ACCEPT_PROB = 0.24148125


class TestLossParameters:
    def test_ratio(self):
        assert BENCH.ratio == pytest.approx(10.0, rel=1e-15)

    def test_round_cost_is_finite_and_nonnegative(self):
        # zero is a valid cost; the round-count optimizers reject it
        assert LossParameters(10.0, 1.0, 0.0).per_round == 0.0
        for bad in (-1e-2, math.nan, math.inf):
            with pytest.raises(ValueError):
                LossParameters(10.0, 1.0, bad)

    def test_rejects_nonpositive_decision_losses(self):
        with pytest.raises(ValueError):
            LossParameters(0.0, 1.0, 1e-2)
        with pytest.raises(ValueError):
            LossParameters(10.0, -1.0, 1e-2)
        with pytest.raises(ValueError):
            LossParameters(math.inf, 1.0, 1e-2)


class TestErrorRateBounds:
    def test_gap(self):
        r = ErrorRateBounds(attacker_floor=0.55, user_ceiling=0.2)
        assert r.gap == pytest.approx(0.35, rel=1e-15)

    def test_collapse_raises(self):
        with pytest.raises(GapCollapseError):
            ErrorRateBounds(attacker_floor=0.2, user_ceiling=0.2)
        with pytest.raises(GapCollapseError):
            ErrorRateBounds(attacker_floor=0.1, user_ceiling=0.3)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ErrorRateBounds(attacker_floor=1.2, user_ceiling=0.2)
        with pytest.raises(ValueError):
            ErrorRateBounds(attacker_floor=0.5, user_ceiling=-0.1)

    def test_collapse_is_a_value_error(self):
        # callers that only care about validity can catch ValueError
        assert issubclass(GapCollapseError, ValueError)


class TestExpectedLoss:
    def test_attacker_example(self):
        got = expected_loss(BENCH, 4, ENUM_ACCEPT_PROB, ProverIdentity.ATTACKER)
        assert got == pytest.approx(2.4548125, abs=1e-12)

    def test_attacker_never_accepted(self):
        assert expected_loss(BENCH, 7, 0.0, ProverIdentity.ATTACKER) == pytest.approx(
            0.07, abs=1e-15
        )

    def test_user_always_accepted(self):
        assert expected_loss(BENCH, 7, 1.0, ProverIdentity.USER) == pytest.approx(
            0.07, abs=1e-15
        )

    def test_rejects_bad_accept_prob(self):
        with pytest.raises(ValueError):
            expected_loss(BENCH, 4, 1.5, ProverIdentity.USER)
        with pytest.raises(ValueError):
            expected_loss(BENCH, 4, -0.1, ProverIdentity.ATTACKER)

    def test_monotonicity_in_accept_prob(self):
        probs = np.linspace(0.0, 1.0, 21)
        att = [expected_loss(BENCH, 5, p, ProverIdentity.ATTACKER) for p in probs]
        use = [expected_loss(BENCH, 5, p, ProverIdentity.USER) for p in probs]
        assert all(a <= b + 1e-15 for a, b in zip(att, att[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(use, use[1:]))

    def test_round_cost_floor(self):
        for p in (0.0, 0.3, 1.0):
            for ident in ProverIdentity:
                assert expected_loss(BENCH, 12, p, ident) >= 12 * BENCH.per_round - 1e-15

