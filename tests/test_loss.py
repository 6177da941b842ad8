"""Tests for the loss parameters, the error-rate bounds and the expected loss."""

import math

import numpy as np
import pytest

from threshauth.exact import exact_expected_loss
from threshauth.loss import (
    ErrorRateBounds,
    GapCollapseError,
    LossParameters,
    ProverIdentity,
)

BENCH = LossParameters(false_accept=10.0, false_reject=1.0, per_round=1e-2)


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
    def test_attacker_never_accepted(self):
        # tau <= 0 accepts no count: the attacker pays only the rounds
        for tau in (0.0, -3.7):
            got = exact_expected_loss(BENCH, 7, tau, 0.55, ProverIdentity.ATTACKER)
            assert got == 7 * BENCH.per_round

    def test_user_always_accepted(self):
        # tau > n accepts every count: the user pays only the rounds
        for tau in (7.5, 8.0):
            got = exact_expected_loss(BENCH, 7, tau, 0.2, ProverIdentity.USER)
            assert got == 7 * BENCH.per_round

    def test_round_cost_floor(self):
        for tau in np.linspace(-1.0, 13.0, 57):
            for p in (0.0, 0.2, 0.55, 1.0):
                for ident in ProverIdentity:
                    loss = exact_expected_loss(BENCH, 12, tau, p, ident)
                    assert loss >= 12 * BENCH.per_round
