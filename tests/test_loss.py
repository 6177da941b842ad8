"""Tests for the loss parameters, the error-rate bounds and the expected loss."""

import math

import numpy as np
import pytest

from conftest import exact_worst_case_losses
from threshauth.asymptotic import (
    HypothesisPrior,
    approx_threshold,
    bayes_risk,
    bayes_threshold,
)
from threshauth.bounds import loss_bound_at, optimal_threshold, threshold_loss_bound
from threshauth.channel import simulate_error_counts
from threshauth.exact import BinomialSpec, brute_force_optimal, exact_expected_losses
from threshauth.experiments import ExperimentSpec
from threshauth.loss import (
    ErrorRateBounds,
    GapCollapseError,
    LossParameters,
    ProverIdentity,
)

BENCH = LossParameters(false_accept=10.0, false_reject=1.0, per_round=1e-2)
SWISS_01 = ErrorRateBounds(attacker_floor=0.55, user_ceiling=0.2)
UNIFORM = HypothesisPrior.uniform()


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
        att, _ = exact_expected_losses(BENCH, [7, 7, 7], [0.0, -3.7, -math.inf], 0.55, 0.2)
        assert att.tolist() == [7 * BENCH.per_round] * 3

    def test_user_always_accepted(self):
        # tau > n accepts every count: the user pays only the rounds
        _, use = exact_expected_losses(BENCH, [7, 7, 7], [7.5, 8.0, math.inf], 0.55, 0.2)
        assert use.tolist() == [7 * BENCH.per_round] * 3

    def test_round_cost_floor(self):
        taus = np.linspace(-1.0, 13.0, 57)
        for p in (0.0, 0.2, 0.55, 1.0):
            for loss in exact_expected_losses(BENCH, [12] * len(taus), taus, p, p):
                assert (loss >= 12 * BENCH.per_round).all()


# Every entry point that takes a round, trial or symbol count, as a call
# on that count alone. exact_worst_case_losses is the tests' oracle
# (conftest), which must take counts as the program's entry points do.
COUNT_ENTRY_POINTS = {
    "BinomialSpec": lambda n: BinomialSpec(n, 0.3),
    "brute_force_optimal": lambda n: brute_force_optimal(BENCH, SWISS_01, n),
    "ExperimentSpec.n_grid": lambda n: ExperimentSpec(n_grid=(3, n)),
    "ExperimentSpec.n_max": lambda n: ExperimentSpec(n_max=n),
    "ExperimentSpec.trials": lambda n: ExperimentSpec(trials=n),
    "ExperimentSpec.codeword_length": lambda n: ExperimentSpec(codeword_length=n),
    "exact_expected_losses": lambda n: exact_expected_losses(BENCH, [3, n], [2.0, 2.5], 0.55, 0.2),
    "exact_worst_case_losses": lambda n: exact_worst_case_losses(BENCH, SWISS_01, [3, n], [2.0, 2.5]),
    "loss_bound_at": lambda n: loss_bound_at(BENCH, SWISS_01, n, 2.0),
    "optimal_threshold": lambda n: optimal_threshold(BENCH, SWISS_01, n),
    "threshold_loss_bound": lambda n: threshold_loss_bound(BENCH, SWISS_01, n),
    "bayes_threshold": lambda n: bayes_threshold(BENCH, SWISS_01, UNIFORM, n),
    "approx_threshold": lambda n: approx_threshold(BENCH, 0.375, 0.35, n),
    "bayes_risk": lambda n: bayes_risk(BENCH, SWISS_01, UNIFORM, n, 2.0),
    "simulate_error_counts.rounds": lambda n: simulate_error_counts(
        n, 0.3, 20, 7, ProverIdentity.USER
    ),
    "simulate_error_counts.trials": lambda n: simulate_error_counts(
        8, 0.3, n, 7, ProverIdentity.USER
    ),
}


class TestCounts:
    @pytest.mark.parametrize("entry", list(COUNT_ENTRY_POINTS))
    def test_numpy_integer_gives_the_same_result(self, entry):
        call = COUNT_ENTRY_POINTS[entry]
        np.testing.assert_equal(call(np.int64(5)), call(5))

    @pytest.mark.parametrize("entry", list(COUNT_ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [2.5, True], ids=["fraction", "bool"])
    def test_fraction_and_bool_raise(self, entry, bad):
        with pytest.raises(ValueError):
            COUNT_ENTRY_POINTS[entry](bad)
