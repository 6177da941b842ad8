"""Tests for the concentration bound and the closed-form design choices.

Frozen reference numbers were recomputed with a 40-digit arbitrary
precision script before being pinned here.
"""

import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import exact_worst_case_losses, loss_bound_at
from threshauth.bounds import (
    ThresholdChoice,
    optimal_rounds,
    optimal_threshold,
    rounds_loss_bound,
    threshold_curve,
    threshold_loss_bound,
)
from threshauth.channel import swiss_hitomi_rates
from threshauth.exact import brute_force_optimal
from threshauth.loss import ErrorRateBounds, LossParameters

BENCH = LossParameters(false_accept=10.0, false_reject=1.0, per_round=1e-2)
SWISS_01 = ErrorRateBounds(attacker_floor=0.55, user_ceiling=0.2)
SWISS_001 = ErrorRateBounds(attacker_floor=0.505, user_ceiling=0.02)

# frozen values for BENCH losses at the SWISS_01 rates
TAU_HAT_64 = 22.35529636214711
BOUND_AT_TAU_HAT_64 = 0.6976571931222909
ELB1_64 = 0.7027430506634064
N_HAT_REAL = 64.15230150195742
ELB2 = 1.4370667767804974


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _valid_designs(draw):
    la, lu = draw(_log_uniform(0.1, 1e3)), draw(_log_uniform(0.1, 1e3))
    lb, w = draw(_log_uniform(1e-6, 0.1)), draw(_log_uniform(1e-3, 0.3))
    n = draw(st.integers(1, 512))
    rates = swiss_hitomi_rates(w)
    lo, hi = n * rates.user_ceiling, n * rates.attacker_floor
    tau = min(hi, lo + draw(st.floats(0.0, 1.0)) * (hi - lo))
    return la, lu, lb, w, n, tau


class TestLossBoundAt:
    def test_frozen_value_at_equalizing_threshold(self):
        report = loss_bound_at(BENCH, SWISS_01, 64, TAU_HAT_64)
        assert report.bound_value == pytest.approx(BOUND_AT_TAU_HAT_64, abs=1e-12)
        assert report.valid
        assert report.rounds == 64
        assert report.threshold == TAU_HAT_64

    def test_lower_endpoint_pins_reject_branch(self):
        # at tau = n * user_ceiling the reject exponential is exactly 1
        n = 64
        report = loss_bound_at(BENCH, SWISS_01, n, n * SWISS_01.user_ceiling)
        accept_term = math.exp(-(2.0 / n) * (n * 0.55 - n * 0.2) ** 2) * 10.0
        assert report.valid
        assert report.bound_value == pytest.approx(
            n * 1e-2 + max(1.0, accept_term), rel=1e-14
        )

    def test_out_of_range_threshold_is_flagged_not_raised(self):
        low = loss_bound_at(BENCH, SWISS_01, 8, -1.0)
        high = loss_bound_at(BENCH, SWISS_01, 8, 8 * 0.55 + 0.5)
        assert not low.valid
        assert not high.valid
        assert low.bound_value > 0.0
        assert high.bound_value > 0.0
        inside = loss_bound_at(BENCH, SWISS_01, 8, 8 * 0.35)
        assert inside.valid

    def test_rejects_nonpositive_rounds(self):
        with pytest.raises(ValueError):
            loss_bound_at(BENCH, SWISS_01, 0, 1.0)

    def test_dominates_exact_worst_case_inside_validity_interval(self):
        for rates in (SWISS_01, SWISS_001):
            lo_frac, hi_frac = rates.user_ceiling, rates.attacker_floor
            for n in range(1, 65):
                taus = [
                    n * (lo_frac + frac * (hi_frac - lo_frac))
                    for frac in (0.0, 0.25, 0.5, 0.75, 1.0)
                ]
                exact = exact_worst_case_losses(BENCH, rates, [n] * len(taus), taus)
                for tau, exact_worst in zip(taus, exact):
                    report = loss_bound_at(BENCH, rates, n, tau)
                    assert report.valid
                    assert report.bound_value >= exact_worst - 1e-12

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_valid_designs())
    # (la, lu, lb, w, n, tau) where a user tail taken as 1 - cdf lands above
    # the bound, though the rational value lies below it
    @example((3.11, 77.95, 1.205e-6, 0.05324, 494, 143.82))
    @example((0.324, 288.0, 3.65e-6, 0.0198, 381, 105.44))
    def test_dominates_exact_worst_case_over_random_designs(self, design):
        la, lu, lb, w, n, tau = design
        params = LossParameters(la, lu, lb)
        rates = swiss_hitomi_rates(w)
        report = loss_bound_at(params, rates, n, tau)
        assert report.valid
        assert exact_worst_case_losses(params, rates, [n], [tau])[0] <= report.bound_value


class TestOptimalThreshold:
    def test_frozen_value_unclamped(self):
        choice = optimal_threshold(BENCH, SWISS_01, 64)
        assert choice == ThresholdChoice(
            value=pytest.approx(TAU_HAT_64, abs=1e-12),
            clamped=False,
            raw=pytest.approx(TAU_HAT_64, abs=1e-12),
        )

    def test_equal_losses_give_midpoint(self):
        params = LossParameters(3.0, 3.0, 1e-2)
        choice = optimal_threshold(params, SWISS_01, 64)
        assert choice.value == pytest.approx(64 * (0.55 + 0.2) / 2.0, rel=1e-15)
        assert not choice.clamped

    def test_small_round_count_clamps_to_lower_endpoint(self):
        choice = optimal_threshold(BENCH, SWISS_01, 1)
        assert choice.clamped
        assert choice.value == pytest.approx(0.2, rel=1e-15)
        assert choice.raw < 0.2

    def test_raw_threshold_equalizes_the_two_branches(self):
        cases = [
            (BENCH, SWISS_01),
            (BENCH, SWISS_001),
            (LossParameters(2.0, 5.0, 1e-3), ErrorRateBounds(0.9, 0.1)),
            (LossParameters(100.0, 0.1, 0.05), ErrorRateBounds(0.6, 0.55)),
        ]
        for params, rates in cases:
            for n in (1, 7, 64):
                tau = optimal_threshold(params, rates, n).raw
                pa, pu = rates.attacker_floor, rates.user_ceiling
                reject = math.exp(-(2.0 / n) * (n * pu - tau) ** 2) * params.false_reject
                accept = math.exp(-(2.0 / n) * (n * pa - tau) ** 2) * params.false_accept
                assert accept == pytest.approx(reject, rel=1e-12)


class TestThresholdLossBound:
    def test_frozen_value(self):
        assert threshold_loss_bound(BENCH, SWISS_01, 64) == pytest.approx(
            ELB1_64, abs=1e-12
        )

    def test_matches_concentration_form(self):
        # same quantity assembled from Hoeffding's tail exp(-2 n t^2):
        # the equalized bound decays like a deviation t of half the gap
        for rates in (SWISS_01, SWISS_001):
            for n in (1, 5, 40, 333):
                direct = threshold_loss_bound(BENCH, rates, n)
                assembled = n * BENCH.per_round + math.exp(
                    -2.0 * n * (rates.gap / 2.0) ** 2
                ) * math.sqrt(BENCH.false_accept * BENCH.false_reject)
                assert direct == pytest.approx(assembled, rel=1e-14)

    def test_dominates_bound_at_raw_equalizing_threshold(self):
        # equalizing drops a factor exp(-2c/n) <= 1, so the closed form
        # in n must sit at or above the two-branch bound evaluated there
        for rates in (SWISS_01, SWISS_001):
            for n in range(1, 257):
                tau = optimal_threshold(BENCH, rates, n).raw
                at_tau = loss_bound_at(BENCH, rates, n, tau).bound_value
                assert threshold_loss_bound(BENCH, rates, n) >= at_tau - 1e-12

    def test_rejects_nonpositive_rounds(self):
        with pytest.raises(ValueError):
            threshold_loss_bound(BENCH, SWISS_01, 0)


class TestThresholdCurve:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        user=st.floats(0.0, 0.9),
        gap=_log_uniform(1e-9, 0.1),
        la=_log_uniform(0.1, 1000.0),
        lu=_log_uniform(0.1, 1000.0),
        lb=_log_uniform(1e-6, 1.0),
        rounds=st.lists(st.integers(1, 10_000), min_size=1, max_size=40),
    )
    @example(user=0.2, gap=0.35, la=10.0, lu=1.0, lb=1e-2, rounds=[64, 1, 64, 10_000, 2, 1])
    def test_equals_the_scalar_formulas_bitwise(self, user, gap, la, lu, lb, rounds):
        params = LossParameters(la, lu, lb)
        rates = ErrorRateBounds(attacker_floor=user + gap, user_ceiling=user)
        taus, elb1 = threshold_curve(params, rates, rounds)
        assert [t.hex() for t in taus.tolist()] == [
            optimal_threshold(params, rates, n).raw.hex() for n in rounds
        ]
        assert [b.hex() for b in elb1.tolist()] == [
            threshold_loss_bound(params, rates, n).hex() for n in rounds
        ]

    def test_rejects_a_round_count_below_one_or_not_an_integer(self):
        for bad in (0, -3, 2.0, True):
            with pytest.raises(ValueError, match="rounds"):
                threshold_curve(BENCH, SWISS_01, [1, bad, 5])


class TestOptimalRounds:
    def test_frozen_value(self):
        choice = optimal_rounds(BENCH, SWISS_01)
        assert choice.value == 64
        assert choice.real == pytest.approx(N_HAT_REAL, rel=1e-12)

    def test_integer_choice_brackets_real_minimizer(self):
        cases = [
            (BENCH, SWISS_01),
            (BENCH, SWISS_001),
            (LossParameters(50.0, 2.0, 1e-3), ErrorRateBounds(0.8, 0.3)),
            (LossParameters(1.0, 1.0, 0.2), ErrorRateBounds(0.7, 0.2)),
        ]
        for params, rates in cases:
            choice = optimal_rounds(params, rates)
            lo = max(1, math.floor(choice.real))
            hi = max(1, math.ceil(choice.real))
            assert choice.value in (lo, hi)
            assert threshold_loss_bound(params, rates, choice.value) == pytest.approx(
                min(
                    threshold_loss_bound(params, rates, lo),
                    threshold_loss_bound(params, rates, hi),
                ),
                rel=1e-15,
            )

    def test_choice_stays_under_closed_form_cap(self):
        # the round choice is near-optimal in the sense that the bound it
        # achieves never exceeds the closed-form cap, even when the true
        # grid minimum of the equalized curve sits at a smaller count;
        # the real value is where the round cost meets the decision term
        # relaxed by exp(-x) <= 1/(1+x), and twice that cost is under the cap
        cases = [
            (BENCH, SWISS_01),
            (BENCH, SWISS_001),
            (LossParameters(50.0, 2.0, 1e-3), ErrorRateBounds(0.8, 0.3)),
            (LossParameters(1.0, 1.0, 0.2), ErrorRateBounds(0.7, 0.2)),
        ]
        for params, rates in cases:
            choice = optimal_rounds(params, rates)
            achieved = threshold_loss_bound(params, rates, choice.value)
            cap = rounds_loss_bound(params, rates)
            assert achieved <= cap + 1e-12
            relaxed = math.sqrt(params.false_accept * params.false_reject) / (
                1.0 + choice.real * rates.gap * rates.gap / 2.0
            )
            assert choice.real * params.per_round == pytest.approx(relaxed, rel=1e-12)
            assert 2.0 * choice.real * params.per_round <= cap

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        user=st.floats(0.0, 0.9),
        gap=_log_uniform(1e-12, 0.1),
        la=_log_uniform(0.1, 1000.0),
        lu=_log_uniform(0.1, 1000.0),
        lb=_log_uniform(1e-6, 1.0),
    )
    @example(user=2 * 0.333333333, gap=5e-10, la=10.0, lu=1.0, lb=1e-2)
    def test_real_value_keeps_full_precision_as_the_gap_closes(self, user, gap, la, lu, lb):
        # (sqrt(1 + 2 C K) - 1) / C at 80 digits from the same float inputs
        params = LossParameters(la, lu, lb)
        rates = ErrorRateBounds(attacker_floor=user + gap, user_ceiling=user)
        with localcontext() as ctx:
            ctx.prec = 80
            c = Decimal(rates.gap) ** 2
            k = (Decimal(la) * Decimal(lu)).sqrt() / Decimal(lb)
            want = ((1 + 2 * c * k).sqrt() - 1) / c
        real = optimal_rounds(params, rates).real
        assert abs(Decimal(real) - want) <= Decimal(1e-12) * want

    def test_closed_form_design_lies_between_the_certified_optimum_and_its_bound(self):
        # fig1b's finite-sample design (n_hat, tau_hat(n_hat)) costs at least
        # the global optimum L* and at most its own ELb1. L* comes from the
        # search over n <= 512; every design pays n * per_round, so the
        # search is global when L* <= 513 * per_round, and the other draws
        # are set aside. Prints how far the design sits above L*.
        ratios, n_hats = [], []

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(
            la=_log_uniform(0.1, 100.0),
            lu=_log_uniform(0.1, 100.0),
            lb=st.floats(1e-3, 0.1),
            w=st.floats(1e-3, 0.3),
        )
        def check(la, lu, lb, w):
            params, rates = LossParameters(la, lu, lb), swiss_hitomi_rates(w)
            l_star = brute_force_optimal(params, rates, 512).worst_loss
            assume(l_star <= 513 * lb)
            n_hat = optimal_rounds(params, rates).value
            tau = optimal_threshold(params, rates, n_hat).raw
            exact = exact_worst_case_losses(params, rates, [n_hat], [tau])[0]
            assert l_star <= exact <= threshold_loss_bound(params, rates, n_hat) + 1e-12
            ratios.append(exact / l_star)
            n_hats.append(n_hat)

        check()
        print(
            f"closed-form design / L*: {min(ratios):.3f} to {max(ratios):.3f} over "
            f"{len(ratios)} certified draws, n_hat up to {max(n_hats)}"
        )

    def test_huge_round_cost_forces_single_round(self):
        params = LossParameters(1.0, 1.0, 1e6)
        choice = optimal_rounds(params, SWISS_01)
        assert choice.value == 1
        assert choice.real < 1.0

    def test_rejects_zero_round_cost(self):
        params = LossParameters(10.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            optimal_rounds(params, SWISS_01)


class TestRoundsLossBound:
    def test_frozen_value(self):
        assert rounds_loss_bound(BENCH, SWISS_01) == pytest.approx(ELB2, abs=1e-12)

    def test_scaling_relations(self):
        base = rounds_loss_bound(BENCH, SWISS_01)
        # quadrupling the per-round cost doubles the bound
        quad = LossParameters(10.0, 1.0, 4e-2)
        assert rounds_loss_bound(quad, SWISS_01) == pytest.approx(2 * base, rel=1e-12)
        # scaling both decision losses by s^2 scales the bound by s
        scaled = LossParameters(10.0 * 9.0, 1.0 * 9.0, 1e-2)
        assert rounds_loss_bound(scaled, SWISS_01) == pytest.approx(
            3.0 * base, rel=1e-12
        )
        # halving the gap doubles the bound
        halved = ErrorRateBounds(0.55, 0.2 + 0.35 / 2.0)
        assert rounds_loss_bound(BENCH, halved) == pytest.approx(2 * base, rel=1e-12)

    def test_caps_the_optimized_curve(self):
        for rates in (SWISS_01, SWISS_001):
            n_hat = optimal_rounds(BENCH, rates).value
            assert threshold_loss_bound(BENCH, rates, n_hat) <= rounds_loss_bound(
                BENCH, rates
            )

    def test_rejects_zero_round_cost(self):
        params = LossParameters(10.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            rounds_loss_bound(params, SWISS_01)
