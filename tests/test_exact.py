"""Tests for the exact binomial oracle against exhaustive enumeration."""

import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshauth.channel import ChannelModel, swiss_hitomi_rates
from threshauth.exact import (
    BinomialSpec,
    BruteForceResult,
    _pmf_rows,
    _tail,
    _tails_at,
    accepted_count_max,
    binomial_cdf,
    binomial_pmf,
    binomial_sf,
    brute_force_optimal,
    exact_expected_loss,
    exact_worst_case_loss,
    exact_worst_case_losses,
)
from threshauth.loss import ErrorRateBounds, LossParameters, ProverIdentity

BENCH = LossParameters(10.0, 1.0, 1e-2)
SWISS_01 = ErrorRateBounds(attacker_floor=0.55, user_ceiling=0.2)
ATT, USER = ProverIdentity.ATTACKER, ProverIdentity.USER


def enumerated_count_distribution(n: int, mu: float) -> list[float]:
    """Distribution of the error count by summing all 2^n sequences."""
    probs = [0.0] * (n + 1)
    for bits in itertools.product((0, 1), repeat=n):
        p = 1.0
        for b in bits:
            p *= mu if b else (1.0 - mu)
        probs[sum(bits)] += p
    return probs


class TestBinomialCdf:
    def test_against_enumeration(self):
        for n in range(1, 13):
            for mu in (0.0, 0.2, 0.5, 0.55, 1.0):
                dist = enumerated_count_distribution(n, mu)
                spec = BinomialSpec(n, mu)
                running = 0.0
                for u in range(n + 1):
                    running += dist[u]
                    assert binomial_cdf(spec, u) == pytest.approx(
                        min(running, 1.0), abs=1e-12
                    ), f"n={n} mu={mu} u={u}"

    def test_trivial_values(self):
        assert binomial_cdf(BinomialSpec(2, 0.5), 1) == pytest.approx(0.75, abs=1e-15)
        assert binomial_cdf(BinomialSpec(4, 0.55), 1) == pytest.approx(
            0.24148125, abs=1e-12
        )
        assert binomial_cdf(BinomialSpec(9, 0.3), 9) == 1.0
        assert binomial_cdf(BinomialSpec(9, 0.3), -1) == 0.0

    def test_monotone_in_count(self):
        spec = BinomialSpec(30, 0.37)
        vals = [binomial_cdf(spec, u) for u in range(-1, 31)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_large_n_stability(self):
        # no overflow and sane tails at ten thousand trials
        spec = BinomialSpec(10_000, 0.55)
        assert binomial_cdf(spec, 5000) < 1e-20
        assert binomial_cdf(spec, 6000) > 1.0 - 1e-10
        mid = binomial_cdf(spec, 5500)
        assert 0.4 < mid < 0.6

    def test_validation(self):
        with pytest.raises(ValueError):
            BinomialSpec(0, 0.5)
        with pytest.raises(ValueError):
            BinomialSpec(4, 1.5)


def _spec_and_count(max_trials):
    return st.integers(1, max_trials).flatmap(
        lambda n: st.tuples(
            st.builds(BinomialSpec, st.just(n), st.floats(0.0, 1.0)),
            st.integers(-2, n + 2),
        )
    )


def enumerated_mass(spec: BinomialSpec, lo: int, hi: int) -> Fraction:
    """Exact Pr(lo <= X < hi), summed in integers for mu = a / b."""
    n = spec.trials
    a, b = spec.success_prob.as_integer_ratio()
    numer = sum(
        math.comb(n, k) * a**k * (b - a) ** (n - k)
        for k in range(max(lo, 0), min(hi, n + 1))
    )
    return Fraction(numer, b**n)


# below the smallest normal float a relative error means nothing
TINY = sys.float_info.min


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


class TestBinomialCdfProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_spec_and_count(200))
    def test_matches_exact_integer_enumeration(self, spec_count):
        spec, count = spec_count
        exact = float(enumerated_mass(spec, 0, count + 1))  # correctly rounded
        assert binomial_cdf(spec, count) == pytest.approx(exact, rel=1e-12, abs=TINY)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_spec_and_count(200))
    def test_sf_matches_exact_integer_enumeration(self, spec_count):
        # a far upper tail taken as 1 - cdf keeps no relative precision
        spec, count = spec_count
        exact = float(enumerated_mass(spec, count, spec.trials + 1))
        assert binomial_sf(spec, count) == pytest.approx(exact, rel=1e-12, abs=TINY)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_spec_and_count(1000))
    def test_is_the_running_sum_of_the_pmf(self, spec_count):
        spec, count = spec_count
        count = min(max(count, 0), spec.trials)
        running = np.cumsum(binomial_pmf(spec.trials, spec.success_prob))[count]
        assert binomial_cdf(spec, count) == pytest.approx(running, rel=1e-12, abs=TINY)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_spec_and_count(1000))
    def test_tails_add_to_one_within_pmf_normalisation(self, spec_count):
        # the two tails are summed separately, so they add up to the pmf's
        # float total, whose distance from 1 grows about like n * eps
        spec, count = spec_count
        total = binomial_cdf(spec, count) + binomial_sf(spec, count + 1)
        assert abs(total - 1.0) <= 16 * spec.trials * sys.float_info.epsilon


class TestBinomialPmf:
    def test_matches_enumeration(self):
        for n in (1, 3, 6, 10):
            for mu in (0.0, 0.2, 0.55, 1.0):
                dist = enumerated_count_distribution(n, mu)
                got = binomial_pmf(n, mu)
                assert np.allclose(got, dist, atol=1e-13)

    def test_sums_to_one(self):
        for n in (5, 50, 500):
            assert binomial_pmf(n, 0.123).sum() == pytest.approx(1.0, abs=1e-12)


class TestAcceptance:
    def test_strictness_of_count_cut(self):
        # accept iff count < tau, counts are integers
        assert accepted_count_max(2.0) == 1
        assert accepted_count_max(2.5) == 2
        assert accepted_count_max(0.2) == 0
        assert accepted_count_max(0.0) == -1
        assert accepted_count_max(-3.7) == -4

    def test_acceptance_probability_saturates(self):
        # tau <= 0 accepts no count, tau > n accepts every count, so the
        # wrong decision is certain and each side pays exactly its loss
        base = 4 * BENCH.per_round
        for tau in (0.0, -3.7):
            assert exact_expected_loss(BENCH, 4, tau, 0.2, USER) == base + BENCH.false_reject
        for tau in (4.5, 5.0):
            assert exact_expected_loss(BENCH, 4, tau, 0.55, ATT) == base + BENCH.false_accept

    def test_integer_vs_fractional_threshold(self):
        # tau=2 admits counts {0,1}; tau=2.5 admits {0,1,2}
        spec_att, spec_use = BinomialSpec(4, 0.55), BinomialSpec(4, 0.2)
        base = 4 * BENCH.per_round
        for tau, cut in ((2.0, 1), (2.5, 2)):
            assert exact_expected_loss(BENCH, 4, tau, 0.55, ATT) == (
                base + binomial_cdf(spec_att, cut) * BENCH.false_accept
            )
            assert exact_expected_loss(BENCH, 4, tau, 0.2, USER) == (
                base + binomial_sf(spec_use, cut + 1) * BENCH.false_reject
            )
        assert exact_expected_loss(BENCH, 4, 2.0, 0.55, ATT) < exact_expected_loss(
            BENCH, 4, 2.5, 0.55, ATT
        )


class TestExactExpectedLoss:
    def test_attacker_example(self):
        got = exact_expected_loss(BENCH, 4, 2.0, 0.55, ProverIdentity.ATTACKER)
        assert got == pytest.approx(2.4548125, abs=1e-12)

    def test_user_example(self):
        got = exact_expected_loss(BENCH, 4, 2.0, 0.2, ProverIdentity.USER)
        assert got == pytest.approx(0.2208, abs=1e-12)

    def test_zero_threshold_rejects_everything(self):
        got = exact_expected_loss(BENCH, 9, 0.0, 0.55, ProverIdentity.ATTACKER)
        assert got == pytest.approx(0.09, abs=1e-15)

    def test_monotonicity_in_threshold(self):
        taus = np.linspace(0.0, 12.0, 49)
        att = [
            exact_expected_loss(BENCH, 12, t, 0.55, ProverIdentity.ATTACKER)
            for t in taus
        ]
        use = [
            exact_expected_loss(BENCH, 12, t, 0.2, ProverIdentity.USER) for t in taus
        ]
        assert all(a <= b + 1e-15 for a, b in zip(att, att[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(use, use[1:]))

    def test_worst_case_picks_larger_side(self):
        w = exact_worst_case_loss(BENCH, SWISS_01, 4, 2.0)
        assert w == pytest.approx(2.4548125, abs=1e-12)

    def test_rejects_bad_error_rate_and_rounds(self):
        for p in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                exact_expected_loss(BENCH, 4, 2.0, p, USER)
        with pytest.raises(ValueError):
            exact_expected_loss(BENCH, 0, 2.0, 0.2, ATT)


def _scalar_worst(params, rates, n, tau):
    """The worst-case loss from the two scalar per-identity losses."""
    return max(
        exact_expected_loss(params, n, tau, rates.attacker_floor, ATT),
        exact_expected_loss(params, n, tau, rates.user_ceiling, USER),
    )


_MU = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestRoundGridKernel:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(grid=st.lists(st.integers(1, 300), min_size=1, max_size=8), mu=_MU, data=st.data())
    def test_block_matches_scalar_kernel_bitwise(self, grid, mu, data):
        ns = np.array(grid)
        rows = _pmf_rows(ns, mu)
        assert rows.shape == (len(grid), max(grid) + 1)
        for n, row in zip(grid, rows):
            assert row[: n + 1].tobytes() == binomial_pmf(n, mu).tobytes()
            assert row[n + 1 :].tobytes() == bytes(8 * (max(grid) - n))  # +0.0 only
        counts = np.array([
            data.draw(st.one_of(st.sampled_from([0, n, n + 1]), st.integers(0, n + 1)))
            for n in grid
        ])
        for upper in (False, True):
            got = _tails_at(ns, mu, counts, upper)
            want = [_tail(binomial_pmf(n, mu), upper)[c] for n, c in zip(grid, counts)]
            assert got.tobytes() == np.array(want).tobytes()

    def test_tail_along_last_axis_matches_one_row_at_a_time(self):
        pmfs = np.stack([binomial_pmf(9, mu) for mu in (0.0, 0.3, 0.55, 1.0)])
        for upper in (False, True):
            block = _tail(pmfs, upper)
            assert block.shape == (4, 11)
            for pmf, row in zip(pmfs, block):
                assert row.tobytes() == _tail(pmf, upper).tobytes()
        for pmf in pmfs:
            # each tail is the plain running sum from its own end
            lower = np.concatenate(([0.0], np.cumsum(pmf)))
            upper = np.append(np.cumsum(pmf[::-1])[::-1], 0.0)
            assert _tail(pmf, False).tobytes() == lower.tobytes()
            assert _tail(pmf, True).tobytes() == upper.tobytes()

    def test_batched_loss_matches_scalar_losses_across_blocks(self):
        # 300 round counts up to 600 span several blocks; thresholds cover
        # sure rejection, sure acceptance and the fractional cuts between
        rates = swiss_hitomi_rates(ChannelModel(0.05))
        ns = list(range(1, 601, 2))
        for frac in (-1.0, 0.0, 0.17, 0.5, 0.999, 1.0, 1.5):
            taus = [frac * n + 0.25 * (n % 4) for n in ns]
            got = exact_worst_case_losses(BENCH, rates, ns, taus)
            want = [_scalar_worst(BENCH, rates, n, t) for n, t in zip(ns, taus)]
            assert got.tobytes() == np.array(want).tobytes()
        for tau in (-math.inf, math.inf):
            assert exact_worst_case_loss(BENCH, rates, 7, tau) == pytest.approx(
                7 * BENCH.per_round + (BENCH.false_reject if tau < 0 else BENCH.false_accept)
            )

    def test_batched_loss_rejects_bad_input(self):
        for rounds in ([0], [True], [2.5], [], [3, -1]):
            with pytest.raises(ValueError):
                exact_worst_case_losses(BENCH, SWISS_01, rounds, [1.0] * len(rounds))
        with pytest.raises(ValueError):
            exact_worst_case_losses(BENCH, SWISS_01, [3, 4], [1.0])
        with pytest.raises(ValueError):
            exact_worst_case_loss(BENCH, SWISS_01, 3, math.nan)


class TestBruteForce:
    def test_single_round_search(self):
        res = brute_force_optimal(BENCH, SWISS_01, 1)
        assert res.rounds == 1
        assert res.threshold in (0, 1)
        # tau=0 rejects everyone: worst = round cost + false reject
        # tau=1 accepts on zero errors: attacker side 0.01 + 0.45 * 10
        assert res.threshold == 0
        assert res.worst_loss == pytest.approx(1.01, abs=1e-12)

    def test_known_optimum_noise_point_one(self):
        # frozen from an independent sweep over all n <= 512 and integer
        # thresholds with library binomials
        res = brute_force_optimal(BENCH, SWISS_01, 512)
        assert res == BruteForceResult(24, 8, pytest.approx(0.33521159199513, abs=1e-12))

    def test_tie_breaks_toward_smallest_rounds_then_threshold(self):
        # perfectly separable rates with zero round cost make every rule
        # with 1 <= threshold <= n lossless; the scan must keep the first
        params = LossParameters(5.0, 3.0, 0.0)
        rates = ErrorRateBounds(attacker_floor=1.0, user_ceiling=0.0)
        res = brute_force_optimal(params, rates, 4)
        assert res == BruteForceResult(1, 1, 0.0)

    def test_symmetric_setup_ties_within_fixed_rounds(self):
        # mirrored rates and equal decision losses score thresholds 1 and
        # 2 identically at n=2; a search capped there still prefers the
        # strictly better single-round rule
        params = LossParameters(1.0, 1.0, 1e-6)
        rates = ErrorRateBounds(attacker_floor=0.7, user_ceiling=0.3)
        tie_a = exact_worst_case_loss(params, rates, 2, 1.0)
        tie_b = exact_worst_case_loss(params, rates, 2, 2.0)
        assert tie_a == pytest.approx(tie_b, abs=1e-15)
        res = brute_force_optimal(params, rates, 2)
        assert res == BruteForceResult(1, 1, pytest.approx(0.300001, abs=1e-12))

    def test_optimum_only_improves_with_budget(self):
        r64 = brute_force_optimal(BENCH, SWISS_01, 64)
        r128 = brute_force_optimal(BENCH, SWISS_01, 128)
        assert r128.worst_loss <= r64.worst_loss + 1e-15

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        la=_log_uniform(1.0, 1e3),
        lu=_log_uniform(1.0, 1e12),
        lb=_log_uniform(1e-4, 0.1),
        w=_log_uniform(1e-3, 0.3),
    )
    def test_optimum_losses_match_integer_enumeration(self, la, lu, lb, w):
        # with lu up to 1e12 the optimum's user rejection probability is far
        # below eps, where a tail taken as 1 - cdf keeps no digits
        params = LossParameters(la, lu, lb)
        rates = swiss_hitomi_rates(ChannelModel(w))
        res = brute_force_optimal(params, rates, 128)
        n, t = res.rounds, res.threshold
        base = n * Fraction(lb)
        att = base + enumerated_mass(BinomialSpec(n, rates.attacker_floor), 0, t) * Fraction(la)
        use = base + enumerated_mass(BinomialSpec(n, rates.user_ceiling), t, n + 1) * Fraction(lu)
        assert res.worst_loss == pytest.approx(float(max(att, use)), rel=1e-12)
        got_att = exact_expected_loss(params, n, t, rates.attacker_floor, ATT)
        got_use = exact_expected_loss(params, n, t, rates.user_ceiling, USER)
        assert got_att == pytest.approx(float(att), rel=1e-12)
        assert got_use == pytest.approx(float(use), rel=1e-12)
