"""Tests for the exact binomial oracle against exhaustive enumeration."""

import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import enumerated_mass, exact_worst_case_losses
from threshauth.channel import swiss_hitomi_rates
from threshauth.exact import (
    _BLOCK_ENTRIES,
    BinomialSpec,
    BruteForceResult,
    _PmfBlock,
    _pmf_blocks,
    _tail,
    binomial_cdf,
    binomial_pmf,
    binomial_sf,
    brute_force_optimal,
    exact_expected_losses,
)
from threshauth.loss import ErrorRateBounds, LossParameters, ProverIdentity, rejected_count_min

BENCH = LossParameters(10.0, 1.0, 1e-2)
SWISS_01 = ErrorRateBounds(attacker_floor=0.55, user_ceiling=0.2)
ATT, USER = ProverIdentity.ATTACKER, ProverIdentity.USER


def _one_loss(params, n, tau, p, identity):
    """One identity's exact loss at one design, read from the batched call."""
    att, use = exact_expected_losses(params, [n], [tau], p, p)
    return float((att if identity is ATT else use)[0])


def _one_worst(params, rates, n, tau):
    """The worst-case exact loss at one design, read from the batched call."""
    return float(exact_worst_case_losses(params, rates, [n], [tau])[0])


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
        for trials in (2.5, 3.0, True, "3", None):
            with pytest.raises(ValueError, match="trials"):
                BinomialSpec(trials, 0.3)


def _spec_and_count(max_trials):
    return st.integers(1, max_trials).flatmap(
        lambda n: st.tuples(
            st.builds(BinomialSpec, st.just(n), st.floats(0.0, 1.0)),
            st.integers(-2, n + 2),
        )
    )


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

    def test_rejects_non_integer_trials(self):
        # 2.5 once gave a four-entry "pmf"
        for trials in (2.5, True, False, 0, -1):
            with pytest.raises(ValueError, match="trials"):
                binomial_pmf(trials, 0.3)


class TestAcceptance:
    def test_strictness_of_count_cut(self):
        # accept iff count < tau, counts are integers in 0..4
        assert rejected_count_min(2.0, 4) == 2
        assert rejected_count_min(2.5, 4) == 3
        assert rejected_count_min(0.2, 4) == 1
        assert rejected_count_min(0.0, 4) == 0
        assert rejected_count_min(-3.7, 4) == 0
        assert rejected_count_min(4.5, 4) == rejected_count_min(math.inf, 4) == 5

    def test_acceptance_probability_saturates(self):
        # tau <= 0 accepts no count, tau > n accepts every count, so the
        # wrong decision is certain and each side pays exactly its loss
        base = 4 * BENCH.per_round
        for tau in (0.0, -3.7, -math.inf):
            assert _one_loss(BENCH, 4, tau, 0.2, USER) == base + BENCH.false_reject
        for tau in (4.5, 5.0, math.inf):
            assert _one_loss(BENCH, 4, tau, 0.55, ATT) == base + BENCH.false_accept

    def test_integer_vs_fractional_threshold(self):
        # tau=2 admits counts {0,1}; tau=2.5 admits {0,1,2}
        spec_att, spec_use = BinomialSpec(4, 0.55), BinomialSpec(4, 0.2)
        base = 4 * BENCH.per_round
        for tau, cut in ((2.0, 1), (2.5, 2)):
            assert _one_loss(BENCH, 4, tau, 0.55, ATT) == (
                base + binomial_cdf(spec_att, cut) * BENCH.false_accept
            )
            assert _one_loss(BENCH, 4, tau, 0.2, USER) == (
                base + binomial_sf(spec_use, cut + 1) * BENCH.false_reject
            )
        assert _one_loss(BENCH, 4, 2.0, 0.55, ATT) < _one_loss(
            BENCH, 4, 2.5, 0.55, ATT
        )


class TestExactExpectedLoss:
    def test_attacker_example(self):
        got = _one_loss(BENCH, 4, 2.0, 0.55, ProverIdentity.ATTACKER)
        assert got == pytest.approx(2.4548125, abs=1e-12)

    def test_user_example(self):
        got = _one_loss(BENCH, 4, 2.0, 0.2, ProverIdentity.USER)
        assert got == pytest.approx(0.2208, abs=1e-12)

    def test_zero_threshold_rejects_everything(self):
        got = _one_loss(BENCH, 9, 0.0, 0.55, ProverIdentity.ATTACKER)
        assert got == pytest.approx(0.09, abs=1e-15)

    def test_monotonicity_in_threshold(self):
        taus = np.linspace(0.0, 12.0, 49)
        att = [
            _one_loss(BENCH, 12, t, 0.55, ProverIdentity.ATTACKER)
            for t in taus
        ]
        use = [
            _one_loss(BENCH, 12, t, 0.2, ProverIdentity.USER) for t in taus
        ]
        assert all(a <= b + 1e-15 for a, b in zip(att, att[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(use, use[1:]))

    def test_worst_case_picks_larger_side(self):
        w = _one_worst(BENCH, SWISS_01, 4, 2.0)
        assert w == pytest.approx(2.4548125, abs=1e-12)

    def test_rejects_bad_error_rate_and_rounds(self):
        for p in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="attacker_rate"):
                exact_expected_losses(BENCH, [4], [2.0], p, 0.2)
            with pytest.raises(ValueError, match="user_rate"):
                exact_expected_losses(BENCH, [4], [2.0], 0.55, p)
        with pytest.raises(ValueError, match="rounds"):
            exact_expected_losses(BENCH, [0], [2.0], 0.55, 0.2)

    def test_rejects_round_counts_past_int64_before_any_work(self, monkeypatch):
        # int64 would wrap np.uint64(2**63) negative and overflow on 10**80
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the round counts were checked")

        monkeypatch.setattr("threshauth.exact._pmf_blocks", no_work)
        monkeypatch.setattr("threshauth.exact.rejected_count_min", no_work)
        limit = r"rounds must be integers in \[1, 9223372036854775807\]"
        for n in (2**63, np.uint64(2**63), 10**80):
            with pytest.raises(ValueError, match=limit):
                exact_expected_losses(BENCH, [3, n], [1.0, 1.0], 0.55, 0.2)


def _scalar_worst(params, rates, n, tau):
    """The worst-case loss from the scalar tails at the cut of the rule."""
    cut = math.ceil(min(max(tau, 0.0), n + 1.0))
    base = n * params.per_round
    return max(
        base + binomial_cdf(BinomialSpec(n, rates.attacker_floor), cut - 1) * params.false_accept,
        base + binomial_sf(BinomialSpec(n, rates.user_ceiling), cut) * params.false_reject,
    )


_MU = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def _enumerated_losses(params, n, tau, attacker_rate, user_rate):
    """Both exact losses at (n, tau), summed in integers over the counts c < tau."""
    accepted = sum(1 for c in range(n + 1) if c < tau)  # counts 0..accepted-1
    base = n * Fraction(params.per_round)
    acc = enumerated_mass(BinomialSpec(n, attacker_rate), 0, accepted)
    rej = enumerated_mass(BinomialSpec(n, user_rate), accepted, n + 1)
    return (
        float(base + acc * Fraction(params.false_accept)),
        float(base + rej * Fraction(params.false_reject)),
    )


@st.composite
def _designs(draw, rounds, sizes):
    """Round counts and thresholds: infinite, integer, fractional, outside [0, n + 1]."""
    ns = draw(st.lists(rounds, min_size=sizes[0], max_size=sizes[1]))
    taus = [
        draw(
            st.one_of(
                st.sampled_from([-math.inf, math.inf]),
                st.integers(-3, n + 3).map(float),
                st.floats(-n - 5.0, 2.0 * n + 5.0),
            )
        )
        for n in ns
    ]
    return ns, taus


_PARAMS = st.builds(
    LossParameters,
    _log_uniform(0.1, 1e3),
    _log_uniform(0.1, 1e6),
    st.one_of(st.just(0.0), _log_uniform(1e-5, 0.3)),
)


class TestExpectedLossesProperties:
    def _check(self, params, designs, attacker_rate, user_rate):
        ns, taus = designs
        att, use = exact_expected_losses(params, ns, taus, attacker_rate, user_rate)
        assert att.shape == use.shape == (len(ns),)
        for i, (n, tau) in enumerate(zip(ns, taus)):
            want_att, want_use = _enumerated_losses(params, n, tau, attacker_rate, user_rate)
            assert att[i] == pytest.approx(want_att, rel=1e-12, abs=TINY)
            assert use[i] == pytest.approx(want_use, rel=1e-12, abs=TINY)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        params=_PARAMS,
        designs=_designs(st.integers(1, 60), (1, 8)),
        attacker_rate=_MU,
        user_rate=_MU,
    )
    def test_match_integer_enumeration_at_any_rates(
        self, params, designs, attacker_rate, user_rate
    ):
        # the two rates are independent: the user may err as often as the
        # attacker or more, as on a physical channel above w = 1/2
        self._check(params, designs, attacker_rate, user_rate)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        params=_PARAMS,
        designs=_designs(st.sampled_from([600, 650, 700]), (28, 40)),
        # few round counts and rates k / 64 keep the enumeration of
        # 28-40 designs of up to 700 rounds cheap
        attacker_rate=st.integers(0, 64).map(lambda k: k / 64),
        user_rate=st.integers(0, 64).map(lambda k: k / 64),
    )
    def test_match_integer_enumeration_across_blocks(
        self, params, designs, attacker_rate, user_rate
    ):
        # at most _BLOCK_ENTRIES // 602 = 27 of these designs fit one block
        assert len(designs[0]) > _BLOCK_ENTRIES // (max(designs[0]) + 2)
        self._check(params, designs, attacker_rate, user_rate)

    def test_worst_case_is_the_larger_loss(self):
        rates = swiss_hitomi_rates(0.05)
        ns, taus = [4, 9, 30], [1.5, -math.inf, 12.0]
        att, use = exact_expected_losses(BENCH, ns, taus, rates.attacker_floor, rates.user_ceiling)
        worst = exact_worst_case_losses(BENCH, rates, ns, taus)
        assert worst.tobytes() == np.maximum(att, use).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(1, 40), tau=st.one_of(st.floats(allow_nan=False), st.integers(-3, 45)))
    def test_cut_decides_every_count_as_the_rule(self, n, tau):
        # accept when count < tau, for every count 0..n
        cut = rejected_count_min(tau, n)
        assert 0 <= cut <= n + 1
        for c in range(n + 1):
            assert (c < tau) == (c < cut)
        assert rejected_count_min(np.array([tau, tau]), np.array([n, n])).tolist() == [cut] * 2

    def test_cut_rejects_nan(self):
        with pytest.raises(ValueError, match="nan"):
            rejected_count_min(math.nan, 4)
        with pytest.raises(ValueError, match="nan"):
            rejected_count_min(np.array([1.0, math.nan]), np.array([4, 4]))


class TestRoundGridKernel:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        grid=st.lists(st.integers(1, 600), min_size=1, max_size=80),
        attacker_rate=_MU,
        user_rate=_MU,
    )
    @example(grid=[3, 1, 600, 17], attacker_rate=0.0, user_rate=1.0)
    @example(grid=[600, 2, 1], attacker_rate=1.0, user_rate=0.0)
    def test_block_matches_scalar_kernel_bitwise(self, grid, attacker_rate, user_rate):
        # a row's pmf and tails depend neither on the rows padded with it
        # nor on the other identity's rate
        ns = np.array(grid)
        terms = _PmfBlock(ns)
        assert terms.pad.tolist() == [[k > n for k in range(max(grid) + 1)] for n in grid]
        for mu in (attacker_rate, user_rate):
            rows = terms.pmf(mu)
            assert rows.shape == (len(grid), max(grid) + 1)
            for n, row in zip(grid, rows):
                assert row[: n + 1].tobytes() == binomial_pmf(n, mu).tobytes()
                assert row[n + 1 :].tobytes() == bytes(8 * (max(grid) - n))  # +0.0 only
        seen = 0
        for block, terms in _pmf_blocks(ns):
            assert block.start == seen and block.stop > seen
            block_ns = grid[block]
            seen += len(block_ns)
            assert terms.rounds.tolist() == block_ns
            acc_att = _tail(terms.pmf(attacker_rate), upper=False)
            rej_use = _tail(terms.pmf(user_rate), upper=True)
            for tails in (acc_att, rej_use):
                assert tails.shape == (len(block_ns), max(block_ns) + 2)
                assert tails.size <= _BLOCK_ENTRIES
            for n, acc, rej in zip(block_ns, acc_att, rej_use):
                want_acc = _tail(binomial_pmf(n, attacker_rate), upper=False)
                want_rej = _tail(binomial_pmf(n, user_rate), upper=True)
                assert acc[: n + 2].tobytes() == want_acc.tobytes()
                assert rej[: n + 2].tobytes() == want_rej.tobytes()
        assert seen == len(grid)

    def test_rate_free_terms_are_built_once_per_block(self, monkeypatch):
        built = []

        class CountingBlock(_PmfBlock):
            def __init__(self, rounds):
                built.append(len(rounds))
                super().__init__(rounds)

        monkeypatch.setattr("threshauth.exact._PmfBlock", CountingBlock)
        # _BLOCK_ENTRIES // (512 + 2) = 31 round counts a block: 17 blocks,
        # each built once for both identities
        brute_force_optimal(BENCH, SWISS_01, 512)
        assert len(built) == 17 and sum(built) == 512
        built.clear()
        ns = list(range(1, 513))
        exact_expected_losses(BENCH, ns, [n / 2 for n in ns], 0.55, 0.2)
        assert len(built) == 17 and sum(built) == 512

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
        rates = swiss_hitomi_rates(0.05)
        ns = list(range(1, 601, 2))
        for frac in (-1.0, 0.0, 0.17, 0.5, 0.999, 1.0, 1.5):
            taus = [frac * n + 0.25 * (n % 4) for n in ns]
            got = exact_worst_case_losses(BENCH, rates, ns, taus)
            want = [_scalar_worst(BENCH, rates, n, t) for n, t in zip(ns, taus)]
            assert got.tobytes() == np.array(want).tobytes()
        for tau in (-math.inf, math.inf):
            assert _one_worst(BENCH, rates, 7, tau) == pytest.approx(
                7 * BENCH.per_round + (BENCH.false_reject if tau < 0 else BENCH.false_accept)
            )
            assert _one_worst(BENCH, rates, 7, tau) == _scalar_worst(
                BENCH, rates, 7, tau
            )

    def test_batched_loss_rejects_bad_input(self):
        for rounds in ([0], [True], [2.5], [], [3, -1]):
            with pytest.raises(ValueError):
                exact_worst_case_losses(BENCH, SWISS_01, rounds, [1.0] * len(rounds))
        with pytest.raises(ValueError):
            exact_worst_case_losses(BENCH, SWISS_01, [3, 4], [1.0])
        with pytest.raises(ValueError, match="nan"):
            exact_worst_case_losses(BENCH, SWISS_01, [3], [math.nan])
        with pytest.raises(ValueError, match="nan"):
            exact_expected_losses(BENCH, [3, 4], [1.0, math.nan], 0.55, 0.2)


@st.composite
def _level_batches(draw):
    """Unsorted round counts with repeats, 1-30 rate pairs, and thresholds per level."""
    ns = draw(st.lists(st.integers(1, 600), min_size=1, max_size=70))
    levels = draw(st.integers(1, 30))
    rates = st.lists(_MU, min_size=levels, max_size=levels)
    attacker, user = draw(rates), draw(rates)
    return ns, _level_thresholds(draw, ns, levels).tolist(), attacker, user


def _level_thresholds(draw, ns, levels):
    """Thresholds of shape (levels, len(ns)) from a drawn seed: fractional,
    integer and infinite, inside and outside [0, n + 1]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taus = rng.uniform(-3.0, np.array(ns) + 4.0, size=(levels, len(ns)))
    kind = rng.integers(0, 4, size=taus.shape)
    taus = np.where(kind == 1, np.round(taus), taus)
    return np.where(kind == 2, np.copysign(math.inf, taus - 1.0), taus)


@st.composite
def _cut_batches(draw):
    """Unsorted, repeated round grids over several blocks, with thresholds at
    cuts 0, 1, n and n + 1 and fractional ones, and 1-3 rate pairs."""
    ns = draw(st.lists(st.integers(1, 600), min_size=30, max_size=70))
    ns += [600, ns[0]]  # 600 rounds make blocks of 27 round counts
    levels = draw(st.integers(1, 3))
    rates = st.lists(_MU, min_size=levels, max_size=levels)
    attacker, user = draw(rates), draw(rates)
    taus = [
        [
            draw(
                st.one_of(
                    st.sampled_from([-1.0, 0.0, 0.5, 1.0, n - 0.5, float(n), n + 1.0, math.inf]),
                    st.floats(0.0, n + 1.0),
                )
            )
            for n in ns
        ]
        for _ in range(levels)
    ]
    return ns, taus, attacker, user


def _flat(ns, taus, attacker, user):
    """A grid at each level's rate pair as designs: the call fig1a makes."""
    return (
        np.tile(ns, len(attacker)), np.concatenate(taus),
        np.repeat(attacker, len(ns)), np.repeat(user, len(ns)),
    )


class TestColumnRangedTails:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(batch=_cut_batches())
    @example(batch=([600] * 28 + [1, 2, 1], [[0.0] * 28 + [1.0, 3.0, 2.0]], [0.0], [1.0]))
    @example(batch=([600] * 28 + [5, 1, 5], [[601.0] * 28 + [6.0, 0.5, 5.0]], [1.0], [0.3]))
    def test_equal_the_tails_of_full_rows_bitwise(self, batch):
        ns, taus, attacker, user = batch
        att, use = exact_expected_losses(BENCH, *_flat(*batch))
        la, lu, lb = BENCH.false_accept, BENCH.false_reject, BENCH.per_round
        for j, (a, u) in enumerate(zip(attacker, user)):
            for i, n in enumerate(ns):
                cut = int(rejected_count_min(taus[j][i], n))
                acc = _tail(binomial_pmf(n, a), upper=False)[cut]
                rej = _tail(binomial_pmf(n, u), upper=True)[cut]
                acc = 1.0 if cut > n else min(1.0, acc)
                rej = 1.0 if cut == 0 else min(1.0, rej)
                d = j * len(ns) + i
                assert att[d].tobytes() == np.float64(n * lb + acc * la).tobytes()
                assert use[d].tobytes() == np.float64(n * lb + rej * lu).tobytes()


class TestLevelBatch:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(batch=_level_batches())
    @example(batch=([600] * 30 + [5, 1, 5], [[2.5] * 33, [math.inf] * 33], [0.0, 1.0], [1.0, 0.0]))
    def test_equals_one_call_per_level_bitwise(self, batch):
        # every level's grid in one call, as fig1a makes it, against one
        # call per level with its rate pair shared by the grid
        ns, taus, attacker, user = batch
        att, use = exact_expected_losses(BENCH, *_flat(*batch))
        assert att.shape == use.shape == (len(attacker) * len(ns),)
        att, use = att.reshape(len(attacker), len(ns)), use.reshape(len(attacker), len(ns))
        for j, (a, u) in enumerate(zip(attacker, user)):
            want_att, want_use = exact_expected_losses(BENCH, ns, taus[j], a, u)
            assert att[j].tobytes() == want_att.tobytes()
            assert use[j].tobytes() == want_use.tobytes()

    def test_builds_each_block_once_for_all_levels(self, monkeypatch):
        built = []

        class CountingBlock(_PmfBlock):
            def __init__(self, rounds):
                built.append(len(rounds))
                super().__init__(rounds)

        monkeypatch.setattr("threshauth.exact._PmfBlock", CountingBlock)
        ns = list(range(1, 257))
        batch = ns, [[n / 2 for n in ns]] * 24, [0.55] * 24, [0.2] * 24
        exact_expected_losses(BENCH, *_flat(*batch))
        # one walk over the 256 distinct round counts for all 24 rate pairs:
        # _BLOCK_ENTRIES // (256 + 2) = 63 round counts a block
        assert built == [63, 63, 63, 63, 4]

    def test_transient_memory_does_not_scale_with_levels(self):
        # the rate pairs share each block's arrays one at a time rather than
        # stacking their pmf rows; what grows with the designs is their
        # inputs, losses and sort order, about 80 bytes a design
        ns = list(range(1, 257))
        rates = [swiss_hitomi_rates(w) for w in np.geomspace(1e-3, 0.3, 24)]
        taus = [[n * 0.4 for n in ns]] * len(rates)
        att = [r.attacker_floor for r in rates]
        use = [r.user_ceiling for r in rates]
        designs = _flat(ns, taus, att, use)

        def peak(call):
            call()  # one-time allocations stay out of the peak
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(lambda: exact_expected_losses(BENCH, ns, taus[0], att[0], use[0]))
        every = peak(lambda: exact_expected_losses(BENCH, *designs))
        # 24 rate pairs' pmf rows of one block, stacked, would add about 3.5 MB
        assert every <= one + 200 * len(designs[0])

    def test_rejects_mismatched_levels(self, monkeypatch):
        def no_block(*args, **kwargs):
            raise AssertionError("a block was built before the inputs were checked")

        monkeypatch.setattr("threshauth.exact._PmfBlock", no_block)
        # thresholds of shape (levels, len(rounds)) are not a call shape
        with pytest.raises(ValueError):
            exact_expected_losses(BENCH, [3, 4], [[1.0, 2.0], [1.0, 2.0]], [0.55, 0.6], [0.2, 0.1])
        with pytest.raises(ValueError):
            exact_expected_losses(BENCH, [3, 4], [[1.0, 2.0]], [0.55, 0.6], [0.2, 0.1])
        with pytest.raises(ValueError):
            exact_expected_losses(BENCH, [3, 4], [[1.0, 2.0]], 0.55, 0.2)
        with pytest.raises(ValueError):
            exact_expected_losses(BENCH, [3, 4], [1.0, 2.0], [0.55], [0.2])
        with pytest.raises(ValueError):
            exact_expected_losses(BENCH, [3], [[1.0]], [[0.55]], [[0.2]])
        with pytest.raises(ValueError):
            exact_expected_losses(BENCH, [3], [1.0], [[0.55]], [[0.2]])


@st.composite
def _per_design_batches(draw):
    """Unsorted round counts with repeats, each design at one of 1-6 rate pairs
    that recur out of order, and thresholds at or below 0, past n, infinite
    and fractional."""
    ns = draw(st.lists(st.integers(1, 600), min_size=1, max_size=70))
    pairs = draw(st.lists(st.tuples(_MU, _MU), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pairs) - 1), min_size=len(ns), max_size=len(ns)))
    taus = [
        draw(
            st.one_of(
                st.sampled_from([-math.inf, -1.0, 0.0, float(n), n + 0.5, n + 1.0, math.inf]),
                st.floats(-3.0, n + 4.0),
            )
        )
        for n in ns
    ]
    return ns, taus, [pairs[k][0] for k in picks], [pairs[k][1] for k in picks]


@st.composite
def _shuffled_grid_batches(draw):
    """fig1a's designs in shuffled order: 2-5 rate pairs, each over one shared
    grid of 28-60 distinct round counts that crosses a block boundary."""
    grid = [600, *draw(st.sets(st.integers(1, 599), min_size=27, max_size=59))]
    pairs = draw(st.lists(st.tuples(_MU, _MU), min_size=2, max_size=5))
    taus = _level_thresholds(draw, grid, len(pairs))
    ns, taus, attacker, user = _flat(grid, taus, *zip(*pairs))
    shuffle = draw(st.permutations(range(len(ns))))
    return ns[shuffle].tolist(), taus[shuffle].tolist(), attacker[shuffle], user[shuffle]


class TestPerDesignRates:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(batch=st.one_of(_per_design_batches(), _shuffled_grid_batches()))
    # 600 rounds make blocks of 27 round counts, so these 31 cross a block
    # boundary, with rate pairs recurring on both sides of it
    @example(batch=(
        [600] * 28 + [5, 1, 5],
        [2.5] * 26 + [-math.inf, 601.0, 0.0, math.inf, 5.5],
        [0.0, 1.0, 0.3] * 9 + [0.0, 0.3, 1.0, 0.0],
        [1.0, 0.0, 0.2] * 9 + [1.0, 0.2, 0.0, 1.0],
    ))
    def test_equals_one_scalar_call_per_design_bitwise(self, batch):
        ns, taus, attacker, user = batch
        att, use = exact_expected_losses(BENCH, ns, taus, attacker, user)
        assert att.shape == use.shape == (len(ns),)
        for i, (n, tau, a, u) in enumerate(zip(ns, taus, attacker, user)):
            want_att, want_use = exact_expected_losses(BENCH, [n], [tau], a, u)
            assert att[i].tobytes() == want_att[0].tobytes()
            assert use[i].tobytes() == want_use[0].tobytes()

    def test_a_rate_pair_is_one_pmf_per_side_per_block(self, monkeypatch):
        built, pmfs = [], []
        pmf = _PmfBlock.pmf

        class CountingBlock(_PmfBlock):
            def __init__(self, rounds):
                built.append(len(rounds))
                super().__init__(rounds)

            def pmf(self, mu, cols=slice(None), rows=slice(None)):
                pmfs.append(mu)
                return pmf(self, mu, cols, rows)

        monkeypatch.setattr("threshauth.exact._PmfBlock", CountingBlock)
        # three rate pairs recurring out of order over 100 designs of 40
        # distinct round counts: one block of those 40
        pairs = [(0.55, 0.2), (0.6, 0.3), (0.505, 0.0199)]
        attacker, user = zip(*(pairs[i % 3] for i in range(100)))
        ns = [1 + i % 40 for i in range(100)]
        exact_expected_losses(BENCH, ns, [n / 2 for n in ns], attacker, user)
        assert built == [40]
        assert sorted(pmfs) == sorted(rate for pair in pairs for rate in pair)

    def test_a_groups_designs_are_blocked_in_order_of_round_count(self, monkeypatch):
        monkeypatch.setattr("threshauth.exact._BLOCK_ENTRIES", 200)
        blocks, pmfs = [], []
        pmf = _PmfBlock.pmf

        class RecordingBlock(_PmfBlock):
            def __init__(self, rounds):
                blocks.append(rounds.tolist())
                super().__init__(rounds)

            def pmf(self, mu, cols=slice(None), rows=slice(None)):
                pmfs.append((mu, self.rounds[rows].tolist()))
                return pmf(self, mu, cols, rows)

        monkeypatch.setattr("threshauth.exact._PmfBlock", RecordingBlock)
        # two rate pairs, first seen in the order (0.6, 0.3), (0.55, 0.2)
        ns = [40, 3, 17, 39, 1, 25, 8, 33]
        attacker = [0.6, 0.55, 0.6, 0.55, 0.6, 0.55, 0.6, 0.55]
        user = [0.3, 0.2, 0.3, 0.2, 0.3, 0.2, 0.3, 0.2]
        taus = [n / 2 for n in ns]
        att, use = exact_expected_losses(BENCH, ns, taus, attacker, user)
        # 200 entries hold four padded rows of 40 rounds: the distinct round
        # counts in order, in blocks shared by both pairs
        assert blocks == [[1, 3, 8, 17], [25, 33, 39, 40]]
        # in each block, each pair's designs by round count, pairs by rate
        assert pmfs == [
            (0.55, [3]), (0.2, [3]), (0.6, [1, 8, 17]), (0.3, [1, 8, 17]),
            (0.55, [25, 33, 39]), (0.2, [25, 33, 39]), (0.6, [40]), (0.3, [40]),
        ]
        for i, (n, tau, a, u) in enumerate(zip(ns, taus, attacker, user)):
            want_att, want_use = exact_expected_losses(BENCH, [n], [tau], a, u)
            assert (att[i], use[i]) == (want_att[0], want_use[0])

    @pytest.mark.parametrize("bad", [
        dict(attacker=[0.55, 0.6, 0.7], user=[0.2, 0.1, 0.3]),
        dict(ns=[3, 4, 5], attacker=[0.55, 0.6, 0.7], user=[0.2, 0.1, 0.3]),
        dict(taus=[1.0, 2.0, 3.0]),
        dict(user=[0.2]),
        dict(attacker=[0.55, math.nan]),
        dict(user=[math.nan, 0.1]),
    ], ids=lambda bad: ",".join(bad))
    def test_rejects_mismatched_lengths_and_nan_before_any_block(self, bad, monkeypatch):
        def no_block(*args, **kwargs):
            raise AssertionError("a block was built before the inputs were checked")

        monkeypatch.setattr("threshauth.exact._PmfBlock", no_block)
        args = dict(ns=[3, 4], taus=[1.0, 2.0], attacker=[0.55, 0.6], user=[0.2, 0.1]) | bad
        with pytest.raises(ValueError):
            exact_expected_losses(BENCH, args["ns"], args["taus"], args["attacker"], args["user"])


def _reference_brute_force(params, rates, n_max):
    """The search one round count at a time, keeping the first strict improvement."""
    best = BruteForceResult(1, 0, math.inf)
    la, lu, lb = params.false_accept, params.false_reject, params.per_round
    for n in range(1, n_max + 1):
        acc_att = _tail(binomial_pmf(n, rates.attacker_floor), upper=False)[:-1]
        rej_use = _tail(binomial_pmf(n, rates.user_ceiling), upper=True)[:-1]
        worst = np.maximum(n * lb + acc_att * la, n * lb + rej_use * lu)
        t = int(np.argmin(worst))
        if worst[t] < best.worst_loss:
            best = BruteForceResult(n, t, float(worst[t]))
    return best


def _enumerated_loss(params, rates, n, t):
    """Exact worst-case loss at (n, t), summed in integers."""
    base = n * Fraction(params.per_round)
    acc = enumerated_mass(BinomialSpec(n, rates.attacker_floor), 0, t)
    rej = enumerated_mass(BinomialSpec(n, rates.user_ceiling), t, n + 1)
    return max(
        base + acc * Fraction(params.false_accept), base + rej * Fraction(params.false_reject)
    )


@st.composite
def _separated_rates(draw):
    # exact 0 and 1 give the one-hot pmf rows
    pu = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.9)))
    pa = draw(st.one_of(st.just(1.0), st.floats(pu, 1.0).filter(lambda p: p > pu)))
    return ErrorRateBounds(attacker_floor=pa, user_ceiling=pu)


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
        # n_max = 200 spans three blocks
        params = LossParameters(5.0, 3.0, 0.0)
        rates = ErrorRateBounds(attacker_floor=1.0, user_ceiling=0.0)
        for n_max in (4, 200):
            assert brute_force_optimal(params, rates, n_max) == BruteForceResult(1, 1, 0.0)
        # at one round, thresholds 0 and 1 both lose exactly 0.5 + 1.0 (dyadic
        # masses), and every longer design costs more; the scan keeps 0
        params = LossParameters(2.0, 1.0, 0.5)
        rates = ErrorRateBounds(attacker_floor=0.5, user_ceiling=0.25)
        for n_max in (1, 200):
            assert brute_force_optimal(params, rates, n_max) == BruteForceResult(1, 0, 1.5)

    def test_symmetric_setup_ties_within_fixed_rounds(self):
        # mirrored rates and equal decision losses score thresholds 1 and
        # 2 identically at n=2; a search capped there still prefers the
        # strictly better single-round rule
        params = LossParameters(1.0, 1.0, 1e-6)
        rates = ErrorRateBounds(attacker_floor=0.7, user_ceiling=0.3)
        tie_a = _one_worst(params, rates, 2, 1.0)
        tie_b = _one_worst(params, rates, 2, 2.0)
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
        rates = swiss_hitomi_rates(w)
        res = brute_force_optimal(params, rates, 128)
        n, t = res.rounds, res.threshold
        base = n * Fraction(lb)
        att = base + enumerated_mass(BinomialSpec(n, rates.attacker_floor), 0, t) * Fraction(la)
        use = base + enumerated_mass(BinomialSpec(n, rates.user_ceiling), t, n + 1) * Fraction(lu)
        assert res.worst_loss == pytest.approx(float(max(att, use)), rel=1e-12)
        got_att, got_use = exact_expected_losses(
            params, [n], [t], rates.attacker_floor, rates.user_ceiling
        )
        assert got_att[0] == pytest.approx(float(att), rel=1e-12)
        assert got_use[0] == pytest.approx(float(use), rel=1e-12)

    def test_rejects_non_integer_budget(self):
        # n_max = 2.5 would scan round counts 1..3
        for n_max in (2.5, 3.0, True, 0, -4):
            with pytest.raises(ValueError, match="n_max"):
                brute_force_optimal(BENCH, SWISS_01, n_max)

    @pytest.mark.parametrize("n_max", [1, 30, 31, 32, 200, 512])
    def test_blocked_scan_matches_one_round_count_at_a_time(self, n_max):
        # from one block up to 17 blocks of padded tail rows
        cases = [
            (BENCH, SWISS_01),
            (LossParameters(10.0, 1.0, 1e-4), swiss_hitomi_rates(0.05)),
            (LossParameters(1.0, 1e9, 1e-3), swiss_hitomi_rates(0.01)),
            (LossParameters(2.0, 7.0, 0.0), ErrorRateBounds(attacker_floor=0.6, user_ceiling=0.0)),
            (LossParameters(5.0, 3.0, 0.0), ErrorRateBounds(attacker_floor=1.0, user_ceiling=0.4)),
        ]
        for params, rates in cases:
            got = brute_force_optimal(params, rates, n_max)
            want = _reference_brute_force(params, rates, n_max)
            assert (got.rounds, got.threshold) == (want.rounds, want.threshold)
            assert got.worst_loss.hex() == want.worst_loss.hex()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        la=_log_uniform(0.1, 1e3),
        lu=_log_uniform(0.1, 1e6),
        lb=st.one_of(st.just(0.0), _log_uniform(1e-5, 0.3)),
        rates=_separated_rates(),
        n_max=st.integers(1, 16),
    )
    def test_optimum_is_global_by_enumeration(self, la, lu, lb, rates, n_max):
        params = LossParameters(la, lu, lb)
        res = brute_force_optimal(params, rates, n_max)
        assert 1 <= res.rounds <= n_max and 0 <= res.threshold <= res.rounds
        best = _enumerated_loss(params, rates, res.rounds, res.threshold)
        assert res.worst_loss == pytest.approx(float(best), rel=1e-12)
        for n in range(1, n_max + 1):
            for t in range(n + 1):
                assert float(_enumerated_loss(params, rates, n, t)) >= float(best) * (1 - 1e-12)
