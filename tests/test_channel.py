"""Tests for the channel mapping and the deterministic Monte Carlo layer."""

import ast
import contextlib
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    enumerated_cdf,
    one_design_counts,
    one_design_score,
    one_shot_cdf_table,
    seeded_bits,
    spy_stream_builds,
)
from threshauth import channel
from threshauth.bounds import threshold_loss_bound
from threshauth.channel import (
    _cdf_rows,
    _seed_words,
    _streams,
    attacker_per_round_error,
    score_histograms,
    simulate_error_counts,
    simulate_error_histograms,
    swiss_hitomi_rates,
    user_per_round_error,
)
from threshauth.exact import BinomialSpec
from threshauth.loss import GapCollapseError, LossParameters, ProverIdentity, rejected_count_min
from threshauth.noise import TransparentCode, simulate_coded_phase

BENCH = LossParameters(false_accept=10.0, false_reject=1.0, per_round=1e-2)


def _coded_phase(w):
    return simulate_coded_phase(w, TransparentCode(8, 2), np.random.Generator(np.random.PCG64(0)))


class TestChannelModel:
    # a channel is its flip probability; both entry points that take one
    # check that it lies in [0,1]
    def test_accepts_valid_probabilities(self):
        assert swiss_hitomi_rates(0.0).user_ceiling == 0.0
        assert _coded_phase(0.0) == (0, False)
        assert _coded_phase(1.0) == (8, True)

    def test_rejects_out_of_range(self):
        # 1.5 and nan are no channel at all, not a channel whose rate
        # bounds collapse: the range check runs before the gap check
        for w in (-0.1, 1.5, math.nan):
            for call in (swiss_hitomi_rates, _coded_phase):
                with pytest.raises(ValueError, match=r"not in \[0,1\]") as caught:
                    call(w)
                assert not isinstance(caught.value, GapCollapseError)


class TestPerRoundErrorRates:
    def test_attacker_rate(self):
        assert attacker_per_round_error(0.1) == pytest.approx(0.55)
        assert attacker_per_round_error(0.0) == pytest.approx(0.5)

    def test_user_rate_at_bound(self):
        # the ceiling the bounds are designed against: twice the flip
        # probability
        for w in (0.0, 0.01, 0.1, 0.3):
            assert swiss_hitomi_rates(w).user_ceiling == 2.0 * w

    def test_user_rate_physical(self):
        assert user_per_round_error(0.1) == pytest.approx(0.19)
        assert user_per_round_error(0.0) == 0.0
        assert user_per_round_error(1.0) == 1.0

    def test_physical_never_exceeds_bound(self):
        for w in np.linspace(0.0, 1.0 / 3.0, 26, endpoint=False):
            assert user_per_round_error(w) <= swiss_hitomi_rates(w).user_ceiling


class TestSwissHitomiRates:
    def test_frozen_examples(self):
        r = swiss_hitomi_rates(0.1)
        assert r.attacker_floor == pytest.approx(0.55)
        assert r.user_ceiling == pytest.approx(0.2)
        assert r.gap == pytest.approx(0.35)

        r = swiss_hitomi_rates(0.0)
        assert (r.attacker_floor, r.user_ceiling) == (0.5, 0.0)

        r = swiss_hitomi_rates(0.01)
        assert r.attacker_floor == pytest.approx(0.505)
        assert r.user_ceiling == pytest.approx(0.02)
        assert r.gap == pytest.approx(0.485)

    def test_collapses_at_one_third(self):
        with pytest.raises(GapCollapseError):
            swiss_hitomi_rates(1.0 / 3.0)
        with pytest.raises(GapCollapseError):
            swiss_hitomi_rates(0.4)

    # the k-th double below 1/3 is 1/3 - k * 2**-54, its spacing there
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(w=st.floats(0.0, 1.0) | st.integers(1, 2**20).map(lambda k: 1.0 / 3.0 - k * 2.0**-54))
    @example(w=math.nextafter(1.0 / 3.0, 0.0))
    @example(w=1.0 / 3.0)
    def test_collapses_exactly_from_one_third(self, w):
        # fig1a and fig1b write their gap-collapse rows after every live
        # level's, which holds for a sorted grid only if no w below 1/3 collapses
        if w >= 1.0 / 3.0:
            with pytest.raises(GapCollapseError):
                swiss_hitomi_rates(w)
        else:
            assert swiss_hitomi_rates(w).gap > 0.0

    def test_survives_just_below_one_third(self):
        r = swiss_hitomi_rates(1.0 / 3.0 - 1e-9)
        assert r.gap > 0.0


def _swiss_bound(w, rounds):
    # the protocol family's loss bound: the generic bound on its rates
    return threshold_loss_bound(BENCH, swiss_hitomi_rates(w), rounds)


class TestLossBoundOnSwissRates:
    def test_frozen_value(self):
        assert _swiss_bound(0.1, 64) == pytest.approx(0.7027430506634064, abs=1e-12)

    def test_agrees_with_rate_mapped_bound(self):
        # the noise form n*lb + exp(-n (1-3w)^2 / 8) sqrt(la*lu), written
        # out independently, must match the generic bound evaluated on
        # the mapped rates across the whole valid range
        for w in (0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 1.0 / 3.0 - 1e-6):
            for n in (1, 7, 64):
                noise_form = n * BENCH.per_round + math.exp(
                    -n * (1.0 - 3.0 * w) ** 2 / 8.0
                ) * math.sqrt(BENCH.false_accept * BENCH.false_reject)
                assert _swiss_bound(w, n) == pytest.approx(noise_form, rel=1e-12)

    def test_increases_with_noise(self):
        vals = [_swiss_bound(w, 64) for w in np.linspace(0, 0.33, 12)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_noise_limit_saturates_to_full_decision_term(self):
        bound = _swiss_bound(1.0 / 3.0 - 1e-12, 64)
        assert bound == pytest.approx(0.64 + math.sqrt(10.0), rel=1e-9)

    def test_rejects_collapsed_channel_and_bad_rounds(self):
        with pytest.raises(GapCollapseError):
            _swiss_bound(0.34, 64)
        with pytest.raises(ValueError):
            _swiss_bound(0.1, 0)


def _hist(counts, rounds=8):
    # the histogram that simulate_error_counts would return for these counts
    return np.bincount(counts, minlength=rounds + 1)


def _score_cut(histogram, cut, identity, per_round_error):
    # one histogram under one cut, scored by the batched scorer, whose
    # numbers must be the one-design oracle's bits
    means, stderrs = score_histograms((histogram,), (0,), (cut,), BENCH, identity, per_round_error)
    got = float(means[0]), float(stderrs[0])
    assert _bits(got) == _bits(one_design_score(histogram, cut, BENCH, identity, per_round_error))
    return got


def _score(histogram, threshold, identity, per_round_error):
    # scores the rule "accept when count < threshold" through its cut
    return _score_cut(histogram, rejected_count_min(threshold, 8), identity, per_round_error)


class TestScoreCounts:
    def test_threshold_comparison_is_strict(self):
        # zero threshold rejects even an error-free run
        mean, _ = _score(_hist([0]), 0.0, ProverIdentity.USER, 0.2)
        assert mean == pytest.approx(0.08 + 1.0)

    def test_saturated_thresholds_give_exact_means(self):
        # below every count the rule always rejects, above every count it
        # always accepts, whatever the draw
        att = simulate_error_counts(8, 0.55, 300, 5, ProverIdentity.ATTACKER)
        use = simulate_error_counts(8, 0.2, 300, 5, ProverIdentity.USER)
        base = 8 * BENCH.per_round
        reject, accept = -3.0, 13.0
        assert _score(att, reject, ProverIdentity.ATTACKER, 0.55)[0] == base
        assert _score(use, reject, ProverIdentity.USER, 0.2)[0] == base + BENCH.false_reject
        assert _score(att, accept, ProverIdentity.ATTACKER, 0.55)[0] == base + BENCH.false_accept
        assert _score(use, accept, ProverIdentity.USER, 0.2)[0] == base

    def test_constant_counts_give_exact_round_cost(self):
        # per-round errors of 0 and 1 make every count equal: the user is
        # always accepted, the attacker always rejected, and both means
        # are exactly the round cost with no sampling error
        never_wrong = simulate_error_counts(8, 0.0, 500, 11, ProverIdentity.USER)
        always_wrong = simulate_error_counts(8, 1.0, 500, 11, ProverIdentity.ATTACKER)
        assert _score(never_wrong, 4.0, ProverIdentity.USER, 0.0) == (0.08, 0.0)
        assert _score(always_wrong, 4.0, ProverIdentity.ATTACKER, 1.0) == (0.08, 0.0)

    def test_rejects_out_of_range_cut(self):
        # a histogram of 8 rounds has 9 entries; a cut runs from 0 (reject
        # all) to 9 (accept all), and a negative one must not slice from
        # the end
        histogram = _hist([0, 3, 8])
        for cut in (-1, 10):
            with pytest.raises(ValueError, match="cut"):
                _score_cut(histogram, cut, ProverIdentity.USER, 0.2)
        assert _score_cut(histogram, 0, ProverIdentity.ATTACKER, 0.55)[0] == 0.08
        assert _score_cut(histogram, 9, ProverIdentity.USER, 0.2)[0] == 0.08


def _binomial_moment_sigmas(rounds, p, size=200_000):
    """|mean - n p| and |variance - n p q| of simulated counts, in sigmas."""
    histogram = simulate_error_counts(rounds, p, size, 1729, ProverIdentity.USER)
    assert histogram.shape == (rounds + 1,)
    assert histogram.min() >= 0 and histogram.sum() == size
    k = np.arange(rounds + 1)
    mean = k @ histogram / size
    sample_var = (k - mean) ** 2 @ histogram / (size - 1)
    var = rounds * p * (1.0 - p)
    # central fourth moment of a binomial: n p q (1 + 3 (n - 2) p q)
    mu4 = var * (1.0 + 3.0 * (rounds - 2) * p * (1.0 - p))
    z_mean = (mean - rounds * p) / math.sqrt(var / size)
    z_var = (sample_var - var) / math.sqrt((mu4 - var**2) / size)
    return abs(z_mean), abs(z_var)


class TestStreamLayout:
    def test_degenerate_rates_give_constant_counts(self):
        zeros = simulate_error_counts(8, 0.0, 100, 7, ProverIdentity.USER)
        ones = simulate_error_counts(8, 1.0, 100, 7, ProverIdentity.ATTACKER)
        assert zeros.dtype == ones.dtype == np.int64
        assert zeros.tolist() == [100] + [0] * 8
        assert ones.tolist() == [0] * 8 + [100]
        # zero rounds can make no error, whatever the rate
        assert simulate_error_counts(0, 0.3, 5, 7, ProverIdentity.USER).tolist() == [5]

    def test_counts_have_binomial_moments_by_inversion(self):
        # n p = 12.8: a short table whose mass sits well inside it
        z_mean, z_var = _binomial_moment_sigmas(64, 0.2)
        assert z_mean < 5.0
        assert z_var < 5.0

    def test_counts_have_binomial_moments_on_a_saturating_table(self):
        # n p = 307.2: a 1025-entry table that rounds to 1.0 long before its end
        z_mean, z_var = _binomial_moment_sigmas(1024, 0.3)
        assert z_mean < 5.0
        assert z_var < 5.0

    def test_same_seed_reproduces_counts(self):
        a = simulate_error_counts(32, 0.3, 50, 42, ProverIdentity.USER)
        b = simulate_error_counts(32, 0.3, 50, 42, ProverIdentity.USER)
        c = simulate_error_counts(32, 0.3, 50, 43, ProverIdentity.USER)
        assert a.tolist() == b.tolist()
        assert a.tolist() != c.tolist()

    def test_identities_use_disjoint_streams(self):
        a = simulate_error_counts(64, 0.5, 50, 123, ProverIdentity.USER)
        b = simulate_error_counts(64, 0.5, 50, 123, ProverIdentity.ATTACKER)
        assert a.tolist() != b.tolist()

    def test_integer_and_sequence_seeds_agree(self):
        a = simulate_error_counts(16, 0.4, 20, 5, ProverIdentity.USER)
        b = simulate_error_counts(16, 0.4, 20, (5,), ProverIdentity.USER)
        assert a.tolist() == b.tolist()

    def test_rejects_bad_trial_parameters(self):
        with pytest.raises(ValueError):
            simulate_error_counts(8, 0.3, 0, 1, ProverIdentity.USER)
        for p in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="per_round_error"):
                simulate_error_counts(8, p, 10, 1, ProverIdentity.USER)
        # a fractional count of rounds is refused, not truncated
        for rounds in (-1, 2.5, True, "8"):
            with pytest.raises(ValueError, match="rounds"):
                simulate_error_counts(rounds, 0.3, 10, 1, ProverIdentity.USER)


EPS = sys.float_info.epsilon


def _chi_square_excess(rounds, p, trials=100_000):
    """Pearson's statistic of simulated counts against enumerated
    expectations, in units of its 1e-7 upper quantile.

    Counts with fewer than five expected hits are pooled into the end
    bins; the quantile is the Wilson-Hilferty (1931) approximation.
    """
    observed = simulate_error_counts(rounds, p, trials, 1729, ProverIdentity.USER)
    assert observed.shape == (rounds + 1,) and observed.sum() == trials
    expected = trials * np.diff(enumerated_cdf(BinomialSpec(rounds, p)), prepend=0.0)
    kept = np.flatnonzero(expected >= 5.0)
    lo, hi = kept[0], kept[-1]
    obs = observed[lo : hi + 1].astype(float)
    exp = expected[lo : hi + 1].copy()
    obs[0], exp[0] = observed[: lo + 1].sum(), expected[: lo + 1].sum()
    obs[-1], exp[-1] = observed[hi:].sum(), expected[hi:].sum()
    stat = float(np.sum((obs - exp) ** 2 / exp))
    df = len(obs) - 1
    z = 5.2  # upper tail ~1e-7
    quantile = df * (1.0 - 2.0 / (9.0 * df) + z * math.sqrt(2.0 / (9.0 * df))) ** 3
    return stat / quantile


class TestInversionSampler:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 200), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_cdf_table_matches_integer_enumeration(self, rounds, p):
        table = _cdf_row(rounds, p)
        exact = np.array(enumerated_cdf(BinomialSpec(rounds, p)))
        assert table.shape == (rounds + 1,)
        assert np.max(np.abs(table - exact)) <= 16 * rounds * EPS
        assert np.all(np.diff(table) >= 0.0)
        assert table[-1] == 1.0

    def test_counts_fit_the_binomial_in_the_fig3_regime(self):
        assert _chi_square_excess(64, 0.53) < 1.0

    def test_counts_fit_the_binomial_for_rare_errors(self):
        assert _chi_square_excess(1024, 0.002) < 1.0

    def test_channel_does_not_import_the_exact_oracle(self):
        # the Monte Carlo checks the exact oracle, so it must not sample from it
        tree = ast.parse(Path(channel.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                assert "exact" not in module.split("."), ast.unparse(node)


@contextlib.contextmanager
def _fresh_log_factorials():
    """Run with the shared log-factorial table back at its start, log 0! alone."""
    saved = channel._log_factorials
    channel._log_factorials = saved[:1]
    try:
        yield
    finally:
        channel._log_factorials = saved


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def _cdf_row(rounds, p):
    # Pr(X <= k), k = 0..rounds: the one row of a one-design block
    return _cdf_rows(np.array([rounds]), ((p,),))[0][0]


_OPEN_RATE = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


class TestLogFactorialTable:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2048),
                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            ),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from(["ascending", "descending", "random"]),
    )
    @example([(0, 0.5), (2048, 0.3), (1, 1e-300)], "random")
    def test_tables_are_the_one_shot_bits_whatever_order_the_table_grew_in(self, calls, order):
        if order != "random":
            calls = sorted(calls, reverse=order == "descending")
        with _fresh_log_factorials():
            for rounds, p in calls:
                assert _bits(_cdf_row(rounds, p)) == _bits(one_shot_cdf_table(rounds, p))
            table = channel._log_factorials
            # grown to the largest count asked for, each entry lgamma(k + 1)
            assert len(table) == max(rounds for rounds, _ in calls) + 1
            assert _bits(table) == _bits([math.lgamma(k + 1) for k in range(len(table))])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2048), st.lists(_OPEN_RATE, min_size=2, max_size=2)),
            min_size=1,
            max_size=8,
        ),
        st.integers(1, 2),
    )
    @example([(2048, [1e-300, 0.999]), (0, [0.999, 1e-300]), (1, [1e-300, 0.999])], 2)
    def test_each_row_of_a_block_is_the_one_shot_table_at_its_own_rate(self, designs, sides):
        rounds = [n for n, _ in designs]
        rates = [[ps[s] for _, ps in designs] for s in range(sides)]
        blocks = _cdf_rows(np.array(rounds), rates)
        assert len(blocks) == sides
        for side, block in zip(rates, blocks):
            assert block.shape == (len(rounds), max(rounds) + 1)
            for n, p, row in zip(rounds, side, block):
                assert _bits(row[: n + 1]) == _bits(one_shot_cdf_table(n, p))

    def test_each_growth_computes_only_the_new_entries(self, monkeypatch):
        computed = []
        lgamma = math.lgamma
        monkeypatch.setattr(channel.math, "lgamma", lambda x: computed.append(x) or lgamma(x))
        with _fresh_log_factorials():
            for rounds in (10, 4, 10, 25):
                _cdf_row(rounds, 0.25)
        # log 0! is there from the start; log k! is lgamma(k + 1), so the
        # first growth asks for 2..11, the next two for nothing, the last for 12..26
        assert computed == list(range(2, 27))

    def test_views_of_the_table_are_read_only(self):
        view = channel._log_factorial_table(16)
        assert len(view) == 17 and not view.flags.writeable
        with pytest.raises(ValueError):
            view[3] = 0.0
        with pytest.raises(ValueError):
            view.flags.writeable = True

    def test_mutating_a_returned_table_leaves_the_next_call_unchanged(self):
        table = _cdf_row(300, 0.2)
        want = _bits(table)
        assert not np.shares_memory(table, channel._log_factorials)
        table[:] = -1.0
        assert _bits(_cdf_row(300, 0.2)) == want
        assert _bits(_cdf_row(120, 0.7)) == _bits(one_shot_cdf_table(120, 0.7))

    def test_mutating_a_returned_histogram_leaves_the_next_call_unchanged(self):
        args = (300, 0.2, 5_000, 1729, ProverIdentity.USER)
        histogram = simulate_error_counts(*args)
        want = histogram.copy()
        assert not np.shares_memory(histogram, channel._log_factorials)
        histogram[:] = 7
        np.testing.assert_array_equal(simulate_error_counts(*args), want)


class TestMultinomialDraw:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.integers(0, 1024),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        st.integers(1, 5_000),
        st.one_of(
            st.integers(0, 2**63), st.tuples(st.integers(0, 2**32), st.integers(0, 64))
        ),
    )
    # tables that round to 1.0 long before their end, and that start
    # with masses that underflow to 0
    @example(1024, 0.3, 5_000, 1729)
    @example(1024, 0.999, 5_000, (7, 3))
    def test_histogram_is_a_seeded_draw_over_the_table(self, rounds, p, trials, seed):
        identity = ProverIdentity.ATTACKER
        got = simulate_error_counts(rounds, p, trials, seed, identity)
        assert got.dtype == np.int64 and got.shape == (rounds + 1,)
        assert got.min() >= 0 and got.sum() == trials
        if p in (0.0, 1.0):
            mass = np.zeros(rounds + 1)
            mass[rounds if p == 1.0 else 0] = 1.0
        else:
            mass = np.diff(_cdf_row(rounds, p), prepend=0.0)
        # the analogue of "no count past rounds": nothing lands where the
        # table has no mass, such as past the entry where it reaches 1.0
        assert not got[mass == 0.0].any()
        np.testing.assert_array_equal(simulate_error_counts(rounds, p, trials, seed, identity), got)

    def test_counts_fit_the_binomial_on_a_long_table(self):
        # 1025 entries and n p = 542.7: many conditional binomials per draw
        assert _chi_square_excess(1024, 0.53) < 1.0

    def test_memory_does_not_grow_with_trials(self):
        # a per-trial array of a million 8-byte values would take 7.6 MiB
        tracemalloc.start()
        try:
            simulate_error_counts(1024, 0.5, 10**6, 1, ProverIdentity.ATTACKER)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _stderr(histogram, threshold, identity, per_round_error):
    return _score(histogram, threshold, identity, per_round_error)[1]


class TestLossStderr:
    def test_zero_hits_give_half_over_trials_plus_one(self):
        trials = 500
        never_accepted = _hist(np.full(trials, 8))
        never_rejected = _hist(np.zeros(trials, dtype=np.int64))
        att = _stderr(never_accepted, 4.0, ProverIdentity.ATTACKER, 0.55)
        use = _stderr(never_rejected, 4.0, ProverIdentity.USER, 0.2)
        assert att == pytest.approx(10.0 / (2 * (trials + 1)), rel=1e-12)
        assert use == pytest.approx(1.0 / (2 * (trials + 1)), rel=1e-12)
        # six of them cover the rule-of-three bound on an unseen event
        assert 6.0 * use == pytest.approx(3.0 / trials, rel=1e-2)

    def test_agrees_with_plug_in_error_for_many_trials(self):
        trials, p = 10**6, 0.3
        hits = int(p * trials)
        counts = np.concatenate([np.zeros(hits, dtype=np.int64), np.full(trials - hits, 5)])
        att = _stderr(_hist(counts), 1.0, ProverIdentity.ATTACKER, 0.55)
        assert att == pytest.approx(10.0 * math.sqrt(p * (1.0 - p) / trials), rel=1e-5)

    def test_degenerate_rates_are_exact(self):
        counts = np.zeros(10, dtype=np.int64)
        assert _stderr(_hist(counts), 4.0, ProverIdentity.USER, 0.0) == 0.0
        assert _stderr(_hist(counts + 8), 4.0, ProverIdentity.ATTACKER, 1.0) == 0.0


# seed parts weighted toward the word boundaries of numpy's int coercion,
# as Python and numpy integers
_SEED_PART = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64]),
    st.integers(0, 2**130 - 1),
    st.sampled_from([0, 2**32 - 1, 2**32, 2**63 - 1]).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(0, 2**32 - 1).map(np.uint32),
)


def _one_stream(*parts):
    # the one stream of a batch over the words of the parts, int or sequence
    return _streams([_seed_words(parts)])[0]


class TestStreamSeeding:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(_SEED_PART, min_size=1, max_size=5))
    @example([0])
    @example([2**64, 0, 2**32 - 1])
    def test_draws_are_those_of_numpys_seeding_of_the_parts(self, parts):
        want = seeded_bits(parts).random_raw(4)
        np.testing.assert_array_equal(_one_stream(*parts).bit_generator.random_raw(4), want)
        # a sequence part is its elements, in order
        nested = _one_stream(tuple(parts[:2]), *parts[2:])
        np.testing.assert_array_equal(nested.bit_generator.random_raw(4), want)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        st.lists(_SEED_PART, min_size=1, max_size=5),
        st.integers(-(2**130), -1) | st.just(-1).map(np.int64),
        st.integers(0, 5),
    )
    def test_a_negative_part_raises(self, parts, negative, at):
        parts.insert(min(at, len(parts)), negative)
        with pytest.raises(ValueError):
            _one_stream(*parts)
        with pytest.raises(ValueError):
            _one_stream(tuple(parts))


class TestStreamBatch:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.lists(_SEED_PART, max_size=5), min_size=1, max_size=8))
    @example([[0], [1729, 3, 0], [2**64, 0, 2**32 - 1, 2**130 - 1]])
    @example([[], [0, 0, 0, 0], [2**32 - 1] * 5])
    def test_each_stream_of_a_batch_draws_numpys_bits(self, batch):
        # part counts mixed in one batch, 0 to 25 words per stream
        streams = _streams([_seed_words(parts) for parts in batch])
        assert len(streams) == len(batch)
        for stream, parts in zip(streams, batch):
            want = seeded_bits(parts).random_raw(4)
            np.testing.assert_array_equal(stream.bit_generator.random_raw(4), want)

    def test_an_empty_batch_builds_nothing(self):
        assert _streams([]) == []

    def test_the_seed_state_serves_only_pcg64s_request(self):
        seed_seq = _one_stream(1729, 3, 0).bit_generator.seed_seq
        want = np.random.SeedSequence((1729, 3, 0)).generate_state(4, np.uint64)
        np.testing.assert_array_equal(seed_seq.generate_state(4, np.uint64), want)
        for n_words, dtype in ((8, np.uint64), (4, np.uint32), (2, np.uint32)):
            with pytest.raises(ValueError, match="state words"):
                seed_seq.generate_state(n_words, dtype)


# 94,906,267 is the least trial count whose square is past 2**53
_TRIALS = st.one_of(st.sampled_from([1, 94_906_267, 10**8]), st.integers(1, 10**8))
_RATE = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestLevelBatch:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 600),
                st.tuples(st.integers(0, 2**64), st.integers(0, 30), st.integers(0, 600)),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=12,
            unique_by=lambda design: design[1],
        ),
        st.lists(st.tuples(_RATE, _RATE), min_size=1, max_size=4),
        _TRIALS,
    )
    @example([(600, (1729, 0, 600), 0), (0, (1729, 0, 0), 0)], [(0.53, 0.02)], 94_906_267)
    @example([(47, (1729, 3, 47), 0)], [(1.0, 0.0)], 1)
    @example(
        [(47, (1729, 3, 47), 1), (64, (1729, 5, 64), 0), (47, (1729, 5, 47), 1),
         (12, (1729, 9, 12), 2)],
        [(0.505, 0.0199), (0.55, 0.19), (1.0, 0.0)],
        10_000,
    )
    def test_a_level_is_bitwise_its_designs_drawn_and_scored_one_at_a_time(
        self, designs, levels, trials
    ):
        # designs of several noise levels, each at its level's rate pair;
        # one level passes its rates as scalars, more as one rate per design
        rounds = [n for n, _, _ in designs]
        seeds = [seed for _, seed, _ in designs]
        pairs = [levels[k % len(levels)] for _, _, k in designs]
        attacker_rates, user_rates = levels[0] if len(levels) == 1 else zip(*pairs)
        sides = ((ProverIdentity.ATTACKER, attacker_rates), (ProverIdentity.USER, user_rates))
        batch = simulate_error_histograms(rounds, sides, trials, seeds)
        # every cut of every histogram, 0 (reject all) to n + 1 (accept all)
        which = [j for j, n in enumerate(rounds) for _ in range(n + 2)]
        cuts = [cut for n in rounds for cut in range(n + 2)]
        for s, (histograms, (identity, rates)) in enumerate(zip(batch, sides)):
            per_design = [pair[s] for pair in pairs]
            want = [
                one_design_counts(n, p, trials, seed, identity)
                for n, seed, p in zip(rounds, seeds, per_design)
            ]
            assert len(histograms) == len(want)
            for got, h in zip(histograms, want):
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, h)
            scored = rates if np.ndim(rates) == 0 else [per_design[j] for j in which]
            means, stderrs = score_histograms(histograms, which, cuts, BENCH, identity, scored)
            scalar = [one_design_score(want[j], cut, BENCH, identity, per_design[j])
                      for j, cut in zip(which, cuts)]
            assert _bits(means) == _bits([mean for mean, _ in scalar])
            assert _bits(stderrs) == _bits([err for _, err in scalar])

    def test_a_sweep_past_one_block_is_drawn_block_by_block(self, monkeypatch):
        # 200 entries hold three padded rows of 64 rounds: two blocks
        monkeypatch.setattr(channel, "_CDF_BLOCK_ENTRIES", 200)
        built = []
        cdf_rows = channel._cdf_rows
        monkeypatch.setattr(
            channel, "_cdf_rows", lambda ns, rates: built.append(len(ns)) or cdf_rows(ns, rates)
        )
        rounds = [47, 0, 64, 12, 47, 30]
        seeds = [(1729, i, n) for i, n in enumerate(rounds)]
        attacker = [0.505, 1.0, 0.55, 0.3, 0.505, 0.0]
        user = [0.0199, 0.0, 0.19, 1.0, 0.0199, 0.4]
        sides = ((ProverIdentity.ATTACKER, attacker), (ProverIdentity.USER, user))
        batch = simulate_error_histograms(rounds, sides, 1000, seeds)
        assert built == [3, 3]
        for histograms, (identity, rates) in zip(batch, sides):
            for got, n, seed, p in zip(histograms, rounds, seeds, rates):
                np.testing.assert_array_equal(got, one_design_counts(n, p, 1000, seed, identity))

    def test_blocks_hold_designs_in_order_of_round_count(self, monkeypatch):
        # 600 entries hold seven padded rows of 80 rounds: three blocks
        monkeypatch.setattr(channel, "_CDF_BLOCK_ENTRIES", 600)
        blocks = []
        cdf_rows = channel._cdf_rows
        monkeypatch.setattr(
            channel, "_cdf_rows", lambda ns, rates: blocks.append(ns.tolist()) or cdf_rows(ns, rates)
        )
        built = spy_stream_builds(monkeypatch)
        rounds = [80, 3, 47, 0, 64, 12, 47, 30, 5, 79, 1, 2, 60, 9, 33]
        seeds = [(7, i) for i in range(len(rounds))]
        rates = [0.3] * len(rounds)
        rates[4] = 1.0  # drawn without a stream
        sides = ((ProverIdentity.ATTACKER, rates), (ProverIdentity.USER, 0.1))
        batch = simulate_error_histograms(rounds, sides, 500, seeds)
        assert blocks == [[0, 1, 2, 3, 5, 9, 12], [30, 33, 47, 47, 60, 64, 79], [80]]
        assert built == [14, 13, 2]  # one builder call per block, both sides' streams
        for histograms, (identity, p) in zip(batch, sides):
            for got, n, seed, q in zip(histograms, rounds, seeds, np.broadcast_to(p, len(rounds))):
                np.testing.assert_array_equal(got, one_design_counts(n, q, 500, seed, identity))

    @pytest.mark.parametrize("bad", [
        dict(rounds=[8, -1]), dict(rounds=[8, 2.5]), dict(rounds=[8, True]),
        dict(rates=(0.3, 1.5)), dict(rates=(0.3, math.nan)),
        dict(rates=(0.3, [0.4, math.nan])), dict(rates=([0.3], 0.4)), dict(rates=([0.3] * 3, 0.4)),
        dict(trials=0), dict(trials=2.5),
        dict(seeds=[1, (2, -3)]), dict(seeds=[1]),
    ], ids=lambda bad: f"{next(iter(bad))}={next(iter(bad.values()))!r}")
    def test_bad_inputs_are_rejected_before_any_draw(self, bad, monkeypatch):
        built = spy_stream_builds(monkeypatch)
        args = dict(rounds=[8, 12], rates=(0.3, 0.4), trials=100, seeds=[1, 2]) | bad
        sides = tuple(zip(ProverIdentity, args["rates"]))
        with pytest.raises(ValueError):
            simulate_error_histograms(args["rounds"], sides, args["trials"], args["seeds"])
        assert built == []

    def test_unequal_totals_and_bad_cuts_are_rejected(self):
        histograms = [_hist([0, 3, 8]), _hist([1, 2])]
        with pytest.raises(ValueError, match="total"):
            score_histograms(histograms, [0, 1], [1, 1], BENCH, ProverIdentity.USER, 0.2)
        for cut in (-1, 10):
            with pytest.raises(ValueError, match="cut"):
                score_histograms(histograms[:1], [0, 0], [3, cut], BENCH, ProverIdentity.USER, 0.2)
        with pytest.raises(TypeError):
            score_histograms(histograms[:1], [0], [2.5], BENCH, ProverIdentity.USER, 0.2)
        # one per-round error for every design, or one per design
        for rates in ([0.2], [0.2] * 3):
            with pytest.raises(ValueError, match="per-round errors"):
                score_histograms(histograms[:1], [0, 0], [1, 2], BENCH, ProverIdentity.USER, rates)
