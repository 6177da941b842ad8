"""Tests for the sweep drivers and their CSV round trip."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from threshauth.asymptotic import asymptotic_threshold
from threshauth.bounds import optimal_rounds, optimal_threshold
from threshauth.channel import score_counts, simulate_error_counts, swiss_hitomi_rates
from threshauth.exact import exact_expected_losses
from threshauth.experiments import (
    CSV_HEADER,
    DEFAULT_LOSSES,
    ExperimentSpec,
    SweepRow,
    default_noise_grid,
    emit_csv,
    figure1a_sweep,
    figure1b_sweep,
    figure3_comparison,
    parse_csv,
    threshold_duel,
)
from threshauth.loss import LossParameters, ProverIdentity, rejected_count_min


def _blank_row(**overrides):
    base = dict(
        omega=0.1,
        n=8,
        tau=3.5,
        threshold_strategy="finite-sample",
        rate_strategy="true-omega",
        exact_worst=1.0,
    )
    base.update(overrides)
    return SweepRow(**base)


class TestSweepRow:
    def test_floats_canonicalized_to_twelve_digits(self):
        row = _blank_row(tau=0.1234567890123456789, exact_worst=2.00000000000004)
        assert row.tau == float("0.123456789012")
        assert row.exact_worst == float("2.0")

    def test_canonicalization_is_idempotent(self):
        row = _blank_row(tau=1.0 / 3.0)
        again = _blank_row(tau=row.tau)
        assert again.tau == row.tau

    def test_none_and_strings_untouched(self):
        row = _blank_row(n=None, mc_worst=None, aborted="gap-collapse")
        assert row.n is None
        assert row.mc_worst is None
        assert row.aborted == "gap-collapse"

    def test_unset_fields_are_empty_and_keywords_required(self, tmp_path):
        row = SweepRow(omega=0.25, threshold_strategy="asymptotic", rate_strategy="ml")
        assert [getattr(row, name) for name in CSV_HEADER] == [
            0.25, None, None, "asymptotic", "ml", None, None, None, None, None, ""
        ]
        assert CSV_HEADER == (
            "omega", "n", "tau", "threshold_strategy", "rate_strategy",
            "exact_worst", "elb1", "elb2", "mc_worst", "mc_stderr", "aborted",
        )
        out = tmp_path / "one.csv"
        emit_csv([row], out)
        assert out.read_text().splitlines()[1] == "0.25,,,asymptotic,ml,,,,,,"
        with pytest.raises(TypeError):
            SweepRow(0.25, None, None, "asymptotic", "ml", None, None, None, None, None, "")


FIG3_RATE_LABELS = ("guess:0.1", "guess:0.01", "guess:0.001", "ml", "hp:0.1", "hp:0.01")


class TestRateStrategyLabels:
    def test_labels(self):
        # a strategy is named by its CSV label, and rows carry it as given
        assert ExperimentSpec.figure3().rate_strategies == FIG3_RATE_LABELS
        spec = ExperimentSpec.figure3(
            noise_grid=(0.05,),
            trials=50,
            threshold_strategies=("finite-sample",),
            rate_strategies=("true-omega",) + FIG3_RATE_LABELS,
        )
        rows = figure3_comparison(spec)
        assert tuple(r.rate_strategy for r in rows) == spec.rate_strategies

    def test_estimate_requirements(self):
        # at w = 0.3 a 1024-symbol phase sees about 307 flips, beyond the
        # quarter-block radius: only the kinds that read it abort
        spec = ExperimentSpec.figure3(
            noise_grid=(0.3,),
            trials=50,
            threshold_strategies=("finite-sample",),
            rate_strategies=("true-omega", "guess:0.1", "ml", "hp:0.1"),
        )
        aborted = {r.rate_strategy: r.aborted for r in figure3_comparison(spec)}
        assert aborted == {
            "true-omega": "", "guess:0.1": "", "ml": "coded-abort", "hp:0.1": "coded-abort"
        }

    def test_rejects_unknown_or_malformed_labels(self):
        for label in ("oracle", "guess", "guess:", "guess:x", "hp", "ml:0.1", "true-omega:0.1"):
            with pytest.raises(ValueError):
                ExperimentSpec(rate_strategies=(label,))
        # threshold strategies are labels too, checked when the spec is built
        for label in ("bayes", "Finite-Sample", ""):
            with pytest.raises(ValueError, match="threshold strategy"):
                ExperimentSpec(threshold_strategies=(label,))


class TestNoiseGrid:
    def test_default_grid_shape(self):
        grid = default_noise_grid()
        assert len(grid) == 24
        assert grid[0] == pytest.approx(1e-3, rel=1e-12)
        assert grid[-1] == pytest.approx(0.3, rel=1e-12)
        assert all(a < b for a, b in zip(grid, grid[1:]))
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)


class TestExperimentSpec:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ExperimentSpec(noise_grid=())
        with pytest.raises(ValueError):
            ExperimentSpec(n_grid=())
        # counts are integers >= 1, caught before a sweep would fail on them
        for field in ("n_max", "trials", "codeword_length"):
            for bad in (0, 2.5, True):
                with pytest.raises(ValueError, match=field):
                    ExperimentSpec(**{field: bad})
        for w in (-0.1, 1.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="noise level"):
                ExperimentSpec(noise_grid=(0.1, w))
        with pytest.raises(ValueError, match="per_round"):
            ExperimentSpec(params=LossParameters(10.0, 1.0, 0.0))
        # noise levels in [1/3, 1] stay legal: they become gap-collapse rows
        ExperimentSpec(noise_grid=(0.0, 0.5, 1.0))

    def test_rejects_bad_round_counts(self):
        # caught before any work: duel would otherwise write abort rows for
        # them and fig1a would fail mid-sweep
        for grid in ((0,), (2.5,), (True,), (4, -1), (4, "8")):
            for factory in (ExperimentSpec, ExperimentSpec.duel):
                with pytest.raises(ValueError, match="round counts"):
                    factory(n_grid=grid)

    def test_factory_overrides(self):
        spec = ExperimentSpec.figure3(master_seed=5, trials=123, noise_grid=(0.1,))
        assert spec.master_seed == 5
        assert spec.trials == 123
        assert spec.noise_grid == (0.1,)
        # the seed has one spelling, so no alias can silently lose to it
        with pytest.raises(TypeError):
            ExperimentSpec.figure3(seed=5, master_seed=7)


class TestFigure1a:
    def test_structure_and_domination(self):
        rows = figure1a_sweep(ExperimentSpec())
        assert len(rows) == 512
        # sorted by noise level, then by round count
        keys = [(r.omega, r.n) for r in rows]
        assert keys == sorted(keys)
        for r in rows:
            assert r.threshold_strategy == "finite-sample"
            assert r.rate_strategy == "true-omega"
            assert r.mc_worst is None and r.mc_stderr is None
            assert r.aborted == ""
            assert r.elb1 >= r.exact_worst - 1e-9

    def test_noisier_channel_loses_more_at_every_round_count(self):
        rows = figure1a_sweep(ExperimentSpec())
        low = {r.n: r for r in rows if r.omega == pytest.approx(0.01)}
        high = {r.n: r for r in rows if r.omega == pytest.approx(0.1)}
        assert set(low) == set(high) == set(range(1, 257))
        for n in low:
            assert high[n].exact_worst >= low[n].exact_worst
            assert high[n].elb1 > low[n].elb1

    def test_round_count_cap_is_constant_per_noise_level(self):
        rows = figure1a_sweep(ExperimentSpec())
        for w in (0.01, 0.1):
            group = [r for r in rows if r.omega == pytest.approx(w)]
            assert len({r.elb2 for r in group}) == 1
            assert group[0].elb2 >= min(r.elb1 for r in group)


    def test_exact_losses_match_the_per_row_scalar_losses(self):
        spec = ExperimentSpec(noise_grid=(0.0, 0.01, 0.1, 0.3))
        rows = figure1a_sweep(spec)
        assert len(rows) == 4 * 256
        for r in rows:
            rates = swiss_hitomi_rates(r.omega)
            tau = optimal_threshold(spec.params, rates, r.n).raw
            att, use = exact_expected_losses(
                spec.params, [r.n], [tau], rates.attacker_floor, rates.user_ceiling
            )
            assert r == dataclasses.replace(r, exact_worst=max(att[0], use[0]))

    def test_memory_stays_small_on_the_default_noise_grid(self):
        spec = ExperimentSpec(noise_grid=default_noise_grid())
        # a first small sweep keeps one-time allocations out of the peak
        figure1a_sweep(ExperimentSpec(noise_grid=(0.1,), n_grid=(1, 2)))
        tracemalloc.start()
        try:
            rows = figure1a_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 24 * 256
        assert peak <= 3_000_000


class TestFigure1b:
    def test_pairs_per_noise_level(self):
        spec = ExperimentSpec.figure1b(noise_grid=(0.1, 0.01))
        rows = figure1b_sweep(spec)
        assert len(rows) == 4
        assert [r.threshold_strategy for r in rows] == [
            "brute-force",
            "finite-sample",
            "brute-force",
            "finite-sample",
        ]
        for brute, finite in zip(rows[::2], rows[1::2]):
            assert brute.omega == finite.omega
            # the exhaustive optimum cannot lose to the formula design
            assert brute.exact_worst <= finite.exact_worst + 1e-12
            # formula design spends at least as many rounds here
            assert finite.n >= brute.n
            assert finite.elb2 >= finite.elb1

    def test_frozen_brute_force_point(self):
        spec = ExperimentSpec.figure1b(noise_grid=(0.1,))
        brute = figure1b_sweep(spec)[0]
        assert brute.n == 24
        assert brute.tau == 8.0
        assert brute.exact_worst == pytest.approx(0.33521159199513, abs=1e-11)


class TestFigure3:
    def test_deterministic_given_seed(self):
        spec = ExperimentSpec.figure3(
            noise_grid=(0.02, 0.1),
            trials=400,
            rate_strategies=("guess:0.05", "ml"),
        )
        assert figure3_comparison(spec) == figure3_comparison(spec)

    def test_seed_changes_monte_carlo_results(self):
        kw = dict(
            noise_grid=(0.1,),
            trials=400,
            rate_strategies=("ml",),
            threshold_strategies=("finite-sample",),
        )
        a = figure3_comparison(ExperimentSpec.figure3(master_seed=1, **kw))
        b = figure3_comparison(ExperimentSpec.figure3(master_seed=2, **kw))
        assert a[0].mc_worst != b[0].mc_worst

    def test_default_sweep_structure_and_abort_markers(self):
        rows = figure3_comparison(ExperimentSpec.figure3(trials=300))
        # 24 noise levels x 6 rate strategies x 2 threshold strategies
        assert len(rows) == 288
        markers = {r.aborted for r in rows}
        # the quarter-block decoder caps estimates at 0.25, so estimating
        # strategies abort on hopeless phases long before their widened
        # bounds could collapse; degenerate estimates at the quiet end
        # push the likelihood thresholds out of their domain instead
        assert "coded-abort" in markers
        assert "invalid-rates" in markers
        assert markers <= {"", "coded-abort", "invalid-rates", "gap-collapse"}
        for r in rows:
            if r.aborted:
                assert r.n is None and r.tau is None
                assert r.exact_worst is None and r.mc_worst is None
            else:
                assert 1 <= r.n <= 1024
                assert r.mc_stderr >= 0.0
                assert r.elb1 is not None and r.elb2 is not None
        # fixed guesses never consult the coded phase, so they never abort
        # on it
        for r in rows:
            if r.rate_strategy.startswith("guess:"):
                assert r.aborted != "coded-abort"

    def test_collapsed_guess_yields_gap_collapse_rows(self):
        spec = ExperimentSpec.figure3(
            noise_grid=(0.05,),
            trials=50,
            rate_strategies=("guess:0.4",),
        )
        rows = figure3_comparison(spec)
        assert len(rows) == 2
        assert all(r.aborted == "gap-collapse" for r in rows)

    def test_noisier_channel_raises_realized_loss(self):
        spec = ExperimentSpec.figure3(
            noise_grid=(0.05, 0.2),
            trials=2_000,
            rate_strategies=("hp:0.01",),
            threshold_strategies=("finite-sample",),
        )
        quiet, noisy = figure3_comparison(spec)
        assert quiet.aborted == "" and noisy.aborted == ""
        assert noisy.exact_worst >= 1.5 * quiet.exact_worst
        assert noisy.mc_worst >= 1.5 * quiet.mc_worst

    def test_round_count_is_capped_by_codeword_length(self):
        # n_hat is 47 at w = 0.01 and 64 at w = 0.1: a 50-symbol codeword
        # leaves the first and caps the second
        spec = ExperimentSpec.figure3(
            noise_grid=(0.01, 0.1),
            trials=50,
            codeword_length=50,
            rate_strategies=("true-omega",),
            threshold_strategies=("finite-sample",),
        )
        rows = figure3_comparison(spec)
        for r in rows:
            rates = swiss_hitomi_rates(r.omega)
            assert r.n == min(optimal_rounds(DEFAULT_LOSSES, rates).value, 50)
        assert [r.n for r in rows] == [47, 50]

    def test_monte_carlo_tracks_exact_loss(self):
        spec = ExperimentSpec.figure3(
            noise_grid=(0.05, 0.1),
            trials=4_000,
            rate_strategies=("true-omega",),
        )
        for r in figure3_comparison(spec):
            assert r.aborted == ""
            assert abs(r.mc_worst - r.exact_worst) <= 6.0 * r.mc_stderr + 1e-3

    def test_equal_designs_share_their_trials(self):
        # at the true noise level a 0.1 guess is the oracle design, so
        # both rows score the same threshold on the same draw
        spec = ExperimentSpec.figure3(
            noise_grid=(0.1,),
            trials=400,
            rate_strategies=("true-omega", "guess:0.1"),
            threshold_strategies=("finite-sample",),
        )
        oracle, guess = figure3_comparison(spec)
        assert (oracle.n, oracle.tau) == (guess.n, guess.tau)
        assert (oracle.mc_worst, oracle.mc_stderr) == (guess.mc_worst, guess.mc_stderr)

    def test_rows_do_not_depend_on_strategy_order(self):
        labels = ("guess:0.1", "ml", "hp:0.1")
        kw = dict(noise_grid=(0.02, 0.1), trials=400)
        forward = figure3_comparison(ExperimentSpec.figure3(rate_strategies=labels, **kw))
        backward = figure3_comparison(
            ExperimentSpec.figure3(rate_strategies=labels[::-1], **kw)
        )

        def key(r):
            return (r.omega, r.rate_strategy, r.threshold_strategy)

        assert sorted(forward, key=key) == sorted(backward, key=key)

    def test_stderr_stays_positive_when_no_decision_event_is_seen(self):
        # every fig3 rate is strictly inside (0, 1), so the Monte Carlo mean
        # is never exact and its stderr never drops below the zero-hit
        # floor min(la, lu) / (2 (T + 1)), even when one identity never
        # pays its decision loss in T trials
        trials = 2_000
        floor = min(DEFAULT_LOSSES.false_accept, DEFAULT_LOSSES.false_reject) / (
            2 * (trials + 1)
        )
        for seed in range(30):
            spec = ExperimentSpec.figure3(
                noise_grid=(0.001, 0.05, 0.1),
                trials=trials,
                rate_strategies=("true-omega",),
                master_seed=seed,
            )
            for r in figure3_comparison(spec):
                assert r.aborted == ""
                assert not (r.mc_stderr == 0.0 and r.mc_worst != r.exact_worst)
                assert r.mc_stderr >= floor * (1.0 - 1e-12)


class TestThresholdDuel:
    def test_grid_structure(self):
        rows = threshold_duel(ExperimentSpec.duel(trials=500))
        assert len(rows) == 32
        for finite, asym in zip(rows[::2], rows[1::2]):
            assert finite.threshold_strategy == "finite-sample"
            assert asym.threshold_strategy == "asymptotic"
            assert (finite.omega, finite.n) == (asym.omega, asym.n)

    def test_equal_decision_rules_tie_exactly(self):
        # with equal decision losses both thresholds land strictly inside
        # the same integer bin (3.375 and 3.263), so the paired counts
        # give identical scores
        spec = ExperimentSpec.duel(
            params=LossParameters(1.0, 1.0, 1e-2),
            n_grid=(9,),
            noise_grid=((1.0 - 2.0 * 0.35) / 3.0,),
            trials=1_000,
        )
        finite, asym = threshold_duel(spec)
        assert finite.tau != asym.tau
        assert math.ceil(finite.tau) == math.ceil(asym.tau) == 4
        assert finite.mc_worst == asym.mc_worst
        assert finite.mc_stderr == asym.mc_stderr
        assert finite.exact_worst == asym.exact_worst

    def test_monte_carlo_tracks_exact_loss(self):
        # the absolute slack covers corners where an acceptance event has
        # probability well below 1/trials: the sample is then constant and
        # the stderr sits at its zero-hit floor while the exact loss keeps
        # the tiny term
        rows = threshold_duel(ExperimentSpec.duel(trials=4_000))
        for r in rows:
            assert abs(r.mc_worst - r.exact_worst) <= 6.0 * r.mc_stderr + 1e-3

    def test_worst_side_carries_its_own_stderr(self):
        # each row re-scores the counts drawn at seed (master, wi, ni):
        # the larger mean wins (the attacker on ties), with its own stderr;
        # equal decision losses let either side be the worse one
        spec = ExperimentSpec.duel(params=LossParameters(1.0, 1.0, 1e-2), trials=300)
        rows = iter(threshold_duel(spec))
        winners = set()
        for wi, w in enumerate(spec.noise_grid):
            rates = swiss_hitomi_rates(w)
            sides = (
                (ProverIdentity.ATTACKER, rates.attacker_floor),
                (ProverIdentity.USER, rates.user_ceiling),
            )
            for ni, n in enumerate(spec.n_grid):
                counts = [
                    simulate_error_counts(n, p, spec.trials, (spec.master_seed, wi, ni), identity)
                    for identity, p in sides
                ]
                # rows carry tau rounded to 12 digits, too coarse to score
                taus = (
                    optimal_threshold(spec.params, rates, n).raw,
                    asymptotic_threshold(spec.params, rates, n),
                )
                for tau in taus:
                    row = next(rows)
                    scores = [
                        score_counts(c, rejected_count_min(tau, n), spec.params, identity, p)
                        for c, (identity, p) in zip(counts, sides)
                    ]
                    worst = 0 if scores[0][0] >= scores[1][0] else 1
                    winners.add(sides[worst][0])
                    expected = _blank_row(
                        mc_worst=scores[worst][0], mc_stderr=scores[worst][1]
                    )
                    assert (row.mc_worst, row.mc_stderr) == (
                        expected.mc_worst,
                        expected.mc_stderr,
                    )
        assert winners == {ProverIdentity.ATTACKER, ProverIdentity.USER}

    def test_deterministic_given_seed(self):
        spec = ExperimentSpec.duel(
            trials=300,
            n_grid=(4, 8),
            noise_grid=tuple((1.0 - 2.0 * g) / 3.0 for g in (0.1, 0.2)),
        )
        assert threshold_duel(spec) == threshold_duel(spec)


class TestCsvRoundTrip:
    def test_numpy_round_counts_write_the_same_csv(self, tmp_path):
        grid = (1, 2, 5, 64, 256)
        for sweep, factory in ((figure1a_sweep, ExperimentSpec),
                               (threshold_duel, ExperimentSpec.duel)):
            written = []
            for n_grid in (grid, tuple(np.array(grid))):
                path = tmp_path / f"{sweep.__name__}-{len(written)}.csv"
                emit_csv(sweep(factory(n_grid=n_grid, trials=200)), path)
                written.append(path.read_bytes())
            assert written[0] == written[1]

    def test_empty_rows_give_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_csv([], out)
        assert out.read_text() == ",".join(CSV_HEADER) + "\n"

    def test_round_trip_equality_and_stable_bytes(self, tmp_path):
        rows = figure1b_sweep(ExperimentSpec.figure1b(noise_grid=(0.1, 0.01)))
        rows.append(_blank_row(n=None, tau=None, exact_worst=None, aborted="gap-collapse"))
        first = tmp_path / "first.csv"
        emit_csv(rows, first)
        parsed = parse_csv(first)
        assert parsed == rows
        second = tmp_path / "second.csv"
        emit_csv(parsed, second)
        assert first.read_bytes() == second.read_bytes()

    def test_rejects_foreign_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("alpha,beta\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            parse_csv(bad)

    def test_write_failure_names_the_path(self, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        with pytest.raises(OSError, match="out.csv"):
            emit_csv([], target)
