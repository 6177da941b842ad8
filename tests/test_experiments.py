"""Tests for the sweep drivers and their CSV round trip."""

import csv
import io
import math
import re
import string
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import exact_worst_case_losses, one_design_score, spy_stream_builds
import threshauth.channel as channel
import threshauth.exact as exact
import threshauth.experiments as experiments
from threshauth.asymptotic import asymptotic_threshold
from threshauth.bounds import (
    optimal_rounds,
    optimal_threshold,
    rounds_loss_bound,
    threshold_loss_bound,
)
from threshauth.channel import simulate_error_counts, swiss_hitomi_rates
from threshauth.exact import brute_force_optimal, exact_expected_losses
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


def _count_calls(monkeypatch, names):
    """Calls made from here on to each named function of the experiments module."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(experiments, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return spy

    for name in names:
        monkeypatch.setattr(experiments, name, counted(name))
    return calls


def _count_built_rows(monkeypatch):
    """SweepRow objects constructed from here on, in a one-item list."""
    built, init = [0], SweepRow.__init__

    def spy(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(SweepRow, "__init__", spy)
    return built


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


def _abort_row(**overrides):
    """A gap-collapse abort row: omega, the labels and the reason, no other number."""
    return SweepRow(**(dict(omega=0.1, threshold_strategy="finite-sample",
                            rate_strategy="true-omega", aborted="gap-collapse") | overrides))


class TestSweepRow:
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

    @pytest.mark.parametrize("overrides", [
        {},
        dict(noise_grid=tuple(np.array((0.1, 0.01))), trials=200),
        dict(noise_grid=tuple(np.array((0.1, 0.01), dtype=np.float32)), trials=200),
        dict(n_grid=tuple(np.array((4, 8, 16))), trials=200),
        dict(codeword_length=np.int64(16), trials=200),
    ], ids=["defaults", "float64-noise", "float32-noise", "int64-rounds", "int64-codeword"])
    @pytest.mark.parametrize("sweep, factory", [
        (figure1a_sweep, ExperimentSpec),
        (figure1b_sweep, ExperimentSpec.figure1b),
        (figure3_comparison, ExperimentSpec.figure3),
        (threshold_duel, ExperimentSpec.duel),
    ])
    def test_default_sweeps_and_their_parse_hold_only_built_in_values(
        self, sweep, factory, overrides, tmp_path
    ):
        # the spec turns numpy inputs into built-in numbers and nothing
        # else coerces a row's values, so a numpy scalar would reach its repr
        # (np.float64(...)) and the CSV as it is: an np.float32 is written by
        # str, at its own shortest digits rather than the double's 12
        rows = sweep(factory(**overrides))
        path = tmp_path / "rows.csv"
        emit_csv(rows, path)
        for got in (rows, parse_csv(path)):
            kinds = {type(getattr(row, name)) for row in got for name in CSV_HEADER}
            assert kinds <= {float, int, str, type(None)}
            assert "np." not in repr(got)


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
        # an argument outside its domain: a guessed noise level in [0, 1],
        # an hp confidence in (0, 1); the sweep would raise only after its
        # coded phases were drawn
        for label in ("guess:nan", "guess:2", "guess:-0.1", "hp:0", "hp:1.5", "hp:nan"):
            with pytest.raises(ValueError, match="not in"):
                ExperimentSpec.figure3(rate_strategies=(label,))
        # the ends of each domain that it includes
        ExperimentSpec.figure3(rate_strategies=("guess:0", "guess:1", "hp:1e-9", "hp:0.999"))
        # threshold strategies are labels too, checked when the spec is built
        for label in ("bayes", "Finite-Sample", ""):
            with pytest.raises(ValueError, match="threshold strategy"):
                ExperimentSpec(threshold_strategies=(label,))

    @pytest.mark.parametrize("label", ["guess:0.1\r", "guess: 0.1", "hp:0.01\t"])
    def test_rejects_an_argument_with_surrounding_whitespace(self, label):
        # float() strips it, but the CSV would carry the label as given:
        # a lone "\r" is written unquoted and the file no longer parses
        with pytest.raises(ValueError, match="malformed rate strategy"):
            ExperimentSpec.figure3(rate_strategies=(label,))


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
        for w in (-0.1, 1.5, math.nan, math.inf, True, "0.1"):
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

    def test_rejects_empty_or_repeated_strategy_labels(self):
        # caught before any work: fig3 would write a header-only CSV for an
        # empty tuple and duplicated rows for a repeated label
        cases = {
            "threshold_strategies": ((), ("asymptotic", "finite-sample", "asymptotic")),
            "rate_strategies": ((), ("ml", "ml")),
        }
        for field, bad_values in cases.items():
            for bad in bad_values:
                for factory in (ExperimentSpec, ExperimentSpec.figure3, ExperimentSpec.duel):
                    with pytest.raises(ValueError, match=field):
                        factory(**{field: bad})

    def test_rejects_a_master_seed_that_is_not_an_integer_at_least_zero(self):
        # caught before any work: duel would run seed 2 for 2.5 and fig3
        # would fail at its first coded phase
        for bad in (2.5, -1, True, "7", None):
            for factory in (ExperimentSpec, ExperimentSpec.figure3, ExperimentSpec.duel):
                with pytest.raises(ValueError, match="master_seed"):
                    factory(master_seed=bad)
        for good in (0, np.int64(3), 2**70):
            assert ExperimentSpec.duel(master_seed=good).master_seed == good

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
        # whole rows, built one at a time from the scalar formulas; collapsed
        # levels between live ones, round counts unsorted and repeated
        spec = ExperimentSpec(
            noise_grid=(0.4, 0.1, 0.0, 1 / 3, 0.01, 0.3), n_grid=(256, *range(1, 257), 5, 1000)
        )
        want = []
        for w in sorted(spec.noise_grid):
            if w >= 1 / 3:
                want.append(SweepRow(omega=w, threshold_strategy="finite-sample",
                                     rate_strategy="true-omega", aborted="gap-collapse"))
                continue
            rates = swiss_hitomi_rates(w)
            for n in spec.n_grid:
                tau = optimal_threshold(spec.params, rates, n).raw
                att, use = exact_expected_losses(
                    spec.params, [n], [tau], rates.attacker_floor, rates.user_ceiling
                )
                want.append(SweepRow(
                    omega=w, n=n, tau=tau, threshold_strategy="finite-sample",
                    rate_strategy="true-omega", exact_worst=float(max(att[0], use[0])),
                    elb1=threshold_loss_bound(spec.params, rates, n),
                    elb2=rounds_loss_bound(spec.params, rates),
                ))
        assert repr(list(figure1a_sweep(spec))) == repr(want)

    def test_default_grid_makes_no_scalar_bounds_call_per_round_count(self, monkeypatch):
        names = ("optimal_threshold", "threshold_loss_bound", "threshold_curve")
        calls = _count_calls(monkeypatch, names)
        rows = figure1a_sweep(ExperimentSpec(noise_grid=default_noise_grid()))
        assert len(rows) == 24 * 256
        assert calls == {"optimal_threshold": 0, "threshold_loss_bound": 0, "threshold_curve": 24}

    def test_default_grid_builds_only_the_pmf_columns_its_tails_sum(self, monkeypatch):
        built, full = [0], [0]
        pmf = exact._PmfBlock.pmf

        def spy(self, mu, *columns):
            out = pmf(self, mu, *columns)
            built[0] += out.size
            full[0] += self.pad.size
            return out

        monkeypatch.setattr(exact._PmfBlock, "pmf", spy)
        figure1a_sweep(ExperimentSpec(noise_grid=default_noise_grid()))
        # 24 levels x 2 identities x 5 blocks of full rows: 1,966,560 entries
        assert full[0] == 1_966_560
        assert built[0] <= 0.6 * full[0]

    def test_default_grid_sweep_and_emit_build_no_row(self, monkeypatch, tmp_path):
        built = _count_built_rows(monkeypatch)
        rows = figure1a_sweep(ExperimentSpec(noise_grid=default_noise_grid()))
        emit_csv(rows, tmp_path / "fig1a.csv")
        assert len(rows) == 24 * 256
        assert built == [0]
        assert rows[-1].n == 256  # reading a row builds it
        assert built == [1]

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
        rows = list(figure1b_sweep(spec))
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

    def test_closed_form_rows_match_the_per_row_scalar_build(self):
        # whole rows, each closed-form one built from the scalar formulas
        # through the public constructor; collapsed levels between live ones
        spec = ExperimentSpec.figure1b(noise_grid=(0.4, 0.1, 0.0, 1 / 3, 0.01, 0.3), n_max=64)
        want, aborts = [], []
        for w in sorted(spec.noise_grid):
            if w >= 1 / 3:
                aborts += [
                    SweepRow(omega=w, threshold_strategy=t, rate_strategy="true-omega",
                             aborted="gap-collapse")
                    for t in ("brute-force", "finite-sample")
                ]
                continue
            rates = swiss_hitomi_rates(w)
            best = brute_force_optimal(spec.params, rates, spec.n_max)
            n_hat = optimal_rounds(spec.params, rates).value
            tau_hat = optimal_threshold(spec.params, rates, n_hat).raw
            want += [
                SweepRow(omega=w, n=best.rounds, tau=float(best.threshold),
                         threshold_strategy="brute-force", rate_strategy="true-omega",
                         exact_worst=best.worst_loss),
                SweepRow(omega=w, n=n_hat, tau=tau_hat, threshold_strategy="finite-sample",
                         rate_strategy="true-omega",
                         exact_worst=float(
                             exact_worst_case_losses(spec.params, rates, [n_hat], [tau_hat])[0]
                         ),
                         elb1=threshold_loss_bound(spec.params, rates, n_hat),
                         elb2=rounds_loss_bound(spec.params, rates)),
            ]
        rows = figure1b_sweep(spec)
        assert repr(list(rows)) == repr(want + aborts)
        # one all-varying block: emit_csv sets up one line template
        assert len(rows._blocks) == 1

    def test_makes_no_scalar_threshold_or_bound_call(self, monkeypatch):
        calls = _count_calls(monkeypatch, ("optimal_threshold", "threshold_loss_bound"))
        rows = figure1b_sweep(ExperimentSpec.figure1b())
        assert len(rows) == 2 * 24
        assert calls == {"optimal_threshold": 0, "threshold_loss_bound": 0}

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
        assert list(figure3_comparison(spec)) == list(figure3_comparison(spec))

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

    @pytest.mark.parametrize("sweep, spec, designs, blocks, monte_carlo", [
        (figure1a_sweep, ExperimentSpec(), 2 * 256, 2, False),
        (figure1b_sweep, ExperimentSpec.figure1b(), 2 * 24, 1, False),
        (figure3_comparison, ExperimentSpec.figure3(trials=300), 288, 1, True),
        (threshold_duel, ExperimentSpec.duel(trials=300), 32, 1, True),
    ], ids=["fig1a", "fig1b", "fig3", "duel"])
    def test_a_sweep_is_one_exact_call_one_draw_and_one_score_per_identity(
        self, monkeypatch, tmp_path, sweep, spec, designs, blocks, monte_carlo
    ):
        # one _score call per sweep; fig1a's passes its abort rows through
        # it and scores its level blocks, a block per noise level, itself,
        # and the other sweeps' rows are one all-varying block
        names = ["_score", "exact_expected_losses", "simulate_error_histograms", "score_histograms"]
        calls = _count_calls(monkeypatch, names)
        built = _count_built_rows(monkeypatch)
        rows = sweep(spec)
        emit_csv(rows, tmp_path / "sweep.csv")
        assert calls == {
            "_score": 1, "exact_expected_losses": 1,
            "simulate_error_histograms": int(monte_carlo), "score_histograms": 2 * monte_carlo,
        }
        assert len(rows) == designs and len(rows._blocks) == blocks
        assert built == [0]

    @pytest.mark.parametrize("block_entries", [None, 4096], ids=["one-block", "blocks"])
    def test_a_sweep_seeds_its_coded_phases_in_one_call_and_each_cdf_block_in_one(
        self, monkeypatch, block_entries
    ):
        if block_entries is not None:
            monkeypatch.setattr(channel, "_CDF_BLOCK_ENTRIES", block_entries)
        blocks = []
        cdf_rows = channel._cdf_rows
        monkeypatch.setattr(
            channel, "_cdf_rows", lambda ns, rates: blocks.append(len(ns)) or cdf_rows(ns, rates)
        )
        built = spy_stream_builds(monkeypatch)
        spec = ExperimentSpec.figure3()
        figure3_comparison(spec)
        assert len(blocks) == (1 if block_entries is None else 4)
        # every fig3 rate lies inside (0, 1): each design draws on both identities' streams
        assert built == [len(spec.noise_grid)] + [2 * rows for rows in blocks]

    def test_designs_sharing_a_seed_must_share_rounds_and_rates(self, monkeypatch):
        built = spy_stream_builds(monkeypatch)
        spec = ExperimentSpec.figure3(trials=100)

        def design(n, rates, seed=(1729, 0, 47)):
            return dict(omega=0.01, n=n, tau=n / 2, threshold_strategy="finite-sample",
                        rate_strategy="true-omega", _attacker_rate=rates[0],
                        _user_rate=rates[1], _seed=seed)

        for second in (design(48, (0.505, 0.0199)), design(47, (0.505, 0.02)),
                       design(47, (0.5, 0.0199))):
            with pytest.raises(ValueError, match="seed"):
                experiments._score(spec, [design(47, (0.505, 0.0199)), second])
        # an abort row between the two designs is passed over, not compared
        abort = dict(omega=0.01, threshold_strategy="asymptotic", rate_strategy="true-omega",
                     aborted="invalid-rates")
        with pytest.raises(ValueError, match="seed"):
            experiments._score(spec, [design(47, (0.505, 0.0199)), abort, design(47, (0.5, 0.0199))])
        assert built == []

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
        rows = list(threshold_duel(ExperimentSpec.duel(trials=500)))
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
                        one_design_score(c, rejected_count_min(tau, n), spec.params, identity, p)
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
        assert list(threshold_duel(spec)) == list(threshold_duel(spec))


class TestSweepRows:
    def test_reads_as_the_list_of_its_rows(self, monkeypatch):
        # a gap-collapse row after two closed-form blocks of three rows
        spec = ExperimentSpec(noise_grid=(0.4, 0.1, 0.01), n_grid=(3, 1, 3))
        rows = figure1a_sweep(spec)
        built = _count_built_rows(monkeypatch)
        assert len(rows) == 7
        assert built == [0]
        want = list(rows)
        assert len(want) == 7 and built == [7]
        assert [r.omega for r in want] == [0.01] * 3 + [0.1] * 3 + [0.4]
        assert [r.n for r in want] == [3, 1, 3, 3, 1, 3, None]
        assert want[-1] == SweepRow(omega=0.4, threshold_strategy="finite-sample",
                                    rate_strategy="true-omega", aborted="gap-collapse")
        for i in range(-7, 7):
            assert rows[i] == want[i]
        for i in (7, -8):
            with pytest.raises(IndexError):
                rows[i]
        assert rows[np.int64(4)] == want[4]
        # a row is read by an int index; a slice is taken of the list of rows
        with pytest.raises(TypeError):
            rows[2:5]
        assert list(figure1a_sweep(spec)) == want
        assert want[3] in rows and rows.index(want[3]) == 3
        with pytest.raises(TypeError):
            rows[0] = want[0]


def _reference_field(value):
    """Each cell formatted on its own, as the CSV schema defines it: a float
    at 12 significant digits, None empty, any other value as its text."""
    if isinstance(value, float):
        return f"{value:.12g}"
    return "" if value is None else str(value)


def _reference_bytes(rows):
    """The CSV of the rows, each cell formatted on its own by ``_reference_field``."""
    want = io.StringIO(newline="")
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow([_reference_field(getattr(row, name)) for name in CSV_HEADER])
    return want.getvalue().encode()


# finite: emit_csv rejects nan and the infinities
_FLOAT = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, 1e12, 123456789012.5, 5e-324, -sys.float_info.max]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_REAL = st.one_of(_FLOAT, st.integers(-10**6, 10**6))
_ANY_REAL = st.one_of(_REAL, st.sampled_from([math.nan, math.inf, -math.inf]))
# printable ASCII with the CSV specials comma and quote; a row rejects a
# label holding a newline or carriage return
_LABEL = st.text(alphabet=string.printable.translate({10: None, 13: None}), max_size=12)


@st.composite
def _rows(draw, real=_REAL):
    # inside the CSV schema but for a nan or infinity ``real`` may draw: a
    # round count is an integer >= 1, a loss is >= 0 (so -0.0 too), and an
    # abort row sets no number but omega; omega and tau are free; round
    # counts stay below 1e12, where both spellings of an integer agree
    counts = st.integers(1, 10**11)
    numbers = dict(
        n=draw(st.one_of(st.none(), counts, counts.map(np.int64))),
        tau=draw(st.none() | real),
        **{name: draw(st.none() | real.map(lambda v: -v if v < 0 else v))
           for name in experiments._NONNEGATIVE},
    )
    aborted = draw(_LABEL.filter(bool)) if draw(st.booleans()) else ""
    return SweepRow(
        omega=draw(real),
        threshold_strategy=draw(_LABEL),
        rate_strategy=draw(_LABEL),
        aborted=aborted,
        **(dict.fromkeys(numbers) if aborted else numbers),
    )


@st.composite
def _any_rows(draw):
    # rows inside and outside the CSV schema: any round count, negative
    # losses, abort rows that set numbers; round counts are integers, whose
    # text keeps whatever the schema rejects in them
    counts = st.integers(-3, 10**11)
    numbers = dict(
        n=draw(st.one_of(st.none(), counts, counts.map(np.int64))),
        **{name: draw(st.none() | _ANY_REAL) for name in ("tau", *experiments._NONNEGATIVE)},
    )
    return SweepRow(
        omega=draw(_ANY_REAL),
        threshold_strategy=draw(_LABEL),
        rate_strategy=draw(_LABEL),
        aborted=draw(st.just("") | _LABEL),
        **numbers,
    )


class TestCsvRoundTrip:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rows=st.lists(_rows(), max_size=5))
    @example(rows=[_blank_row(rate_strategy="guess:0.1\t", tau=-0.0, threshold_strategy='a,"b')])
    def test_bytes_equal_the_per_field_formatter(self, rows, tmp_path_factory):
        out = tmp_path_factory.getbasetemp() / "emit-vs-reference.csv"
        emit_csv(rows, out)
        want = io.StringIO(newline="")
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([_reference_field(getattr(row, name)) for name in CSV_HEADER])
        with open(out, newline="") as fh:
            assert fh.read() == want.getvalue()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rows=st.lists(_rows(_ANY_REAL), max_size=5))
    def test_a_non_finite_real_writes_no_file_and_other_rows_read_back(
        self, rows, tmp_path_factory
    ):
        out = tmp_path_factory.getbasetemp() / "maybe-finite.csv"
        out.unlink(missing_ok=True)
        reals = [getattr(row, name) for row in rows for name in CSV_HEADER
                 if name not in (*experiments._LABELS, "n")]
        if any(value is not None and not math.isfinite(value) for value in reals):
            with pytest.raises(ValueError, match="is not finite"):
                emit_csv(rows, out)
            assert not out.exists()
        else:
            emit_csv(rows, out)
            again = out.with_name("re-emitted.csv")
            emit_csv(parse_csv(out), again)
            assert again.read_bytes() == out.read_bytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rows=st.lists(_rows() | _any_rows(), max_size=5))
    @example(rows=[_blank_row(n=0, exact_worst=-1.0)])
    @example(rows=[_blank_row(), _blank_row(n=-3)])
    @example(rows=[_abort_row(n=5, exact_worst=0.3)])
    @example(rows=[_blank_row(exact_worst=True)])
    @example(rows=[_blank_row(), _blank_row(elb2=False)])
    @example(rows=[_blank_row(tau=Fraction(1, 3))])
    @example(rows=[_blank_row(tau="0.5")])
    @example(rows=[_blank_row(), _abort_row(omega=None)])
    @example(rows=[_blank_row(tau=10**400)])
    def test_either_no_file_or_a_round_trip_of_the_same_bytes(self, rows, tmp_path_factory):
        # the CSV schema on both sides: emit_csv refuses a row outside it
        # before it opens the file, and parse_csv refuses the same row,
        # written by hand, naming its line (one line per row, after the header)
        # and its column, or the cell's text where it does not parse
        base = tmp_path_factory.getbasetemp()
        out = base / "schema.csv"
        out.unlink(missing_ok=True)
        try:
            emit_csv(rows, out)
        except ValueError as exc:
            assert not out.exists()
            name, row = re.fullmatch(r"(\w+) of row (\d+) .*", str(exc)).groups()
            by_hand = base / "by-hand.csv"
            by_hand.write_bytes(_reference_bytes(rows))
            try:
                parse_csv(by_hand)
            except ValueError as refusal:
                line = int(row) + 2
                assert re.search(rf"by-hand\.csv, line {line}: ({name} |could not convert)",
                                 str(refusal))
            else:
                # only a real given as text is written as text that parses
                assert isinstance(getattr(rows[int(row)], name), str)
        else:
            again = base / "schema-again.csv"
            emit_csv(parse_csv(out), again)
            assert again.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("rows, fault, refusal", [
        ([_blank_row(n=0, exact_worst=-1.0)], "n of row 0 is not an integer >= 1: 0",
         "line 2: n is not an integer >= 1: 0"),
        ([_blank_row(), _blank_row(n=-3)], "n of row 1 is not an integer >= 1: -3",
         "line 3: n is not an integer >= 1: -3"),
        # a float's text loses its ".0", so the file parses
        ([_blank_row(n=4.0)], "n of row 0 is not an integer >= 1: 4.0", None),
        ([_blank_row(exact_worst=-1.0)], "exact_worst of row 0 is negative: -1.0",
         "line 2: exact_worst is negative: -1.0"),
        ([_blank_row(), _blank_row(mc_stderr=-5e-324)], "mc_stderr of row 1 is negative: -5e-324",
         "line 3: mc_stderr is negative: -5e-324"),
        ([_abort_row(n=5, exact_worst=0.3)], "n of row 0 is set in an abort row: 5",
         "line 2: n is set in an abort row: 5"),
        ([_abort_row(), _abort_row(tau=2.5)], "tau of row 1 is set in an abort row: 2.5",
         "line 3: tau is set in an abort row: 2.5"),
        # bools and Fractions are written as text that does not parse as a real
        ([_blank_row(exact_worst=True)], "exact_worst of row 0 is not a real number: True",
         "line 2: could not convert string to float: 'True'"),
        ([_blank_row(), _blank_row(elb2=False)], "elb2 of row 1 is not a real number: False",
         "line 3: could not convert string to float: 'False'"),
        ([_blank_row(tau=Fraction(1, 3))], "tau of row 0 is not a real number: Fraction(1, 3)",
         "line 2: could not convert string to float: '1/3'"),
        # a real given as text is written as that text, which parses
        ([_blank_row(tau="0.5")], "tau of row 0 is not a real number: '0.5'", None),
        ([_blank_row(), _abort_row(omega=None)], "omega of row 1 is empty",
         "line 3: omega is empty"),
        # an int past the float range is written as its digits, which parse as inf
        ([_blank_row(tau=10**400)], f"tau of row 0 is not finite: {10**400}",
         "line 2: tau is not finite: inf"),
        # the quoted record of the label spans lines 2 and 3
        ([_blank_row(threshold_strategy="a\nb")],
         "threshold_strategy of row 0 holds a line break: 'a\\nb'",
         "line 3: threshold_strategy holds a line break: 'a\\nb'"),
        # a label that is not a string is written as text, "" for None, which parses
        ([_blank_row(threshold_strategy=None)], "threshold_strategy of row 0 is not a string: None",
         None),
        ([_blank_row(), _blank_row(rate_strategy=7)], "rate_strategy of row 1 is not a string: 7",
         None),
    ], ids=["n-zero", "n-negative", "n-float", "loss-negative", "stderr-negative-subnormal",
            "abort-with-n", "abort-with-tau", "real-true", "real-false", "real-fraction",
            "real-text", "omega-empty", "real-huge-int", "label-line-break", "label-none",
            "label-int"])
    def test_a_row_outside_the_schema_is_rejected_on_both_sides(
        self, rows, fault, refusal, tmp_path
    ):
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=rf"^{re.escape(fault)}$"):
            emit_csv(rows, out)
        assert not out.exists()
        by_hand = tmp_path / "by-hand.csv"
        by_hand.write_bytes(_reference_bytes(rows))
        if refusal is None:
            assert len(parse_csv(by_hand)) == len(rows)
            return
        with pytest.raises(ValueError, match=rf"by-hand\.csv, {re.escape(refusal)}$"):
            parse_csv(by_hand)

    def test_labels_and_mixed_columns_span_chunks_as_csv_writes_them(self, tmp_path):
        # the first chunk's reals and counts are of one type each; later
        # chunks mix None with signed zeros, the least subnormal and the
        # largest doubles in a column
        labels = ("a,b", 'say "hi"', '"', "tab\tcell", "\x0b", "form\x0cfeed", '",', " lead", "")
        big = sys.float_info.max
        reals = (-0.0, 0.0, 5e-324, -5e-324, big, -big, None, 0.1, 1e-300, 123456789012.5)
        omegas = [real for real in reals if real is not None]  # every row sets omega
        chunk = experiments._EMIT_CHUNK
        rows = []
        for i in range(2 * chunk + 17):
            # an abort row sets no number but omega
            aborted = labels[(i // 5) % len(labels)] if i >= chunk and i % 4 == 0 else ""
            numbers = dict(
                n=i + 1 if i < chunk or i % 3 else None,
                tau=i / 7 if i < chunk else reals[(i // 2) % len(reals)],
                elb2=None if i < chunk else -0.0,
                mc_worst=5e-324 if i % 2 else None,
            )
            rows.append(SweepRow(
                omega=0.25 if i < chunk else omegas[i % len(omegas)],
                threshold_strategy=labels[i % len(labels)],
                rate_strategy=labels[(i // 3) % len(labels)] if i >= chunk else "true-omega",
                aborted=aborted,
                **(dict.fromkeys(numbers) if aborted else numbers),
            ))
        out = tmp_path / "labels.csv"
        emit_csv(rows, out)
        want = io.StringIO(newline="")
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow([_reference_field(getattr(row, name)) for name in CSV_HEADER])
        assert out.read_bytes() == want.getvalue().encode()

    @pytest.mark.parametrize("label", ["{", "}", "{0}", 'a,"b', '"'])
    @pytest.mark.parametrize("real", [-0.0, 5e-324, sys.float_info.max, -sys.float_info.max])
    def test_blocks_write_the_bytes_of_their_rows(self, label, real, tmp_path):
        # a block past one chunk, fixed cells that need quoting or escaping,
        # then loose all-varying rows, some with the same label; the real
        # goes where the schema leaves it free (omega, tau), its magnitude
        # where a loss must be >= 0
        size = experiments._EMIT_CHUNK + 5
        block = experiments._Block(
            dict(omega=real, threshold_strategy=label, elb2=abs(real)),
            dict(
                n=list(range(1, size + 1)),
                tau=[real if i % 5 == 0 else i / 7 for i in range(size)],
                rate_strategy=["{}" if i % 3 == 0 else label if i % 2 else "{1}" for i in range(size)],
                exact_worst=[None if i % 3 else i / 3 for i in range(size)],
                elb1=[abs(real)] * size,
            ),
        )
        loose = [
            _blank_row(threshold_strategy=label, rate_strategy="{0}", tau=real),
            _blank_row(omega=real, n=None, tau=None, exact_worst=None, aborted="gap-collapse"),
            _blank_row(rate_strategy=label, elb2=-0.0, mc_stderr=5e-324),
            _blank_row(n=None, tau=None, exact_worst=None, aborted=label),
        ]
        rows = experiments.SweepRows([block, experiments._rows_block(loose)])
        assert len(rows) == size + 4
        out = tmp_path / "blocks.csv"
        emit_csv(rows, out)
        assert out.read_bytes() == _reference_bytes(list(rows))

    @pytest.mark.parametrize("sweep, spec", [
        (figure1a_sweep, ExperimentSpec(
            noise_grid=(0.4, 0.1, 0.0, 1 / 3, 0.01, 0.3), n_grid=(256, 5, 1, 5, 64, 1000, 1))),
        (figure1b_sweep, ExperimentSpec.figure1b(
            noise_grid=(0.4, 0.1, 0.0, 1 / 3, 0.01, 0.3), n_max=64)),
    ], ids=["fig1a", "fig1b"])
    def test_closed_form_blocks_write_the_bytes_of_their_rows(self, sweep, spec, tmp_path):
        # collapsed levels between live ones, round counts unsorted and repeated
        rows = sweep(spec)
        out = tmp_path / "sweep.csv"
        emit_csv(rows, out)
        assert out.read_bytes() == _reference_bytes(list(rows))

    def test_emit_memory_is_bounded_by_its_chunk(self, tmp_path):
        rows = figure1a_sweep(ExperimentSpec(noise_grid=default_noise_grid()))
        out = tmp_path / "fig1a.csv"
        emit_csv([rows[i] for i in range(10)], out)  # one-time allocations stay out of the peak
        tracemalloc.start()
        try:
            emit_csv(rows, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 24 * 256
        # about 0.7 MB in chunks; the text of all 6,144 rows at once made 3.7 MB
        assert peak <= 1_000_000

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
        rows = [
            *figure1b_sweep(ExperimentSpec.figure1b(noise_grid=(0.1, 0.01))),
            _blank_row(n=None, tau=None, exact_worst=None, aborted="gap-collapse"),
        ]
        first = tmp_path / "first.csv"
        emit_csv(rows, first)
        parsed = parse_csv(first)
        # rows hold full doubles; the parse holds each real's 12-digit value
        assert parsed != rows
        assert len(parsed) == len(rows)
        for got, row in zip(parsed, rows):
            for name in CSV_HEADER:
                value = getattr(row, name)
                if isinstance(value, float):
                    value = float(f"{value:.12g}")
                assert getattr(got, name) == value
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

    def test_rejects_an_empty_file_naming_the_path(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match=r"empty\.csv, line 1: unexpected CSV header"):
            parse_csv(empty)

    @pytest.mark.parametrize("cells", [1, -1])
    def test_rejects_a_record_of_the_wrong_width_naming_its_line(self, cells, tmp_path):
        # an extra cell, or one missing, on the second of two records
        good = tmp_path / "good.csv"
        emit_csv([_blank_row(), _blank_row(n=9)], good)
        lines = good.read_text().splitlines()
        lines[2] = lines[2] + ",extra" if cells > 0 else lines[2].rsplit(",", 1)[0]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        width = len(CSV_HEADER) + cells
        with pytest.raises(ValueError, match=rf"bad\.csv, line 3: {width} cells, want "):
            parse_csv(bad)

    @pytest.mark.parametrize("name", ["threshold_strategy", "rate_strategy", "aborted"])
    @pytest.mark.parametrize("label", ["a\rb", "\n", "crlf\r\n"])
    def test_a_label_with_a_line_break_is_rejected_before_any_file(self, name, label, tmp_path):
        # emit_csv would write a lone "\r" unquoted, as csv.writer does on
        # Python 3.11, and parse_csv could not read the file back; an abort
        # row sets no number but omega, so the label is its one fault
        out = tmp_path / "out.csv"
        fault = f"{name} of row 1 holds a line break: {label!r}"
        with pytest.raises(ValueError, match=rf"^{re.escape(fault)}$"):
            emit_csv([_blank_row(), _abort_row(**{name: label})], out)
        assert not out.exists()

    @pytest.mark.parametrize("name", ["threshold_strategy", "rate_strategy", "aborted"])
    def test_a_label_assigned_after_construction_is_rejected_before_any_file(
        self, name, tmp_path
    ):
        # a row holds any label, given when it is built or assigned after;
        # the CSV schema is checked where rows are written
        built = SweepRow(**(dict(omega=0.1, threshold_strategy="finite-sample",
                                 rate_strategy="true-omega") | {name: "a\nb"}))
        assert getattr(built, name) == "a\nb"
        row = SweepRow(omega=0.1, threshold_strategy="finite-sample", rate_strategy="true-omega")
        setattr(row, name, "a\rb")
        out = tmp_path / "out.csv"
        for rows, label in (([built], "a\nb"), ([row], "a\rb")):
            fault = f"{name} of row 0 holds a line break: {label!r}"
            with pytest.raises(ValueError, match=rf"^{re.escape(fault)}$"):
                emit_csv(rows, out)
            assert not out.exists()

    @pytest.mark.parametrize("place", ["fixed", "column"])
    def test_a_block_label_with_a_line_break_is_rejected_before_any_file(self, place, tmp_path):
        # a closed-form block holds its strategies once, an all-varying one as a column
        if place == "fixed":
            rows = figure1a_sweep(ExperimentSpec(noise_grid=(0.1,), n_grid=(4, 8)))
            rows._blocks[-1].fixed["rate_strategy"] = "true\nomega"
        else:
            row = _blank_row()
            row.rate_strategy = "ml\r"
            rows = experiments.SweepRows([experiments._rows_block([_blank_row(), row])])
        out = tmp_path / "out.csv"
        row = 0 if place == "fixed" else 1
        with pytest.raises(ValueError, match=f"^rate_strategy of row {row} holds a line break"):
            emit_csv(rows, out)
        assert not out.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("where", [
        ("fig1a", "exact_worst"), ("fig1a", "elb2"), ("fig3", "mc_stderr"), ("fig3", "omega"),
    ], ids="-".join)
    def test_a_real_that_is_not_finite_is_rejected_naming_its_column_and_row(
        self, where, bad, tmp_path
    ):
        # fig1a's level blocks hold elb2 once and exact_worst as a column;
        # fig3's one all-varying block holds every field as a column, None
        # in abort rows
        sweep, name = where
        if sweep == "fig1a":
            rows = figure1a_sweep(ExperimentSpec(noise_grid=(0.05, 0.1), n_grid=(4, 8, 16)))
        else:
            rows = figure3_comparison(ExperimentSpec.figure3(noise_grid=(0.02, 0.1), trials=200))
        block = rows._blocks[-1]
        first = len(rows) - len(block)
        if name in block.fixed:
            block.fixed[name], i = bad, 0
        else:
            column = list(block.columns[name])
            i = max(j for j, v in enumerate(column) if v is not None)
            column[i] = bad
            block.columns[name] = column
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=rf"^{name} of row {first + i} is not finite: {bad!r}$"):
            emit_csv(rows, out)
        assert not out.exists()

    def test_a_row_list_real_that_is_not_finite_is_rejected_before_any_file(self, tmp_path):
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=r"^tau of row 1 is not finite: nan$"):
            emit_csv([_blank_row(), _blank_row(tau=math.nan)], out)
        assert not out.exists()
        # zeros and empty cells are written, and so is a column whose sum overflows
        big = sys.float_info.max
        emit_csv([_blank_row(tau=0.0, elb1=None, mc_stderr=-0.0, elb2=big), _blank_row(elb2=big)], out)
        assert parse_csv(out)[0].tau == 0.0

    def test_rejects_a_quoted_line_break_naming_its_line(self, tmp_path):
        good = tmp_path / "good.csv"
        emit_csv([_blank_row(), _abort_row()], good)
        text = good.read_text()
        bad = tmp_path / "bad.csv"
        bad.write_text(text.replace(",gap-collapse\n", ',"gap\ncollapse"\n'))
        # the record spans lines 3 and 4; csv's line count ends at its last line
        with pytest.raises(ValueError, match=r"bad\.csv, line 4: aborted holds a line break"):
            parse_csv(bad)

    def test_rejects_an_unparsable_cell_naming_its_line(self, tmp_path):
        good = tmp_path / "good.csv"
        emit_csv([_blank_row()], good)
        header, record = good.read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n{record.replace(',8,', ',eight,', 1)}\n")
        with pytest.raises(ValueError, match=r"bad\.csv, line 2: invalid literal"):
            parse_csv(bad)

    @pytest.mark.parametrize("record, name", [
        ("0.1,3,inf,finite-sample,true-omega,nan,,,,,", "tau"),
        ("0.1,3,2.5,finite-sample,true-omega,nan,,,,,", "exact_worst"),
        ("0.1,3,2.5,finite-sample,true-omega,1e999,,,,,", "exact_worst"),
        ("-inf,,,finite-sample,true-omega,,,,,,gap-collapse", "omega"),
        ("0.1,3,2.5,finite-sample,true-omega,0.5,,,,NaN,", "mc_stderr"),
    ], ids=["tau-inf", "exact_worst-nan", "exact_worst-overflow", "omega-minus-inf", "mc_stderr-NaN"])
    def test_rejects_a_real_that_is_not_finite_naming_its_line(self, record, name, tmp_path):
        # emit_csv refuses to write such a row, so parse_csv refuses to read one
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(CSV_HEADER) + "\n" + record + "\n")
        with pytest.raises(ValueError, match=rf"bad\.csv, line 2: {name} is not finite"):
            parse_csv(bad)
