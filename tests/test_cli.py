"""End-to-end tests of the command line interface."""

import warnings

import pytest

from threshauth.cli import main
from threshauth.experiments import parse_csv


class TestCalculatorCommands:
    def test_bounds_prints_design_summary(self, capsys):
        rc = main(["bounds", "--omega", "0.1", "--n", "64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "attacker_floor" in out and "0.55" in out
        assert "22.35529636" in out
        assert "0.7027430507" in out
        assert "1.437066777" in out

    def test_bounds_respects_loss_flags(self, capsys):
        rc = main(["bounds", "--omega", "0.1", "--n", "64", "--la", "1", "--lu", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        # equal losses put the threshold at the midpoint count
        assert "24" in out

    def test_exact_prints_brute_force_optimum(self, capsys):
        rc = main(["exact", "--omega", "0.1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "n_star" in out and "24" in out
        assert "tau_star" in out and "8" in out
        assert "0.335211592" in out

    def test_exact_accepts_zero_round_cost(self, capsys):
        # free rounds make the longest search window optimal
        rc = main(["exact", "--omega", "0.1", "--lb", "0", "--n", "64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "n_star            63" in out

    def test_exact_keeps_a_rare_rejection_to_full_precision(self, capsys):
        # lu = 1e9 weighs a user rejection probability near 1e-10; rational
        # enumeration of the optimum gives 0.333263085...
        rc = main(["exact", "--omega", "0.01", "--la", "1", "--lu", "1e9", "--lb", "0.01",
                   "--n", "64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "worst_loss        0.3332630853" in out

    def test_estimate_noise_is_seeded(self, capsys):
        rc = main(["estimate-noise", "--omega", "0.1", "--k", "1024", "--seed", "7"])
        first = capsys.readouterr().out
        assert rc == 0
        assert "omega_hat" in first
        main(["estimate-noise", "--omega", "0.1", "--k", "1024", "--seed", "7"])
        assert capsys.readouterr().out == first
        main(["estimate-noise", "--omega", "0.1", "--k", "1024", "--seed", "8"])
        assert capsys.readouterr().out != first

    def test_estimate_noise_reports_collapsed_widened_bounds(self, capsys):
        # at w = 0.5 the estimate's widened rate bounds cross: the point
        # estimate is still printed, and the missing bounds are reported
        # on stdout, not as an error
        rc = main(["estimate-noise", "--omega", "0.5"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0].startswith("observed_errors")
        assert lines[-1].startswith("hp_rates          unavailable (widened bounds collapse: ")
        assert not any(line.startswith("hp_attacker_floor") for line in lines)


class TestSweepCommands:
    def test_fig1a_writes_reproducible_csv(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["fig1a", "--seed", "1729", "--out", str(a)]) == 0
        assert "wrote 512 rows" in capsys.readouterr().out
        assert main(["fig1a", "--seed", "1729", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(parse_csv(a)) == 512

    def test_fig1b_single_noise_point(self, tmp_path):
        out = tmp_path / "fig1b.csv"
        assert main(["fig1b", "--omega", "0.1", "--out", str(out)]) == 0
        rows = parse_csv(out)
        assert len(rows) == 2
        brute, finite = rows
        assert brute.threshold_strategy == "brute-force"
        assert (brute.n, brute.tau) == (24, 8.0)
        assert finite.threshold_strategy == "finite-sample"
        assert finite.n == 64

    def test_fig3_strategy_filter(self, tmp_path):
        out = tmp_path / "fig3.csv"
        args = ["fig3", "--omega", "0.05", "--trials", "200", "--out", str(out)]
        assert main(args + ["--strategy", "finite-sample"]) == 0
        rows = parse_csv(out)
        assert len(rows) == 6  # one per rate strategy
        assert {r.threshold_strategy for r in rows} == {"finite-sample"}
        assert main(args + ["--strategy", "asymptotic"]) == 0
        rows = parse_csv(out)
        assert {r.threshold_strategy for r in rows} == {"asymptotic"}
        assert main(args + ["--strategy", "all"]) == 0
        rows = parse_csv(out)
        assert len(rows) == 12  # both threshold strategies per rate strategy
        assert {r.threshold_strategy for r in rows} == {"finite-sample", "asymptotic"}

    def test_fig3_seed_matters(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["fig3", "--omega", "0.1", "--trials", "200", "--strategy", "finite-sample"]
        assert main(args + ["--seed", "1", "--out", str(a)]) == 0
        assert main(args + ["--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_duel_grid(self, tmp_path):
        out = tmp_path / "duel.csv"
        assert main(["duel", "--trials", "100", "--out", str(out)]) == 0
        rows = parse_csv(out)
        assert len(rows) == 32
        assert {r.threshold_strategy for r in rows} == {"finite-sample", "asymptotic"}

    def test_duel_single_trial_writes_finite_stderr_without_warning(self, tmp_path):
        out = tmp_path / "duel.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["duel", "--trials", "1", "--out", str(out)]) == 0
        assert "nan" not in out.read_text()
        rows = parse_csv(out)
        assert len(rows) == 32
        assert all(r.mc_stderr > 0.0 for r in rows)

    def test_duel_honours_noise_grid_in_given_order(self, tmp_path):
        out = tmp_path / "duel.csv"
        args = ["duel", "--omega", "0.1", "--omega", "0.01", "--trials", "50"]
        assert main(args + ["--out", str(out)]) == 0
        rows = parse_csv(out)
        assert len(rows) == 16
        assert [r.omega for r in rows[::8]] == [0.1, 0.01]

    @pytest.mark.parametrize("sweep", ["fig1a", "fig1b", "duel"])
    def test_collapsed_noise_point_becomes_abort_rows(self, sweep, tmp_path):
        out = tmp_path / f"{sweep}.csv"
        args = [sweep, "--omega", "0.1", "--omega", "0.4", "--out", str(out)]
        if sweep == "duel":
            args += ["--trials", "50"]
        assert main(args) == 0
        assert "nan" not in out.read_text()
        rows = parse_csv(out)
        kept = [r for r in rows if r.omega == 0.1]
        collapsed = [r for r in rows if r.omega == 0.4]
        assert kept and all(r.aborted == "" for r in kept)
        # one abort row per threshold strategy the point would have produced
        assert sorted(r.threshold_strategy for r in collapsed) == sorted(
            {r.threshold_strategy for r in kept}
        )
        for r in collapsed:
            assert r.aborted == "gap-collapse"
            assert r.rate_strategy == "true-omega"
            assert (r.n, r.tau, r.exact_worst, r.elb1, r.elb2, r.mc_worst, r.mc_stderr) == (
                (None,) * 7
            )

    def test_duel_zero_noise_point_aborts_only_the_asymptotic_threshold(self, tmp_path):
        # the likelihood-ratio threshold needs a positive user ceiling
        out = tmp_path / "duel.csv"
        args = ["duel", "--omega", "0", "--omega", "0.1", "--trials", "10"]
        assert main(args + ["--out", str(out)]) == 0
        rows = parse_csv(out)
        quiet = [r for r in rows if r.omega == 0.0]
        assert [r.threshold_strategy for r in quiet] == ["finite-sample", "asymptotic"] * 4
        for finite, asym in zip(quiet[::2], quiet[1::2]):
            assert finite.aborted == "" and finite.mc_worst is not None
            assert asym.aborted == "invalid-rates"
            assert (asym.n, asym.tau, asym.mc_worst) == (None, None, None)
        assert all(r.aborted == "" for r in rows if r.omega == 0.1)

    def test_fig3_scores_guesses_where_the_user_errs_as_often_as_the_attacker(self, tmp_path):
        # on the physical channel the user's rate 1 - (1 - w)^2 equals the
        # attacker's (1 + w) / 2 at w = 1/2 and exceeds it above; the
        # fixed-guess designs are still scored there
        out = tmp_path / "fig3.csv"
        args = ["fig3", "--omega", "0.5", "--omega", "0.9", "--trials", "50"]
        assert main(args + ["--out", str(out)]) == 0
        assert "nan" not in out.read_text()
        rows = parse_csv(out)
        for w in (0.5, 0.9):
            guesses = [r for r in rows if r.omega == w and r.rate_strategy.startswith("guess:")]
            assert len(guesses) == 6
            for r in guesses:
                assert r.aborted == ""
                assert None not in (r.n, r.tau, r.exact_worst, r.mc_worst, r.mc_stderr)
                assert r.exact_worst >= r.n * 1e-2

    def test_default_output_lands_in_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["fig1b", "--omega", "0.1"]) == 0
        assert (tmp_path / "fig1b.csv").exists()


class TestErrorPaths:
    def test_collapsed_channel_reports_error(self, capsys):
        rc = main(["bounds", "--omega", "0.5"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")

    def test_bad_estimate_noise_input_prints_nothing_on_stdout(self, capsys):
        rc = main(["estimate-noise", "--omega", "0.1", "--delta", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("command", ["bounds", "exact", "estimate-noise"])
    @pytest.mark.parametrize("omega", ["1.5", "-0.1", "nan"])
    def test_flip_probability_outside_unit_interval_is_rejected(self, command, omega, capsys):
        rc = main([command, "--omega", omega])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "not in [0,1]" in captured.err

    @pytest.mark.parametrize("command", ["bounds", "fig1a", "fig1b", "fig3", "duel"])
    def test_zero_round_cost_is_rejected_before_any_work(self, command, tmp_path, capsys):
        out = tmp_path / "out.csv"
        args = [command, "--omega", "0.1", "--lb", "0"]
        if command != "bounds":
            args += ["--out", str(out)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("sweep", ["fig1a", "fig1b", "fig3", "duel"])
    @pytest.mark.parametrize("grid", [["0.1", "1.5"], ["nan"]], ids=["out-of-range", "nan"])
    def test_bad_noise_level_is_rejected_before_any_work(self, sweep, grid, tmp_path, capsys):
        out = tmp_path / f"{sweep}.csv"
        args = [sweep, "--out", str(out)]
        for w in grid:
            args += ["--omega", w]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "noise level" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("omega", ["0.1", "0.4"])
    def test_search_limit_below_one_is_rejected_before_any_work(self, omega, tmp_path, capsys):
        # at 0.4 the rates collapse, so no brute-force search would run
        out = tmp_path / "fig1b.csv"
        assert main(["fig1b", "--omega", omega, "--n", "0", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n_max" in captured.err
        assert not out.exists()

    def test_unwritable_output_reports_error(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "x.csv"
        rc = main(["fig1b", "--omega", "0.1", "--out", str(target)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        assert "x.csv" in captured.err
