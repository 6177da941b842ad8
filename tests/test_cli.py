"""End-to-end tests of the command line interface."""

import warnings

import pytest

import threshauth.cli as cli
import threshauth.experiments as experiments
from threshauth.bounds import optimal_rounds
from threshauth.channel import swiss_hitomi_rates
from threshauth.cli import _losses, _sweep_overrides, build_parser, main
from threshauth.experiments import DEFAULT_LOSSES, ExperimentSpec, parse_csv


class TestCalculatorCommands:
    def test_bounds_prints_design_summary(self, capsys):
        rc = main(["bounds", "--omega", "0.1", "--n", "64"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "attacker_floor" in out and "0.55" in out
        assert "22.35529636" in out
        assert "0.7027430507" in out
        assert "1.437066777" in out

    def test_bounds_keeps_the_balance_point_as_the_gap_closes(self, capsys):
        # gap 5e-10: the balance point tends to sqrt(la * lu) / lb
        rc = main(["bounds", "--omega", "0.333333333"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "n_hat             316 (real 316.227766)" in out

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


COMMANDS = ("bounds", "exact", "fig1a", "fig1b", "fig3", "duel", "estimate-noise")

# one argv per subcommand that sets most of its flags
REPRESENTATIVE_ARGV = {
    "bounds": ["bounds", "--omega", "0.1", "--n", "64", "--la", "2"],
    "exact": ["exact", "--omega", "0.05", "--n", "100", "--lb", "0.001"],
    "fig1a": ["fig1a", "--omega", "0.1", "--omega", "0.2", "--seed", "3", "--out", "a.csv"],
    "fig1b": ["fig1b", "--omega", "0.1", "--n", "64", "--lu", "2"],
    "fig3": ["fig3", "--omega", "0.05", "--trials", "200", "--k", "512", "--strategy", "asymptotic"],
    "duel": ["duel", "--trials", "10", "--lb", "0.05"],
    "estimate-noise": ["estimate-noise", "--omega", "0.1", "--k", "256", "--delta", "0.05",
                       "--seed", "9"],
}


class TestParser:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_subcommand_parser_parses_as_the_full_parser(self, command):
        argv = REPRESENTATIVE_ARGV[command]
        full = vars(build_parser().parse_args(argv))
        one = vars(build_parser(command).parse_args(argv))
        assert callable(full.pop("func")) and callable(one.pop("func"))
        assert one == full

    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_flags_give_the_library_defaults(self, command):
        required = ["--omega", "0.1"] if command in ("bounds", "exact", "estimate-noise") else []
        args = build_parser(command).parse_args([command, *required])
        spec = ExperimentSpec()
        assert getattr(args, "seed", spec.master_seed) == spec.master_seed
        if command != "estimate-noise":
            assert _losses(args) == DEFAULT_LOSSES
        if command == "exact":
            assert args.n == spec.n_max
        if command == "estimate-noise":
            assert args.k == spec.codeword_length
        if command in ("fig1a", "fig1b", "fig3", "duel"):
            assert set(_sweep_overrides(args)) == {"params", "master_seed"}

    @pytest.mark.parametrize("command", ("fig3", "estimate-noise"))
    def test_codeword_length_help_names_the_library_default(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"codeword length (default {ExperimentSpec().codeword_length})" in help_text

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(COMMANDS) + "}" in out
        for command in COMMANDS:
            assert f"\n    {command} " in out

    def test_unknown_command_names_every_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert "(choose from " + ", ".join(f"'{c}'" for c in COMMANDS) + ")" in err

    def test_missing_command_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "required: command" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: threshauth {command} ")

    def test_error_after_a_known_command_prints_the_full_usage(self, capsys):
        # the one-subcommand parser still lists every command in its usage
        argv = ["bounds", "--omega", "0.1", "--bogus"]
        errors = []
        for parser in (build_parser(), build_parser("bounds")):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "{" + ",".join(COMMANDS) + "}" in errors[0]
        assert "unrecognized arguments: --bogus" in errors[0]


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

    @pytest.mark.parametrize("command", ["bounds", "exact", "fig1a", "fig3"])
    @pytest.mark.parametrize("losses", [("1e170", "1e170"), ("1e300", "1e300")])
    def test_loss_product_that_overflows_is_rejected(self, command, losses, tmp_path, capsys):
        # sqrt(la * lu) scales the bounds: unchecked, fig1a wrote inf in
        # every row and bounds failed converting nan to an integer
        la, lu = losses
        out = tmp_path / "out.csv"
        args = [command, "--omega", "0.1", "--la", la, "--lu", lu]
        if command in ("fig1a", "fig3"):
            args += ["--out", str(out)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: false_accept * false_reject overflows: false_accept {float(la)}, "
            f"false_reject {float(lu)}\n"
        )
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

    @pytest.mark.parametrize("command", ["fig1a", "fig1b", "fig3", "duel", "estimate-noise"])
    def test_negative_seed_is_rejected_before_any_work(
        self, command, tmp_path, monkeypatch, capsys
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the seed was checked")

        for name in ("figure1a_sweep", "figure1b_sweep", "figure3_comparison", "threshold_duel",
                     "default_transparent_code", "simulate_coded_phase"):
            monkeypatch.setattr(cli, name, no_work)
        out = tmp_path / "out.csv"
        args = [command, "--omega", "0.1", "--seed", "-1"]
        if command != "estimate-noise":
            args += ["--out", str(out)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: master_seed must be an integer >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("omega", ["0", "0.001", "0.01", "0.1", "0.3"])
    @pytest.mark.parametrize("losses", [["--la", "1e300"], ["--lb", "1e-300"]])
    def test_closed_form_round_count_past_int64_is_an_error(self, omega, losses, tmp_path, capsys):
        # n_hat is 1e76 to 1e150 rounds here, more than the exact kernel can count
        params = _losses(build_parser("fig1b").parse_args(["fig1b", *losses]))
        n_hat = optimal_rounds(params, swiss_hitomi_rates(float(omega))).value
        out = tmp_path / "fig1b.csv"
        assert main(["fig1b", "--omega", omega, *losses, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: omega {float(omega)!r}: closed-form n_hat {n_hat} is past the exact "
            "kernel's limit of 9223372036854775807 rounds\n"
        )
        assert not out.exists()

    def test_closed_form_round_count_past_int64_fails_before_any_search(
        self, tmp_path, monkeypatch, capsys
    ):
        searches, search = [], experiments.brute_force_optimal
        monkeypatch.setattr(
            experiments, "brute_force_optimal", lambda *args: searches.append(args) or search(*args)
        )
        out = tmp_path / "fig1b.csv"
        args = ["fig1b", "--omega", "0.01", "--omega", "0.1", "--omega", "0.3", "--la", "1e300"]
        assert main([*args, "--out", str(out)]) == 1
        assert searches == []
        err = capsys.readouterr().err
        assert err.startswith("error: omega 0.01: closed-form n_hat ")
        assert not out.exists()

    def test_unwritable_output_reports_error(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "x.csv"
        rc = main(["fig1b", "--omega", "0.1", "--out", str(target)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")
        assert "x.csv" in captured.err
