"""Command line entry points for the sweeps and design calculators."""

from __future__ import annotations

import argparse
import functools
import sys

from .bounds import optimal_rounds, optimal_threshold, rounds_loss_bound, threshold_loss_bound
from .channel import swiss_hitomi_rates
from .exact import brute_force_optimal
from .experiments import (
    _THRESHOLD_RULES,
    DEFAULT_LOSSES,
    DEFAULT_SEED,
    ExperimentSpec,
    emit_csv,
    figure1a_sweep,
    figure1b_sweep,
    figure3_comparison,
    threshold_duel,
)
from .loss import GapCollapseError, LossParameters
from .noise import (
    NoiseEstimate,
    coded_phase_streams,
    default_transparent_code,
    high_probability_rates,
    simulate_coded_phase,
)


def _add_loss_flags(p: argparse.ArgumentParser) -> None:
    la, lu, lb = DEFAULT_LOSSES.false_accept, DEFAULT_LOSSES.false_reject, DEFAULT_LOSSES.per_round
    p.add_argument("--la", type=float, default=la, help=f"false-accept loss (default {la:g})")
    p.add_argument("--lu", type=float, default=lu, help=f"false-reject loss (default {lu:g})")
    p.add_argument("--lb", type=float, default=lb, help=f"per-round loss (default {lb:g})")


def _losses(args: argparse.Namespace) -> LossParameters:
    return LossParameters(false_accept=args.la, false_reject=args.lu, per_round=args.lb)


def _cmd_bounds(args: argparse.Namespace) -> int:
    params = _losses(args)
    rates = swiss_hitomi_rates(args.omega)
    choice = optimal_rounds(params, rates)
    n = args.n if args.n is not None else choice.value
    thr = optimal_threshold(params, rates, n)
    print(f"omega             {args.omega:g}")
    print(f"attacker_floor    {rates.attacker_floor:.10g}")
    print(f"user_ceiling      {rates.user_ceiling:.10g}")
    print(f"gap               {rates.gap:.10g}")
    print(f"n_hat             {choice.value} (real {choice.real:.6f})")
    print(f"tau_hat(n={n})    {thr.value:.10g}" + (" [clamped]" if thr.clamped else ""))
    print(f"elb1(n={n})       {threshold_loss_bound(params, rates, n):.10g}")
    print(f"elb2              {rounds_loss_bound(params, rates):.10g}")
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    params = _losses(args)
    rates = swiss_hitomi_rates(args.omega)
    best = brute_force_optimal(params, rates, args.n)
    print(f"n_star            {best.rounds}")
    print(f"tau_star          {best.threshold}")
    print(f"worst_loss        {best.worst_loss:.10g}")
    return 0


def _cmd_estimate_noise(args: argparse.Namespace) -> int:
    # the stream first: it checks the seed before any other work
    rng = coded_phase_streams(args.seed, (0,))[0]
    code = default_transparent_code(args.k)
    theta, hopeless = simulate_coded_phase(args.omega, code, rng)
    est = NoiseEstimate(theta, args.k, args.delta)
    print(f"observed_errors   {theta}")
    print(f"decode_hopeless   {hopeless}")
    print(f"omega_hat         {est.point_estimate:.10g}")
    print(f"half_width        {est.half_width:.10g}")
    print(
        f"interval          [{max(est.point_estimate - est.half_width, 0.0):.10g}, "
        f"{min(est.point_estimate + est.half_width, 1.0):.10g}]"
    )
    try:
        rates = high_probability_rates(est)
        print(f"hp_attacker_floor {rates.attacker_floor:.10g}")
        print(f"hp_user_ceiling   {rates.user_ceiling:.10g}")
    except GapCollapseError as exc:
        print(f"hp_rates          unavailable ({exc})")
    return 0


def _sweep_overrides(args: argparse.Namespace) -> dict:
    # each sweep's parser defines only the flags that apply to it
    overrides = dict(params=_losses(args), master_seed=args.seed)
    if args.omega:
        overrides["noise_grid"] = tuple(args.omega)
    for flag, field in (("n", "n_max"), ("trials", "trials"), ("k", "codeword_length")):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[field] = value
    if getattr(args, "strategy", "all") != "all":
        overrides["threshold_strategies"] = (args.strategy,)
    return overrides


def _cmd_sweep(args: argparse.Namespace, kind: str) -> int:
    # built per call, so each sweep is looked up in this module's globals
    build, run = {
        "fig1a": (ExperimentSpec, figure1a_sweep),
        "fig1b": (ExperimentSpec.figure1b, figure1b_sweep),
        "fig3": (ExperimentSpec.figure3, figure3_comparison),
        "duel": (ExperimentSpec.duel, threshold_duel),
    }[kind]
    rows = run(build(**_sweep_overrides(args)))
    out = args.out if args.out else f"{kind}.csv"
    emit_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _configure_bounds(p: argparse.ArgumentParser) -> None:
    _add_loss_flags(p)
    p.add_argument("--omega", type=float, required=True, help="channel flip probability")
    p.add_argument("--n", type=int, default=None, help="evaluate threshold at this n")
    p.set_defaults(func=_cmd_bounds)


def _configure_exact(p: argparse.ArgumentParser) -> None:
    _add_loss_flags(p)
    p.add_argument("--omega", type=float, required=True, help="channel flip probability")
    n_max = ExperimentSpec.n_max
    p.add_argument("--n", type=int, default=n_max, help=f"search rounds up to n (default {n_max})")
    p.set_defaults(func=_cmd_exact)


def _configure_sweep(kind: str, p: argparse.ArgumentParser) -> None:
    _add_loss_flags(p)
    p.add_argument(
        "--omega", type=float, action="append", default=None,
        help="noise grid point, repeatable (default: built-in grid)",
    )
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    p.add_argument("--out", type=str, default=None, help="output CSV path")
    if kind == "fig1b":
        p.add_argument("--n", type=int, default=None, help="brute-force search limit")
    if kind in ("fig3", "duel"):
        p.add_argument("--trials", type=int, default=None, help="Monte Carlo trials per identity")
    if kind == "fig3":
        k = ExperimentSpec.codeword_length
        p.add_argument("--k", type=int, default=None, help=f"codeword length (default {k})")
        p.add_argument(
            "--strategy", type=str, default="all",
            choices=["all", *_THRESHOLD_RULES],
            help="restrict the threshold strategy (default: all configured)",
        )
    p.set_defaults(func=lambda a: _cmd_sweep(a, kind))


def _configure_estimate_noise(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega", type=float, required=True, help="channel flip probability")
    k = ExperimentSpec.codeword_length
    p.add_argument("--k", type=int, default=k, help=f"codeword length (default {k})")
    p.add_argument("--delta", type=float, default=0.01, help="confidence parameter (default 0.01)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    p.set_defaults(func=_cmd_estimate_noise)


# Subcommand name -> (help, configure), in the order usage lists them.
# Only private callables, so every command still looks up the functions
# it runs in this module's globals when it runs.
_COMMANDS = {
    "bounds": ("closed-form threshold, rounds, and bounds", _configure_bounds),
    "exact": ("brute-force optimal rounds and threshold", _configure_exact),
    "fig1a": (
        "bound vs exact worst-case loss over round counts",
        functools.partial(_configure_sweep, "fig1a"),
    ),
    "fig1b": (
        "brute-force optimum vs closed-form design over noise",
        functools.partial(_configure_sweep, "fig1b"),
    ),
    "fig3": (
        "noise-estimation strategy comparison with Monte Carlo",
        functools.partial(_configure_sweep, "fig3"),
    ),
    "duel": (
        "finite-sample vs asymptotic threshold at small designs",
        functools.partial(_configure_sweep, "duel"),
    ),
    "estimate-noise": (
        "simulate a coded phase and estimate the noise",
        _configure_estimate_noise,
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; with a known ``command``, only that subcommand is built.

    Any other ``command`` builds all of them, so help, usage and the
    unknown-command error list every subcommand. A one-subcommand
    parser keeps the full list in its usage line too.
    """
    parser = argparse.ArgumentParser(
        prog="threshauth",
        description=(
            "Design calculators and figure sweeps for thresholded "
            "challenge-response authentication over noisy channels."
        ),
    )
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    metavar = "{" + ",".join(_COMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, configure = _COMMANDS[name]
        configure(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
