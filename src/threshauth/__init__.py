"""Expected-loss analysis of thresholded challenge-response authentication.

A verifier exchanges n rapid rounds with a prover over a noisy channel
and accepts when the error count stays below a threshold. This package
computes finite-sample loss bounds and the closed-form near-optimal
designs they induce, exact binomial ground truth, asymptotic Bayesian
thresholds, channel-noise estimation from coded phases, and seeded
Monte Carlo experiments comparing all of the above.
"""

from .asymptotic import (
    HypothesisPrior,
    approx_threshold,
    asymptotic_threshold,
    bayes_risk,
    bayes_threshold,
)
from .bounds import (
    BoundReport,
    RoundsChoice,
    ThresholdChoice,
    loss_bound_at,
    optimal_rounds,
    optimal_threshold,
    rounds_loss_bound,
    threshold_loss_bound,
)
from .channel import swiss_hitomi_rates
from .exact import (
    BinomialSpec,
    BruteForceResult,
    binomial_cdf,
    binomial_pmf,
    binomial_sf,
    brute_force_optimal,
    exact_expected_losses,
    exact_worst_case_losses,
)
from .loss import (
    ErrorRateBounds,
    GapCollapseError,
    LossParameters,
    ProverIdentity,
    rejected_count_min,
)
from .noise import (
    NoiseEstimate,
    TransparentCode,
    high_probability_rates,
    simulate_coded_phase,
)

__version__ = "0.1.0"

__all__ = [
    "BinomialSpec",
    "BoundReport",
    "BruteForceResult",
    "ErrorRateBounds",
    "GapCollapseError",
    "HypothesisPrior",
    "LossParameters",
    "NoiseEstimate",
    "ProverIdentity",
    "RoundsChoice",
    "ThresholdChoice",
    "TransparentCode",
    "approx_threshold",
    "asymptotic_threshold",
    "bayes_risk",
    "bayes_threshold",
    "binomial_cdf",
    "binomial_pmf",
    "binomial_sf",
    "brute_force_optimal",
    "exact_expected_losses",
    "exact_worst_case_losses",
    "high_probability_rates",
    "loss_bound_at",
    "optimal_rounds",
    "optimal_threshold",
    "rejected_count_min",
    "rounds_loss_bound",
    "simulate_coded_phase",
    "swiss_hitomi_rates",
    "threshold_loss_bound",
]
