"""Binary symmetric channel, protocol error-rate mapping, and simulation.

Maps channel noise to the per-round error-rate bounds of the analyzed
challenge-response protocols, and runs deterministic Monte Carlo trials
of the rapid bit-exchange phase for both prover identities: each trial's
error count is one binomial draw from a per-identity random stream.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .loss import (
    ErrorRateBounds,
    GapCollapseError,
    LossParameters,
    ProverIdentity,
)

# Sub-stream tags keep user trials, attacker trials, and coded-phase
# draws on disjoint random streams under one master seed.
_STREAM_TAG = {ProverIdentity.USER: 1, ProverIdentity.ATTACKER: 2}
CODED_PHASE_TAG = 3


@dataclass(frozen=True)
class ChannelModel:
    """Memoryless symmetric bit-flip channel over {0,1}."""

    flip_probability: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.flip_probability <= 1.0):
            raise ValueError(
                f"flip_probability not in [0,1]: {self.flip_probability}"
            )


class UserErrorModel(enum.Enum):
    """How the legitimate user's per-round error probability is set.

    AT_BOUND places the user exactly at its ceiling rate (twice the flip
    probability), the worst case the bounds are designed against.
    PHYSICAL uses 1 - (1 - w)^2, the rate of a round whose challenge and
    response each cross the channel once.
    """

    AT_BOUND = "at-bound"
    PHYSICAL = "physical"

    def per_round_error(self, flip_probability: float) -> float:
        if self is UserErrorModel.AT_BOUND:
            return min(2.0 * flip_probability, 1.0)
        return 1.0 - (1.0 - flip_probability) ** 2


def attacker_per_round_error(flip_probability: float) -> float:
    """Per-round error of the guessing relay attacker: (1 + w) / 2."""
    return (1.0 + flip_probability) / 2.0


def swiss_hitomi_rates(channel: ChannelModel) -> ErrorRateBounds:
    """Error-rate bounds of the analyzed protocol family.

    Attacker floor (1 + w) / 2 and user ceiling 2w, which separate only
    for flip probabilities strictly below 1/3.
    """
    w = channel.flip_probability
    if w >= 1.0 / 3.0:
        raise GapCollapseError(
            f"rate bounds collapse at flip probability {w} >= 1/3"
        )
    return ErrorRateBounds(
        attacker_floor=attacker_per_round_error(w), user_ceiling=2.0 * w
    )


@dataclass(frozen=True)
class RapidBitExchangeConfig:
    """Per-round error probabilities and decision rule of one instance."""

    rounds: int
    threshold: float
    user_round_error_prob: float
    attacker_round_error_prob: float

    def __post_init__(self) -> None:
        if not (isinstance(self.rounds, int) and self.rounds >= 1):
            raise ValueError(f"rounds must be a positive integer, got {self.rounds}")
        for name in ("user_round_error_prob", "attacker_round_error_prob"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} not in [0,1]: {v}")

    @classmethod
    def from_channel(
        cls,
        channel: ChannelModel,
        rounds: int,
        threshold: float,
        user_model: UserErrorModel = UserErrorModel.AT_BOUND,
    ) -> "RapidBitExchangeConfig":
        return cls(
            rounds=rounds,
            threshold=threshold,
            user_round_error_prob=user_model.per_round_error(
                channel.flip_probability
            ),
            attacker_round_error_prob=attacker_per_round_error(
                channel.flip_probability
            ),
        )

    def per_round_error(self, identity: ProverIdentity) -> float:
        if identity is ProverIdentity.ATTACKER:
            return self.attacker_round_error_prob
        return self.user_round_error_prob


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Sample means and standard errors over repeated trials."""

    loss_attacker: float
    loss_user: float
    worst_case: float
    stderr_attacker: float
    stderr_user: float
    stderr_worst: float
    accept_rate_attacker: float
    accept_rate_user: float
    trials_per_identity: int


def _seed_entropy(master_seed: int | Sequence[int]) -> tuple[int, ...]:
    if isinstance(master_seed, (int, np.integer)):
        return (int(master_seed),)
    return tuple(int(s) for s in master_seed)


def _identity_stream(
    master_seed: int | Sequence[int], identity: ProverIdentity
) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(
            np.random.SeedSequence(
                _seed_entropy(master_seed) + (_STREAM_TAG[identity],)
            )
        )
    )


def simulate_error_counts(
    rounds: int,
    per_round_error: float,
    trials: int,
    master_seed: int | Sequence[int],
    identity: ProverIdentity,
) -> np.ndarray:
    """Error counts of ``trials`` independent runs of ``rounds`` rounds.

    Each count is one Binomial(rounds, per_round_error) variate; all of
    them come from a single vectorized draw on the stream derived from
    the master seed and the identity, so the result depends only on
    these arguments and the two identities never share draws.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return _identity_stream(master_seed, identity).binomial(
        rounds, per_round_error, trials
    )


def losses_from_counts(
    counts: np.ndarray,
    threshold: float,
    rounds: int,
    params: LossParameters,
    identity: ProverIdentity,
) -> np.ndarray:
    """Per-trial losses implied by error counts under a threshold rule."""
    accepted = counts < threshold
    base = rounds * params.per_round
    if identity is ProverIdentity.ATTACKER:
        return base + accepted * params.false_accept
    return base + (~accepted) * params.false_reject


def loss_stderr(
    counts: np.ndarray,
    threshold: float,
    params: LossParameters,
    identity: ProverIdentity,
    per_round_error: float,
) -> float:
    """Standard error of the mean of losses_from_counts(counts, ...).

    The mean loss is ``base + weight * p``, where p = hits / T is the
    fraction of the T trials that pay the decision loss ``weight``
    (false_accept on accepted attacker runs, false_reject on rejected
    user runs). The error is weight times the half-width of the Wilson
    (1927) score interval for p at z = 1:

        weight * sqrt(p (1 - p) / T + 1 / (4 T^2)) / (1 + 1 / T)

    It agrees with the plug-in sqrt(p (1 - p) / T) for large T and stays
    honest for rare events: at zero hits it is weight / (2 (T + 1)), so
    six of them are about the rule-of-three bound 3 / T. A per-round
    error of 0 or 1 makes every count equal, the mean exact, and the
    error 0.
    """
    if per_round_error in (0.0, 1.0):
        return 0.0
    trials = counts.size
    accepts = int(np.count_nonzero(counts < threshold))
    if identity is ProverIdentity.ATTACKER:
        hits, weight = accepts, params.false_accept
    else:
        hits, weight = trials - accepts, params.false_reject
    p = hits / trials
    return weight * math.sqrt(p * (1.0 - p) / trials + 0.25 / trials**2) / (
        1.0 + 1.0 / trials
    )


def estimate_worst_case_loss(
    config: RapidBitExchangeConfig,
    params: LossParameters,
    trials_per_identity: int,
    master_seed: int | Sequence[int],
) -> MonteCarloEstimate:
    """Monte Carlo estimate of the worst-case expected loss.

    Draws the given number of binomial error counts for each identity
    with simulate_error_counts, averages the implied losses, and takes
    the max of the two means. Standard errors come from loss_stderr, a
    Wilson score half-width that stays positive when the decision event
    is never observed; the worst-case standard error is the one of
    whichever identity attains the max.
    """
    stats = {}
    for identity in (ProverIdentity.ATTACKER, ProverIdentity.USER):
        p = config.per_round_error(identity)
        counts = simulate_error_counts(
            config.rounds, p, trials_per_identity, master_seed, identity
        )
        losses = losses_from_counts(
            counts, config.threshold, config.rounds, params, identity
        )
        stats[identity] = (
            float(losses.mean()),
            loss_stderr(counts, config.threshold, params, identity, p),
            float((counts < config.threshold).mean()),
        )
    att, use = stats[ProverIdentity.ATTACKER], stats[ProverIdentity.USER]
    worst_is_attacker = att[0] >= use[0]
    return MonteCarloEstimate(
        loss_attacker=att[0],
        loss_user=use[0],
        worst_case=max(att[0], use[0]),
        stderr_attacker=att[1],
        stderr_user=use[1],
        stderr_worst=att[1] if worst_is_attacker else use[1],
        accept_rate_attacker=att[2],
        accept_rate_user=use[2],
        trials_per_identity=trials_per_identity,
    )
