"""Loss structure for thresholded authentication protocols.

A protocol run costs a fixed amount per exchanged round plus a penalty
when the decision is wrong: accepting an attacker or rejecting the
legitimate user. Everything downstream (bounds, exact optima, Monte
Carlo) takes its loss parameters, rate bounds and decision rule from here.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np


def _is_count(value: object, least: int = 1) -> bool:
    """Whether ``value`` is a Python or numpy integer >= ``least``, not a bool."""
    # the exact-type test spares a plain int the slower abstract-class check
    integral = type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )
    return integral and value >= least


def rejected_count_min(
    threshold: float | np.ndarray, rounds: int | np.ndarray
) -> np.int64 | np.ndarray:
    """The smallest error count the rule "accept when count < threshold" rejects.

    ``ceil(clip(threshold, 0, rounds + 1))``, elementwise: for counts in
    0..n, ``count < threshold`` exactly when ``count`` is below it, and
    an infinite threshold becomes 0 or n + 1. A nan threshold raises
    ValueError.
    """
    tau = np.asarray(threshold, dtype=np.float64)
    if np.isnan(tau).any():
        raise ValueError("threshold must not be nan")
    return np.ceil(np.clip(tau, 0.0, np.asarray(rounds) + 1.0)).astype(np.int64)[()]


class GapCollapseError(ValueError):
    """Raised when attacker and user error-rate bounds fail to separate."""


class ProverIdentity(enum.Enum):
    USER = "user"
    ATTACKER = "attacker"


@dataclass(frozen=True)
class LossParameters:
    """The three unit losses and their derived ratio.

    Attributes
    ----------
    false_accept : float
        Loss suffered when an attacker is accepted.
    false_reject : float
        Loss suffered when the legitimate user is rejected.
    per_round : float
        Transmission cost per protocol round, possibly zero. The
        round-count optimizers divide by it and reject zero themselves.
    """

    false_accept: float
    false_reject: float
    per_round: float

    def __post_init__(self) -> None:
        if not (self.false_accept > 0 and math.isfinite(self.false_accept)):
            raise ValueError(f"false_accept must be positive, got {self.false_accept}")
        if not (self.false_reject > 0 and math.isfinite(self.false_reject)):
            raise ValueError(f"false_reject must be positive, got {self.false_reject}")
        if not (self.per_round >= 0 and math.isfinite(self.per_round)):
            raise ValueError(f"per_round must be nonnegative, got {self.per_round}")

    @property
    def ratio(self) -> float:
        """False-accept to false-reject loss ratio."""
        return self.false_accept / self.false_reject


@dataclass(frozen=True)
class ErrorRateBounds:
    """Per-round expected-error bounds separating attacker from user.

    ``attacker_floor`` lower-bounds the attacker's per-round error
    probability; ``user_ceiling`` upper-bounds the user's. The analysis
    needs a strictly positive gap between the two.
    """

    attacker_floor: float
    user_ceiling: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.user_ceiling <= 1.0):
            raise ValueError(f"user_ceiling not in [0,1]: {self.user_ceiling}")
        if not (0.0 <= self.attacker_floor <= 1.0):
            raise ValueError(f"attacker_floor not in [0,1]: {self.attacker_floor}")
        if not self.attacker_floor > self.user_ceiling:
            raise GapCollapseError(
                f"attacker_floor {self.attacker_floor} must exceed "
                f"user_ceiling {self.user_ceiling}"
            )

    @property
    def gap(self) -> float:
        return self.attacker_floor - self.user_ceiling

