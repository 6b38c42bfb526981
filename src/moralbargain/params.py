"""Core domain types: preference parameters, strategies, the grid-step rule."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

# Endowment used in the estimation design (points per game, scaled).
ESTIMATION_ENDOWMENT = 58.8
# Endowment used in the theory illustrations.
THEORY_ENDOWMENT = 10.0

# Estimation box for (alpha, beta, kappa, lam).
ALPHA_BOUNDS = (-2.0, 2.0)
BETA_BOUNDS = (-2.0, 2.0)
KAPPA_BOUNDS = (0.0, 1.0)
LAMBDA_BOUNDS = (0.01, 0.99)
# Valid em_fit lattice steps. The coarse lattice grows as 1/step**3 below
# this range and the refinement boxes as step**3 above it.
LATTICE_STEP_BOUNDS = (0.04, 0.2)


def validate_endowment(w: float) -> float:
    if not (0.0 < w < math.inf):
        raise ValidationError(f"endowment must be positive and finite, got {w}")
    return float(w)


@dataclass(frozen=True)
class PreferenceParams:
    """Distributional and universalization preferences.

    alpha: disutility weight on disadvantageous inequality
    beta:  disutility weight on advantageous inequality
    kappa: weight on the universalized (self-matched) payoff, in [0, 1]
    lam:   choice-noise probability for the discrete-choice model
    """

    alpha: float = 0.0
    beta: float = 0.0
    kappa: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        validate_kappa_alpha(self.kappa, self.alpha)
        if not math.isfinite(self.beta):
            raise ValidationError(f"beta must be finite, got {self.beta}")
        if not (0.0 <= self.lam <= 1.0):
            raise ValidationError(f"lam must lie in [0, 1], got {self.lam}")


class ParamLanes(NamedTuple):
    """Preference parameters as arrays of shape (L,), one entry per lane of a
    batched search; the objectives read it where they read a PreferenceParams.

    Not validated itself: build it from validated values, such as a list of
    PreferenceParams with of().
    """

    alpha: np.ndarray
    beta: np.ndarray
    kappa: np.ndarray

    @classmethod
    def of(cls, params) -> "ParamLanes":
        params = list(params)
        return cls(*(np.array([getattr(p, f) for p in params], dtype=float) for f in cls._fields))


@dataclass(frozen=True)
class Strategy:
    """Ultimatum strategy: offer x1 and rejection threshold x2, both in [0, w]."""

    x1: float
    x2: float


def validate_kappa_alpha(kappa=(), alpha=()) -> None:
    """ValidationError unless every kappa (float or array) is in [0, 1] and every alpha finite."""
    k = np.asarray(kappa, dtype=float)
    bad = ~((0.0 <= k) & (k <= 1.0))  # also catches nan
    if bad.any():
        raise ValidationError(f"kappa must lie in [0, 1], got {float(k[bad][0])}")
    a = np.asarray(alpha, dtype=float)
    bad = ~np.isfinite(a)
    if bad.any():
        raise ValidationError(f"alpha must be finite, got {float(a[bad][0])}")


def grid_step_of(grid: float, w: float) -> float:
    """The step of a brute-force or verifier lattice on [0, w]; it must lie in
    (0, w/2], since a wider step collapses the lattice."""
    step = float(grid)
    if not 0.0 < step <= 0.5 * w:  # also rejects nan and inf
        raise ValidationError("grid_step must lie in (0, w/2]")
    return step


def grid_axis(grid: float, w: float) -> np.ndarray:
    """The brute-force or verifier lattice on [0, w]: w / grid_step_of(grid, w)
    steps, rounded to a whole number; w and the step are validated."""
    w = validate_endowment(w)
    n = int(round(w / grid_step_of(grid, w)))
    return np.linspace(0.0, w, n + 1)
