"""Core domain types: preference parameters, strategies, grids."""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        for name in ("alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0.0 <= self.kappa <= 1.0):
            raise ValidationError(f"kappa must lie in [0, 1], got {self.kappa}")
        if not (0.0 <= self.lam <= 1.0):
            raise ValidationError(f"lam must lie in [0, 1], got {self.lam}")


@dataclass(frozen=True)
class Strategy:
    """Ultimatum strategy: offer x1 and rejection threshold x2, both in [0, w]."""

    x1: float
    x2: float

    def clipped(self, w: float) -> "Strategy":
        return Strategy(min(max(self.x1, 0.0), w), min(max(self.x2, 0.0), w))


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid step over [0, w] (square lattice or diagonal line)."""

    step: float
    kind: str = "square"

    def __post_init__(self):
        if not (self.step > 0.0):
            raise ValidationError(f"grid step must be positive, got {self.step}")
        if self.kind not in ("square", "line"):
            raise ValidationError(f"grid kind must be 'square' or 'line'")

    def axis(self, w: float, hi: float | None = None):
        import numpy as np

        top = w if hi is None else hi
        n = int(round(top / self.step))
        return np.linspace(0.0, top, n + 1)
