"""Belief distributions over opponent thresholds and offers.

Support is the interval [0, w/2]: beliefs put no mass on offers or
thresholds above the half-split, so cdf(w/2) = 1 for every kind.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import betainc
from scipy.special._ufuncs import _beta_pdf

from .errors import DomainError, ValidationError
from .params import validate_endowment

_KINDS = ("scaled_beta", "uniform", "always_accept", "empirical")


@dataclass(frozen=True)
class BeliefDistribution:
    """Distribution on [0, w/2] for one side of the game. The discrete kinds,
    empirical and always-accept (one atom at 0), are read through atoms;
    only an empirical belief takes a sample."""

    kind: str
    w: float
    a: float | None = None
    b: float | None = None
    sample: tuple[float, ...] | None = None

    def __post_init__(self):
        validate_endowment(self.w)
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown belief kind {self.kind!r}")
        if self.kind == "scaled_beta":
            if not all(s is not None and 0 < s < math.inf for s in (self.a, self.b)):
                raise ValidationError("scaled_beta needs finite shape parameters a, b > 0")
        if self.kind != "empirical" and self.sample is not None:
            raise ValidationError(f"a {self.kind} belief takes no sample")
        if self.kind == "empirical":
            if not self.sample:
                raise ValidationError("empirical belief needs a nonempty sample")
            arr = np.asarray(self.sample, dtype=float)
            if not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > self.half + 1e-12:
                raise ValidationError("empirical sample must be finite and lie in [0, w/2]")
            if np.any(arr[1:] < arr[:-1]):
                # cdf searches the atoms as sorted
                raise ValidationError(
                    "empirical sample must be sorted ascending; BeliefDistribution.empirical() sorts it"
                )

    # -- constructors ------------------------------------------------------

    @classmethod
    def scaled_beta(cls, a: float, b: float, w: float) -> "BeliefDistribution":
        return cls("scaled_beta", w=w, a=a, b=b)

    @classmethod
    def uniform_on_half(cls, w: float) -> "BeliefDistribution":
        return cls("uniform", w=w)

    @classmethod
    def always_accept(cls, w: float) -> "BeliefDistribution":
        """Point mass at zero; as a threshold belief every offer is accepted."""
        return cls("always_accept", w=w)

    @classmethod
    def empirical(cls, sample, w: float) -> "BeliefDistribution":
        pts = tuple(sorted(float(s) for s in sample))
        return cls("empirical", w=w, sample=pts)

    # -- properties --------------------------------------------------------

    @property
    def half(self) -> float:
        return 0.5 * self.w

    @property
    def is_degenerate(self) -> bool:
        return self.kind == "always_accept"

    @property
    def atoms(self) -> tuple[float, ...] | None:
        """The atoms of a discrete belief, each of equal mass: (0.0,) for
        always-accept, the sample for empirical; None for a continuous kind."""
        return (0.0,) if self.kind == "always_accept" else self.sample

    # -- distribution functions -------------------------------------------

    def cdf(self, x):
        """F(x) for x >= 0; negative amounts are a domain error.

        A float takes a short path through the same ufuncs as an array,
        so both give bit-identical values.
        """
        if isinstance(x, float):
            if x < 0.0:
                raise DomainError("belief cdf evaluated at negative amount")
            atoms = self.atoms
            if atoms is not None:
                return bisect.bisect_right(atoms, x) / len(atoms)
            u = min(max(x / self.half, 0.0), 1.0)
            return float(betainc(self.a, self.b, u) if self.kind == "scaled_beta" else u)
        arr = np.asarray(x, dtype=float)
        if np.count_nonzero(arr < 0.0):
            raise DomainError("belief cdf evaluated at negative amount")
        # past the negativity check only the upper bound can act; np.minimum
        # keeps a -0.0 and a NaN as np.clip would
        atoms = self.atoms
        if atoms is not None:
            out = np.searchsorted(atoms, arr, side="right") / len(atoms)
        elif self.kind == "scaled_beta":
            out = betainc(self.a, self.b, np.minimum(arr / self.half, 1.0))
        else:
            out = np.minimum(arr / self.half, 1.0)
        return float(out) if arr.ndim == 0 else out

    def pdf(self, x):
        """Density on [0, w/2]; 0 outside and at NaN. Empirical uses a histogram
        density with bins of width w/100.

        Both paths call the Beta density ufunc that scipy.stats.beta.pdf
        reaches with loc = 0 and scale = 1, so a float (other than for
        empirical beliefs) takes a short path with bit-identical values.
        """
        if isinstance(x, float) and self.kind != "empirical":
            if not 0.0 <= x <= self.half:
                return 0.0
            if self.kind == "scaled_beta":
                u = min(max(x / self.half, 0.0), 1.0)
                return float(_beta_pdf(u, self.a, self.b) / self.half)
            return 1.0 / self.half if self.kind == "uniform" else 0.0
        arr = np.asarray(x, dtype=float)
        inside = (arr >= 0.0) & (arr <= self.half)
        if self.kind == "scaled_beta":
            u = np.clip(arr / self.half, 0.0, 1.0)
            out = _beta_pdf(u, self.a, self.b) / self.half
        elif self.kind == "uniform":
            out = np.full_like(arr, 1.0 / self.half)
        elif self.kind == "always_accept":
            out = np.zeros_like(arr)  # atom at 0 carries the mass, no density
        else:
            width = self.w / 100.0
            edges = np.arange(0.0, self.half + width, width)
            if edges[-1] < self.half:
                edges = np.append(edges, self.half)
            counts, edges = np.histogram(np.asarray(self.sample), bins=edges)
            dens = counts / (len(self.sample) * np.diff(edges))
            idx = np.clip(np.searchsorted(edges, arr, side="right") - 1, 0, len(dens) - 1)
            out = dens[idx]
        out = np.where(inside, out, 0.0)
        return float(out) if arr.ndim == 0 else out

    def tail_expectation(self, fn: Callable, lo: float) -> float:
        """Exact-or-adaptive integral of fn against this distribution on [lo, w/2].

        Continuous kinds use adaptive quadrature (abs tol 1e-10); discrete
        kinds are finite sums over their atoms, atoms at lo included, with
        fn called once on the array of those atoms.
        """
        hi = self.half
        if self.atoms is not None:
            pts = np.asarray(self.atoms)
            keep = pts[pts >= lo]
            if keep.size == 0:
                return 0.0
            return float(np.sum(fn(keep)) / len(pts))
        if lo >= hi:
            return 0.0
        from scipy.integrate import quad  # the reference route only

        val, _ = quad(
            lambda y: fn(y) * self.pdf(y), lo, hi, epsabs=1e-10, epsrel=1e-10, limit=200
        )
        return float(val)
