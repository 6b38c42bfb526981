"""Payoff curves mapping monetary amounts to payoff units.

All curves satisfy v(0) = 0 and are strictly increasing and concave on
their domain x >= 0 (linear is weakly concave).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

_KINDS = ("linear", "crra", "shifted_log")


@dataclass(frozen=True)
class PayoffCurve:
    """Monetary-to-payoff curve: linear x, CRRA x^(1-rho)/(1-rho), or ln(x+1)."""

    kind: str
    crra_rho: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown curve kind {self.kind!r}")
        if self.kind == "crra":
            if self.crra_rho is None or not (0.0 < self.crra_rho < 1.0):
                raise ValidationError("crra_rho must lie in (0, 1)")
        elif self.crra_rho is not None:
            raise ValidationError(f"crra_rho is only valid for kind='crra'")

    @classmethod
    def linear(cls) -> "PayoffCurve":
        return cls("linear")

    @classmethod
    def crra(cls, crra_rho: float) -> "PayoffCurve":
        return cls("crra", crra_rho=crra_rho)

    @classmethod
    def shifted_log(cls) -> "PayoffCurve":
        return cls("shifted_log")

    def value(self, x):
        """v(x). Accepts scalars or arrays; x < 0 is a domain error.

        A float takes a short path through the same numpy ufuncs as an
        array, so both give bit-identical values.
        """
        if isinstance(x, float):
            if x < 0.0:
                raise DomainError("curve evaluated at negative amount")
            if self.kind == "linear":
                return float(x)
            if self.kind == "crra":
                e = 1.0 - self.crra_rho
                return float(np.power(x, e) / e)
            return float(np.log1p(x))
        arr = np.asarray(x, dtype=float)
        if np.count_nonzero(arr < 0.0):
            raise DomainError(f"curve evaluated at negative amount")
        if self.kind == "linear":
            out = arr
        elif self.kind == "crra":
            e = 1.0 - self.crra_rho
            out = np.power(arr, e) / e
        else:
            out = np.log1p(arr)
        return float(out) if arr.ndim == 0 else out

    def derivative(self, x):
        """v'(x); infinite at 0 for CRRA."""
        arr = np.asarray(x, dtype=float)
        if np.count_nonzero(arr < 0.0):
            raise DomainError(f"curve derivative at negative amount")
        if self.kind == "linear":
            out = np.ones_like(arr)
        elif self.kind == "crra":
            with np.errstate(divide="ignore"):
                out = np.power(arr, -self.crra_rho)
        else:
            out = 1.0 / (1.0 + arr)
        return float(out) if arr.ndim == 0 else out

    def label(self) -> str:
        if self.kind == "crra":
            return f"crra({self.crra_rho:g})"
        return self.kind
