"""Symmetric Nash-set analysis of the complete-information ultimatum game.

Closed-form bounds (tau, the acceptance threshold, the offer upper bound),
a numeric upper endpoint rho, and a grid best-response verifier that serves
as ground truth for the equilibrium segment.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .curves import PayoffCurve
from .errors import ValidationError
from .numerics import bisect_boundary
from .params import PreferenceParams, Strategy, grid_axis, grid_step_of
from .params import validate_endowment, validate_kappa_alpha
from .solver import constrained_threshold
from .utility import _universal_term, social_utility

SET_KINDS = ("SymmetricSegment", "SegmentPlusAsymmetricStub")

_DEFAULT_GRID_DIVISOR = 400  # deviation lattice step = w / 400
_NASH_TOL = 1e-9
# (profiles x lattice) cells per deviation_best call; the kernel holds about a
# dozen temporaries of this size: 64 KiB each at most, on a lattice of up to
# 8,192 points. That is under glibc's default 128 KiB mmap threshold, so they
# are reused from the heap, not faulted in afresh on every call. The default
# w/400 diagonal (401 x 401 cells) takes 21 calls of 20 profiles or fewer.
_VERIFY_CELLS = 1 << 13


@dataclass(frozen=True)
class NashCheck:
    """Verifier verdict for one symmetric profile."""

    is_nash: bool
    gain: float
    best_deviation: Strategy | None


@dataclass(frozen=True)
class NashBounds:
    """Equilibrium-set summary: closed-form bounds plus the verified segment."""

    tau: float
    x2_lower: float
    x1_upper: float
    rho: float
    set_kind: str
    segment: tuple[float, float] | None
    formula_segment: tuple[float, float] | None
    asymmetric_stub: tuple[float, tuple[float, float]] | None
    flags: tuple[str, ...]


def tau_of_kappa(kappa: float, curve: PayoffCurve, w: float) -> float:
    """Smallest x where keeping less stops paying: min{x: v'(w-x) >= kappa v'(x)}.

    The left side rises and the right side falls in x, so the inequality
    region is an upper interval and bisection on the flip point applies.
    """
    validate_endowment(w)
    validate_kappa_alpha(kappa)
    if kappa == 0.0:
        return 0.0  # v'(w - x) >= 0 holds at x = 0; avoids 0 * inf at a v'(0) pole
    pred = lambda x: curve.derivative(w - x) >= kappa * curve.derivative(x)
    # pred(w/2) reduces to (1 - kappa) v'(w/2) >= 0, always true
    return bisect_boundary(pred, 0.0, 0.5 * w, x_tol=1e-12)


def x1_upper_of(kappa: float, alpha: float, curve: PayoffCurve, w: float) -> float:
    """Largest sustainable offer: max{x: (1-kappa+alpha) v(w-x) >= v(x)}."""
    validate_endowment(w)
    validate_kappa_alpha(kappa, alpha)
    coef = 1.0 - kappa + alpha
    pred = lambda x: coef * curve.value(w - x) >= curve.value(x)
    if pred(w):
        return w
    # the inequality holds on a lower interval, maybe empty; bisect its right edge
    return bisect_boundary(lambda x: ~pred(x), 0.0, w, x_tol=1e-12)


def _step_of(grid_step: float | None, w: float) -> float:
    """The deviation lattice step: grid_step, w / _DEFAULT_GRID_DIVISOR by default, validated."""
    return grid_step_of(w / _DEFAULT_GRID_DIVISOR if grid_step is None else grid_step, w)


def _verify(
    profiles: list[Strategy],
    kappa: float,
    alpha: float,
    curve: PayoffCurve,
    w: float,
    step: float,
) -> list[NashCheck]:
    """verify_nash for many profiles: one deviation lattice, kernel calls of bounded size."""
    y1 = np.array([s.x1 for s in profiles], dtype=float)
    y2 = np.array([s.x2 for s in profiles], dtype=float)
    inside = (0.0 <= y1) & (y1 <= w) & (0.0 <= y2) & (y2 <= w)
    if not inside.all():
        raise ValidationError(f"strategy {profiles[int(np.argmin(inside))]} outside [0, {w}]^2")
    p = PreferenceParams(alpha=alpha, kappa=kappa)
    axis = grid_axis(step, w)

    v_keep = curve.value(w - axis)
    v_give = curve.value(axis)
    pa = social_utility(p, v_keep, v_give)
    c = _universal_term(kappa, v_keep, v_give)
    r_keep, r_give = curve.value(w - y1), curve.value(y1)
    racc = social_utility(p, r_give, r_keep)
    # eval_expost_symmetric(p, curve, s, s, w) per profile: against itself all
    # three indicators are x1 >= x2; the terms are summed in its order from 0.0
    on = y1 >= y2
    own = 0.0 + np.where(on, social_utility(p, r_keep, r_give), 0.0)
    own = own + np.where(on, racc, 0.0)
    own = own + np.where(on, _universal_term(p.kappa, r_keep, r_give), 0.0)

    # lanes are independent, so chunks of profiles concatenate to the one-call result
    rows = max(1, _VERIFY_CELLS // len(axis))
    parts = [
        kernels.deviation_best(pa, racc[k : k + rows], c, axis, axis, y1[k : k + rows], y2[k : k + rows])
        for k in range(0, len(profiles), rows)
    ]
    u_best, i, j = (np.concatenate(arrs) for arrs in zip(*parts))
    checks = []
    for gain, di, dj in zip((u_best - own).tolist(), i.tolist(), j.tolist()):
        if gain <= _NASH_TOL:
            checks.append(NashCheck(True, gain, None))
        else:
            checks.append(NashCheck(False, gain, Strategy(float(axis[di]), float(axis[dj]))))
    return checks


def verify_nash(
    profile: Strategy,
    kappa: float,
    alpha: float,
    curve: PayoffCurve,
    w: float,
    grid_step: float | None = None,
) -> NashCheck:
    """Best-response check of a symmetric profile on the deviation lattice.

    Both players hold `profile`; a deviation is any lattice (x1, x2) pair.
    Passes iff no deviation raises the ex-post utility by more than _NASH_TOL.
    """
    validate_endowment(w)
    return _verify([profile], kappa, alpha, curve, w, _step_of(grid_step, w))[0]


def rho_of_kappa(
    kappa: float, curve: PayoffCurve, w: float, grid_step: float | None = None
) -> float:
    """Upper end of the symmetric branch at alpha = 0, by verifier scan.

    Largest x on the [w/2, w] grid whose profile (x, x) survives the
    best-response check. Numeric surrogate: no closed form is available.
    Returns nan (with a warning) if nothing on the grid passes.
    """
    validate_endowment(w)
    return _rho(kappa, curve, w, _step_of(grid_step, w))


def _rho(kappa: float, curve: PayoffCurve, w: float, step: float) -> float:
    """rho_of_kappa on a validated step."""
    half = 0.5 * w
    n = int(round((w - half) / step))
    xs = np.linspace(w, half, n + 1).tolist()
    checks = _verify([Strategy(x, x) for x in xs], kappa, 0.0, curve, w, step)
    for x, chk in zip(xs, checks):
        if chk.is_nash:
            return x
    warnings.warn("no symmetric profile on [w/2, w] passes the verifier", stacklevel=2)
    return math.nan


def nash_set(
    kappa: float,
    alpha: float,
    curve: PayoffCurve,
    w: float,
    grid_step: float | None = None,
) -> NashBounds:
    """Symmetric equilibrium set: verified diagonal segment plus bounds.

    The segment is the maximal contiguous diagonal run passing verify_nash;
    the closed-form composition [max(x2_lower, tau), min(x1_upper, rho)] is
    reported alongside as formula_segment (the offer upper bound is loose in
    concave configurations, so the verifier run is authoritative). When
    tau > x2_lower the set additionally carries the asymmetric stub
    {x1 = tau, x2 in [0, tau]}, confirmed by probing both stub directions.
    """
    validate_endowment(w)
    if not 0.0 < kappa <= 1.0:
        raise ValidationError("nash_set needs kappa in (0, 1]")
    if alpha < 0.0:
        raise ValidationError("nash_set needs alpha >= 0")
    step = _step_of(grid_step, w)
    flags: list[str] = []

    tau = tau_of_kappa(kappa, curve, w)
    x2lo = constrained_threshold(kappa, alpha, curve, w)
    x1hi = x1_upper_of(kappa, alpha, curve, w)
    rho = _rho(kappa, curve, w, step)

    lo_f = max(x2lo, tau)
    hi_f = min(x1hi, rho) if not math.isnan(rho) else x1hi
    formula_segment = (lo_f, hi_f) if lo_f <= hi_f else None

    axis = grid_axis(step, w)
    checks = _verify([Strategy(x, x) for x in axis.tolist()], kappa, alpha, curve, w, step)
    passing = np.array([chk.is_nash for chk in checks], dtype=np.int8)
    segment = None
    if passing.any():
        # maximal contiguous run of passing diagonal points; argmax keeps the first longest
        edges = np.diff(passing, prepend=0, append=0)
        starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
        k = int(np.argmax(stops - starts))
        segment = (float(axis[starts[k]]), float(axis[stops[k] - 1]))
    else:
        flags.append("no symmetric equilibrium on grid")

    stub = None
    set_kind = SET_KINDS[0]
    if tau > x2lo + 1e-12:
        probes = [
            Strategy(tau, 0.5 * tau),
            Strategy(tau, 0.0),
            Strategy(tau, min(tau + 2.0 * step, w)),
        ]
        mid, zero, above = (chk.is_nash for chk in _verify(probes, kappa, alpha, curve, w, step))
        if mid and zero:
            stub = (tau, (0.0, tau))
            set_kind = SET_KINDS[1]
            flags.append("stub-direction-x2-below")
        if above:
            flags.append("stub-direction-x2-above")

    return NashBounds(
        tau=tau,
        x2_lower=x2lo,
        x1_upper=x1hi,
        rho=rho,
        set_kind=set_kind,
        segment=segment,
        formula_segment=formula_segment,
        asymmetric_stub=stub,
        flags=tuple(flags),
    )
