"""Utility evaluation: veil-of-ignorance expected utility, ex-post payoffs,
and the dictator transfer problem.

Each utility term of the model (social utility and the proposer, responder
and universalization terms) is written once here; the solver and the Nash
verifier call these functions.
"""

from __future__ import annotations

import numpy as np

from .beliefs import BeliefDistribution
from .curves import PayoffCurve
from .errors import ValidationError
from .numerics import scan_then_golden
from .params import ParamLanes, PreferenceParams, Strategy, validate_endowment


def _check_strategy(s: Strategy, w: float) -> None:
    if not (0.0 <= s.x1 <= w and 0.0 <= s.x2 <= w):
        raise ValidationError(f"strategy {s} outside [0, {w}]^2")


def social_utility(p: PreferenceParams | ParamLanes, v_own, v_oth):
    """Ex-post social utility from the payoff values of one's own and the
    other's money, universalization excluded.

    Broadcasts over arrays and over ParamLanes parameters; a float for 0-d input.
    """
    out = (
        (1.0 - p.kappa) * v_own
        - p.alpha * np.maximum(v_oth - v_own, 0.0)
        - p.beta * np.maximum(v_own - v_oth, 0.0)
    )
    return float(out) if np.ndim(out) == 0 else out


def _proposer_term(kappa, v_keep, accept):
    """Proposer-role expected utility (1 - kappa) v(w - x1) F(x1), from
    v(w - x1) and the acceptance probability F(x1)."""
    return (1.0 - kappa) * v_keep * accept


def _responder_term(p: PreferenceParams | ParamLanes, i_own, i_oth):
    """Responder-role expected utility (1 - kappa + alpha) I_own - alpha I_oth,
    from the tail integrals of v(y) and v(w - y) over accepted offers y."""
    return (1.0 - p.kappa + p.alpha) * i_own - p.alpha * i_oth


def _universal_term(kappa, v_keep, v_give):
    """Universalization term kappa (v(w - x1) + v(x1)), before its x1 >= x2 indicator."""
    return kappa * (v_keep + v_give)


def eval_expected_utility(
    p: PreferenceParams,
    curve: PayoffCurve,
    thresholds: BeliefDistribution,
    offers: BeliefDistribution,
    s: Strategy,
    w: float,
) -> float:
    """Expected utility of strategy s under role uncertainty.

    Three-term sum: proposer term (1-kappa) v(w-x1) F(x1); responder
    integral of (1-kappa+alpha) v(y) - alpha v(w-y) over offers y in
    [x2, w/2]; universalization term kappa [v(w-x1)+v(x1)] iff x1 >= x2
    (inclusive indicator, no smoothing).
    """
    validate_endowment(w)
    _check_strategy(s, w)
    if thresholds.w != w or offers.w != w:
        raise ValidationError("belief endowment does not match w")
    v_keep = curve.value(w - s.x1)
    proposer = _proposer_term(p.kappa, v_keep, thresholds.cdf(s.x1))
    i_own = offers.tail_expectation(curve.value, s.x2)
    i_oth = offers.tail_expectation(lambda y: curve.value(w - y), s.x2)
    responder = _responder_term(p, i_own, i_oth)
    universal = _universal_term(p.kappa, v_keep, curve.value(s.x1)) if s.x1 >= s.x2 else 0.0
    return proposer + responder + universal


def eval_expost_symmetric(
    p: PreferenceParams,
    curve: PayoffCurve,
    own: Strategy,
    other: Strategy,
    w: float,
) -> float:
    """Indicator-based ex-post utility of `own` against `other`.

    Sum over both roles plus the self-matched universalization term;
    each role's inequality branch depends on which side of w/2 the
    realized offer falls (the two displayed branch forms agree with
    this on symmetric profiles).
    """
    validate_endowment(w)
    _check_strategy(own, w)
    _check_strategy(other, w)
    v_keep, v_give = curve.value(w - own.x1), curve.value(own.x1)
    total = 0.0
    if own.x1 >= other.x2:  # own proposal accepted
        total += social_utility(p, v_keep, v_give)
    if other.x1 >= own.x2:  # own threshold accepts the incoming offer
        total += social_utility(p, curve.value(other.x1), curve.value(w - other.x1))
    if own.x1 >= own.x2:
        total += _universal_term(p.kappa, v_keep, v_give)
    return total


# nodes of the cumulative-trapezoid tail table on [0, w/2]
_TAIL_NODES = 100_001


def _tail_trapezoid(y, x):
    """Trapezoid integral of y from each node of x to its end, taken from the
    running sum in scipy.integrate.cumulative_trapezoid's operation order."""
    cum = np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))
    return cum[-1] - cum


class TailIntegrals:
    """Precomputed tail integrals of v(y) and v(w-y) under an offer distribution.

    own(x) = integral of v(y) dF(y) over [x, w/2]; other(x) likewise for
    v(w-y). Continuous beliefs use a dense cumulative-trapezoid table
    (adaptive quadrature in tail_expectation stays the reference route);
    empirical beliefs use exact suffix sums over the atoms, and a degenerate
    always-accept belief is one atom at zero. A scaled Beta offer belief
    with a shape parameter below 1 is a ValidationError.
    """

    def __init__(self, offers: BeliefDistribution, curve: PayoffCurve, w: float):
        validate_endowment(w)
        if offers.w != w:
            raise ValidationError("belief endowment does not match w")
        self.w = w
        half = 0.5 * w
        if offers.kind in ("empirical", "always_accept"):
            # the always-accept point mass is one atom at zero
            sample = (0.0,) if offers.is_degenerate else offers.sample
            pts = np.sort(np.asarray(sample, dtype=float))
            n = pts.size
            self._pts = pts
            self._sfx_own = np.concatenate([np.cumsum(curve.value(pts)[::-1])[::-1] / n, [0.0]])
            self._sfx_oth = np.concatenate([np.cumsum(curve.value(w - pts)[::-1])[::-1] / n, [0.0]])
            self._mode = "atoms"
        else:
            if offers.kind == "scaled_beta" and min(offers.a, offers.b) < 1.0:
                # the density is unbounded at an end of [0, w/2]; the trapezoid
                # table would hold inf there and NaN tails everywhere
                raise ValidationError(
                    f"offer belief Beta({offers.a:g}, {offers.b:g}) has a shape parameter "
                    "below 1; the tail table needs shapes >= 1"
                )
            grid = np.linspace(0.0, half, _TAIL_NODES)
            dens = offers.pdf(grid)
            self._grid = grid
            self._tail_own = _tail_trapezoid(curve.value(grid) * dens, grid)
            self._tail_oth = _tail_trapezoid(curve.value(w - grid) * dens, grid)
            self._mode = "table"

    def _eval(self, x, own: bool):
        xa = np.asarray(x, dtype=float)
        if self._mode == "atoms":
            sfx = self._sfx_own if own else self._sfx_oth
            out = sfx[np.searchsorted(self._pts, xa, side="left")]
        else:
            tail = self._tail_own if own else self._tail_oth
            out = np.interp(xa, self._grid, tail, left=tail[0], right=0.0)
        return float(out) if xa.ndim == 0 else out

    def own(self, x):
        return self._eval(x, True)

    def other(self, x):
        return self._eval(x, False)


def dg_objective(p: PreferenceParams | ParamLanes, curve: PayoffCurve, x, w: float):
    """Dictator objective at transfer x (half-weight on each role's term).

    Broadcasts over x and over ParamLanes parameters.
    """
    v_keep = curve.value(w - x)
    v_give = curve.value(x)
    out = 0.5 * (social_utility(p, v_keep, v_give) + _universal_term(p.kappa, v_keep, v_give))
    return float(out) if np.ndim(out) == 0 else out


def dg_transfer(
    p: PreferenceParams | ParamLanes, curve: PayoffCurve, w: float
) -> float | np.ndarray:
    """Argmax of the dictator objective over [0, w].

    The objective is kinked at w/2, so each branch is searched separately
    (coarse scan + golden section) and the better branch wins. p is a
    PreferenceParams, or a ParamLanes for one transfer per lane (an array).
    """
    validate_endowment(w)
    half = 0.5 * w
    f = lambda x: dg_objective(p, curve, x, w)
    zero = np.zeros(np.shape(p.alpha))
    lo_best = scan_then_golden(f, zero, zero + half)
    hi_best = scan_then_golden(f, zero + half, zero + w)
    best = np.where(f(lo_best) >= f(hi_best), lo_best, hi_best)
    best = np.where(0.0 > best, 0.0, best)
    best = np.where(w < best, w, best)
    return float(best) if best.ndim == 0 else best

