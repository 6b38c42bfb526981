"""Independent brute-force oracles for the solver and the dictator problem,
and the battery of checks that compares them with the analytic solvers.

The responder integral here is a midpoint Riemann sum on a refinement of
the argmax grid, deliberately not the adaptive quadrature used by the
analytic path, so the two routes cross-check each other. The three utility
terms (_ug_terms) and the dictator objective (_dg_values) are written out
once here, apart from the model's in utility.py, for the same reason.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .beliefs import BeliefDistribution
from .curves import PayoffCurve
from .errors import IndeterminateError, ValidationError
from .kernels import grid_argmax
from .params import ParamLanes, PreferenceParams, Strategy, grid_axis, grid_step_of, validate_endowment
from .solver import _CachedProblem, constrained_threshold
from .utility import dg_transfer, eval_expected_utility

# midpoint-sum resolution of expected_utility_riemann's responder integral
_RIEMANN_STEP = 1e-4


def riemann_tail_pair(
    offers: BeliefDistribution,
    curve: PayoffCurve,
    w: float,
    nodes: np.ndarray,
    fine_factor: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Tail integrals I1(t) = int_t^{w/2} v(y) dF, I2(t) = int_t^{w/2} v(w-y) dF
    at each grid node t, via midpoint sums on a fine sub-grid (continuous
    kinds) or exact finite sums over the atoms (discrete kinds).
    """
    half = 0.5 * w
    nodes = np.asarray(nodes, dtype=float)
    if np.isnan(nodes).any():
        raise ValidationError("riemann_tail_pair nodes must not be NaN")
    if offers.atoms is not None:
        i1 = [offers.tail_expectation(curve.value, t) for t in nodes]
        i2 = [offers.tail_expectation(lambda y: curve.value(w - y), t) for t in nodes]
        return np.array(i1), np.array(i2)

    edges = np.unique(np.append(nodes[nodes < half], half))
    lo, hi = edges[-2::-1], edges[:0:-1]  # sub-intervals from the top edge down
    # linspace(axis=1) is a transposed view; row sums of a non-contiguous
    # array do not use numpy's pairwise order, so copy to C order first
    mids = np.ascontiguousarray(np.linspace(lo, hi, fine_factor, endpoint=False, axis=1))
    mids += ((hi - lo) / (2 * fine_factor))[:, None]
    wts = offers.pdf(mids) * (hi - lo)[:, None] / fine_factor
    # acc[m] sums the top m intervals, added one at a time from w/2 down
    acc1 = np.cumsum(np.append(0.0, np.sum(curve.value(mids) * wts, axis=1)))
    acc2 = np.cumsum(np.append(0.0, np.sum(curve.value(w - mids) * wts, axis=1)))
    # node edges[k] takes the top len(edges) - 1 - k intervals; nodes >= w/2 take none
    idx = np.maximum(len(edges) - 1 - np.searchsorted(edges, nodes), 0)
    return acc1[idx], acc2[idx]


def _ug_columns(
    curve: PayoffCurve,
    thresholds: BeliefDistribution,
    offers: BeliefDistribution,
    w: float,
    xs: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """The parameter-free columns on the axis xs: v(w - xs), F(xs), v(xs)
    and the Riemann tail pair at xs."""
    i1, i2 = riemann_tail_pair(offers, curve, w, xs)
    return curve.value(w - xs), thresholds.cdf(xs), curve.value(xs), i1, i2


def _ug_terms(p: PreferenceParams, v_keep, cdf, v_give, i1, i2):
    """The proposer, responder and universalization terms (a, b, c) of the
    expected utility, the last before its x1 >= x2 indicator."""
    ka = p.kappa
    a = (1.0 - ka) * v_keep * cdf
    b = (1.0 - ka + p.alpha) * i1 - p.alpha * i2
    c = ka * (v_keep + v_give)
    return a, b, c


def _dg_values(p: PreferenceParams, v_keep, v_give):
    """The dictator objective from v(w - x) and v(x): half the social utility
    plus half the universalization term."""
    social = (
        (1.0 - p.kappa) * v_keep
        - p.alpha * np.maximum(v_give - v_keep, 0.0)
        - p.beta * np.maximum(v_keep - v_give, 0.0)
    )
    return 0.5 * (social + p.kappa * (v_keep + v_give))


def _ug_tables(
    curve: PayoffCurve,
    thresholds: BeliefDistribution,
    offers: BeliefDistribution,
    w: float,
    grid_step: float,
) -> tuple[np.ndarray, ...]:
    """The parameter-free tables of the brute-force grid: the axis xs and
    its _ug_columns."""
    xs = grid_axis(grid_step, w)
    return (xs,) + _ug_columns(curve, thresholds, offers, w, xs)


def _ug_argmax(p: PreferenceParams, tables: tuple[np.ndarray, ...]) -> tuple[Strategy, float]:
    """brute_force_ug's grid argmax on tables from _ug_tables."""
    xs, *columns = tables
    i, j, u = grid_argmax(*_ug_terms(p, *columns), xs, xs)
    return Strategy(float(xs[i]), float(xs[j])), float(u)


def brute_force_ug(
    p: PreferenceParams,
    curve: PayoffCurve,
    thresholds: BeliefDistribution,
    offers: BeliefDistribution,
    w: float,
    grid_step: float,
) -> tuple[Strategy, float]:
    """Exhaustive grid argmax of the expected utility over [0, w]^2.

    Ties break to the lowest x1, then lowest x2. The grid contains the
    diagonal, so x1 = x2 cells are evaluated explicitly.
    """
    return _ug_argmax(p, _ug_tables(curve, thresholds, offers, w, grid_step))


def brute_force_symmetric(
    p: PreferenceParams,
    curve: PayoffCurve,
    thresholds: BeliefDistribution,
    offers: BeliefDistribution,
    w: float,
    grid_step: float,
) -> tuple[float, float]:
    """Grid argmax of u(y, y) on the diagonal segment [0, w/2]."""
    validate_endowment(w)
    step = grid_step_of(grid_step, w)
    n = max(1, int(round(0.5 * w / step)))
    ys = np.linspace(0.0, 0.5 * w, n + 1)
    a, b, c = _ug_terms(p, *_ug_columns(curve, thresholds, offers, w, ys))
    u = a + b + c  # diagonal indicator is always on
    k = int(np.argmax(u))
    return float(ys[k]), float(u[k])


def brute_force_dg(
    p: PreferenceParams, curve: PayoffCurve, w: float, grid_step: float
) -> tuple[float, float]:
    """Exhaustive scan of the dictator objective on [0, w]."""
    xs = grid_axis(grid_step, w)
    vals = _dg_values(p, curve.value(w - xs), curve.value(xs))
    k = int(np.argmax(vals))
    return float(xs[k]), float(vals[k])


def _riemann_tails(
    curve: PayoffCurve, offers: BeliefDistribution, x2: float, w: float
) -> tuple[float, float]:
    """expected_utility_riemann's responder integrals of v(y) and v(w - y)
    over offers y in [x2, w/2]: riemann_tail_pair at the one node x2, its
    one sub-interval cut at _RIEMANN_STEP."""
    m = max(1, round((0.5 * w - x2) / _RIEMANN_STEP)) if x2 < 0.5 * w else 1
    i1, i2 = riemann_tail_pair(offers, curve, w, np.array([x2]), fine_factor=m)
    return float(i1[0]), float(i2[0])


def _riemann_utility(
    p: PreferenceParams,
    curve: PayoffCurve,
    thresholds: BeliefDistribution,
    offers: BeliefDistribution,
    s: Strategy,
    w: float,
    tails: dict[float, tuple[float, float]],
) -> float:
    """expected_utility_riemann with the responder integrals memoized in
    `tails`, keyed on x2; the integrals depend on nothing else."""
    if s.x2 not in tails:
        tails[s.x2] = _riemann_tails(curve, offers, s.x2, w)
    a, b, c = _ug_terms(
        p, curve.value(w - s.x1), thresholds.cdf(s.x1), curve.value(s.x1), *tails[s.x2]
    )
    return a + b + (c if s.x1 >= s.x2 else 0.0)


def expected_utility_riemann(
    p: PreferenceParams,
    curve: PayoffCurve,
    thresholds: BeliefDistribution,
    offers: BeliefDistribution,
    s: Strategy,
    w: float,
) -> float:
    """Expected utility with the responder integral done by midpoint Riemann
    sum at _RIEMANN_STEP resolution; the oracle counterpart of the adaptive
    quadrature evaluation."""
    validate_endowment(w)
    return _riemann_utility(p, curve, thresholds, offers, s, w, {})


def _uniform_draws(rng: np.random.Generator, draws: int, *bounds) -> np.ndarray:
    """Shape (draws, len(bounds)): draw by draw, one rng.uniform(lo, hi) per bound."""
    rows = [[rng.uniform(lo, hi) for lo, hi in bounds] for _ in range(draws)]
    return np.array(rows, dtype=float).reshape(-1, len(bounds))


OPTIMAL_VS_BRUTE_FLOOR = -1e-6  # optimal_vs_brute passes at a worst margin of at least this


def optimal_vs_brute(
    rng: np.random.Generator,
    draws: int,
    curve: PayoffCurve,
    thresholds: BeliefDistribution,
    offers: BeliefDistribution,
    w: float,
    grid_step: float,
) -> float:
    """Worst margin u(solver optimum) - u(grid optimum) over draws of
    alpha ~ U(-1, 3) and kappa ~ U(0, 0.95); inf for no draws.

    The draws are solved by one _CachedProblem, the grid's parameter-free
    tables are built once, and the Riemann responder integrals once per
    distinct x2; every value is the one a per-draw loop over brute_force_ug
    and expected_utility_riemann gives. Both strategies are scored by that
    Riemann evaluator, so its integration error cancels from the margin.
    """
    pairs = _uniform_draws(rng, draws, (-1.0, 3.0), (0.0, 0.95)).tolist()
    outs = _CachedProblem(curve, thresholds, offers, w).solve_many(pairs)
    # zero draws score no grid, so they neither build nor validate one
    tables = _ug_tables(curve, thresholds, offers, w, grid_step) if pairs else ()
    tails: dict[float, tuple[float, float]] = {}
    worst = np.inf
    for (alpha, kappa), out in zip(pairs, outs):
        p = PreferenceParams(alpha=alpha, kappa=kappa)
        s_brute, _ = _ug_argmax(p, tables)
        u_opt = _riemann_utility(p, curve, thresholds, offers, out.optimal, w, tails)
        u_brute = _riemann_utility(p, curve, thresholds, offers, s_brute, w, tails)
        worst = min(worst, u_opt - u_brute)
    return worst


def foc_residual(
    p: PreferenceParams,
    curve: PayoffCurve,
    thresholds: BeliefDistribution,
    offers: BeliefDistribution,
    s: Strategy,
    w: float,
) -> tuple[float, float]:
    """Central finite-difference gradient, step 1e-5 w, minus the analytic
    first-order expressions; returns both components. Undefined on the
    diagonal."""
    validate_endowment(w)
    h = 1e-5 * w
    if abs(s.x1 - s.x2) <= 2.0 * h:
        raise IndeterminateError("gradient undefined at the x1 = x2 kink")
    if not (h < s.x1 < w - h and h < s.x2 < w - h):
        raise ValidationError("finite differences need an interior point")

    def u(x1: float, x2: float) -> float:
        return eval_expected_utility(p, curve, thresholds, offers, Strategy(x1, x2), w)

    fd1 = (u(s.x1 + h, s.x2) - u(s.x1 - h, s.x2)) / (2.0 * h)
    fd2 = (u(s.x1, s.x2 + h) - u(s.x1, s.x2 - h)) / (2.0 * h)
    ka = p.kappa
    an1 = -(1.0 - ka) * curve.derivative(w - s.x1) * thresholds.cdf(s.x1) + (
        1.0 - ka
    ) * curve.value(w - s.x1) * thresholds.pdf(s.x1)
    if s.x1 >= s.x2:
        an1 += ka * (curve.derivative(s.x1) - curve.derivative(w - s.x1))
    an2 = (
        -((1.0 - ka + p.alpha) * curve.value(s.x2) - p.alpha * curve.value(w - s.x2))
        * offers.pdf(s.x2)
    )
    return fd1 - an1, fd2 - an2


THRESHOLD_RESIDUAL_CEIL = 1e-10  # threshold_root_residual passes below this


def threshold_root_residual(
    rng: np.random.Generator, draws: int, curve: PayoffCurve, w: float
) -> float:
    """Worst |(1 - kappa + alpha) v(t) - alpha v(w - t)| at the threshold roots t
    of draws solved in one lane search; inf if a root is not positive."""
    alphas, kappas = _uniform_draws(rng, draws, (1e-6, 3.0), (0.0, 0.95)).T
    roots = constrained_threshold(kappas, alphas, curve, w)
    worst = 0.0
    for alpha, kappa, t in zip(alphas.tolist(), kappas.tolist(), roots.tolist()):
        if not t > 0.0:
            return math.inf
        worst = max(worst, abs((1.0 - kappa + alpha) * curve.value(t) - alpha * curve.value(w - t)))
    return worst


def threshold_sign_misses(
    rng: np.random.Generator, draws: int, curve: PayoffCurve, w: float
) -> float:
    """How many thresholds have the wrong sign: at each drawn kappa, a
    nonpositive alpha must give 0 and a positive alpha a positive root.
    The check passes only with none."""
    kappas, a0, a1 = _uniform_draws(rng, draws, (0.0, 0.99), (-2.0, 0.0), (1e-9, 2.0)).T
    t0 = constrained_threshold(kappas, a0, curve, w)
    t1 = constrained_threshold(kappas, a1, curve, w)
    return float(np.count_nonzero(t0 != 0.0) + np.count_nonzero(~(t1 > 0.0)))


DG_VS_BRUTE_FLOOR = -1e-9  # dg_vs_brute passes at a worst margin of at least this


def dg_vs_brute(rng: np.random.Generator, draws: int, curve: PayoffCurve, w: float) -> float:
    """Worst margin of dg_transfer over brute_force_dg at step w/2000, both
    scored by _dg_values; inf for no draws."""
    bounds = ((-1.0, 1.0), (-1.0, 1.0), (0.0, 0.95))  # alpha, beta, kappa
    params = [PreferenceParams(*d) for d in _uniform_draws(rng, draws, *bounds).tolist()]
    worst = math.inf
    for p, x in zip(params, dg_transfer(ParamLanes.of(params), curve, w).tolist()):
        _, u_brute = brute_force_dg(p, curve, w, w / 2000.0)
        worst = min(worst, float(_dg_values(p, curve.value(w - x), curve.value(x))) - u_brute)
    return worst


FOC_FD_CEIL = 1e-4  # foc_fd_match passes below this


def foc_fd_match(
    rng: np.random.Generator,
    draws: int,
    curve: PayoffCurve,
    thresholds: BeliefDistribution,
    offers: BeliefDistribution,
    w: float,
) -> float:
    """Worst foc_residual component over drawn off-diagonal strategies; a
    draw within 1e-3 w of the diagonal is skipped."""
    bounds = ((-1.0, 3.0), (0.0, 0.95), (0.05 * w, 0.95 * w), (0.05 * w, 0.45 * w))
    worst = 0.0
    for alpha, kappa, x1, x2 in _uniform_draws(rng, draws, *bounds).tolist():
        if abs(x1 - x2) >= 1e-3 * w:
            p = PreferenceParams(alpha=alpha, kappa=kappa)
            r1, r2 = foc_residual(p, curve, thresholds, offers, Strategy(x1, x2), w)
            worst = max(worst, abs(r1), abs(r2))
    return worst


class OracleCheck(NamedTuple):
    """One oracle_checks record: the worst value over n draws, and whether it passes."""

    name: str
    n: int
    worst: float
    passed: bool


def oracle_checks(
    rng: np.random.Generator,
    draws: int,
    curve: PayoffCurve,
    thresholds: BeliefDistribution,
    offers: BeliefDistribution,
    w: float,
    grid_step: float,
) -> tuple[OracleCheck, ...]:
    """The five checks of `draws` draws each, run in this order on the one rng."""
    ug = optimal_vs_brute(rng, draws, curve, thresholds, offers, w, grid_step)
    resid = threshold_root_residual(rng, draws, curve, w)
    misses = threshold_sign_misses(rng, draws, curve, w)
    dg = dg_vs_brute(rng, draws, curve, w)
    foc = foc_fd_match(rng, draws, curve, thresholds, offers, w)
    return tuple(
        OracleCheck(name, draws, float(worst), bool(ok))
        for name, worst, ok in (
            ("optimal-vs-brute", ug, ug >= OPTIMAL_VS_BRUTE_FLOOR),
            ("threshold-root-residual", resid, resid < THRESHOLD_RESIDUAL_CEIL),
            ("threshold-sign", misses, misses == 0.0),
            ("dg-vs-brute", dg, dg >= DG_VS_BRUTE_FLOOR),
            ("foc-fd-match", foc, foc < FOC_FD_CEIL),
        )
    )
