"""Optimal ultimatum strategies, parameter regions, and comparative statics.

Offers live on [0, w/2] (beliefs put no mass above the half-split);
thresholds on [0, w/2]. Regions partition the (alpha, kappa) plane:

R1  low spite: constrained offer with compatible threshold (x1 >= x2)
R2  symmetric: offer equals threshold at the best diagonal point
R3  spiteful low-universalization: selfish offer with a threshold above it
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

from .beliefs import BeliefDistribution
from .curves import PayoffCurve
from .errors import IndeterminateError, ValidationError
from .numerics import bisect_boundary, bisect_root, scan_then_golden
from .params import PreferenceParams, Strategy, validate_endowment
from .utility import TailIntegrals, eval_expected_utility

REGIONS = ("R1", "R2", "R3")

# Where an offer objective peaks at w/2 with zero slope, its values tie in
# floating point within about 5e-9 w of the peak, so the search can stop
# there and leave v(w - x) - v(x) near 1e-8 of the scale of v. A difference
# below this fraction of |v(w - x)| + |v(x)| is read as the equal split.
_DENOM_RTOL = 1e-7


@dataclass(frozen=True)
class SolverOutputs:
    """Everything the strategy decision rests on, plus the decision."""

    x_selfish: float
    x_constrained: float
    threshold: float
    symmetric: float | None
    alpha_bar: float
    alpha_tilde: float
    kappa_tilde: float | None
    region: str
    optimal: Strategy
    flags: tuple[str, ...] = ()


def selfish_offer(curve: PayoffCurve, thresholds: BeliefDistribution, w: float) -> float:
    """Offer maximizing v(w - x) F(x): acceptance-weighted own payoff."""
    validate_endowment(w)
    f = lambda x: curve.value(w - x) * thresholds.cdf(x)
    return scan_then_golden(f, 0.0, 0.5 * w)


def constrained_offer(kappa: float, curve: PayoffCurve, thresholds: BeliefDistribution, w: float) -> float:
    """Offer maximizing (1-kappa) v(w-x) F(x) + kappa [v(w-x) + v(x)].

    The universalization term pulls the offer toward the equal split;
    at kappa = 1 it is exactly w/2.
    """
    validate_endowment(w)
    if not (0.0 <= kappa <= 1.0):
        raise ValidationError(f"kappa must lie in [0, 1], got {kappa}")
    f = lambda x: (1.0 - kappa) * curve.value(w - x) * thresholds.cdf(x) + kappa * (
        curve.value(w - x) + curve.value(x)
    )
    return scan_then_golden(f, 0.0, 0.5 * w)


def constrained_threshold(kappa: float, alpha: float, curve: PayoffCurve, w: float) -> float:
    """Rejection threshold: zero of (1+alpha-kappa) v(x) - alpha v(w-x) on (0, w/2).

    Below it, accepting costs more in disadvantage-weighted terms than the
    payoff is worth. Returns 0 for alpha <= 0; kappa = 1 leaves the
    responder problem degenerate and is signalled.
    """
    validate_endowment(w)
    if not (0.0 <= kappa <= 1.0):
        raise ValidationError(f"kappa must lie in [0, 1], got {kappa}")
    if not math.isfinite(alpha):
        raise ValidationError(f"alpha must be finite, got {alpha}")
    if alpha <= 0.0:
        return 0.0
    if kappa == 1.0:
        raise IndeterminateError("threshold indeterminate at kappa = 1")
    g = lambda x: (1.0 + alpha - kappa) * curve.value(x) - alpha * curve.value(w - x)
    return bisect_root(g, 0.0, 0.5 * w, residual_tol=1e-10)


def _fast_u(p, curve, thresholds, tails, x1, x2, w: float):
    """Expected utility via the precomputed tail table; mirrors eval_expected_utility.

    Broadcasts over arrays of x1 and x2: the indicator of x1 >= x2
    multiplies the universalization term instead of branching on it.
    """
    v_keep = curve.value(w - x1)
    base = (1.0 - p.kappa) * v_keep * thresholds.cdf(x1) + tails.responder_term(p, x2)
    return base + p.kappa * (v_keep + curve.value(x1)) * (x1 >= x2)


def _diag_opt(p, curve, thresholds, tails, w: float, lo: float, hi: float) -> float:
    f = lambda y: _fast_u(p, curve, thresholds, tails, y, y, w)
    return scan_then_golden(f, lo, hi, tol=1e-6)


def symmetric_optimum(
    p: PreferenceParams,
    curve: PayoffCurve,
    thresholds: BeliefDistribution,
    offers: BeliefDistribution,
    w: float,
) -> float:
    """Best diagonal strategy: argmax_y u(y, y) over [x_constrained, threshold]."""
    lo = constrained_offer(p.kappa, curve, thresholds, w)
    hi = constrained_threshold(p.kappa, p.alpha, curve, w)
    if lo > hi:
        raise IndeterminateError(
            "bracket degenerate; region decision should not request a symmetric optimum"
        )
    tails = TailIntegrals(offers, curve, w)
    return _diag_opt(p, curve, thresholds, tails, w, lo, hi)


def _indifference_alpha(curve: PayoffCurve, x: float, w: float, weight: float = 1.0) -> float:
    """weight v(x) / (v(w - x) - v(x)); infinite when x is the equal split."""
    v_keep, v_give = curve.value(w - x), curve.value(x)
    denom = v_keep - v_give
    if denom <= _DENOM_RTOL * (abs(v_keep) + abs(v_give)):
        return math.inf
    return weight * v_give / denom


def alpha_bar(curve: PayoffCurve, thresholds: BeliefDistribution, w: float) -> float:
    """Spite level above which rejecting the selfish offer is worth it.

    v(x_s) / (v(w - x_s) - v(x_s)); infinite when the selfish offer is
    already the equal split.
    """
    return _indifference_alpha(curve, selfish_offer(curve, thresholds, w), w)


def alpha_tilde(kappa: float, curve: PayoffCurve, thresholds: BeliefDistribution, w: float) -> float:
    """Spite level at which the threshold meets the constrained offer.

    (1-kappa) v(x1c) / (v(w - x1c) - v(x1c)) with x1c the constrained offer;
    infinite when the constrained offer reaches the equal split.
    """
    x1c = constrained_offer(kappa, curve, thresholds, w)
    return _indifference_alpha(curve, x1c, w, 1.0 - kappa)


def kappa_tilde(
    alpha: float,
    curve: PayoffCurve,
    thresholds: BeliefDistribution,
    offers: BeliefDistribution,
    w: float,
    n_scan: int = 100,
    tol: float = 1e-8,
) -> float | None:
    """Universalization level where the selfish combination stops paying.

    Root of u(x_s, threshold) - u(symmetric, symmetric) in kappa; defined
    for alpha above alpha_bar (returns None otherwise). See
    _CachedProblem.kappa_tilde.
    """
    return _CachedProblem(curve, thresholds, offers, w).kappa_tilde(alpha, n_scan, tol)


def optimal_strategy(
    p: PreferenceParams,
    curve: PayoffCurve,
    thresholds: BeliefDistribution,
    offers: BeliefDistribution,
    w: float,
) -> SolverOutputs:
    """Region classification and the optimal (offer, threshold) pair.

    A one-point _CachedProblem.solve_many: the batch callers share its
    decision path and its flags.
    """
    (out,) = _CachedProblem(curve, thresholds, offers, w).solve_many([(p.alpha, p.kappa)])
    return out


@dataclass(frozen=True)
class RegionCell:
    alpha: float
    kappa: float
    region: str
    x1_star: float
    x2_star: float


@dataclass(frozen=True)
class RegionMapResult:
    cells: tuple[RegionCell, ...]
    alpha_bar: float
    alpha_tilde_by_kappa: tuple[tuple[float, float], ...]
    kappa_tilde_by_alpha: tuple[tuple[float, float], ...]

    def counts(self) -> dict[str, int]:
        out = {r: 0 for r in REGIONS}
        for c in self.cells:
            out[c.region] += 1
        return out


class _CachedProblem:
    """One configuration's selfish offer, alpha-bar, tail table and per-kappa
    caches, shared by one solve, kappa_tilde and the sweeps.

    The tail table is built on first use: R1 decisions never need it.
    """

    def __init__(self, curve, thresholds, offers, w):
        self.curve = curve
        self.thresholds = thresholds
        self.offers = offers
        self.w = validate_endowment(w)
        self.x_s = selfish_offer(curve, thresholds, w)
        self.abar = _indifference_alpha(curve, self.x_s, w)
        self._by_kappa: dict[float, tuple[float, float]] = {}
        self._ktil: dict[float, float | None] = {}
        degenerate = thresholds.is_degenerate or offers.is_degenerate
        self.flags = ("degenerate-belief",) if degenerate else ()

    @functools.cached_property
    def tails(self) -> TailIntegrals:
        return TailIntegrals(self.offers, self.curve, self.w)

    def offer_and_tilde(self, kappa: float) -> tuple[float, float]:
        hit = self._by_kappa.get(kappa)
        if hit is None:
            x1c = constrained_offer(kappa, self.curve, self.thresholds, self.w)
            hit = (x1c, _indifference_alpha(self.curve, x1c, self.w, 1.0 - kappa))
            self._by_kappa[kappa] = hit
        return hit

    def kappa_tilde(self, alpha: float, n_scan: int = 100, tol: float = 1e-8) -> float | None:
        """Root in kappa of u(x_s, threshold) - u(symmetric, symmetric), for alpha > alpha_bar.

        The first utility is strictly decreasing in kappa and the second
        convex, so the first sign change on an n_scan-point kappa grid,
        refined by bisection, is the single crossing.
        """
        if not alpha > self.abar:
            return None
        curve, thresholds, w = self.curve, self.thresholds, self.w
        tails = self.tails

        def gap(kappa: float) -> float:
            p = PreferenceParams(alpha=alpha, kappa=kappa)
            x2 = constrained_threshold(kappa, alpha, curve, w)
            u_split = _fast_u(p, curve, thresholds, tails, self.x_s, x2, w)
            lo = self.offer_and_tilde(kappa)[0]
            x_hat = _diag_opt(p, curve, thresholds, tails, w, min(lo, x2), x2)
            u_sym = _fast_u(p, curve, thresholds, tails, x_hat, x_hat, w)
            return u_split - u_sym

        hi_scan = 1.0 - 1e-9  # kappa = 1 leaves the threshold undefined
        prev_k, prev_g = 0.0, gap(0.0)
        if prev_g <= 0.0:
            return 0.0
        for i in range(1, n_scan + 1):
            k = min(i / n_scan, hi_scan)
            g = gap(k)
            if g <= 0.0:
                return bisect_boundary(lambda x: gap(x) <= 0.0, prev_k, k, x_tol=tol)
            prev_k, prev_g = k, g
        warnings.warn("indifference never reached on [0, 1); returning 0", stacklevel=3)
        return 0.0

    def ktil(self, alpha: float) -> float | None:
        if alpha not in self._ktil:
            self._ktil[alpha] = self.kappa_tilde(alpha)
        return self._ktil[alpha]

    def solve_many(self, pairs) -> tuple[SolverOutputs, ...]:
        """The region decision and optimal strategy at each (alpha, kappa), in order.

        This is the one decision path: optimal_strategy, the sweeps and the
        brute-force oracle runner all go through it. At kappa = 1 the
        universalization term dominates: the offer is the equal split and
        the threshold is not pinned down (flagged, reported as 0).
        """
        return tuple(self._solve(float(a), float(k)) for a, k in pairs)

    def _solve(self, alpha: float, kappa: float) -> SolverOutputs:
        if kappa == 1.0:
            half = 0.5 * self.w
            return SolverOutputs(
                x_selfish=self.x_s,
                x_constrained=half,
                threshold=0.0,
                symmetric=half if alpha > 0.0 else None,
                alpha_bar=self.abar,
                alpha_tilde=0.0,
                kappa_tilde=None,
                region="R1" if alpha <= 0.0 else "R2",
                optimal=Strategy(half, 0.0),
                flags=self.flags + ("threshold-indeterminate",),
            )
        x1c, atil = self.offer_and_tilde(kappa)
        x2, x_hat, ktil = 0.0, None, None
        if alpha <= 0.0:
            region, optimal = "R1", Strategy(x1c, 0.0)
        else:
            x2 = constrained_threshold(kappa, alpha, self.curve, self.w)
            if alpha <= atil:
                region, optimal = "R1", Strategy(x1c, x2)
            else:
                in_r2 = alpha < self.abar
                if not in_r2:
                    ktil = self.ktil(alpha)
                    in_r2 = ktil is None or kappa > ktil
                if in_r2:
                    # just above alpha-tilde the threshold root can land a few
                    # 1e-11 below the constrained offer; the bracket then is [x2, x2]
                    p = PreferenceParams(alpha=alpha, kappa=kappa)
                    x_hat = _diag_opt(
                        p, self.curve, self.thresholds, self.tails, self.w, min(x1c, x2), x2
                    )
                    region, optimal = "R2", Strategy(x_hat, x_hat)
                else:
                    region, optimal = "R3", Strategy(self.x_s, x2)
        return SolverOutputs(
            x_selfish=self.x_s,
            x_constrained=x1c,
            threshold=x2,
            symmetric=x_hat,
            alpha_bar=self.abar,
            alpha_tilde=atil,
            kappa_tilde=ktil,
            region=region,
            optimal=optimal,
            flags=self.flags,
        )

    def cells(self, pairs) -> tuple[RegionCell, ...]:
        """RegionCells for kappa < 1; a cell has no room for the kappa = 1 flag."""
        pairs = [(float(a), float(k)) for a, k in pairs]
        if any(k >= 1.0 for _, k in pairs):
            raise ValidationError("region classification needs kappa < 1")
        outs = self.solve_many(pairs)
        return tuple(
            RegionCell(a, k, o.region, o.optimal.x1, o.optimal.x2) for (a, k), o in zip(pairs, outs)
        )

    def classify(self, alpha: float, kappa: float) -> tuple[str, Strategy]:
        (cell,) = self.cells([(alpha, kappa)])
        return cell.region, Strategy(cell.x1_star, cell.x2_star)


def region_map(
    alphas,
    kappas,
    curve: PayoffCurve,
    thresholds: BeliefDistribution,
    offers: BeliefDistribution,
    w: float,
) -> RegionMapResult:
    """Classify every (alpha, kappa) cell and collect boundary curves."""
    prob = _CachedProblem(curve, thresholds, offers, w)
    cells = prob.cells((a, k) for a in alphas for k in kappas)
    atil_series = tuple((float(k), prob.offer_and_tilde(float(k))[1]) for k in kappas)
    ktil_series = tuple(
        (float(a), kt)
        for a in alphas
        if float(a) > prob.abar and (kt := prob.ktil(float(a))) is not None
    )
    return RegionMapResult(cells, prob.abar, atil_series, ktil_series)


def classify_many(
    pairs,
    curve: PayoffCurve,
    thresholds: BeliefDistribution,
    offers: BeliefDistribution,
    w: float,
) -> tuple[RegionCell, ...]:
    """Classify arbitrary (alpha, kappa) pairs, sharing caches across them.

    Equivalent to optimal_strategy's region and strategy fields point by
    point, but amortizes the belief integrals over the whole batch.
    """
    return _CachedProblem(curve, thresholds, offers, w).cells(pairs)


@dataclass(frozen=True)
class StaticsRow:
    kappa: float
    x1_star: float
    x2_star: float
    region: str


@dataclass(frozen=True)
class RegionSwitch:
    kappa: float
    from_region: str
    to_region: str
    x1_jump: float
    x2_jump: float


@dataclass(frozen=True)
class StaticsResult:
    alpha: float
    rows: tuple[StaticsRow, ...]
    switches: tuple[RegionSwitch, ...]


def comparative_statics(
    alpha: float,
    kappas,
    curve: PayoffCurve,
    thresholds: BeliefDistribution,
    offers: BeliefDistribution,
    w: float,
    switch_tol: float = 1e-4,
) -> StaticsResult:
    """Optimal strategy along a kappa grid, with region switches located
    by bisection between adjacent grid points."""
    prob = _CachedProblem(curve, thresholds, offers, w)
    rows = []
    for k in kappas:
        region, s = prob.classify(alpha, float(k))
        rows.append(StaticsRow(float(k), s.x1, s.x2, region))
    switches = []
    for left, right in zip(rows, rows[1:]):
        if left.region == right.region:
            continue
        base = left.region
        k_star = bisect_boundary(
            lambda k: prob.classify(alpha, k)[0] != base,
            left.kappa,
            right.kappa,
            x_tol=switch_tol,
        )
        eps = max(switch_tol, 1e-4)
        _, s_lo = prob.classify(alpha, max(k_star - eps, 0.0))
        _, s_hi = prob.classify(alpha, k_star + eps)
        switches.append(
            RegionSwitch(
                kappa=k_star,
                from_region=left.region,
                to_region=right.region,
                x1_jump=s_hi.x1 - s_lo.x1,
                x2_jump=s_hi.x2 - s_lo.x2,
            )
        )
    return StaticsResult(alpha, tuple(rows), tuple(switches))
