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
from dataclasses import dataclass

import numpy as np

from .beliefs import BeliefDistribution
from .curves import PayoffCurve
from .errors import ConvergenceError, ValidationError
from .numerics import (
    _halve_boundary,
    _spec_steps,
    _speculate,
    bisect_root,
    scan_then_golden,
)
from .params import ParamLanes, PreferenceParams, Strategy, validate_endowment, validate_kappa_alpha
from .utility import TailIntegrals, _proposer_term, _responder_term, _universal_term

REGIONS = ("R1", "R2", "R3")

# Where an offer objective peaks at w/2 with zero slope, its values tie in
# floating point within about 5e-9 w of the peak, so the search can stop
# there and leave v(w - x) - v(x) near 1e-8 of the scale of v. A difference
# below this fraction of |v(w - x)| + |v(x)| is read as the equal split.
_DENOM_RTOL = 1e-7
# kappa-tilde scans kappa = i / _KTIL_SCAN, then bisects the crossing to _KTIL_TOL
_KTIL_SCAN = 100
_KTIL_TOL = 1e-8
# comparative_statics bisects each switch into or out of R1 to this width in
# kappa, and reads every switch's jumps this far to either side
_SWITCH_TOL = 1e-4


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
    """Offer maximizing v(w - x) F(x): acceptance-weighted own payoff, found as
    the constrained offer at kappa = 0, whose objective this is."""
    return constrained_offer(0.0, curve, thresholds, w)


def constrained_offer(
    kappa: float | np.ndarray, curve: PayoffCurve, thresholds: BeliefDistribution, w: float
) -> float | np.ndarray:
    """Offer maximizing (1-kappa) v(w-x) F(x) + kappa [v(w-x) + v(x)].

    The universalization term pulls the offer toward the equal split. At
    kappa = 1 the objective is v(w-x) + v(x), so the offer is exactly w/2
    (on a linear curve every offer ties, and w/2 is the limit as kappa
    rises to 1); only kappa < 1 is searched. A 1-D array of kappa is one
    search lane per entry and gives an array.
    """
    validate_endowment(w)
    validate_kappa_alpha(kappa)
    k = np.asarray(kappa, dtype=float)
    out = np.full(k.shape, 0.5 * w)
    inner = k < 1.0
    if inner.any():
        ki = k[inner]

        def f(x):
            v_keep = curve.value(w - x)
            accept = thresholds.cdf(x)
            return _proposer_term(ki, v_keep, accept) + _universal_term(ki, v_keep, curve.value(x))

        zero = np.zeros(ki.shape)
        out[inner] = scan_then_golden(f, zero, zero + 0.5 * w)
    return float(out) if out.ndim == 0 else out


def constrained_threshold(
    kappa: float | np.ndarray, alpha: float | np.ndarray, curve: PayoffCurve, w: float
) -> float | np.ndarray:
    """Rejection threshold: zero of (1+alpha-kappa) v(x) - alpha v(w-x) on (0, w/2].

    Below it, accepting costs more in disadvantage-weighted terms than the
    payoff is worth. Returns 0 for alpha <= 0. At kappa = 1 and alpha > 0
    the equation is alpha (v(x) - v(w-x)) = 0, so the threshold is exactly
    w/2, the limit of the roots as kappa rises to 1. Arrays of kappa and
    alpha broadcast to one root per entry, found in one lane search.
    """
    validate_endowment(w)
    validate_kappa_alpha(kappa, alpha)
    k, a = np.broadcast_arrays(np.asarray(kappa, dtype=float), np.asarray(alpha, dtype=float))
    pos = a > 0.0
    out = np.where(pos & (k == 1.0), 0.5 * w, 0.0)
    root = pos & (k < 1.0)
    if root.any():
        ap = a[root]
        coef = 1.0 + ap - k[root]
        g = lambda x: coef * curve.value(x) - ap * curve.value(w - x)
        out[root] = bisect_root(g, np.zeros(ap.shape), np.full(ap.shape, 0.5 * w), residual_tol=1e-10)
    return float(out) if out.ndim == 0 else out


def _fast_u(p, curve, thresholds, tails, x1, x2, w: float):
    """Expected utility via the precomputed tail table; mirrors eval_expected_utility.

    Broadcasts over arrays of x1 and x2, and over ParamLanes parameters: the
    indicator of x1 >= x2 multiplies the universalization term instead of
    branching on it.
    """
    v_keep = curve.value(w - x1)
    proposer = _proposer_term(p.kappa, v_keep, thresholds.cdf(x1))
    responder = _responder_term(p, *tails._eval(x2))
    return proposer + responder + _universal_term(p.kappa, v_keep, curve.value(x1)) * (x1 >= x2)


def _diag_opt(p, curve, thresholds, tails, w: float, lo, hi):
    f = lambda y: _fast_u(p, curve, thresholds, tails, y, y, w)
    return scan_then_golden(f, lo, hi, tol=1e-6)


def _indifference_alpha(curve: PayoffCurve, x, w: float, weight):
    """weight v(x) / (v(w - x) - v(x)); infinite when x is the equal split.

    Broadcasts over arrays of x and weight; a float for float input.
    """
    v_keep, v_give = curve.value(w - x), curve.value(x)
    denom = v_keep - v_give
    flat = np.asarray(denom <= _DENOM_RTOL * (np.abs(v_keep) + np.abs(v_give)))
    out = np.divide(weight * v_give, denom, out=np.full(flat.shape, math.inf), where=~flat)
    return float(out) if out.ndim == 0 else out


def alpha_bar(curve: PayoffCurve, thresholds: BeliefDistribution, w: float) -> float:
    """Spite level above which rejecting the selfish offer is worth it.

    v(x_s) / (v(w - x_s) - v(x_s)); infinite when the selfish offer is
    already the equal split. This is alpha_tilde at kappa = 0.
    """
    return alpha_tilde(0.0, curve, thresholds, w)


def alpha_tilde(kappa: float, curve: PayoffCurve, thresholds: BeliefDistribution, w: float) -> float:
    """Spite level at which the threshold meets the constrained offer.

    (1-kappa) v(x1c) / (v(w - x1c) - v(x1c)) with x1c the constrained offer;
    infinite when the constrained offer reaches the equal split, as it does
    at kappa = 1. It is reported, not decided on: the threshold meets the
    offer exactly where alpha = alpha-tilde, and solve_many compares the two.
    """
    x1c = constrained_offer(kappa, curve, thresholds, w)
    return _indifference_alpha(curve, x1c, w, 1.0 - kappa)


def kappa_tilde(
    alpha: float,
    curve: PayoffCurve,
    thresholds: BeliefDistribution,
    offers: BeliefDistribution,
    w: float,
) -> float | None:
    """Universalization level where the selfish combination stops paying.

    Root of u(x_s, threshold) - u(symmetric, symmetric) in kappa; defined
    for alpha above alpha_bar (returns None otherwise). A non-finite alpha
    is a ValidationError. See _CachedProblem.kappa_tildes.
    """
    (out,) = _CachedProblem(curve, thresholds, offers, w).kappa_tildes([alpha])
    return out


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
    and per-alpha caches, shared by one solve, kappa_tilde and the sweeps.

    The tail table is built on first use: R1 decisions never need it.
    """

    def __init__(self, curve, thresholds, offers, w):
        self.curve = curve
        self.thresholds = thresholds
        self.offers = offers
        self.w = validate_endowment(w)
        self._by_kappa: dict[float, tuple[float, float]] = {}
        self._ktil: dict[float, float | None] = {}
        ((self.x_s, self.abar),) = self.offers_and_tildes([0.0])
        degenerate = thresholds.is_degenerate or offers.is_degenerate
        self.flags = ("degenerate-belief",) if degenerate else ()

    @functools.cached_property
    def tails(self) -> TailIntegrals:
        return TailIntegrals(self.offers, self.curve, self.w)

    def offers_and_tildes(self, kappas) -> list[tuple[float, float]]:
        """(constrained offer, alpha-tilde) at each kappa; one lane search for the uncached ones."""
        kappas = [float(k) for k in kappas]
        new = list(dict.fromkeys(k for k in kappas if k not in self._by_kappa))
        if new:
            ks = np.array(new)
            x1cs = constrained_offer(ks, self.curve, self.thresholds, self.w)
            atils = _indifference_alpha(self.curve, x1cs, self.w, 1.0 - ks)
            self._by_kappa.update(zip(new, zip(x1cs.tolist(), atils.tolist())))
        return [self._by_kappa[k] for k in kappas]

    def _gap(self, alpha: np.ndarray, kappa: np.ndarray) -> np.ndarray:
        """u(x_s, threshold) - u(symmetric, symmetric) per lane (alpha > alpha-bar)."""
        curve, thresholds, w, tails = self.curve, self.thresholds, self.w, self.tails
        p = ParamLanes(alpha, 0.0 * alpha, kappa)
        x2 = constrained_threshold(kappa, alpha, curve, w)
        u_split = _fast_u(p, curve, thresholds, tails, self.x_s, x2, w)
        x1c = np.array([x for x, _ in self.offers_and_tildes(kappa.tolist())])
        x_hat = _diag_opt(p, curve, thresholds, tails, w, np.where(x2 < x1c, x2, x1c), x2)
        return u_split - _fast_u(p, curve, thresholds, tails, x_hat, x_hat, w)

    def kappa_tildes(self, alphas) -> list[float | None]:
        """Root in kappa of u(x_s, threshold) - u(symmetric, symmetric) at
        each alpha > alpha-bar, cached per alpha; None for alpha <= alpha-bar,
        decided here only. A non-finite alpha is a ValidationError.

        The first utility is strictly decreasing in kappa and the second
        convex, so the first sign change on the kappa grid i / _KTIL_SCAN,
        refined by bisection to _KTIL_TOL, is the single crossing. The
        uncached alphas scan in lockstep, every lane at the same kappa, and
        a lane leaves the scan at its first gap <= 0; the bisections then
        run as one lane search. A lane with no crossing is a ConvergenceError.

        One gap call covers several kappa steps of every open lane, as many
        as numerics._SPEC_LANES allows, and each lane still leaves at its
        first gap <= 0. A call that raises a package error or warns is redone
        one step per call from there on, so errors are those of the one-step
        scan.

        The scan keeps its gaps, not only their signs: the bisection asks
        each lane's route, the halvings it would take were the root at the
        regula-falsi point of the gaps at its bracket ends
        (numerics._halve_boundary). The gap is nearly linear across a
        1 / _KTIL_SCAN bracket, so one or two calls decide all 20 halvings,
        each still on the gap's sign at that halving's own midpoint.
        """
        alphas = [float(a) for a in alphas]
        validate_kappa_alpha(alpha=alphas)
        new = [a for a in dict.fromkeys(alphas) if a not in self._ktil]
        self._ktil.update((a, None) for a in new if not a > self.abar)
        scan = [a for a in new if a > self.abar]
        last = [math.nan] * len(scan)  # each open lane's gap at the step before
        brackets = []  # (alpha, prev kappa, kappa, their gaps) of each first sign change
        step, one_by_one = 0, False
        while scan and step <= _KTIL_SCAN:
            n = 1 if one_by_one else _spec_steps(len(scan))
            steps = range(step, min(step + n, _KTIL_SCAN + 1))
            # the last step scans 1 - 1e-9, not 1, so the bisection brackets,
            # and with them the roots' bits, stay those of the kappa < 1 search
            ks = [min(i / _KTIL_SCAN, 1.0 - 1e-9) for i in steps]
            al, kk = np.tile(scan, len(ks)), np.repeat(ks, len(scan))
            call = lambda: self._gap(al, kk).reshape(len(ks), len(scan)).tolist()
            gaps = call() if len(ks) == 1 else _speculate(call)
            if gaps is None:
                one_by_one = True
                continue
            done = [False] * len(scan)
            for i, k, row in zip(steps, ks, gaps):
                for j, gap in enumerate(row):
                    if done[j]:
                        continue
                    if gap <= 0.0:
                        done[j] = True
                        if i == 0:
                            self._ktil[scan[j]] = 0.0
                        else:
                            brackets.append((scan[j], (i - 1) / _KTIL_SCAN, k, last[j], gap))
                    else:
                        last[j] = gap
            scan, last = ([x for x, d in zip(col, done) if not d] for col in (scan, last))
            step = steps.stop
        if scan:
            # Only a non-finite gap gets here. At the last kappa, 1 - 1e-9,
            # the threshold root x2 has alpha (v(w - x2) - v(x2)) = 1e-9 v(x2),
            # so the split strategy is worth at most about
            # 1e-9 (v(w - x_s) F(x_s) + I_own(x2)), while the diagonal search
            # returns at least u(x2, x2) >= kappa v(w) - 1e-9 v(x2), v being
            # concave with v(0) = 0: a finite gap is negative there.
            raise ConvergenceError(
                f"kappa-tilde: indifference never reached on [0, 1) at alpha = {scan[0]}"
            )
        if brackets:
            al, lo, hi, glo, ghi = (np.array(col) for col in zip(*brackets))
            # the scan has already seen gap > 0 at lo and gap <= 0 at hi
            score = lambda ks, j: self._gap(
                np.broadcast_to(al[j], ks.shape).ravel(), ks.ravel()
            ).reshape(ks.shape)
            roots = _halve_boundary(score, lo, hi, _KTIL_TOL, (glo, ghi))
            self._ktil.update(zip(al.tolist(), roots.tolist()))
        return [self._ktil[a] for a in alphas]

    def solve_many(self, pairs) -> tuple[SolverOutputs, ...]:
        """The region decision and optimal strategy at each (alpha, kappa), in order.

        This is the one decision path: optimal_strategy, the sweeps and the
        brute-force oracle runner all go through it. It runs in stages, each
        one lane search over the points that need it: the constrained offers
        of the distinct kappa, the threshold roots, kappa-tilde of the
        distinct alpha of the non-R1 points, then the R2 diagonal optima.
        A point is R1 iff its threshold is at or below its constrained offer,
        which is alpha <= alpha-tilde (alpha <= 0 gives the threshold 0). At
        kappa = 1 offer and threshold are those of constrained_offer and
        constrained_threshold, so every alpha there is R1, (w/2, w/2) for
        alpha > 0 and (w/2, 0) for alpha <= 0. At alpha = 0, kappa = 1 every
        threshold up to the offer scores the same, and the point is flagged
        threshold-indeterminate.
        """
        pairs = [(float(a), float(k)) for a, k in pairs]
        tilde, x2, r1 = self._r1_stage(pairs)
        above = [i for i, is_r1 in enumerate(r1) if not is_r1]
        ktil = dict(zip(above, self.kappa_tildes(pairs[i][0] for i in above)))
        r2 = [i for i in above if ktil[i] is None or pairs[i][1] > ktil[i]]
        x_hat: dict[int, float] = {}
        if r2:
            lo = np.array([tilde[i][0] for i in r2])
            hi = np.array([x2[i] for i in r2])
            alpha = np.array([pairs[i][0] for i in r2])
            p = ParamLanes(alpha, 0.0 * alpha, np.array([pairs[i][1] for i in r2]))
            opt = _diag_opt(p, self.curve, self.thresholds, self.tails, self.w, lo, hi)
            x_hat.update(zip(r2, opt.tolist()))
        return tuple(
            self._output(a, k, tilde[i], x2[i], r1[i], x_hat.get(i), ktil.get(i))
            for i, (a, k) in enumerate(pairs)
        )

    def _r1_stage(self, pairs) -> tuple[list[tuple[float, float]], list[float], list[bool]]:
        """(constrained offer, alpha-tilde), threshold and whether R1 (threshold
        at or below the offer) at each (alpha, kappa): solve_many's first two
        stages, and all that the statics R1 bisection asks of a point."""
        tilde = self.offers_and_tildes(k for _, k in pairs)
        x2 = constrained_threshold(
            np.array([k for _, k in pairs]), np.array([a for a, _ in pairs]), self.curve, self.w
        ).tolist()
        return tilde, x2, [t <= x1c for t, (x1c, _) in zip(x2, tilde)]

    def _output(self, alpha, kappa, tilde, x2, r1, x_hat, ktil) -> SolverOutputs:
        """One point's SolverOutputs from the values the stages of solve_many found."""
        x1c, atil = tilde
        if r1:
            region, optimal = "R1", Strategy(x1c, x2)
        elif x_hat is not None:
            region, optimal = "R2", Strategy(x_hat, x_hat)
        else:
            region, optimal = "R3", Strategy(self.x_s, x2)
        indeterminate = ("threshold-indeterminate",) if alpha == 0.0 and kappa == 1.0 else ()
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
            flags=self.flags + indeterminate,
        )

    def cells(self, pairs) -> tuple[RegionCell, ...]:
        """RegionCells for kappa < 1: kappa = 1 is R1 for every alpha, while
        the label as kappa rises to 1 is R2 above the limit of alpha-tilde
        (about 0.053 on the default configuration), so a kappa = 1 row would
        change label with no change of strategy."""
        pairs = [(float(a), float(k)) for a, k in pairs]
        if any(k >= 1.0 for _, k in pairs):
            raise ValidationError("region classification needs kappa < 1")
        outs = self.solve_many(pairs)
        return tuple(
            RegionCell(a, k, o.region, o.optimal.x1, o.optimal.x2) for (a, k), o in zip(pairs, outs)
        )


def region_map(
    alphas,
    kappas,
    curve: PayoffCurve,
    thresholds: BeliefDistribution,
    offers: BeliefDistribution,
    w: float,
) -> RegionMapResult:
    """Classify every (alpha, kappa) cell and collect boundary curves."""
    alphas, kappas = [float(a) for a in alphas], [float(k) for k in kappas]
    prob = _CachedProblem(curve, thresholds, offers, w)
    cells = prob.cells((a, k) for a in alphas for k in kappas)
    atil_series = tuple((k, atil) for k, (_, atil) in zip(kappas, prob.offers_and_tildes(kappas)))
    ktil_series = tuple((a, kt) for a, kt in zip(alphas, prob.kappa_tildes(alphas)) if kt is not None)
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
) -> StaticsResult:
    """Optimal strategy along a nondecreasing kappa grid (else a
    ValidationError), and one region switch per adjacent pair whose regions
    differ, its jumps read _SWITCH_TOL to either side of it, clamped into
    the pair.

    A non-R1 point is R2 iff kappa > kappa-tilde(alpha), so a pair with no R1
    end switches R3 -> R2 at the kappa-tilde the rows' solve cached. A pair
    with an R1 end is bisected to _SWITCH_TOL on the R1 decision alone, all
    such pairs in one lane search. Were a third region inside a pair, a pair
    with an R1 end would report its R1 edge, any other pair kappa-tilde.
    """
    kappas = [float(k) for k in kappas]
    if any(hi < lo for lo, hi in zip(kappas, kappas[1:])):
        raise ValidationError("comparative_statics needs a nondecreasing kappa grid")
    prob = _CachedProblem(curve, thresholds, offers, w)
    rows = [
        StaticsRow(c.kappa, c.x1_star, c.x2_star, c.region)
        for c in prob.cells((alpha, k) for k in kappas)
    ]
    pairs = [(left, right) for left, right in zip(rows, rows[1:]) if left.region != right.region]
    if not pairs:
        return StaticsResult(alpha, tuple(rows), ())
    has_r1 = lambda pair: "R1" in (pair[0].region, pair[1].region)
    r1_pairs = [pair for pair in pairs if has_r1(pair)]
    left_r1 = np.array([left.region == "R1" for left, _ in r1_pairs])

    def leaves_left(ks):
        _, _, r1 = prob._r1_stage([(alpha, k) for k in ks.ravel().tolist()])
        return np.array(r1).reshape(ks.shape) != left_r1

    # the rows already give the R1 decision at both ends
    r1_kappas = iter(_halve_boundary(
        leaves_left,
        np.array([left.kappa for left, _ in r1_pairs]),
        np.array([right.kappa for _, right in r1_pairs]),
        _SWITCH_TOL,
    ).tolist())
    # some row is not R1, so the rows' solve has cached kappa-tilde
    (ktil,) = prob.kappa_tildes([alpha])
    k_stars = [next(r1_kappas) if has_r1(pair) else ktil for pair in pairs]
    # each end is clamped into its grid pair, so no read leaves the grid
    # (a switch within _SWITCH_TOL of kappa = 1 would read kappa >= 1)
    ends = prob.cells(
        [(alpha, max(k - _SWITCH_TOL, left.kappa)) for k, (left, _) in zip(k_stars, pairs)]
        + [(alpha, min(k + _SWITCH_TOL, right.kappa)) for k, (_, right) in zip(k_stars, pairs)]
    )
    switches = tuple(
        RegionSwitch(
            kappa=k_star,
            from_region=left.region,
            to_region=right.region,
            x1_jump=s_hi.x1_star - s_lo.x1_star,
            x2_jump=s_hi.x2_star - s_lo.x2_star,
        )
        for k_star, (left, right), s_lo, s_hi in zip(
            k_stars, pairs, ends[: len(k_stars)], ends[len(k_stars):]
        )
    )
    return StaticsResult(alpha, tuple(rows), switches)
