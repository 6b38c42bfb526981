"""Optimal strategies, cutoff curves, region logic, and comparative statics.

Numeric anchors below were computed once from the closed-form cutoff
definitions (independent scans over the objective and bisection on the
indifference gap) and frozen; the w=10 configuration is crra(0.05) with
Beta(2,4) beliefs on both sides.
"""

import math

import numpy as np
import pytest

from moralbargain import (
    BeliefDistribution,
    PayoffCurve,
    PreferenceParams,
    Strategy,
    alpha_bar,
    alpha_tilde,
    classify_many,
    comparative_statics,
    constrained_offer,
    constrained_threshold,
    kappa_tilde,
    optimal_strategy,
    region_map,
    selfish_offer,
)
from moralbargain import numerics, solver
from moralbargain.errors import ConvergenceError, IndeterminateError, ValidationError
from moralbargain.io import default_run_config
from moralbargain.oracle import brute_force_ug, expected_utility_riemann
from moralbargain.solver import _CachedProblem

W = 10.0

X_SELFISH = 3.140708890168905
ALPHA_BAR = 0.908812520585837
ALPHA_TILDE = {0.2: 0.7311954538315231, 0.46: 0.5003448355372192, 0.6: 0.37610188906167713}
KAPPA_TILDE_3 = 0.01721625328063965


def test_selfish_offer_degenerate_and_boundary(linear):
    # every offer accepted: keep everything
    assert selfish_offer(linear, BeliefDistribution.always_accept(W), W) == pytest.approx(0.0, abs=1e-9)
    # uniform acceptance, linear payoff: (10-x) x / 5 peaks at the half-split
    got = selfish_offer(linear, BeliefDistribution.uniform_on_half(W), W)
    assert got == pytest.approx(5.0, abs=1e-6)


def test_selfish_offer_frozen(crra, thresholds):
    assert selfish_offer(crra, thresholds, W) == pytest.approx(X_SELFISH, abs=1e-6)


def test_constrained_offer_limits(crra, thresholds):
    assert constrained_offer(0.0, crra, thresholds, W) == pytest.approx(
        selfish_offer(crra, thresholds, W), abs=1e-9
    )
    assert constrained_offer(1.0, crra, thresholds, W) == pytest.approx(W / 2, abs=1e-6)
    with pytest.raises(ValidationError):
        constrained_offer(1.2, crra, thresholds, W)


def test_constrained_offer_nondecreasing_in_kappa(crra, thresholds):
    ks = np.linspace(0.0, 1.0, 41)
    offers = [constrained_offer(float(k), crra, thresholds, W) for k in ks]
    assert np.all(np.diff(offers) >= -1e-6)


def test_constrained_threshold_linear_closed_form(linear):
    # (1+alpha-kappa) x = alpha (w-x) at alpha=1, kappa=0: x = w/3
    assert constrained_threshold(0.0, 1.0, linear, W) == pytest.approx(10.0 / 3.0, abs=1e-9)
    assert constrained_threshold(0.3, -0.5, linear, W) == 0.0
    assert constrained_threshold(0.3, 0.0, linear, W) == 0.0
    with pytest.raises(IndeterminateError):
        constrained_threshold(1.0, 0.5, linear, W)


@pytest.mark.parametrize("kappa", [0.0, 0.2])
def test_constrained_threshold_steep_crra_root(kappa):
    # v(x) = 10 x^0.1 puts the root at r w / (1 + r) with r = (alpha / (1 + alpha - kappa))^10,
    # near 1e-12; g' is about 1e11 there, so a bracket width floored at 4 ulp of 1
    # stopped with a residual near 3e-5
    alpha = 0.05
    got = constrained_threshold(kappa, alpha, PayoffCurve.crra(0.9), W)
    assert got == pytest.approx((alpha / (1.0 + alpha - kappa)) ** 10 * W, rel=1e-6)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_constrained_threshold_rejects_non_finite_alpha(linear, bad):
    # a validation failure (exit 2), not a bisection that cannot converge
    with pytest.raises(ValidationError):
        constrained_threshold(0.3, bad, linear, W)


def test_diagonal_utility_broadcasts_bitwise(crra, thresholds, offers):
    from moralbargain.solver import _fast_u
    from moralbargain.utility import TailIntegrals, _responder_term

    tails = TailIntegrals(offers, crra, W)
    ys = np.linspace(0.0, W / 2, 401)
    for p in (PreferenceParams(alpha=0.5, kappa=0.6), PreferenceParams(alpha=3.0, kappa=0.01)):
        vec = _fast_u(p, crra, thresholds, tails, ys, ys, W)
        scal = [_fast_u(p, crra, thresholds, tails, y, y, W) for y in ys.tolist()]
        assert np.array_equal(np.array(scal), vec)
        # off the diagonal the universalization term drops out
        x_s, x2 = X_SELFISH, 4.0
        assert _fast_u(p, crra, thresholds, tails, x_s, x2, W) == (
            (1 - p.kappa) * crra.value(W - x_s) * thresholds.cdf(x_s)
            + _responder_term(p, tails.own(x2), tails.other(x2))
        )


def test_constrained_threshold_residual_bound(crra, rng):
    # the root is accepted only when the defining residual is below 1e-10
    for _ in range(50):
        a = rng.uniform(1e-3, 3.0)
        k = rng.uniform(0.0, 0.99)
        x = constrained_threshold(k, a, crra, W)
        g = (1.0 + a - k) * crra.value(x) - a * crra.value(W - x)
        assert abs(g) < 1e-10
        assert 0.0 < x < W / 2


@pytest.mark.parametrize("w", [10.0, 58.8])
@pytest.mark.parametrize("curve", [
    PayoffCurve.linear(), PayoffCurve.crra(0.05), PayoffCurve.crra(0.3), PayoffCurve.crra(0.9),
    PayoffCurve.shifted_log(),
], ids=lambda c: c.label())
def test_threshold_root_is_bracketed_by_a_sign_change(curve, w):
    # independent of the stopping rule |f(mid)| < 1e-10: f changes sign
    # across [t - delta, t + delta] around each returned root t
    rng = np.random.default_rng(2300)
    alpha = 10.0 ** rng.uniform(-3.0, 2.0, 200)
    kappa = rng.uniform(0.0, 0.99, 200)
    t = constrained_threshold(kappa, alpha, curve, w)
    f = lambda x: (1.0 + alpha - kappa) * curve.value(x) - alpha * curve.value(w - x)
    delta = 1e-9 * w
    assert np.all(f(np.maximum(t - delta, 0.0)) <= 0.0)
    assert np.all(f(t + delta) >= 0.0)


def test_alpha_bar_definitional_identity(crra, thresholds, linear):
    x_s = selfish_offer(crra, thresholds, W)
    want = crra.value(x_s) / (crra.value(W - x_s) - crra.value(x_s))
    assert alpha_bar(crra, thresholds, W) == pytest.approx(want, abs=1e-12)
    assert alpha_bar(crra, thresholds, W) == pytest.approx(ALPHA_BAR, abs=1e-6)
    # degenerate belief: selfish offer 0, so the bar sits at 0
    assert alpha_bar(linear, BeliefDistribution.always_accept(W), W) == pytest.approx(0.0, abs=1e-8)


@pytest.mark.parametrize("w", [W, 58.8])
def test_indifference_alpha_infinite_at_a_flat_half_split(linear, w):
    # (w - x) F(x) with uniform F peaks at w/2 with zero slope, so the search
    # stops about 3e-10 short of it; that gap must not read as a finite bar
    uniform = BeliefDistribution.uniform_on_half(w)
    assert selfish_offer(linear, uniform, w) == pytest.approx(w / 2, abs=1e-8)
    assert alpha_bar(linear, uniform, w) == np.inf
    assert alpha_tilde(0.3, linear, uniform, w) == np.inf
    out = optimal_strategy(PreferenceParams(alpha=0.5, kappa=0.3), linear, uniform, uniform, w)
    assert (out.alpha_bar, out.alpha_tilde) == (np.inf, np.inf)


def test_alpha_tilde_frozen_and_limits(crra, thresholds):
    assert alpha_tilde(0.0, crra, thresholds, W) == pytest.approx(
        alpha_bar(crra, thresholds, W), abs=1e-9
    )
    for k, want in ALPHA_TILDE.items():
        assert alpha_tilde(k, crra, thresholds, W) == pytest.approx(want, abs=1e-6)
    # the cutoff falls as universalization rises
    ks = np.linspace(0.0, 0.9, 19)
    vals = [alpha_tilde(float(k), crra, thresholds, W) for k in ks]
    assert np.all(np.diff(vals) < 0)


def test_kappa_tilde_frozen_and_domain(crra, thresholds, offers):
    assert kappa_tilde(0.5, crra, thresholds, offers, W) is None
    assert kappa_tilde(ALPHA_BAR, crra, thresholds, offers, W) is None
    got = kappa_tilde(3.0, crra, thresholds, offers, W)
    assert got == pytest.approx(KAPPA_TILDE_3, abs=1e-5)


def test_region_assignment_examples(crra, thresholds, offers):
    # mild spite below the meeting cutoff: constrained pair
    out = optimal_strategy(PreferenceParams(alpha=0.3, kappa=0.2), crra, thresholds, offers, W)
    assert out.region == "R1"
    assert out.optimal.x1 == pytest.approx(out.x_constrained)
    assert out.optimal.x2 == pytest.approx(out.threshold)
    assert out.optimal.x1 > out.optimal.x2

    # the worked diagonal case
    out = optimal_strategy(PreferenceParams(alpha=0.5, kappa=0.6), crra, thresholds, offers, W)
    assert out.region == "R2"
    assert out.optimal.x1 == out.optimal.x2
    assert out.optimal.x1 == pytest.approx(3.2510385119233085, abs=1e-5)

    # strong spite, almost no universalization: selfish offer, high threshold
    out = optimal_strategy(PreferenceParams(alpha=3.0, kappa=0.005), crra, thresholds, offers, W)
    assert out.region == "R3"
    assert out.optimal.x1 == pytest.approx(X_SELFISH, abs=1e-6)
    assert out.optimal.x2 > out.optimal.x1


def test_region_boundary_ties(crra, thresholds, offers):
    # alpha exactly at the meeting cutoff stays in R1; exactly at the
    # rejection bar goes to the diagonal region
    atil = alpha_tilde(0.46, crra, thresholds, W)
    out = optimal_strategy(PreferenceParams(alpha=atil, kappa=0.46), crra, thresholds, offers, W)
    assert out.region == "R1"
    out = optimal_strategy(PreferenceParams(alpha=ALPHA_BAR, kappa=0.3), crra, thresholds, offers, W)
    assert out.region == "R2"


def test_full_universalization_edge(crra, thresholds, offers):
    out = optimal_strategy(PreferenceParams(alpha=0.5, kappa=1.0), crra, thresholds, offers, W)
    assert "threshold-indeterminate" in out.flags
    assert out.optimal.x1 == pytest.approx(W / 2)
    assert out.optimal.x2 == 0.0
    assert out.region == "R2"
    out = optimal_strategy(PreferenceParams(alpha=-0.5, kappa=1.0), crra, thresholds, offers, W)
    assert out.region == "R1"


@pytest.mark.parametrize("alpha", [0.5, 2.0])
@pytest.mark.parametrize("kappa", [1 - 1e-8, 1 - 1e-9, 1 - 1e-12])
def test_kappa_near_one_keeps_r1_compatible(crra, thresholds, offers, alpha, kappa):
    # the constrained offer stops about 2e-7 short of w/2, where the alpha-tilde
    # guard reads it as the equal split (alpha-tilde = inf); the threshold then
    # lies above the offer, and an R1 pair there loses its universalization term
    p = PreferenceParams(alpha=alpha, kappa=kappa)
    out = optimal_strategy(p, crra, thresholds, offers, W)
    assert not (out.region == "R1" and out.optimal.x2 > out.optimal.x1)
    s_brute, _ = brute_force_ug(p, crra, thresholds, offers, W, W / 400)
    u_opt = expected_utility_riemann(p, crra, thresholds, offers, out.optimal, W)
    u_brute = expected_utility_riemann(p, crra, thresholds, offers, s_brute, W)
    assert u_opt >= u_brute - 1e-6


_ALWAYS = BeliefDistribution.always_accept(W)
_BETA24 = BeliefDistribution.scaled_beta(2.0, 4.0, W)


@pytest.mark.parametrize(
    "thresholds, offers",
    [(_ALWAYS, _BETA24), (_BETA24, _ALWAYS), (_ALWAYS, _ALWAYS)],
    ids=["always-accept-thresholds", "always-accept-offers", "both"],
)
def test_degenerate_belief_flagged(crra, thresholds, offers):
    out = optimal_strategy(PreferenceParams(alpha=0.2, kappa=0.1), crra, thresholds, offers, W)
    assert "degenerate-belief" in out.flags
    # a point-mass belief gives finite cells and boundaries, never a huge number
    res = region_map(np.linspace(-1.0, 3.0, 9), np.linspace(0.0, 0.95, 5), crra, thresholds,
                     offers, W)
    assert len(res.cells) == 45
    assert all(math.isfinite(c.x1_star) and math.isfinite(c.x2_star) for c in res.cells)
    assert all(0.0 <= c.x1_star <= W and 0.0 <= c.x2_star <= W for c in res.cells)
    assert math.isfinite(res.alpha_bar)
    assert all(math.isfinite(kt) for _, kt in res.kappa_tilde_by_alpha)


@pytest.mark.parametrize("shape", [(0.5, 4.0), (2.0, 0.5)])
def test_offer_beta_shape_below_one_rejected_before_the_tail_table(crra, thresholds, shape):
    # the density is unbounded at an end of [0, w/2]; the tail table would
    # fill with NaN and the R2 scan then fail as a ConvergenceError
    offers = BeliefDistribution.scaled_beta(*shape, W)
    with pytest.raises(ValidationError, match=rf"Beta\({shape[0]:g}, {shape[1]:g}\)"):
        optimal_strategy(PreferenceParams(alpha=3.0, kappa=0.3), crra, thresholds, offers, W)
    with pytest.raises(ValidationError, match="below 1"):
        kappa_tilde(3.0, crra, thresholds, offers, W)
    # R1 decisions never build the table
    for alpha in (-0.5, 0.2):
        out = optimal_strategy(PreferenceParams(alpha=alpha, kappa=0.3), crra, thresholds, offers, W)
        assert out.region == "R1"


def test_no_rejection_without_spite(crra, thresholds, offers, rng):
    # alpha <= 0 pins the threshold at zero; any positive alpha lifts it
    # (reduced draw count here; the full 500-draw suite runs in acceptance)
    for _ in range(30):
        k = rng.uniform(0.0, 0.99)
        a_neg = rng.uniform(-2.0, 0.0)
        a_pos = rng.uniform(1e-3, 2.0)
        out = optimal_strategy(PreferenceParams(alpha=a_neg, kappa=k), crra, thresholds, offers, W)
        assert out.region == "R1" and out.optimal.x2 == 0.0
        out = optimal_strategy(PreferenceParams(alpha=a_pos, kappa=k), crra, thresholds, offers, W)
        assert out.optimal.x2 > 0.0


def test_compatible_demands_above_indifference_curve(crra, thresholds, offers, rng):
    # past the indifference level in kappa the offer meets the threshold
    for _ in range(10):
        a = rng.uniform(ALPHA_BAR + 1e-3, 2.0)
        kt = kappa_tilde(a, crra, thresholds, offers, W)
        k = rng.uniform(kt + 1e-3, 0.99)
        out = optimal_strategy(PreferenceParams(alpha=a, kappa=k), crra, thresholds, offers, W)
        assert out.optimal.x1 >= out.optimal.x2 - 1e-9


def test_strategies_monotone_in_kappa_below_bar(crra, thresholds, offers):
    # both components nondecreasing along kappa for alpha below the bar
    ks = np.linspace(0.0, 0.95, 50)
    for a in (0.0, 0.2, 0.45, 0.7, 0.88):
        cells = classify_many([(a, float(k)) for k in ks], crra, thresholds, offers, W)
        x1s = [c.x1_star for c in cells]
        x2s = [c.x2_star for c in cells]
        assert np.all(np.diff(x1s) >= -1e-6), a
        assert np.all(np.diff(x2s) >= -1e-6), a


def test_classify_many_matches_single_solver(crra, thresholds, offers, rng):
    pairs = [(float(rng.uniform(-1, 3)), float(rng.uniform(0, 0.95))) for _ in range(20)]
    cells = classify_many(pairs, crra, thresholds, offers, W)
    for (a, k), cell in zip(pairs, cells):
        out = optimal_strategy(PreferenceParams(alpha=a, kappa=k), crra, thresholds, offers, W)
        assert cell.region == out.region
        assert (cell.x1_star, cell.x2_star) == (out.optimal.x1, out.optimal.x2)


def test_solve_many_equals_pointwise_optimal_strategy(crra, thresholds, offers):
    # one shared problem per configuration gives each point's full outputs, flags included
    just_above_atil = float(np.nextafter(ALPHA_TILDE[0.46], np.inf))
    pairs = [
        (-0.5, 0.3), (0.0, 0.6),  # alpha <= 0
        (0.5, 1.0), (-0.5, 1.0),  # kappa = 1
        (0.3, 0.2), (0.5, 0.6), (3.0, 0.005), (3.0, 0.5), (1.5, 0.01), (1.5, 0.3),  # R1, R2, R3
        (just_above_atil, 0.46),
    ]
    for th in (thresholds, BeliefDistribution.always_accept(W)):
        outs = _CachedProblem(crra, th, offers, W).solve_many(pairs)
        assert len(outs) == len(pairs)
        for (a, k), out in zip(pairs, outs):
            assert out == optimal_strategy(PreferenceParams(alpha=a, kappa=k), crra, th, offers, W)
        if th is thresholds:
            assert {o.region for o in outs} == {"R1", "R2", "R3"}
        else:
            assert all("degenerate-belief" in o.flags for o in outs)
    # the threshold root lands 4e-11 below the constrained offer here; the
    # diagonal optimum then sits on the threshold instead of raising
    p = PreferenceParams(alpha=just_above_atil, kappa=0.46)
    out = optimal_strategy(p, crra, thresholds, offers, W)
    assert out.region == "R2" and out.x_constrained > out.threshold
    assert out.optimal == Strategy(out.threshold, out.threshold)


def test_kappa_tilde_bisection_reuses_the_scan_endpoints(crra, thresholds, offers, monkeypatch):
    # the scan has evaluated the gap at both ends of each bracket; the
    # bisection evaluates only points strictly inside it
    seen = []
    gap = _CachedProblem._gap

    def spy(self, alphas, kappas):
        seen.extend(zip(alphas.tolist(), kappas.tolist()))
        return gap(self, alphas, kappas)

    monkeypatch.setattr(_CachedProblem, "_gap", spy)
    prob = _CachedProblem(crra, thresholds, offers, W)
    ktils = prob.kappa_tildes([2.0, 3.0])
    assert all(0.0 < k < 1.0 for k in ktils)
    assert len(seen) == len(set(seen))
    # cached per alpha: a repeat asks the gap nothing
    n_seen = len(seen)
    assert prob.kappa_tildes([3.0, 0.5, 2.0]) == [ktils[1], None, ktils[0]]
    assert len(seen) == n_seen


def test_kappa_tilde_gap_positive_on_the_whole_scan_raises(crra, thresholds, offers, monkeypatch):
    # a gap that never reaches 0 on [0, 1) has no crossing; it must not read as kappa-tilde 0
    monkeypatch.setattr(_CachedProblem, "_gap", lambda self, alphas, kappas: np.ones(len(alphas)))
    with pytest.raises(ConvergenceError, match="alpha = 3.0"):
        kappa_tilde(3.0, crra, thresholds, offers, W)


def _sequential_kappa_tildes(gap, alphas):
    """kappa_tildes one kappa step, then one halving, per gap call: the reference
    for the speculative scan and walk. Returns {alpha: kappa-tilde} and the brackets."""
    out, brackets, scan = {}, [], list(alphas)
    for step in range(101):
        if not scan:
            break
        k = min(step / 100, 1.0 - 1e-9)
        crossed = (gap(np.array(scan), np.full(len(scan), k)) <= 0.0).tolist()
        for a, hit in zip(scan, crossed):
            if hit and step == 0:
                out[a] = 0.0
            elif hit:
                brackets.append((a, (step - 1) / 100, k))
        scan = [a for a, hit in zip(scan, crossed) if not hit]
    if scan:
        raise ConvergenceError(f"kappa-tilde: indifference never reached on [0, 1) at alpha = {scan[0]}")
    for a, lo, hi in brackets:
        while hi - lo > 1e-8:
            mid = 0.5 * (lo + hi)
            if gap(np.array([a]), np.array([mid]))[0] <= 0.0:
                hi = mid
            else:
                lo = mid
        out[a] = hi
    return out, brackets


def _stub_gap(crossings, bad=None):
    """A gap linear in kappa whose first scan step <= 0 is crossings[alpha]
    (None: never); it raises ConvergenceError at any (alpha, kappa) where bad holds."""
    where = {a: (2.0 if c is None else (c - 0.37) / 100) for a, c in crossings.items()}

    def gap(alphas, kappas):
        if bad is not None:
            hit = [bad(a, k) for a, k in zip(alphas.tolist(), kappas.tolist())]
            if any(hit):
                i = hit.index(True)
                raise ConvergenceError(f"stub gap at ({alphas[i]!r}, {kappas[i]!r})")
        return np.array([where[a] for a in alphas.tolist()]) - kappas

    return gap


def _outcome(search):
    try:
        return search()
    except ConvergenceError as exc:
        return str(exc)


# one alpha's scan chunk ends at step 63
_EDGE = numerics._spec_steps(1)
_CROSSINGS = [0, 1, 2, _EDGE - 1, _EDGE, _EDGE + 1, 99, 100]


@pytest.mark.parametrize("crossings", [
    *([c] for c in _CROSSINGS),
    _CROSSINGS,  # eight lanes: chunks of 8 steps, then wider as lanes leave
    [5, 17, None],  # one never crosses: the error names it
    [None, 5],
], ids=str)
def test_kappa_tilde_scan_chunks_give_the_one_step_scan(crra, thresholds, offers, monkeypatch, crossings):
    alphas = [1.0 + 0.25 * i for i in range(len(crossings))]
    gap = _stub_gap(dict(zip(alphas, crossings)))
    want = _outcome(lambda: _sequential_kappa_tildes(gap, alphas))
    halved = []
    real_halve = solver._halve_boundary

    def spy(pred, lo, hi, x_tol):
        halved.extend(zip(lo.tolist(), hi.tolist()))
        return real_halve(pred, lo, hi, x_tol)

    monkeypatch.setattr(solver, "_halve_boundary", spy)
    monkeypatch.setattr(_CachedProblem, "_gap", lambda self, a, k: gap(a, k))
    prob = _CachedProblem(crra, thresholds, offers, W)
    got = _outcome(lambda: prob.kappa_tildes(alphas))
    if isinstance(want, str):
        assert got == want
        return
    ktil, brackets = want
    assert got == [ktil[a] for a in alphas]
    assert halved == [(lo, hi) for _, lo, hi in brackets]


@pytest.mark.parametrize("bad", [
    lambda a, k: k > 0.3,  # off the path: the lanes cross at steps 5 and 17
    # on the scan of alpha 1.25 at step 10; a chunk meets alpha 1.0 at step 6 first
    lambda a, k: k >= (0.1 if a == 1.25 else 0.06),
    lambda a, k: a == 1.25 and 0.163 < k < 0.17,  # on the bisection of alpha 1.25 only
], ids=["off-path", "on-scan", "on-bisection"])
def test_kappa_tilde_gap_errors_are_those_of_the_one_step_search(crra, thresholds, offers,
                                                                monkeypatch, bad):
    alphas = [1.0, 1.25]
    gap = _stub_gap({1.0: 5, 1.25: 17}, bad)
    want = _outcome(lambda: _sequential_kappa_tildes(gap, alphas)[0])
    monkeypatch.setattr(_CachedProblem, "_gap", lambda self, a, k: gap(a, k))
    got = _outcome(lambda: _CachedProblem(crra, thresholds, offers, W).kappa_tildes(alphas))
    assert got == (want if isinstance(want, str) else [want[a] for a in alphas])


def test_one_alpha_kappa_tilde_makes_at_most_five_gap_calls(crra, thresholds, offers, monkeypatch):
    calls = []
    gap = _CachedProblem._gap

    def spy(self, alphas, kappas):
        calls.append(len(alphas))
        return gap(self, alphas, kappas)

    monkeypatch.setattr(_CachedProblem, "_gap", spy)
    assert kappa_tilde(3.0, crra, thresholds, offers, W) == KAPPA_TILDE_3
    assert len(calls) <= 5


_LANE_CONFIGS = {
    "crra/beta24/beta24": (PayoffCurve.crra(0.05), (2.0, 4.0), (2.0, 4.0)),
    "shifted_log/uniform/beta42": (PayoffCurve.shifted_log(), None, (4.0, 2.0)),
    "linear/beta22/uniform": (PayoffCurve.linear(), (2.0, 2.0), None),
}


def _belief(shape):
    return BeliefDistribution.uniform_on_half(W) if shape is None else BeliefDistribution.scaled_beta(*shape, W)


@pytest.mark.parametrize("name", sorted(_LANE_CONFIGS))
def test_mixed_batch_equals_one_point_solves_by_repr(name):
    # every stage of solve_many is one lane search over the batch; each point
    # must come out as its own one-point solve, flags and kappa-tilde included
    curve, th_shape, of_shape = _LANE_CONFIGS[name]
    th, of = _belief(th_shape), _belief(of_shape)
    prob = _CachedProblem(curve, th, of, W)
    rng = np.random.default_rng(1212)
    pairs = [(a, k) for a in (-0.5, 0.0, 0.3, 0.8, 1.2, 2.0, 3.0) for k in (0.0, 0.005, 0.02, 0.3, 1.0)]
    pairs += [(float(rng.uniform(-1.0, 3.5)), float(rng.uniform(0.0, 0.99))) for _ in range(25)]
    if math.isfinite(prob.abar):
        pairs += [(prob.abar, 0.3), (float(np.nextafter(prob.abar, np.inf)), 0.001)]
    outs = prob.solve_many(pairs)
    for (a, k), out in zip(pairs, outs):
        alone = optimal_strategy(PreferenceParams(alpha=a, kappa=k), curve, th, of, W)
        assert repr(out) == repr(alone), (a, k)
    regions = {o.region for o in outs}
    assert {"R1", "R2"} <= regions
    assert any("threshold-indeterminate" in o.flags for o in outs)
    if math.isfinite(prob.abar):  # beliefs with a selfish offer below w/2
        assert "R3" in regions
        assert any(a > prob.abar for a, _ in pairs) and any(0.0 < a < prob.abar for a, _ in pairs)


def test_region_map_structure(crra, thresholds, offers):
    res = region_map(
        np.linspace(-1.0, 3.0, 9), np.linspace(0.0, 0.9, 7), crra, thresholds, offers, W
    )
    counts = res.counts()
    assert sum(counts.values()) == 63
    assert res.alpha_bar == pytest.approx(ALPHA_BAR, abs=1e-6)
    # spiteful-selfish cells need high alpha and low kappa
    for c in res.cells:
        if c.region == "R3":
            assert c.alpha > ALPHA_BAR and c.kappa < 0.05
        if c.alpha <= 0.0:
            assert c.region == "R1"
    # boundary curves cover the requested grids
    assert len(res.alpha_tilde_by_kappa) == 7
    assert all(a > ALPHA_BAR for a, _ in res.kappa_tilde_by_alpha)


@pytest.mark.parametrize("w", [1e6, 1e9])
def test_constrained_threshold_at_large_endowments(linear, w):
    # near w/3 one ulp of x moves g by more than the 1e-10 residual, so the
    # bracket shuts on the sign change and returns its midpoint
    assert constrained_threshold(0.0, 1.0, linear, w) == pytest.approx(w / 3.0, rel=1e-12)


@pytest.mark.parametrize("rho", [0.9, 0.95])
def test_region_map_on_steep_crra_curves(rho):
    # at small alpha the threshold roots lie far below 1 (under 3e-16 for
    # rho = 0.95), where a bracket width floored at 4 ulp of 1 stopped short
    cfg = default_run_config()
    res = region_map(cfg.alphas(), cfg.kappas(), PayoffCurve.crra(rho), cfg.thresholds,
                     cfg.offers, cfg.w)
    assert len(res.cells) == len(cfg.alphas()) * len(cfg.kappas())
    assert all(0.0 <= c.x2_star <= c.x1_star <= cfg.w for c in res.cells)


def test_statics_switch_location_mild_spite(crra, thresholds, offers):
    res = comparative_statics(
        0.5, np.linspace(0.40, 0.52, 4), crra, thresholds, offers, W
    )
    assert len(res.switches) == 1
    sw = res.switches[0]
    assert (sw.from_region, sw.to_region) == ("R1", "R2")
    assert sw.kappa == pytest.approx(0.46045, abs=2e-3)


# the Beta(a, b) shapes of scripts/offer_belief_scan.py
_OFFER_SHAPES = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)


def test_mild_spite_switch_ignores_the_offer_belief(crra, thresholds, offers):
    # the offer belief moves the alpha = 3 switch (README, Known divergences)
    # but not the alpha = 0.5 one: the constrained offer reads only thresholds
    grid = np.linspace(0.40, 0.52, 4)
    (anchor,) = comparative_statics(0.5, grid, crra, thresholds, offers, W).switches
    assert anchor.kappa == pytest.approx(0.4604, abs=1e-4)
    for a in _OFFER_SHAPES:
        for b in _OFFER_SHAPES:
            other = BeliefDistribution.scaled_beta(a, b, W)
            (sw,) = comparative_statics(0.5, grid, crra, thresholds, other, W).switches
            assert sw.kappa == anchor.kappa, (a, b)


def test_statics_switch_jumps_strong_spite(crra, thresholds, offers):
    # leaving the spiteful region the offer jumps up and the threshold down
    res = comparative_statics(
        3.0, np.linspace(0.0, 0.05, 6), crra, thresholds, offers, W
    )
    assert len(res.switches) == 1
    sw = res.switches[0]
    assert (sw.from_region, sw.to_region) == ("R3", "R2")
    assert sw.kappa == pytest.approx(KAPPA_TILDE_3, abs=2e-3)
    assert sw.x1_jump > 0.0
    assert sw.x2_jump < 0.0


def test_statics_rows_follow_classifier(crra, thresholds, offers):
    ks = np.linspace(0.1, 0.9, 5)
    res = comparative_statics(0.5, ks, crra, thresholds, offers, W)
    cells = classify_many([(0.5, float(k)) for k in ks], crra, thresholds, offers, W)
    for row, cell in zip(res.rows, cells):
        assert row.region == cell.region
        assert row.x1_star == pytest.approx(cell.x1_star, abs=1e-12)
