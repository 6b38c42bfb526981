"""Brute-force and finite-difference oracles that cross-check the solver."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moralbargain import (
    BeliefDistribution,
    PayoffCurve,
    PreferenceParams,
    optimal_strategy,
)
import moralbargain.oracle as oracle_mod
from moralbargain.cli import main
from moralbargain.errors import IndeterminateError, ValidationError
from moralbargain.oracle import (
    brute_force_dg,
    brute_force_symmetric,
    brute_force_ug,
    expected_utility_riemann,
    foc_residual,
    optimal_vs_brute,
    oracle_checks,
    riemann_tail_pair,
)
from moralbargain.io import default_run_config
from moralbargain.params import Strategy
from moralbargain.utility import dg_objective, dg_transfer, eval_expected_utility

W = 10.0

_CURVES = {
    "linear": PayoffCurve.linear(),
    "shifted-log": PayoffCurve.shifted_log(),
    "crra(0.05)": PayoffCurve.crra(0.05),
    "crra(0.3)": PayoffCurve.crra(0.3),
}


def _riemann_slow(offers, curve, w, nodes, fine_factor=100):
    """Per-edge reference for continuous beliefs: one pdf call and one running sum per sub-interval."""
    half = 0.5 * w
    nodes = np.asarray(nodes, dtype=float)
    inside = nodes[nodes < half]
    edges = np.unique(np.concatenate([inside, [half]]))
    i1 = np.zeros_like(nodes)
    i2 = np.zeros_like(nodes)
    acc1 = acc2 = 0.0
    cum = {float(edges[-1]): (0.0, 0.0)}
    for lo, hi in zip(edges[-2::-1], edges[::-1]):
        mids = np.linspace(lo, hi, fine_factor, endpoint=False) + (hi - lo) / (2 * fine_factor)
        wts = offers.pdf(mids) * (hi - lo) / fine_factor
        acc1 += float(np.sum(curve.value(mids) * wts))
        acc2 += float(np.sum(curve.value(w - mids) * wts))
        cum[float(lo)] = (acc1, acc2)
    for idx, t in enumerate(nodes):
        if t >= half:
            i1[idx] = i2[idx] = 0.0
        else:
            i1[idx], i2[idx] = cum[float(t)]
    return i1, i2


@st.composite
def _tail_cases(draw):
    # nodes on a lattice, off any lattice, exactly at w/2 and above it, in
    # any order and with repeats; rounding keeps two distinct nodes from
    # lying a subnormal distance apart
    w = draw(st.sampled_from([10.0, 58.8]) | st.floats(0.5, 100.0))
    half = 0.5 * w
    m = draw(st.integers(1, 60))
    on_grid = st.integers(0, m).map(lambda k: k * w / m)
    off_grid = st.floats(0.0, w).map(lambda x: round(x, 9))
    nodes = draw(st.lists(on_grid | off_grid | st.just(half), min_size=1, max_size=30))
    nodes += draw(st.lists(st.sampled_from(nodes), max_size=5))
    if draw(st.booleans()):
        offers = BeliefDistribution.uniform_on_half(w)
    else:
        a, b = draw(st.floats(0.5, 6.0)), draw(st.floats(0.5, 6.0))
        offers = BeliefDistribution.scaled_beta(a, b, w)
    curve = _CURVES[draw(st.sampled_from(sorted(_CURVES)))]
    return offers, curve, w, np.array(draw(st.permutations(nodes))), draw(st.integers(1, 200))


@settings(max_examples=300, deadline=None)
@given(case=_tail_cases())
def test_riemann_tail_pair_matches_per_edge_loop(case):
    got = riemann_tail_pair(*case[:4], fine_factor=case[4])
    ref = _riemann_slow(*case[:4], fine_factor=case[4])
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert np.array_equal(g, r)
        assert np.array_equal(np.signbit(g), np.signbit(r))


def test_riemann_tail_pair_matches_quadrature(offers, crra):
    # midpoint-rule error shrinks quadratically in the refinement factor
    nodes = np.array([0.0, 1.0, 2.5, 4.9, 5.0, 7.0])
    for factor, tol in ((100, 5e-5), (1000, 5e-7)):
        i1, i2 = riemann_tail_pair(offers, crra, W, nodes, fine_factor=factor)
        for t, a, b in zip(nodes, i1, i2):
            assert a == pytest.approx(offers.tail_expectation(crra.value, float(t)), abs=tol)
            assert b == pytest.approx(
                offers.tail_expectation(lambda y: crra.value(W - y), float(t)), abs=tol
            )


def test_riemann_tail_pair_exact_kinds(linear):
    emp = BeliefDistribution.empirical([0.5, 1.0, 1.0, 2.5, 4.0], W)
    i1, i2 = riemann_tail_pair(emp, linear, W, np.array([1.0, 4.5]))
    assert i1[0] == pytest.approx(8.5 / 5.0, abs=1e-12)
    assert i2[0] == pytest.approx(31.5 / 5.0, abs=1e-12)
    assert i1[1] == i2[1] == 0.0
    acc = BeliefDistribution.always_accept(W)
    i1, i2 = riemann_tail_pair(acc, linear, W, np.array([0.0, 0.1]))
    assert (i1[0], i2[0]) == (0.0, 10.0)
    assert (i1[1], i2[1]) == (0.0, 0.0)


@pytest.mark.parametrize(
    "offers", [BeliefDistribution.scaled_beta(2.0, 4.0, W), BeliefDistribution.always_accept(W)]
)
def test_riemann_tail_pair_nan_node_rejected(offers, crra):
    # a NaN node has no edge to map to; it must not read as a zero tail
    with pytest.raises(ValidationError):
        riemann_tail_pair(offers, crra, W, np.array([1.0, np.nan]))


@pytest.mark.parametrize("offers", [
    BeliefDistribution.scaled_beta(2.0, 4.0, W),
    BeliefDistribution.uniform_on_half(W),
    BeliefDistribution.empirical([1.0, 2.0, 5.0], W),
    BeliefDistribution.always_accept(W),
], ids=lambda d: d.kind)
def test_riemann_utility_thresholds_off_the_offer_range(offers, crra):
    # a threshold past w/2, infinite included, leaves no offer to accept; a
    # NaN threshold is rejected as a NaN tail node is
    p = PreferenceParams(alpha=0.5, kappa=0.3)
    u = lambda x2: expected_utility_riemann(p, crra, offers, offers, Strategy(1.0, x2), W)
    assert u(np.inf) == u(W) == u(0.7 * W)
    with pytest.raises(ValidationError):
        u(np.nan)


def test_brute_ug_degenerate_corner(linear):
    # every offer accepted and no spite: keep everything, ties break low
    acc = BeliefDistribution.always_accept(W)
    s, u = brute_force_ug(PreferenceParams(), linear, acc, acc, W, 0.1)
    assert (s.x1, s.x2) == (0.0, 0.0)
    assert u == pytest.approx(10.0)  # v(w) from the proposer term


def test_brute_ug_diagonal_argmax_matches_symmetric_optimum(crra, thresholds, offers):
    p = PreferenceParams(alpha=0.5, kappa=0.6)
    step = 0.01
    s, _ = brute_force_ug(p, crra, thresholds, offers, W, step)
    x_hat = optimal_strategy(p, crra, thresholds, offers, W).symmetric
    assert s.x1 == pytest.approx(s.x2, abs=1e-12)
    assert s.x1 == pytest.approx(x_hat, abs=step)


def test_brute_ug_never_beats_solver(crra, thresholds, offers, rng):
    # both strategies scored by the same fine evaluator so the margin can
    # sit at 1e-6; reduced sweep, the 300-draw version gates acceptance
    for _ in range(10):
        p = PreferenceParams(alpha=rng.uniform(-1, 3), kappa=rng.uniform(0, 0.95))
        s_b, u_b = brute_force_ug(p, crra, thresholds, offers, W, W / 100)
        s_o = optimal_strategy(p, crra, thresholds, offers, W).optimal
        u_o = expected_utility_riemann(p, crra, thresholds, offers, s_o, W)
        u_b2 = expected_utility_riemann(p, crra, thresholds, offers, s_b, W)
        assert u_o >= u_b2 - 1e-6
        assert u_b == pytest.approx(u_b2, abs=1e-3)


_CHECK_NAMES = [
    "optimal-vs-brute", "threshold-root-residual", "threshold-sign", "dg-vs-brute", "foc-fd-match"
]
_WIDE = list(
    itertools.product(("linear", "shifted-log", "crra(0.3)"), ("uniform", "beta(2,2)"), (W, 58.8))
)


@pytest.mark.parametrize("curve, belief, w", _WIDE)
def test_solver_never_loses_to_grid_beyond_default_config(curve, belief, w):
    # the 300-draw acceptance gate covers crra(0.05) with Beta(2,4) beliefs
    # only; here the whole battery runs, optimal-vs-brute first
    if belief == "uniform":
        dist = BeliefDistribution.uniform_on_half(w)
    else:
        dist = BeliefDistribution.scaled_beta(2.0, 2.0, w)
    rng = np.random.default_rng(8000 + _WIDE.index((curve, belief, w)))
    checks = oracle_checks(rng, 12, _CURVES[curve], dist, dist, w, w / 400)
    assert [c.name for c in checks] == _CHECK_NAMES
    assert checks[0].worst >= -1e-6
    assert [c for c in checks if not c.passed] == []


def test_cli_oracle_check_prints_the_battery(tmp_path, capsys):
    # the CLI formats oracle_checks' records and computes nothing itself
    assert main(["oracle-check", "--format", "json", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    cli = json.loads((tmp_path / "oracle_check.json").read_text())["checks"]
    cfg = default_run_config()
    rng = np.random.default_rng(cfg.seed)
    checks = oracle_checks(rng, 40, cfg.curve, cfg.thresholds, cfg.offers, cfg.w, cfg.w / 400)
    assert [(c["check"], c["n"], repr(c["worst"]), c["pass"]) for c in cli] == [
        (c.name, c.n, repr(c.worst), c.passed) for c in checks
    ]


# offer beliefs of the runner checks: the default Beta(2, 4), and two kinds
# that take expected_utility_riemann's tail_expectation branch; the other
# inputs are CRRA(0.05) and Beta(2, 4) thresholds at w = 10
_RUNNER_OFFERS = {
    "default": BeliefDistribution.scaled_beta(2.0, 4.0, W),
    "empirical": BeliefDistribution.empirical([0.5, 1.0, 1.0, 1.5, 2.0, 2.5, 2.5, 3.0, 4.0, 5.0], W),
    "always-accept": BeliefDistribution.always_accept(W),
}


@pytest.mark.parametrize("setup", list(_RUNNER_OFFERS))
def test_runner_equals_per_draw_public_oracles(setup, crra, thresholds, monkeypatch):
    # the runner builds the grid tables once and memoizes the Riemann
    # responder integrals by x2; every draw's brute strategy and both
    # utilities must be the bits of the public one-draw functions
    offers = _RUNNER_OFFERS[setup]
    argmaxes, utils, tail_x2 = [], [], []
    real_argmax, real_utility, real_tails = (
        oracle_mod._ug_argmax, oracle_mod._riemann_utility, oracle_mod._riemann_tails
    )

    def argmax(p, tables):
        argmaxes.append((p, real_argmax(p, tables)))
        return argmaxes[-1][1]

    def utility(p, curve, thr, off, s, w, tails):
        utils.append((p, s, real_utility(p, curve, thr, off, s, w, tails)))
        return utils[-1][2]

    def tails_of(curve, off, x2, w):
        tail_x2.append(x2)
        return real_tails(curve, off, x2, w)

    monkeypatch.setattr(oracle_mod, "_ug_argmax", argmax)
    monkeypatch.setattr(oracle_mod, "_riemann_utility", utility)
    monkeypatch.setattr(oracle_mod, "_riemann_tails", tails_of)
    worst = optimal_vs_brute(np.random.default_rng(9000), 24, crra, thresholds, offers, W, W / 400)
    monkeypatch.undo()

    assert len(argmaxes) == 24 and len(utils) == 48
    ref_worst = np.inf
    for k, (p, got) in enumerate(argmaxes):
        ref = brute_force_ug(p, crra, thresholds, offers, W, W / 400)
        assert repr(got) == repr(ref)
        (p_opt, s_opt, u_opt), (p_b, s_b, u_b) = utils[2 * k], utils[2 * k + 1]
        assert p_opt is p and p_b is p and s_b == ref[0]
        ref_opt = expected_utility_riemann(p, crra, thresholds, offers, s_opt, W)
        ref_b = expected_utility_riemann(p, crra, thresholds, offers, s_b, W)
        assert (repr(u_opt), repr(u_b)) == (repr(ref_opt), repr(ref_b))
        ref_worst = min(ref_worst, ref_opt - ref_b)
    assert repr(worst) == repr(ref_worst)
    # one integral per distinct x2, and alpha <= 0 draws share the x2 = 0 entry
    assert sorted(tail_x2) == sorted({s.x2 for _, s, _ in utils})
    assert sum(s.x2 == 0.0 for _, s, _ in utils) > 1 and 0.0 in tail_x2


@pytest.mark.parametrize("setup", ["empirical", "always-accept"])
def test_solver_never_loses_to_grid_beyond_default_beliefs(setup, crra, thresholds):
    # the acceptance gate and _WIDE cover continuous offer beliefs only
    rng = np.random.default_rng(9100 + list(_RUNNER_OFFERS).index(setup))
    worst = optimal_vs_brute(rng, 40, crra, thresholds, _RUNNER_OFFERS[setup], W, W / 400)
    assert worst >= -1e-6


def test_brute_ug_rejects_a_non_positive_grid_step(crra, thresholds, offers):
    p = PreferenceParams(alpha=0.2, kappa=0.3)
    for step in (-0.5, 0.0):
        with pytest.raises(ValidationError):
            brute_force_ug(p, crra, thresholds, offers, W, step)


@pytest.mark.parametrize("step", [np.inf, np.nan, W / 2 + 1e-9, 2 * W])
def test_grid_step_that_collapses_the_grid_rejected(crra, thresholds, offers, step):
    # a step above w/2 rounds the grid to {0}; the oracle would then report
    # x = 0 as the optimum of every problem
    p = PreferenceParams(alpha=0.2, kappa=0.3)
    with pytest.raises(ValidationError):
        brute_force_ug(p, crra, thresholds, offers, W, step)
    with pytest.raises(ValidationError):
        brute_force_symmetric(p, crra, thresholds, offers, W, step)
    with pytest.raises(ValidationError):
        brute_force_dg(p, crra, W, step)


def test_grid_refinement_stability(crra, thresholds, offers, rng):
    # halving the step moves the argmax by at most one coarse step
    coarse = W / 50
    for _ in range(50):
        p = PreferenceParams(alpha=rng.uniform(-1, 3), kappa=rng.uniform(0, 0.95))
        s_c, _ = brute_force_ug(p, crra, thresholds, offers, W, coarse)
        s_f, _ = brute_force_ug(p, crra, thresholds, offers, W, coarse / 2)
        assert abs(s_c.x1 - s_f.x1) <= coarse + 1e-12
        assert abs(s_c.x2 - s_f.x2) <= coarse + 1e-12


def test_brute_symmetric_tracks_full_grid_diagonal(crra, thresholds, offers):
    p = PreferenceParams(alpha=0.5, kappa=0.6)
    y, u = brute_force_symmetric(p, crra, thresholds, offers, W, 0.01)
    assert y == pytest.approx(3.2510385119233085, abs=0.01)
    # the diagonal restriction can never beat the full grid
    _, u_full = brute_force_ug(p, crra, thresholds, offers, W, 0.01)
    assert u <= u_full + 1e-12


def test_brute_dg_corners_and_closed_form(shifted_log):
    x, _ = brute_force_dg(PreferenceParams(), shifted_log, W, 0.01)
    assert x == 0.0
    x, _ = brute_force_dg(PreferenceParams(kappa=1.0), shifted_log, W, 0.01)
    assert x == pytest.approx(W / 2, abs=0.01)
    # ((beta+kappa)(w+1) - (1-beta)) / (1+kappa) at the Table row
    p = PreferenceParams(alpha=0.13, beta=0.22, kappa=0.26)
    x, _ = brute_force_dg(p, shifted_log, 58.8, 0.01)
    assert x == pytest.approx((0.48 * 59.8 - 0.78) / 1.26, abs=0.01)


def test_brute_dg_matches_pointwise_scan(rng):
    # the one array call must pick the same point, to the bit, as scoring
    # each grid point on its own; argmax keeps the lowest tied transfer
    for curve in _CURVES.values():
        for w in (W, 58.8):
            xs = np.linspace(0.0, w, 501)
            # at kappa = 1 the linear objective is flat: every point ties
            draws = [PreferenceParams(kappa=1.0)] + [
                PreferenceParams(
                    alpha=rng.uniform(-1, 1), beta=rng.uniform(-1, 1), kappa=rng.uniform(0, 1)
                )
                for _ in range(8)
            ]
            for p in draws:
                vals = [dg_objective(p, curve, float(x), w) for x in xs]
                k = int(np.argmax(vals))
                x, u = brute_force_dg(p, curve, w, w / 500)
                assert (x, u) == (float(xs[k]), vals[k])
                assert np.signbit(u) == np.signbit(vals[k])


def test_oracle_imports_no_model_objective():
    # an oracle that calls the model's formula would only check the search
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(oracle_mod))
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert not imported & {"dg_objective", "social_utility", "_proposer_term",
                           "_responder_term", "_universal_term"}


def test_diagonal_jump_measured_by_oracle(crra, thresholds, offers, rng):
    # crossing the indicator adds exactly kappa [v(w-x)+v(x)]
    for _ in range(30):
        x2 = rng.uniform(0.1, 4.9)
        p = PreferenceParams(alpha=rng.uniform(-1, 3), kappa=rng.uniform(0.05, 1.0))
        on = expected_utility_riemann(p, crra, thresholds, offers, Strategy(x2, x2), W)
        off = expected_utility_riemann(p, crra, thresholds, offers, Strategy(x2 - 1e-9, x2), W)
        jump = p.kappa * (crra.value(W - x2) + crra.value(x2))
        assert on - off == pytest.approx(jump, abs=1e-8)


class TestFocResidual:
    def test_vanishes_at_analytic_optimum(self, crra, thresholds, offers):
        p = PreferenceParams(alpha=0.3, kappa=0.2)
        out = optimal_strategy(p, crra, thresholds, offers, W)
        assert out.region == "R1"
        r1, r2 = foc_residual(p, crra, thresholds, offers, out.optimal, W)
        assert abs(r1) < 1e-4
        assert abs(r2) < 1e-4
        # the gradient itself is zero at the optimum, not just the mismatch
        h = 1e-5 * W
        u = lambda s: eval_expected_utility(p, crra, thresholds, offers, s, W)
        fd1 = (
            u(Strategy(out.optimal.x1 + h, out.optimal.x2))
            - u(Strategy(out.optimal.x1 - h, out.optimal.x2))
        ) / (2 * h)
        assert abs(fd1) < 1e-4

    def test_matches_at_non_optimal_point(self, crra, thresholds, offers):
        p = PreferenceParams(alpha=0.8, kappa=0.3)
        s = Strategy(2.0, 1.0)
        r1, r2 = foc_residual(p, crra, thresholds, offers, s, W)
        assert abs(r1) < 1e-4 and abs(r2) < 1e-4
        h = 1e-4
        u = lambda a, b: eval_expected_utility(p, crra, thresholds, offers, Strategy(a, b), W)
        assert abs((u(2 + h, 1) - u(2 - h, 1)) / (2 * h)) > 0.01

    def test_diagonal_and_edge_rejected(self, crra, thresholds, offers):
        p = PreferenceParams(alpha=0.5, kappa=0.2)
        with pytest.raises(IndeterminateError):
            foc_residual(p, crra, thresholds, offers, Strategy(2.0, 2.0), W)
        with pytest.raises(ValidationError):
            foc_residual(p, crra, thresholds, offers, Strategy(0.0, 3.0), W)


def test_dg_transfer_never_loses_to_grid_beyond_default_config():
    # predict's transfers come from dg_transfer; its kinked two-branch search
    # must reach the w/4000 grid optimum on every curve, endowment and sign
    # of alpha and beta, not only at the estimates of the shipped sample
    rng = np.random.default_rng(11)
    worst = np.inf
    for curve, w in itertools.product(
        ("linear", "shifted-log", "crra(0.3)", "crra(0.05)"), (W, 58.8)
    ):
        for _ in range(40):
            p = PreferenceParams(
                alpha=rng.uniform(-2, 2), beta=rng.uniform(-2, 2), kappa=rng.uniform(0, 1)
            )
            _, grid_best = brute_force_dg(p, _CURVES[curve], w, w / 4000)
            x = dg_transfer(p, _CURVES[curve], w)
            worst = min(worst, dg_objective(p, _CURVES[curve], x, w) - grid_best)
    assert worst >= -1e-9
