"""Brute-force and finite-difference oracles that cross-check the solver."""

import numpy as np
import pytest

from moralbargain import (
    BeliefDistribution,
    GridSpec,
    PayoffCurve,
    PreferenceParams,
    optimal_strategy,
    symmetric_optimum,
)
from moralbargain.errors import IndeterminateError, ValidationError
from moralbargain.oracle import (
    brute_force_dg,
    brute_force_symmetric,
    brute_force_ug,
    expected_utility_riemann,
    foc_residual,
    riemann_tail_pair,
)
from moralbargain.params import Strategy
from moralbargain.utility import eval_expected_utility

W = 10.0


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
    x_hat = symmetric_optimum(p, crra, thresholds, offers, W)
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


def test_brute_ug_accepts_gridspec(crra, thresholds, offers):
    p = PreferenceParams(alpha=0.2, kappa=0.3)
    a = brute_force_ug(p, crra, thresholds, offers, W, 0.5)
    b = brute_force_ug(p, crra, thresholds, offers, W, GridSpec(step=0.5))
    assert a == b
    with pytest.raises(ValidationError):
        brute_force_ug(p, crra, thresholds, offers, W, -0.5)
    with pytest.raises(ValidationError):
        GridSpec(step=0.0)


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
