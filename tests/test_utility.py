"""Expected-utility evaluation, ex-post payoffs, and the dictator problem."""

import bisect

import numpy as np
import pytest

from moralbargain import BeliefDistribution, PayoffCurve, PreferenceParams
from moralbargain.errors import ValidationError
from moralbargain.oracle import brute_force_dg, expected_utility_riemann
from moralbargain.params import Strategy
from moralbargain.utility import (
    _TAIL_NODES,
    TailIntegrals,
    _responder_term,
    dg_objective,
    dg_transfer,
    eval_expected_utility,
    eval_expost_symmetric,
    social_utility,
)

W = 10.0


def dg_transfer_shiftedlog_interior(p: PreferenceParams, w: float) -> float:
    """Closed-form ShiftedLog transfer for an interior advantageous-region optimum.

    max(0, ((beta+kappa)(w+1) - (1-beta)) / (1+kappa)), valid when the
    advantageous branch (x <= w/2) governs; callers clamp to [0, w/2].
    """
    raw = ((p.beta + p.kappa) * (w + 1.0) - (1.0 - p.beta)) / (1.0 + p.kappa)
    return max(0.0, raw)


def test_social_expost_branches(linear):
    p = PreferenceParams(alpha=0.5, beta=0.1, kappa=0.2)

    def expost(own_money, other_money):
        return social_utility(p, linear.value(own_money), linear.value(other_money))

    # behind: (1-k) own - alpha (oth - own)
    assert expost(2.0, 8.0) == pytest.approx(0.8 * 2 - 0.5 * 6)
    # ahead: (1-k) own - beta (own - oth)
    assert expost(8.0, 2.0) == pytest.approx(0.8 * 8 - 0.1 * 6)
    # equal split leaves only the material term
    assert expost(5.0, 5.0) == pytest.approx(0.8 * 5)


def test_expost_symmetric_equal_split_is_endowment(linear):
    # both matches accept, inequality terms vanish, kappa nets out:
    # 10(1-k) + 10k = 10 for any preference vector
    s = Strategy(5.0, 5.0)
    for p in (
        PreferenceParams(),
        PreferenceParams(alpha=1.2, beta=0.4, kappa=0.37),
        PreferenceParams(alpha=-0.5, beta=-0.2, kappa=0.9),
    ):
        assert eval_expost_symmetric(p, linear, s, s, W) == pytest.approx(10.0, abs=1e-12)


def test_expost_symmetric_rejection_and_envy(linear):
    # own demand is vetoed, own threshold accepts a zero offer, envy bites
    p = PreferenceParams(alpha=1.0, beta=0.0, kappa=0.0)
    own = Strategy(0.0, 0.0)
    other = Strategy(0.0, 10.0)
    assert eval_expost_symmetric(p, linear, own, other, W) == pytest.approx(-10.0, abs=1e-12)


def test_expected_utility_full_universalization(shifted_log, thresholds, offers):
    # kappa=1, alpha=0 kills the proposer and responder terms; only the
    # self-matched term 2 log(6) survives at the even split
    p = PreferenceParams(alpha=0.0, kappa=1.0)
    got = eval_expected_utility(p, shifted_log, thresholds, offers, Strategy(5.0, 5.0), W)
    assert got == pytest.approx(2.0 * np.log(6.0), abs=1e-12)


def test_expected_utility_no_responder_mass(crra, thresholds, offers):
    # x2 = w/2 empties the responder integral; remaining terms are explicit
    p = PreferenceParams(alpha=0.7, kappa=0.0)
    for x1 in (1.0, 2.5, 4.0):
        got = eval_expected_utility(p, crra, thresholds, offers, Strategy(x1, 5.0), W)
        assert got == pytest.approx(crra.value(W - x1) * thresholds.cdf(x1), abs=1e-12)


def test_expected_utility_matches_riemann_oracle(crra, thresholds, offers):
    p = PreferenceParams(alpha=0.5, kappa=0.6)
    for s in (Strategy(3.0, 1.0), Strategy(5.0, 5.0), Strategy(2.0, 4.5), Strategy(0.0, 0.0)):
        quad = eval_expected_utility(p, crra, thresholds, offers, s, W)
        riem = expected_utility_riemann(p, crra, thresholds, offers, s, W)
        assert quad == pytest.approx(riem, abs=1e-8)


def test_diagonal_jump_equals_universalization_mass(crra, thresholds, offers, rng):
    # dropping x2 across x1 switches the indicator on; the discontinuity
    # must equal kappa [v(w-x1) + v(x1)] up to the O(delta) tail change
    delta = 1e-9
    for _ in range(100):
        x1 = rng.uniform(0.0, W / 2 - 1e-6)
        p = PreferenceParams(
            alpha=rng.uniform(-1.0, 3.0),
            beta=rng.uniform(-0.5, 1.0),
            kappa=rng.uniform(0.05, 1.0),
        )
        at = eval_expected_utility(p, crra, thresholds, offers, Strategy(x1, x1), W)
        above = eval_expected_utility(p, crra, thresholds, offers, Strategy(x1, x1 + delta), W)
        jump = p.kappa * (crra.value(W - x1) + crra.value(x1))
        assert at - above == pytest.approx(jump, abs=1e-6)


def test_strategy_and_belief_validation(crra, thresholds, offers):
    p = PreferenceParams()
    with pytest.raises(ValidationError):
        eval_expected_utility(p, crra, thresholds, offers, Strategy(11.0, 0.0), W)
    with pytest.raises(ValidationError):
        eval_expected_utility(p, crra, thresholds, offers, Strategy(1.0, -0.1), W)
    other_w = BeliefDistribution.scaled_beta(2.0, 4.0, 20.0)
    with pytest.raises(ValidationError):
        eval_expected_utility(p, crra, other_w, offers, Strategy(1.0, 1.0), W)


class TestTailIntegrals:
    def test_table_mode_matches_adaptive_quadrature(self, offers, crra, rng):
        ti = TailIntegrals(offers, crra, W)
        for x in rng.uniform(0.0, W / 2, size=50):
            x = float(x)
            assert ti.own(x) == pytest.approx(offers.tail_expectation(crra.value, x), abs=1e-6)
            assert ti.other(x) == pytest.approx(
                offers.tail_expectation(lambda y: crra.value(W - y), x), abs=1e-6
            )

    def test_atom_mode_is_exact_suffix_sum(self, linear):
        d = BeliefDistribution.empirical([0.5, 1.0, 1.0, 2.5, 4.0], W)
        ti = TailIntegrals(d, linear, W)
        assert ti.own(1.0) == pytest.approx((1.0 + 1.0 + 2.5 + 4.0) / 5.0, abs=1e-12)
        assert ti.other(1.0) == pytest.approx((9.0 + 9.0 + 7.5 + 6.0) / 5.0, abs=1e-12)
        assert ti.own(4.1) == 0.0

    def test_point_mode(self, linear):
        ti = TailIntegrals(BeliefDistribution.always_accept(W), linear, W)
        assert ti.own(0.0) == 0.0  # v(0) = 0
        assert ti.other(0.0) == pytest.approx(10.0)
        assert ti.other(0.5) == 0.0

    @pytest.mark.parametrize(
        "shapes", [(2.0, 4.0), None],
        ids=lambda ab: "uniform" if ab is None else f"beta({ab[0]:g},{ab[1]:g})",
    )
    @pytest.mark.parametrize("w", [W, 58.8])
    def test_table_equals_scipy_cumulative_trapezoid_bitwise(self, crra, shapes, w):
        # the table's numpy trapezoid must keep scipy's operation order, bit for bit;
        # that order depends on neither the curve nor the belief
        from scipy.integrate import cumulative_trapezoid

        if shapes is None:
            belief = BeliefDistribution.uniform_on_half(w)
        else:
            belief = BeliefDistribution.scaled_beta(*shapes, w)
        ti = TailIntegrals(belief, crra, w)
        grid = np.linspace(0.0, w / 2, _TAIL_NODES)
        dens = belief.pdf(grid)
        for tail, vals in ((ti._tail_own, crra.value(grid)), (ti._tail_oth, crra.value(w - grid))):
            cum = cumulative_trapezoid(vals * dens, grid, initial=0.0)
            assert tail.tobytes() == (cum[-1] - cum).tobytes()

    @pytest.mark.parametrize("curve", ["linear", "crra", "shifted_log"])
    @pytest.mark.parametrize("shapes", [(2.0, 4.0), (1.0, 1.0), None],
                             ids=lambda ab: "uniform" if ab is None else f"beta({ab[0]:g},{ab[1]:g})")
    @pytest.mark.parametrize("w", [W, 58.8, 7.0])
    def test_table_lookup_equals_np_interp_bitwise(self, request, curve, shapes, w):
        # the direct node index must read the table exactly as np.interp does,
        # at every node, both its float neighbours, the ends and past them;
        # the first guess overshoots some nodes at each w, and at w = 7 it
        # falls one short of a node whose value then shows it (Beta(2, 4))
        u = request.getfixturevalue(curve)
        belief = (BeliefDistribution.uniform_on_half(w) if shapes is None
                  else BeliefDistribution.scaled_beta(*shapes, w))
        ti = TailIntegrals(belief, u, w)
        grid = np.linspace(0.0, w / 2, _TAIL_NODES)
        special = [0.0, -0.0, w / 2, np.nextafter(w / 2, 0.0), np.nextafter(w / 2, w), 5e-324,
                   -5e-324, -1.0, w, 1e300, np.nan, np.inf, -np.inf]
        x = np.concatenate([grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf), special,
                            np.random.default_rng(25).uniform(-0.1 * w, 0.6 * w, 20_000)])
        want = [np.interp(x, grid, tail, left=tail[0], right=0.0)
                for tail in (ti._tail_own, ti._tail_oth)]
        got = ti._eval(x)
        for g, r in zip(got, want):
            assert g.tobytes() == r.tobytes()
        assert ti.own(x).tobytes() == want[0].tobytes()
        assert ti.other(x).tobytes() == want[1].tobytes()
        # a float takes the same path and gives a float; a 2-D query keeps its shape
        first_special = 3 * _TAIL_NODES
        for i in [*range(first_special, first_special + len(special)), *range(0, x.size, 4001)]:
            own, oth = ti._eval(float(x[i]))
            assert type(own) is float and type(oth) is float
            assert np.float64(own).tobytes() == want[0][i].tobytes()
            assert np.float64(oth).tobytes() == want[1][i].tobytes()
        block = x[:201 * 30].reshape(201, 30)
        assert ti._eval(block)[0].tobytes() == want[0][:201 * 30].tobytes()
        assert ti._eval(block)[0].shape == (201, 30)

    @pytest.mark.parametrize("kind", ["empirical", "always_accept"])
    @pytest.mark.parametrize("w", [W, 58.8])
    def test_atom_lookup_is_the_suffix_sum_from_the_first_atom_at_or_above(self, crra, kind, w):
        sample = [0.0, 0.05 * w, 0.1 * w, 0.1 * w, 0.25 * w, 0.4 * w, 0.5 * w]
        belief = (BeliefDistribution.empirical(sample, w) if kind == "empirical"
                  else BeliefDistribution.always_accept(w))
        pts = np.array(sample if kind == "empirical" else [0.0])
        ti = TailIntegrals(belief, crra, w)
        sums = [np.append(np.cumsum(v[::-1])[::-1] / pts.size, 0.0)
                for v in (crra.value(pts), crra.value(w - pts))]
        x = np.concatenate([pts, np.nextafter(pts, -np.inf), np.nextafter(pts, np.inf),
                            [-0.0, -1.0, w, np.nan, np.inf, -np.inf]])
        # NaN sorts after every atom: nothing lies at or above it
        first = [pts.size if np.isnan(xi) else bisect.bisect_left(pts.tolist(), xi) for xi in x]
        got = ti._eval(x)
        for g, s in zip(got, sums):
            assert g.tobytes() == s[first].tobytes()
        for xi, i in zip(x.tolist(), first):
            own, oth = ti._eval(xi)
            assert type(own) is float and (own, oth) == (sums[0][i], sums[1][i])

    def test_responder_term_definition(self, offers, crra):
        ti = TailIntegrals(offers, crra, W)
        p = PreferenceParams(alpha=0.8, kappa=0.3)
        x2 = 1.7
        want = (1.0 - 0.3 + 0.8) * ti.own(x2) - 0.8 * ti.other(x2)
        assert _responder_term(p, ti.own(x2), ti.other(x2)) == pytest.approx(want, abs=1e-12)


def test_dg_objective_hand_value(linear):
    p = PreferenceParams(alpha=0.3, beta=0.2, kappa=0.4)
    # 0.5 [0.6*8 - 0.2*6 + 0.4*10] at x=2
    assert dg_objective(p, linear, 2.0, W) == pytest.approx(3.8, abs=1e-12)
    # behind branch at x=8: 0.5 [0.6*2 - 0.3*6 + 0.4*10]
    assert dg_objective(p, linear, 8.0, W) == pytest.approx(0.5 * (1.2 - 1.8 + 4.0), abs=1e-12)


def test_dg_transfer_corners(shifted_log):
    # no guilt, no universalization: keep everything
    assert dg_transfer(PreferenceParams(), shifted_log, W) == 0.0
    # full universalization is the even split
    got = dg_transfer(PreferenceParams(kappa=1.0), shifted_log, W)
    assert got == pytest.approx(W / 2, abs=1e-6)


def test_dg_transfer_matches_interior_closed_form(shifted_log):
    w = 58.8
    p = PreferenceParams(alpha=0.13, beta=0.22, kappa=0.26)
    want = dg_transfer_shiftedlog_interior(p, w)
    # independent algebra for the same point
    assert want == pytest.approx((0.48 * 59.8 - 0.78) / 1.26, abs=1e-12)
    assert dg_transfer(p, shifted_log, w) == pytest.approx(want, abs=1e-5)


def test_dg_closed_form_agrees_with_brute_force(shifted_log, rng):
    # 500 parameter draws on the guilt box; argmax within one grid step
    w = 58.8
    step = 1e-3 * w
    for _ in range(500):
        p = PreferenceParams(
            alpha=rng.uniform(0.0, 2.0),
            beta=rng.uniform(0.0, 1.0),
            kappa=rng.uniform(0.0, 0.99),
        )
        closed = min(dg_transfer_shiftedlog_interior(p, w), w / 2)
        bf, _ = brute_force_dg(p, shifted_log, w, grid_step=step)
        assert abs(closed - bf) <= step + 1e-12


def test_dg_transfer_never_exceeds_half(shifted_log, rng):
    # alpha >= 0, beta <= 1, kappa <= 1 keeps the optimum weakly advantageous
    for _ in range(500):
        p = PreferenceParams(
            alpha=rng.uniform(0.0, 3.0),
            beta=rng.uniform(-1.0, 1.0),
            kappa=rng.uniform(0.0, 1.0),
        )
        assert dg_transfer(p, shifted_log, W) <= W / 2 + 1e-9


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_preferences_rejected(bad):
    for field in ("alpha", "beta"):
        with pytest.raises(ValidationError):
            PreferenceParams(**{field: bad})
    with pytest.raises(ValidationError):
        PreferenceParams(kappa=bad)


def test_non_finite_endowment_rejected(shifted_log):
    from moralbargain.params import validate_endowment

    for bad in (float("inf"), float("nan"), -float("inf")):
        with pytest.raises(ValidationError):
            validate_endowment(bad)
        with pytest.raises(ValidationError):
            dg_transfer(PreferenceParams(beta=0.2), shifted_log, bad)
        with pytest.raises(ValidationError):
            BeliefDistribution.uniform_on_half(bad)


def test_dg_objective_broadcasts_bitwise(shifted_log, crra, rng):
    w = 58.8
    xs = np.concatenate([[0.0, w / 2, w], rng.uniform(0.0, w, size=500)])
    for curve in (shifted_log, crra):
        for p in (
            PreferenceParams(alpha=0.3, beta=0.4, kappa=0.2),
            PreferenceParams(alpha=-0.5, beta=-0.2, kappa=0.7),
        ):
            for f in (
                lambda x: dg_objective(p, curve, x, w),
                lambda x: social_utility(p, curve.value(w - x), curve.value(x)),
            ):
                vec = f(xs)
                scal = [f(x) for x in xs.tolist()]
                assert all(type(v) is float for v in scal)
                assert np.array_equal(np.array(scal), vec)
