"""The paper's two propositions, and the solver's region rules, over drawn
configurations.

The abstract claims that a positive degree of spite is necessary and
sufficient for rejecting positive offers, and that rejection thresholds rise
with moral concern kappa. The rising threshold is the root of
constrained_threshold; the played threshold x2* falls at an R3 -> R2 switch,
where (x_s, x2) gives way to the diagonal (x_hat, x_hat), so x2* is asserted
nondecreasing only within one region.

Configurations: every curve family (CRRA(rho) with rho up to 0.95, where the
threshold roots are steep, the shifted log and the linear curve) at every
w in {1, 10, 58.8, 100}, with each belief Beta(a, b), a, b in [1, 6], or
uniform on [0, w/2]. The draws are derandomized, so every run checks the
same configurations.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from moralbargain import BeliefDistribution, PayoffCurve, comparative_statics, constrained_threshold
from moralbargain.oracle import OPTIMAL_VS_BRUTE_FLOOR, optimal_vs_brute
from moralbargain.solver import _CachedProblem

_KAPPAS = np.linspace(0.0, 0.98, 50)
# x_hat is a golden-section optimum on the diagonal, found to this width
_DIAG_TOL = 1e-6
_CURVES = {
    "crra": st.floats(0.01, 0.95).map(PayoffCurve.crra),
    "shifted_log": st.just(PayoffCurve.shifted_log()),
    "linear": st.just(PayoffCurve.linear()),
}
_DRAWN = settings(derandomize=True, database=None, deadline=None)
# hypothesis favours the first choice of a one_of, so the curve family and
# w are parametrized, not drawn
_families = pytest.mark.parametrize(
    "kind, w", [(kind, w) for kind in sorted(_CURVES) for w in (1.0, 10.0, 58.8, 100.0)]
)


def _config(data, kind: str, w: float):
    """(curve, threshold belief, offer belief) drawn for one family and w."""
    belief = st.one_of(
        st.just(BeliefDistribution.uniform_on_half(w)),
        st.builds(lambda a, b: BeliefDistribution.scaled_beta(a, b, w), st.floats(1.0, 6.0),
                  st.floats(1.0, 6.0)),
    )
    return data.draw(st.tuples(_CURVES[kind], belief, belief))


@_families
@settings(_DRAWN, max_examples=4)
@given(data=st.data())
def test_propositions_and_region_rules_on_drawn_configurations(kind, w, data):
    curve, thresholds, offers = _config(data, kind, w)
    spite = data.draw(st.lists(st.floats(0.01, 3.0), min_size=5, max_size=5))
    alphas = [-0.5, 0.0] + sorted(spite)
    outs = _CachedProblem(curve, thresholds, offers, w).solve_many(
        [(a, float(k)) for a in alphas for k in _KAPPAS]
    )
    for i, alpha in enumerate(alphas):
        row = outs[i * _KAPPAS.size:(i + 1) * _KAPPAS.size]
        for k, out in zip(_KAPPAS, row):
            # spite is necessary and sufficient for rejecting positive offers
            assert (out.optimal.x2 > 0.0) == (alpha > 0.0), (alpha, k)
            # the R1 rule: the threshold at or below the constrained offer
            assert (out.region == "R1") == (out.threshold <= out.x_constrained), (alpha, k)
        # rejection thresholds rise with kappa, to the root's 1e-9 w
        x2 = constrained_threshold(_KAPPAS, np.full(_KAPPAS.size, alpha), curve, w)
        assert np.all(np.diff(x2) >= -1e-9 * w), alpha
        # the played threshold rises within one region: in R1 and R3 it is
        # the threshold root, in R2 the diagonal optimum
        for k, lo, hi in zip(_KAPPAS, row, row[1:]):
            if lo.region == hi.region:
                tol = _DIAG_TOL if lo.region == "R2" else 1e-9 * w
                assert hi.optimal.x2 >= lo.optimal.x2 - tol, (alpha, k, lo.region)


@_families
@settings(_DRAWN, max_examples=3)
@given(data=st.data())
def test_statics_r3_r2_switch_is_kappa_tilde_on_drawn_configurations(kind, w, data):
    curve, thresholds, offers = _config(data, kind, w)
    prob = _CachedProblem(curve, thresholds, offers, w)
    assume(math.isfinite(prob.abar))
    alpha = prob.abar + data.draw(st.floats(1e-3, 3.0))
    (ktil,) = prob.kappa_tildes([alpha])
    grid = np.linspace(0.0, 0.98, data.draw(st.integers(2, 12)))
    res = comparative_statics(alpha, grid, curve, thresholds, offers, w)
    regions = [r.region for r in res.rows]
    switches = [s for s in res.switches if "R1" not in (s.from_region, s.to_region)]
    assert [(s.from_region, s.to_region) for s in switches] == [("R3", "R2")] * len(switches)
    assert all(s.kappa == ktil for s in switches)
    if "R1" not in regions and regions[0] == "R3" and regions[-1] == "R2":
        assert len(switches) == 1


@_families
@settings(_DRAWN, max_examples=1)
@given(data=st.data())
def test_optimal_vs_brute_on_drawn_configurations(kind, w, data):
    curve, thresholds, offers = _config(data, kind, w)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    assert optimal_vs_brute(rng, 3, curve, thresholds, offers, w, w / 400) >= OPTIMAL_VS_BRUTE_FLOOR
