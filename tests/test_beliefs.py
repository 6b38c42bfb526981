"""Belief distributions: cdf/pdf contracts, normalization, tail expectations."""

import warnings

import numpy as np
import pytest
from scipy import integrate

from moralbargain import BeliefDistribution, PayoffCurve
from moralbargain.errors import DomainError, ValidationError
from moralbargain.utility import TailIntegrals

W = 10.0


def _all_kinds():
    return [
        BeliefDistribution.scaled_beta(2.0, 4.0, W),
        BeliefDistribution.uniform_on_half(W),
        BeliefDistribution.always_accept(W),
        BeliefDistribution.empirical([0.5, 1.0, 1.0, 2.5, 4.0], W),
    ]


def test_scaled_beta_cdf_closed_form(thresholds):
    # Beta(2,4) at u=1/2: I_{1/2}(2,4) = 26/32
    assert thresholds.cdf(2.5) == pytest.approx(0.8125, abs=1e-12)
    assert thresholds.cdf(0.0) == 0.0
    assert thresholds.cdf(5.0) == pytest.approx(1.0, abs=1e-12)
    assert thresholds.cdf(9.0) == pytest.approx(1.0, abs=1e-12)


def test_scaled_beta_pdf_closed_form(thresholds):
    # 20 u (1-u)^3 / (w/2) at u = 1/4
    assert thresholds.pdf(1.25) == pytest.approx(20 * 0.25 * 0.75**3 / 5.0, rel=1e-12)
    assert thresholds.pdf(0.0) == 0.0
    assert thresholds.pdf(5.0) == 0.0
    assert thresholds.pdf(7.0) == 0.0


def test_uniform_on_half(linear):
    u = BeliefDistribution.uniform_on_half(W)
    assert u.cdf(2.0) == pytest.approx(0.4)
    assert u.pdf(3.0) == pytest.approx(0.2)
    assert u.pdf(5.5) == 0.0
    assert u.cdf(8.0) == 1.0


def test_cdf_rejects_negative_amounts():
    for d in _all_kinds():
        with pytest.raises(DomainError):
            d.cdf(-0.5)
        with pytest.raises(DomainError):
            d.cdf(np.array([1.0, -1.0]))


def test_pdf_outside_support_is_zero_not_error():
    for d in _all_kinds():
        assert d.pdf(-1.0) == 0.0
        assert d.pdf(W / 2 + 0.5) == 0.0


def test_pdf_integrates_to_one():
    # continuous kinds only; tolerance 1e-8
    for d in _all_kinds():
        if d.kind in ("always_accept",):
            continue
        total, _ = integrate.quad(d.pdf, 0.0, W / 2, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8), d.kind


def test_cdf_nondecreasing_on_dense_grid():
    grid = np.linspace(0.0, W, 10_000)
    for d in _all_kinds():
        vals = d.cdf(grid)
        assert np.all(np.diff(vals) >= -1e-14), d.kind
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)


def test_always_accept_contract():
    d = BeliefDistribution.always_accept(W)
    assert d.is_degenerate
    xs = np.linspace(0.0, W, 101)
    np.testing.assert_array_equal(d.cdf(xs), np.ones_like(xs))
    assert d.tail_expectation(lambda y: y + 3.0, 0.0) == 3.0
    assert d.tail_expectation(lambda y: y + 3.0, 0.1) == 0.0


def test_always_accept_is_one_atom_at_zero():
    # the same sums, tail tables and cdf bits as an empirical belief on {0}
    d, atom = BeliefDistribution.always_accept(W), BeliefDistribution.empirical([0.0], W)
    assert d.atoms == atom.atoms == (0.0,)
    assert BeliefDistribution.uniform_on_half(W).atoms is None
    xs = np.concatenate([[0.0, -0.0, W / 2, W, np.nan, np.inf], np.linspace(0.0, W, 101)])
    assert d.cdf(xs).tobytes() == atom.cdf(xs).tobytes()
    assert [d.cdf(x) for x in xs.tolist()] == [atom.cdf(x) for x in xs.tolist()]
    curve = PayoffCurve.crra(0.05)
    for lo in (-1.0, 0.0, 1e-300, 0.1, W / 2, W, np.nan):
        assert d.tail_expectation(curve.value, lo) == atom.tail_expectation(curve.value, lo)
    got, want = TailIntegrals(d, curve, W), TailIntegrals(atom, curve, W)
    for x in (xs, 0.0, W / 2):
        assert np.array(got._eval(x)).tobytes() == np.array(want._eval(x)).tobytes()


@pytest.mark.parametrize("kind", ["scaled_beta", "uniform", "always_accept"])
def test_sample_only_on_an_empirical_belief(kind):
    # a sample on another kind was silently ignored
    shape = {"a": 2.0, "b": 4.0} if kind == "scaled_beta" else {}
    with pytest.raises(ValidationError, match="takes no sample"):
        BeliefDistribution(kind, W, sample=(1.0,), **shape)


def test_empirical_cdf_and_sums():
    d = BeliefDistribution.empirical([0.5, 1.0, 1.0, 2.5, 4.0], W)
    assert d.cdf(1.0) == pytest.approx(0.6)
    assert d.cdf(0.5) == pytest.approx(0.2)
    assert d.cdf(0.49) == 0.0
    assert d.cdf(4.0) == 1.0
    # tail expectation is the exact atom average, atoms at lo included
    assert d.tail_expectation(lambda y: y, 1.0) == pytest.approx((1.0 + 1.0 + 2.5 + 4.0) / 5.0)
    assert d.tail_expectation(lambda y: y, 4.5) == 0.0


def test_empirical_histogram_density_normalizes():
    rng = np.random.default_rng(7)
    d = BeliefDistribution.empirical(rng.uniform(0.0, W / 2, size=400), W)
    grid = np.linspace(0.0, W / 2, 40_001)
    total = np.trapezoid(d.pdf(grid), grid)
    assert total == pytest.approx(1.0, abs=5e-3)


def test_empirical_sample_must_lie_on_support():
    with pytest.raises(ValidationError):
        BeliefDistribution.empirical([1.0, 6.0], W)
    with pytest.raises(ValidationError):
        BeliefDistribution.empirical([-0.2, 1.0], W)


def test_unsorted_empirical_sample_rejected():
    # cdf searches the atoms as sorted: built directly from (3, 1), the
    # belief read cdf(2) = 1.0 where empirical([3, 1]) reads 0.5
    assert BeliefDistribution.empirical([3.0, 1.0], W).cdf(2.0) == 0.5
    with pytest.raises(ValidationError, match=r"empirical\(\)"):
        BeliefDistribution("empirical", W, sample=(3.0, 1.0))
    assert BeliefDistribution("empirical", W, sample=(1.0, 1.0, 3.0)).cdf(2.0) == 2 / 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_rejected(bad):
    # NaN passed the a <= 0 test and inf gave a cdf of 0 everywhere; a NaN
    # atom passed the min/max support test
    for a, b in ((bad, 4.0), (2.0, bad)):
        with pytest.raises(ValidationError, match="finite"):
            BeliefDistribution.scaled_beta(a, b, W)
    with pytest.raises(ValidationError, match="finite"):
        BeliefDistribution.empirical([bad, 1.0], W)
    with pytest.raises(ValidationError, match="finite"):
        BeliefDistribution.empirical([0.5, 1.0, bad], W)


def test_tail_expectation_matches_fine_riemann(thresholds, crra):
    for lo in (0.0, 1.0, 2.7, 4.9):
        ys = np.linspace(lo, W / 2, 200_001)
        ref = np.trapezoid(crra.value(ys) * thresholds.pdf(ys), ys)
        got = thresholds.tail_expectation(crra.value, lo)
        assert got == pytest.approx(ref, abs=1e-6)


def test_shape_parameters_validated():
    with pytest.raises(ValidationError):
        BeliefDistribution.scaled_beta(0.0, 4.0, W)
    with pytest.raises(ValidationError):
        BeliefDistribution.scaled_beta(2.0, -1.0, W)
    with pytest.raises(ValidationError):
        BeliefDistribution("gaussian", w=W)


@pytest.mark.parametrize("d", _all_kinds(), ids=lambda d: d.kind)
def test_cdf_float_path_bitwise_equals_array_path(d):
    # the float short path must run the array path's ufuncs: same bits
    rng = np.random.default_rng(11)
    xs = np.concatenate(
        [[0.0, W / 2, W, 0.5, 1.0, 4.0, 1e-300], rng.uniform(0.0, 2 * W, size=2000)]
    )
    vec = d.cdf(xs)
    for arg in (xs.tolist(), list(xs)):  # Python floats and numpy float64 scalars
        scal = [d.cdf(x) for x in arg]
        assert all(type(v) is float for v in scal)
        assert np.array_equal(np.array(scal), vec)


@pytest.mark.parametrize("d", [BeliefDistribution.scaled_beta(2.0, 4.0, W),
                               BeliefDistribution.uniform_on_half(W)], ids=lambda d: d.kind)
def test_cdf_array_path_equals_the_two_sided_clip_bitwise(d):
    # past the negativity check only the upper bound of [0, 1] can act:
    # -0.0 and NaN keep their bits
    from scipy.special import betainc

    xs = np.array([-0.0, 0.0, np.nan, 5e-324, 1.0, W / 2, np.nextafter(W / 2, W), W, np.inf])
    u = np.clip(xs / d.half, 0.0, 1.0)
    want = betainc(d.a, d.b, u) if d.kind == "scaled_beta" else u
    assert d.cdf(xs).tobytes() == want.tobytes()


def test_beta_pdf_ufunc_equals_scipy_stats_bitwise():
    # pdf calls scipy's private Beta density ufunc, not scipy.stats (whose import
    # dominates a cold start); a scipy that moves or renames it fails here, and
    # the ufunc must give the public beta.pdf bit for bit
    from scipy.special._ufuncs import _beta_pdf as scipy_beta_pdf
    from scipy.stats import beta

    from moralbargain.beliefs import _beta_pdf

    assert _beta_pdf is scipy_beta_pdf
    grid = np.concatenate([np.linspace(0.0, 1.0, 20_001), [1e-300, 1.0 - 2**-53, np.nan]])
    shapes = ((1.0, 1.0), (1.0, 3.0), (3.0, 1.0), (2.0, 4.0), (2.5, 7.25), (40.0, 60.0), (600.0, 900.0))
    # below 1 an end density is infinite; scipy's wrapper silences overflow there, the
    # bare ufunc must not warn either
    shapes += ((0.5, 0.5), (0.2, 3.0), (3.0, 0.7), (1e-3, 1e-3), (0.9, 1.0))
    for a, b in shapes:
        expected = beta.pdf(grid, a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _beta_pdf(grid, a, b)
            ends = [_beta_pdf(u, a, b) for u in (0.0, 1.0)]
        assert got.tobytes() == expected.tobytes(), (a, b)
        assert np.array(ends).tobytes() == expected[[0, 20_000]].tobytes(), (a, b)


@pytest.mark.parametrize(
    "d",
    _all_kinds()
    + [
        BeliefDistribution.scaled_beta(a, b, W)
        for a, b in ((0.5, 0.5), (1, 1), (1, 3), (3, 1), (0.2, 3.0), (2.5, 7.25), (600.0, 900.0))
    ],
    ids=lambda d: d.kind if d.a is None else f"{d.kind}({d.a},{d.b})",
)
def test_pdf_float_path_bitwise_equals_array_path(d):
    # the float short path must return the array path's values bit for bit,
    # including 0 outside [0, w/2], at NaN, and the infinite edge densities
    rng = np.random.default_rng(12)
    edges = [0.0, W / 2, np.nextafter(W / 2, np.inf), -1e-12, -3.0, np.nan, np.inf, -np.inf, 1e-300]
    xs = np.concatenate([edges, rng.uniform(-W, 2 * W, size=2000)])
    vec = d.pdf(xs)
    for arg in (xs.tolist(), list(xs)):  # Python floats and numpy float64 scalars
        scal = [d.pdf(x) for x in arg]
        assert all(type(v) is float for v in scal)
        assert np.array(scal).tobytes() == vec.tobytes()


def test_cdf_rejects_negative_amounts_on_every_path():
    for d in _all_kinds():
        for bad in (-1e-12, np.float64(-3.0), np.array([[1.0], [-2.0]]), np.array(-0.5), -1):
            with pytest.raises(DomainError):
                d.cdf(bad)
