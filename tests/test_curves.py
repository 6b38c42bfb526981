"""Payoff curve values, derivatives, validation, and shape properties."""

import numpy as np
import pytest

from moralbargain import PayoffCurve
from moralbargain.errors import DomainError, ValidationError


def test_linear_is_identity(linear):
    xs = np.array([0.0, 0.5, 1.0, 7.25, 58.8])
    np.testing.assert_array_equal(linear.value(xs), xs)
    np.testing.assert_array_equal(linear.derivative(xs), np.ones_like(xs))


def test_crra_closed_form(crra):
    # v(x) = x^(1-rho) / (1-rho) with rho = 0.05
    assert crra.value(10.0) == pytest.approx(10.0**0.95 / 0.95, rel=1e-14)
    assert crra.value(1.0) == pytest.approx(1.0 / 0.95, rel=1e-14)
    assert crra.value(0.0) == 0.0


def test_shifted_log_is_log1p(shifted_log, rng):
    xs = rng.uniform(0.0, 60.0, size=50)
    np.testing.assert_allclose(shifted_log.value(xs), np.log1p(xs), rtol=0, atol=0)
    assert shifted_log.value(0.0) == 0.0


def test_negative_amount_rejected(linear, crra, shifted_log):
    for curve in (linear, crra, shifted_log):
        with pytest.raises(DomainError):
            curve.value(-0.01)
        with pytest.raises(DomainError):
            curve.derivative(np.array([1.0, -2.0]))


def test_crra_rho_must_sit_in_open_unit_interval():
    for bad in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(ValidationError):
            PayoffCurve.crra(bad)
    with pytest.raises(ValidationError):
        PayoffCurve("linear", crra_rho=0.5)
    with pytest.raises(ValidationError):
        PayoffCurve("exp")


def test_labels(linear, crra, shifted_log):
    assert linear.label() == "linear"
    assert crra.label() == "crra(0.05)"
    assert shifted_log.label() == "shifted_log"


def test_strict_monotonicity_on_random_pairs(linear, crra, shifted_log, rng):
    # 1000 ordered pairs per curve, v must preserve the order strictly
    for curve in (linear, crra, shifted_log):
        a = rng.uniform(0.0, 100.0, size=1000)
        b = a + rng.uniform(1e-9, 5.0, size=1000)
        assert np.all(curve.value(b) > curve.value(a))


def test_concavity_midpoint(crra, shifted_log, rng):
    for curve in (crra, shifted_log):
        a = rng.uniform(0.0, 50.0, size=300)
        b = rng.uniform(0.0, 50.0, size=300)
        mid = curve.value(0.5 * (a + b))
        chord = 0.5 * (curve.value(a) + curve.value(b))
        assert np.all(mid >= chord - 1e-12)


def test_derivative_matches_finite_difference(crra, shifted_log, rng):
    xs = rng.uniform(0.5, 40.0, size=200)
    h = 1e-6
    for curve in (crra, shifted_log):
        fd = (curve.value(xs + h) - curve.value(xs - h)) / (2.0 * h)
        np.testing.assert_allclose(curve.derivative(xs), fd, rtol=1e-7, atol=1e-9)


def test_crra_derivative_unbounded_at_zero(crra):
    assert np.isinf(crra.derivative(0.0))


def test_scalar_and_vector_paths_agree(crra, rng):
    xs = rng.uniform(0.0, 20.0, size=25)
    vec = crra.value(xs)
    scal = np.array([crra.value(float(x)) for x in xs])
    np.testing.assert_array_equal(vec, scal)


@pytest.mark.parametrize(
    "curve",
    [PayoffCurve.linear(), PayoffCurve.shifted_log()]
    + [PayoffCurve.crra(r) for r in (0.05, 0.3, 0.5, 0.95)],
    ids=lambda c: c.label(),
)
def test_float_path_bitwise_equals_array_path(curve, rng):
    # the float short path must run the array path's ufuncs: same bits
    w = 58.8
    xs = np.concatenate([[0.0, w / 2, w, 1e-300, 5e-324], rng.uniform(0.0, 2 * w, size=2000)])
    vec = curve.value(xs)
    for arg in (xs.tolist(), list(xs)):  # Python floats and numpy float64 scalars
        scal = [curve.value(x) for x in arg]
        assert all(type(v) is float for v in scal)
        assert np.array_equal(np.array(scal), vec)
    assert curve.value(np.asarray(w / 2)) == vec[1]


def test_negative_amount_rejected_on_every_path(linear, crra, shifted_log):
    for curve in (linear, crra, shifted_log):
        for bad in (-1e-12, np.float64(-3.0), np.array([1.0, -2.0]), np.array(-0.5), -1):
            with pytest.raises(DomainError):
                curve.value(bad)
