"""Scalar search primitives: the array coarse scan against a scalar reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moralbargain.errors import ConvergenceError
from moralbargain.numerics import golden_section_max, scan_then_golden


def _reference_scan(f, lo, hi, n_scan=200, tol=1e-9):
    """The scan one scalar call at a time; ties go to the lowest index."""
    if hi <= lo:
        return lo
    step = (hi - lo) / n_scan
    xs = [lo + i * step for i in range(n_scan + 1)]
    vals = [f(x) for x in xs]
    k = max(range(len(xs)), key=lambda i: (vals[i], -i))
    return golden_section_max(f, xs[max(0, k - 1)], xs[min(n_scan, k + 1)], tol=tol)


def _bumps(centres, heights, width):
    """Sum of quartic bumps: multimodal, arithmetic only, so it broadcasts bit-exactly."""

    def f(x):
        out = 0.0 * x
        for c, h in zip(centres, heights):
            u = np.maximum(1.0 - ((x - c) / width) ** 2, 0.0)
            out = out + h * u * u
        return out

    return f


_finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(
    lo=st.floats(-50.0, 50.0, **_finite),
    span=st.floats(1e-6, 100.0, **_finite),
    n_scan=st.integers(1, 300),
    centres=st.lists(st.floats(0.0, 1.0, **_finite), min_size=1, max_size=6),
    heights=st.lists(st.floats(0.1, 5.0, **_finite), min_size=6, max_size=6),
    width=st.floats(0.01, 0.5, **_finite),
    quantum=st.sampled_from([0.0, 0.25, 1.0]),
)
def test_scan_matches_scalar_reference_bitwise(lo, span, n_scan, centres, heights, width, quantum):
    hi = lo + span
    g = _bumps([lo + c * span for c in centres], heights, width * span)
    # quantized objectives have plateaus, so the coarse scan sees exact ties
    f = (lambda x: np.floor(g(x) / quantum) * quantum) if quantum else g
    got = scan_then_golden(f, lo, hi, n_scan=n_scan)
    assert type(got) is float
    assert got == _reference_scan(f, lo, hi, n_scan=n_scan)


def test_scan_is_one_array_call_then_scalars():
    calls = []

    def f(x):
        calls.append(x)
        return -((x - 1.3) ** 2)

    x = scan_then_golden(f, 0.0, 5.0, n_scan=200)
    assert x == pytest.approx(1.3, abs=1e-8)
    assert isinstance(calls[0], np.ndarray) and calls[0].shape == (201,)
    assert all(isinstance(c, float) for c in calls[1:])
    assert len(calls) < 50


def test_forced_tie_first_index_wins():
    # two equal peaks at scan points 40 and 160 of 200 on [0, 10]
    p1, p2 = 40 * 0.05, 160 * 0.05
    f = lambda x: -np.minimum(np.abs(x - p1), np.abs(x - p2))
    got = scan_then_golden(f, 0.0, 10.0)
    assert got == pytest.approx(p1, abs=1e-8)
    assert got == _reference_scan(f, 0.0, 10.0)
    # a constant objective ties everywhere: the bracket is the first cell
    flat = lambda x: 0.0 * x + 1.0
    got = scan_then_golden(flat, 2.0, 3.0)
    assert 2.0 <= got <= 2.0 + 2 * (1.0 / 200)
    assert got == _reference_scan(flat, 2.0, 3.0)


@pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0), (-3.0, -3.5)])
def test_empty_or_reversed_bracket_returns_lo(lo, hi):
    def f(x):
        raise AssertionError("objective must not be called")

    assert scan_then_golden(f, lo, hi) == lo


def test_boundary_maxima_are_returned_exactly():
    down = lambda x: -x
    assert scan_then_golden(down, 0.0, 5.0) == 0.0
    up = lambda x: x
    got = scan_then_golden(up, 0.0, 5.0)
    assert got == _reference_scan(up, 0.0, 5.0)
    assert got == pytest.approx(5.0, abs=1e-12)
    assert scan_then_golden(up, 0.3, 0.7) == _reference_scan(up, 0.3, 0.7)


def test_nan_objective_raises():
    f = lambda x: np.where(x > 2.0, np.nan, -((x - 1.0) ** 2))
    with pytest.raises(ConvergenceError, match="NaN"):
        scan_then_golden(f, 0.0, 5.0)


def test_golden_section_reaches_tolerance():
    f = lambda x: -((x - math.pi / 2) ** 2)
    assert golden_section_max(f, 1.0, 2.0, tol=1e-9) == pytest.approx(math.pi / 2, abs=1e-8)
    with pytest.raises(ValueError):
        golden_section_max(f, 2.0, 1.0)
