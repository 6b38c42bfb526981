"""Grid-kernel tests against O(n^2) reference loops.

The kernels must reproduce the references' first-hit tie rule and their
float sums exactly, so the checks use exact equality rather than
tolerances; `deviation_best` is also compared on the sign bit of u.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moralbargain import kernels
from moralbargain.errors import ValidationError


def _argmax_slow(a, b, c, x1s, x2s):
    best_u, best_i, best_j = -np.inf, 0, 0
    for i in range(len(a)):
        for j in range(len(b)):
            u = a[i] + b[j] + (c[i] if x1s[i] >= x2s[j] else 0.0)
            if u > best_u:
                best_u, best_i, best_j = u, i, j
    return best_i, best_j, best_u


def _deviation_slow(pa, racc, c, x1s, x2s, y1, y2):
    """One opponent (y1, y2): full-grid scan with the kernel's left-to-right sum."""
    best_u, best_i, best_j = -np.inf, 0, 0
    for i in range(len(x1s)):
        for j in range(len(x2s)):
            u = (pa[i] if x1s[i] >= y2 else 0.0)
            u += racc if y1 >= x2s[j] else 0.0
            u += c[i] if x1s[i] >= x2s[j] else 0.0
            if u > best_u:
                best_u, best_i, best_j = u, i, j
    return best_u, best_i, best_j


def _random_case(rng, n=17, m=23):
    a = rng.normal(size=n)
    b = rng.normal(size=m)
    c = rng.normal(size=n)
    x1s = np.sort(rng.uniform(0.0, 10.0, size=n))
    x2s = np.sort(rng.uniform(0.0, 10.0, size=m))
    return a, b, c, x1s, x2s


def _assert_lanes_match(got, pa, racc, c, x1s, x2s, y1, y2):
    u, i, j = got
    assert len(u) == len(i) == len(j) == len(y1)
    for p in range(len(y1)):
        ref_u, ref_i, ref_j = _deviation_slow(pa, racc[p], c, x1s, x2s, y1[p], y2[p])
        assert (u[p], i[p], j[p]) == (ref_u, ref_i, ref_j)
        assert np.signbit(u[p]) == np.signbit(ref_u)


class TestGridArgmax:
    def test_matches_slow_reference(self, rng):
        for _ in range(20):
            a, b, c, x1s, x2s = _random_case(rng)
            got = kernels.grid_argmax(a, b, c, x1s, x2s)
            assert got == _argmax_slow(a, b, c, x1s, x2s)

    def test_indicator_inclusive_at_equality(self):
        one = np.array([0.0])
        got = kernels.grid_argmax(one, one, np.array([5.0]), np.array([2.0]), np.array([2.0]))
        assert got == (0, 0, 5.0)

    def test_ties_break_to_first_cell(self):
        # all-zero utility surface: every cell ties, first hit wins
        a = np.zeros(4)
        b = np.zeros(5)
        got = kernels.grid_argmax(a, b, np.zeros(4), np.arange(4.0), np.arange(5.0) + 10.0)
        assert got == (0, 0, 0.0)

    def test_ties_break_lowest_j_within_row(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 0.0, 0.0])
        got = kernels.grid_argmax(a, b, np.zeros(2), np.zeros(2), np.ones(3))
        assert (got[0], got[1]) == (0, 0)


_small = st.integers(-3, 3).map(float)
_real = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@st.composite
def _deviation_cases(draw):
    # integer-valued draws force ties between runs and rows, and repeated
    # axis points; opponents may fall outside the axis range
    num = draw(st.sampled_from([_small, _real]))
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 9))
    lanes = draw(st.integers(1, 5))
    vec = lambda k, elem: np.array(draw(st.lists(elem, min_size=k, max_size=k)))
    pos = st.integers(0, 6).map(float) | st.floats(0.0, 6.0, allow_nan=False)
    opp = st.integers(-1, 8).map(float) | st.floats(-1.0, 8.0, allow_nan=False)
    return (
        vec(n, num), vec(lanes, num), vec(n, num),
        np.sort(vec(n, pos)), np.sort(vec(m, pos)),
        vec(lanes, opp), vec(lanes, opp),
    )


class TestDeviationBest:
    def test_matches_slow_reference(self, rng):
        for _ in range(20):
            a, b, c, x1s, x2s = _random_case(rng, n=13, m=11)
            pa = np.abs(a)
            racc = rng.uniform(0.0, 2.0, size=1)
            y1 = rng.uniform(0.0, 10.0, size=1)
            y2 = rng.uniform(0.0, 10.0, size=1)
            got = kernels.deviation_best(pa, racc, c, x1s, x2s, y1, y2)
            _assert_lanes_match(got, pa, racc, c, x1s, x2s, y1, y2)

    @settings(max_examples=400, deadline=None)
    @given(case=_deviation_cases())
    def test_property_matches_slow_reference(self, case):
        pa, racc, c, x1s, x2s, y1, y2 = case
        got = kernels.deviation_best(pa, racc, c, x1s, x2s, y1, y2)
        _assert_lanes_match(got, pa, racc, c, x1s, x2s, y1, y2)

    def test_opponent_boundaries_inclusive(self):
        # x1 == y2 earns the proposer term; y1 == x2 earns the responder term
        pa = np.array([3.0])
        c = np.array([0.0])
        one = lambda v: np.array([v])
        u, i, j = kernels.deviation_best(pa, one(7.0), c, one(2.0), one(4.0), one(4.0), one(2.0))
        assert (u[0], i[0], j[0]) == (10.0, 0, 0)

    def test_unsorted_x2_axis_rejected(self):
        one = np.array([1.0])
        with pytest.raises(ValidationError):
            kernels.deviation_best(one, one, one, one, np.array([2.0, 1.0]), one, one)
