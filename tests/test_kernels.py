"""Grid-kernel tests against O(n^2) reference loops.

The kernels must reproduce the references' first-hit tie rule and their
float sums exactly, so the checks use exact equality rather than
tolerances; both are also compared on the sign bit of u.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moralbargain import PayoffCurve, kernels
from moralbargain.errors import ValidationError
from moralbargain.nash import _verify
from moralbargain.params import Strategy


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


_small = st.integers(-3, 3).map(float)
_real = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
_pos = st.integers(0, 6).map(float) | st.floats(0.0, 6.0, allow_nan=False)


@st.composite
def _deviation_cases(draw):
    # integer-valued draws force ties between runs and rows, and repeated
    # axis points; opponents may fall outside the axis range
    num = draw(st.sampled_from([_small, _real]))
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 9))
    lanes = draw(st.integers(1, 5))
    vec = lambda k, elem: np.array(draw(st.lists(elem, min_size=k, max_size=k)))
    opp = st.integers(-1, 8).map(float) | st.floats(-1.0, 8.0, allow_nan=False)
    return (
        vec(n, num), vec(lanes, num), vec(n, num),
        np.sort(vec(n, _pos)), np.sort(vec(m, _pos)),
        vec(lanes, opp), vec(lanes, opp),
    )


@st.composite
def _grid_cases(draw):
    # as _deviation_cases, with x1s left in draw order
    num = draw(st.sampled_from([_small, _real]))
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 9))
    vec = lambda k, elem: np.array(draw(st.lists(elem, min_size=k, max_size=k)))
    return vec(n, num), vec(m, num), vec(n, num), vec(n, _pos), np.sort(vec(m, _pos))


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

    @settings(max_examples=400, deadline=None)
    @given(case=_grid_cases())
    def test_property_matches_slow_reference(self, case):
        got = kernels.grid_argmax(*case)
        ref = _argmax_slow(*case)
        assert got == ref
        assert np.signbit(got[2]) == np.signbit(ref[2])


class TestAxisChecks:
    @pytest.mark.parametrize("x2s", [[2.0, 1.0], [1.0, np.nan], [np.nan]])
    def test_unsorted_or_nan_x2s_rejected(self, x2s):
        x2s = np.array(x2s)
        one = np.array([1.0])
        with pytest.raises(ValidationError, match="sorted ascending"):
            kernels.grid_argmax(one, np.ones(len(x2s)), one, one, x2s)
        with pytest.raises(ValidationError, match="sorted ascending"):
            kernels.deviation_best(one, one, one, one, x2s, one, one)

    def test_nan_x1s_rejected(self):
        # searchsorted puts NaN past every x2, where the indicator reads it as below all
        one, nan = np.array([1.0]), np.array([np.nan])
        with pytest.raises(ValidationError, match="NaN"):
            kernels.grid_argmax(one, one, one, nan, one)
        with pytest.raises(ValidationError, match="NaN"):
            kernels.deviation_best(one, one, one, nan, one, one, one)


def _peak_bytes(fn, *args):
    """tracemalloc's peak over one call, after a warm-up call; numpy reports its buffers to it."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAllocationBounds:
    """No n x n temporaries: at n = 401 the full grid held three of 1.3 MB
    each, and one verifier call on the whole diagonal about a dozen. Small
    blocks stay under glibc's mmap threshold, so their cost does not depend
    on what the process freed before."""

    def test_grid_argmax_is_linear_in_memory(self, rng):
        n = 401
        x = np.linspace(0.0, 10.0, n)
        a, b, c = rng.normal(size=(3, n))
        assert _peak_bytes(kernels.grid_argmax, a, b, c, x, x) < 64 * 1024

    def test_verifier_calls_stay_small(self):
        w = 10.0
        diagonal = [Strategy(x, x) for x in np.linspace(0.0, w, 401).tolist()]
        peak = _peak_bytes(_verify, diagonal, 0.6, 0.5, PayoffCurve.crra(0.05), w, w / 400)
        assert peak < 1024 * 1024


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
