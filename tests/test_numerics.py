"""Scalar search primitives: the coarse scan against a scalar reference, and lanes against one-lane calls."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moralbargain import numerics
from moralbargain.errors import ConvergenceError
from moralbargain.numerics import bisect_boundary, bisect_root, golden_section_max, scan_then_golden


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


def test_scan_is_one_block_call_then_one_lane_call_per_step():
    centres = np.array([1.3, 2.2, 0.4])
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return -((x - centres) ** 2)

    x = scan_then_golden(f, np.zeros(3), np.full(3, 5.0), n_scan=200)
    assert isinstance(x, np.ndarray) and x == pytest.approx(centres, abs=1e-8)
    assert calls[0] == (201, 3)
    assert all(shape == (3,) for shape in calls[1:])
    # a scalar bracket is a one-lane call: the same protocol, and a float back
    calls.clear()
    x = scan_then_golden(lambda x: f(x)[..., :1], 0.0, 5.0, n_scan=200)
    assert type(x) is float and x == pytest.approx(1.3, abs=1e-8)
    assert calls[0] == (201, 1) and all(shape == (1,) for shape in calls[1:])
    assert len(calls) < 50


def test_wide_scans_are_split_into_capped_blocks():
    lanes = numerics._SCAN_CELLS // 50
    centres = np.linspace(0.5, 4.5, lanes)
    shapes = []

    def f(x):
        shapes.append(np.shape(x))
        return -((x - centres) ** 2)

    x = scan_then_golden(f, np.zeros(lanes), np.full(lanes, 5.0), n_scan=200)
    scan = [s for s in shapes if len(s) == 2]
    assert sum(s[0] for s in scan) == 201 and all(s[0] * s[1] <= numerics._SCAN_CELLS for s in scan)
    assert len(scan) > 1
    assert x == pytest.approx(centres, abs=1e-8)


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


# ---------------------------------------------------------------------------
# lanes: each lane of a batched call equals the same problem alone, bit for bit


def _lane_bumps(centres, heights, width, quantum):
    """Per-lane sums of quartic bumps; lane i's parameters sit in row i.

    Broadcasts over x of shape (L,) or (rows, L); quantized versions have
    plateaus, so scans and golden steps see exact ties.
    """

    def f(x):
        out = 0.0 * x
        for c, h in zip(centres.T, heights.T):
            u = np.maximum(1.0 - ((x - c) / width) ** 2, 0.0)
            out = out + h * u * u
        return np.floor(out / quantum) * quantum if quantum else out

    return f


def _one_lane(make, i, *arrays):
    return make(*(a[i:i + 1] for a in arrays))


_lane_count = st.integers(1, 6)


@st.composite
def _bump_lanes(draw, allow_empty):
    n = draw(_lane_count)
    lo = np.array(draw(st.lists(st.floats(-20.0, 20.0, **_finite), min_size=n, max_size=n)))
    spans = draw(st.lists(
        st.one_of(st.floats(1e-6, 30.0, **_finite), st.sampled_from([0.0, 1e-10, 5e-10, 1e-9])
                  | (st.floats(-5.0, 0.0, **_finite) if allow_empty else st.just(0.0))),
        min_size=n, max_size=n))
    hi = lo + np.array(spans)
    centres = lo[:, None] + np.array(draw(st.lists(
        st.lists(st.floats(-0.1, 1.1, **_finite), min_size=3, max_size=3), min_size=n, max_size=n,
    ))) * np.maximum(np.abs(np.array(spans)), 1.0)[:, None]
    heights = np.array(draw(st.lists(
        st.lists(st.floats(0.1, 5.0, **_finite), min_size=3, max_size=3), min_size=n, max_size=n,
    )))
    width = np.array(draw(st.lists(st.floats(0.05, 3.0, **_finite), min_size=n, max_size=n)))
    quantum = draw(st.sampled_from([0.0, 0.25, 1.0]))
    return lo, hi, centres, heights, width, quantum


@settings(max_examples=80, deadline=None)
@given(lanes=_bump_lanes(allow_empty=False), tol=st.sampled_from([1e-9, 1e-6]))
def test_golden_lanes_equal_one_lane_calls_bitwise(lanes, tol):
    lo, hi, centres, heights, width, quantum = lanes
    f = _lane_bumps(centres, heights, width, quantum)
    got = golden_section_max(f, lo, hi, tol=tol)
    assert isinstance(got, np.ndarray) and got.shape == lo.shape
    for i in range(lo.size):
        g = _one_lane(lambda c, h, wd: _lane_bumps(c, h, wd, quantum), i, centres, heights, width)
        alone = golden_section_max(g, float(lo[i]), float(hi[i]), tol=tol)
        assert type(alone) is float and got[i] == alone


@settings(max_examples=80, deadline=None)
@given(lanes=_bump_lanes(allow_empty=True), n_scan=st.integers(1, 120))
def test_scan_lanes_equal_one_lane_calls_bitwise(lanes, n_scan):
    lo, hi, centres, heights, width, quantum = lanes
    f = _lane_bumps(centres, heights, width, quantum)
    got = scan_then_golden(f, lo, hi, n_scan=n_scan)
    for i in range(lo.size):
        g = _one_lane(lambda c, h, wd: _lane_bumps(c, h, wd, quantum), i, centres, heights, width)
        assert got[i] == scan_then_golden(g, float(lo[i]), float(hi[i]), n_scan=n_scan)
        if hi[i] <= lo[i]:
            assert got[i] == lo[i]


def test_scan_nan_in_one_lane_raises_naming_its_bracket():
    lo, hi = np.array([0.0, 1.0, 2.0]), np.array([5.0, 6.0, 7.0])
    nan_lane = np.array([False, True, False])
    f = lambda x: np.where(nan_lane & (x > 3.0), np.nan, -((x - 2.5) ** 2))
    with pytest.raises(ConvergenceError, match=r"scan of \[1.0, 6.0\]"):
        scan_then_golden(f, lo, hi)
    # a NaN beside an empty bracket's lo is never scanned, so it does not raise
    f = lambda x: np.where(nan_lane & (x == 1.0), np.nan, -((x - 2.5) ** 2))
    got = scan_then_golden(f, lo, np.array([5.0, 1.0, 7.0]))
    assert got[1] == 1.0


@st.composite
def _root_lanes(draw):
    n = draw(_lane_count)
    lo = np.array(draw(st.lists(st.floats(-10.0, 10.0, **_finite), min_size=n, max_size=n)))
    hi = lo + np.array(draw(st.lists(st.floats(1e-3, 20.0, **_finite), min_size=n, max_size=n)))
    # a root anywhere inside, or exactly on an endpoint
    where = draw(st.lists(st.one_of(st.floats(0.0, 1.0, **_finite), st.sampled_from([0.0, 1.0])),
                          min_size=n, max_size=n))
    roots = np.where(np.array(where) == 0.0, lo, np.where(np.array(where) == 1.0, hi,
                                                          lo + np.array(where) * (hi - lo)))
    slopes = np.array(draw(st.lists(st.sampled_from([-3.0, -0.5, 1e-3, 1.0, 7.0]),
                                    min_size=n, max_size=n)))
    cubic = draw(st.booleans())
    tol = draw(st.sampled_from([1e-10, 1e-6, 1e-3]))
    return lo, hi, roots, slopes, cubic, tol


def _root_fn(roots, slopes, cubic):
    def f(x):
        d = x - roots
        return slopes * (d * d * d + 1e-3 * d if cubic else d)

    return f


@settings(max_examples=120, deadline=None)
@given(lanes=_root_lanes())
# a subnormal root next to lo: f(lo) * f(mid) underflows to zero
@example(lanes=(np.zeros(1), np.full(1, 1e-3), np.full(1, 1.11253693e-311), np.full(1, 1e-3),
                False, 1e-10))
def test_bisect_root_lanes_equal_one_lane_calls_bitwise(lanes):
    lo, hi, roots, slopes, cubic, tol = lanes
    got = bisect_root(_root_fn(roots, slopes, cubic), lo, hi, residual_tol=tol)
    for i in range(lo.size):
        alone = bisect_root(_one_lane(lambda r, s: _root_fn(r, s, cubic), i, roots, slopes),
                            float(lo[i]), float(hi[i]), residual_tol=tol)
        assert type(alone) is float and got[i] == alone


def test_bisect_root_lanes_stop_at_different_iterations():
    # lanes need 1, about 10 and about 33 halvings to reach the residual
    roots = np.array([2.5, 2.5 + 5 / 1024, 1.0 / 3.0])
    f = lambda x: x - roots
    calls = []
    got = bisect_root(lambda x: (calls.append(x.copy()), f(x))[1], np.zeros(3), np.full(3, 5.0))
    assert got[0] == 2.5 and got[1] == roots[1]
    assert abs(got[2] - 1.0 / 3.0) < 1e-10
    # the first lane is frozen at its root while the others keep bisecting
    assert all(c[0] == 2.5 for c in calls[3:])
    # zero endpoints: the root is returned without a step
    assert bisect_root(lambda x: x - 1.0, 1.0, 4.0) == 1.0
    got = bisect_root(lambda x: x - np.array([1.0, 4.0]), np.ones(2), np.full(2, 4.0))
    assert list(got) == [1.0, 4.0]


def test_bisect_root_no_sign_change_in_one_lane_raises():
    f = lambda x: x - np.array([1.0, 9.0])
    with pytest.raises(ConvergenceError, match=r"no sign change on \[0.0, 5.0\]"):
        bisect_root(f, np.zeros(2), np.full(2, 5.0))


def test_bisect_root_collapse_on_a_sign_change_returns_the_midpoint():
    # a jump never meets the residual: the bracket shuts around it at machine
    # width, 4 ulp of each lane's own magnitude
    jumps = np.array([1.0 / 3.0, 2.0, 6e-13])
    f = lambda x: np.where(x < jumps, -1.0, 1.0)
    got = bisect_root(f, np.zeros(3), np.full(3, 5.0))
    assert np.all(np.abs(got - jumps) <= 2.0 * np.spacing(jumps))


@pytest.mark.parametrize("f", [
    lambda x: np.where(x < 2.0, -1.0, np.nan),  # NaN at hi: no known sign change
    lambda x: np.where(x < 1.0, -1.0, np.where(x < 2.0, np.nan, 1.0)),  # NaN inside
])
def test_bisect_root_collapse_onto_nan_raises(f):
    with pytest.raises(ConvergenceError, match="collapsed"):
        bisect_root(f, 0.0, 5.0)


@st.composite
def _boundary_lanes(draw):
    n = draw(_lane_count)
    lo = np.array(draw(st.lists(st.floats(-10.0, 10.0, **_finite), min_size=n, max_size=n)))
    hi = lo + np.array(draw(st.lists(st.floats(0.0, 20.0, **_finite), min_size=n, max_size=n)))
    # the boundary at lo (pred holds on all of the bracket), inside, or at hi
    where = np.array(draw(st.lists(st.one_of(st.floats(0.0, 1.0, **_finite),
                                             st.sampled_from([-1.0, 0.0, 1.0])),
                                   min_size=n, max_size=n)))
    cut = lo + where * (hi - lo)
    x_tol = draw(st.sampled_from([1e-12, 1e-8, 1e-4, 1.0]))
    return lo, hi, cut, x_tol


@settings(max_examples=120, deadline=None)
@given(lanes=_boundary_lanes())
def test_bisect_boundary_lanes_equal_one_lane_calls_bitwise(lanes):
    lo, hi, cut, x_tol = lanes
    got = bisect_boundary(lambda x: x >= cut, lo, hi, x_tol=x_tol)
    for i in range(lo.size):
        alone = bisect_boundary(lambda x: x >= cut[i:i + 1], float(lo[i]), float(hi[i]), x_tol=x_tol)
        assert type(alone) is float and got[i] == alone
        if cut[i] <= lo[i]:
            assert alone == lo[i]


def test_bisect_boundary_false_predicate_in_one_lane_raises():
    with pytest.raises(ConvergenceError, match=r"predicate false on all of \[1.0, 2.0\]"):
        bisect_boundary(lambda x: x >= np.array([0.5, 3.0]), np.ones(2), np.full(2, 2.0))


def test_zero_lanes_return_empty_arrays():
    none = np.empty(0)
    for search in (golden_section_max, scan_then_golden, bisect_root):
        got = search(lambda x: -x * x, none, none)
        assert isinstance(got, np.ndarray) and got.shape == (0,)
    assert bisect_boundary(lambda x: x >= 0.0, none, none).shape == (0,)


def _one_halving_per_call(pred, a, b, x_tol):
    """bisect_boundary's halving loop one halving per call, on shape (L,)."""
    a, b = a.copy(), b.copy()
    live = (b - a) > x_tol
    while live.any():
        mid = 0.5 * (a + b)
        hit = np.asarray(pred(mid), dtype=bool)
        b = np.where(live & hit, mid, b)
        a = np.where(live & ~hit, mid, a)
        live = (b - a) > x_tol
    return b


def _depth_cap(lanes):
    """The largest d whose 2^d - 1 points a lane fit the speculative budget, at least 1."""
    return max(d for d in range(1, 12) if d == 1 or (2**d - 1) * lanes <= numerics._SPEC_LANES)


# lane counts on both sides of every depth the budget allows
_WALK_LANES = sorted({n for d in range(1, _depth_cap(1) + 1)
                      for n in (numerics._SPEC_LANES // (2**d - 1), numerics._SPEC_LANES // (2**d - 1) + 1)})


@st.composite
def _walk_lanes(draw):
    n = draw(st.sampled_from(_WALK_LANES))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-5.0, 5.0, n)
    # unequal widths, down to a lane already inside x_tol
    hi = lo + rng.choice([0.0, 1e-9, 0.01, 1.0, 30.0], n) * rng.uniform(0.5, 1.0, n)
    x_tol = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-3, 0.3]))
    # a cut per lane, or a non-monotone predicate: sign of a sine per lane
    cut = lo + rng.uniform(-0.2, 1.2, n) * (hi - lo)
    freq, phase = rng.uniform(0.5, 40.0, n), rng.uniform(0.0, 6.0, n)
    monotone = draw(st.booleans())
    pred = (lambda x: x >= cut) if monotone else (lambda x: np.sin(freq * x + phase) > 0.0)
    return pred, lo, hi, x_tol


@settings(max_examples=150, deadline=None)
@given(case=_walk_lanes())
def test_halving_walk_matches_one_halving_per_call_bitwise(case):
    pred, lo, hi, x_tol = case
    if x_tol == 0.0:
        # x_tol 0 halves to adjacent floats, which a halving can no longer part
        x_tol = 4.0 * float(np.max(np.spacing(np.abs(np.concatenate([lo, hi])))))
    got = numerics._halve_boundary(pred, lo, hi, x_tol)
    want = _one_halving_per_call(pred, lo, hi, x_tol)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, shapes", [
    (1, [(63, 1)] * 5),                 # depth 6: 30 halvings in five calls
    (3, [(15, 3)] * 6 + [(7, 3)] * 2),  # depth 4; the last 6 halvings spread over two calls
    (21, [(3, 21)] * 15),               # depth 2
    (22, [(1, 22)] * 30),               # 3 x 22 > 64: one halving a call
])
def test_each_halving_call_asks_2_pow_d_minus_1_midpoints_a_lane(n, shapes):
    assert numerics._SPEC_LANES == 64  # the shapes below are for this budget
    calls = []
    cut = np.linspace(0.1, 0.9, n)

    def pred(x):
        calls.append(x.copy())
        return x >= cut

    # widths 1 and x_tol 2^-30: exactly 30 halvings on every lane
    got = numerics._halve_boundary(pred, np.zeros(n), np.ones(n), 2.0**-30)
    assert [x.shape for x in calls] == shapes
    assert got.tobytes() == _one_halving_per_call(pred, np.zeros(n), np.ones(n), 2.0**-30).tobytes()
    # level order: node j's halves are nodes 2j + 1 (lower) and 2j + 2
    first = [0.5, 0.25, 0.75, 0.125, 0.375, 0.625, 0.875]
    assert calls[0][:7, 0].tolist() == first[:len(calls[0])]


def _at_most(pred, calls=200):
    """pred that fails the test on its call after the first `calls`, so a
    halving loop that never ends fails instead of hanging."""
    asked = []

    def counted(x):
        asked.append(1)
        assert len(asked) <= calls, f"predicate asked more than {calls} times"
        return pred(x)

    return counted


def test_halving_ends_on_a_one_float_bracket():
    # x_tol 0 halves down to adjacent floats, whose midpoint rounds onto an end
    assert bisect_boundary(_at_most(lambda x: x >= 0.3), 0.0, 1.0, x_tol=0.0) == 0.3


def test_halving_ends_when_x_tol_is_below_the_float_spacing(monkeypatch):
    from moralbargain import nash
    from moralbargain.curves import PayoffCurve

    def counted_boundary(pred, lo, hi, x_tol):
        return bisect_boundary(_at_most(pred), lo, hi, x_tol)

    monkeypatch.setattr(nash, "bisect_boundary", counted_boundary)
    # x_tol 1e-12 against a float spacing of 5.8e-11 at w/2 = 5e5; with
    # 1 - kappa + alpha = 1 the sustainable offers are x <= w/2, and the
    # boundary is the first float past it
    got = nash.x1_upper_of(0.5, 0.5, PayoffCurve.crra(0.05), 1e6)
    assert got == np.nextafter(5e5, np.inf)


def _watch(bad, kind):
    """x >= 0.3 on [0, 1], raising or warning at any point of `bad` it is asked."""

    def pred(x):
        hit = bad(x)
        if hit.any():
            msg = f"asked at {np.asarray(x)[hit][0]!r}"
            if kind == "raise":
                raise ConvergenceError(msg)
            warnings.warn(msg, RuntimeWarning)
        return x >= 0.3

    return pred


@pytest.mark.parametrize("kind", ["raise", "warn"])
def test_halving_off_the_one_step_path_neither_raises_nor_warns(kind):
    # 0.75 is the first level's upper half; one halving a call never goes above 0.5
    pred = _watch(lambda x: (0.7 < x) & (x < 0.8), kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bisect_boundary(pred, 0.0, 1.0, x_tol=1e-12)
    assert got == _one_halving_per_call(pred, np.zeros(1), np.ones(1), 1e-12)[0]


@pytest.mark.parametrize("kind", ["raise", "warn"])
def test_halving_on_the_one_step_path_gives_its_message(kind):
    pred = _watch(lambda x: (0.2999 < x) & (x < 0.3001), kind)

    def outcome(search):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = search().tobytes()
            except ConvergenceError as exc:
                result = str(exc)
        return result, [str(w.message) for w in caught]

    want = outcome(lambda: _one_halving_per_call(pred, np.zeros(1), np.ones(1), 1e-12))
    got = outcome(lambda: numerics._halve_boundary(pred, np.zeros(1), np.ones(1), 1e-12))
    assert got == want
    assert want[0].startswith("asked at") if kind == "raise" else len(want[1]) > 1
