"""Scalar search primitives: coarse-scan bracketing, golden-section, bisection.

Every routine takes one bracket or a 1-D array of L brackets (lanes) and
runs all lanes in lockstep: each step makes one call of the objective on
an array of shape (L,), whose entry i belongs to lane i. A lane that has
finished is masked, not removed: it takes exactly the steps it would take
alone, and its entry of later calls holds a point inside its bracket. A
scalar bracket is a one-lane call and returns a float; there is no other
path. Golden-section and bisection follow Brent (1973), Algorithms for
Minimization without Derivatives.

Two callbacks see shape (m, L), column i belonging to lane i, and must
broadcast over it: scan_then_golden's objective on its scan rows, and
bisect_boundary's predicate, which is asked for the midpoints of the next
few halvings of every lane at once. _halve_boundary's score mode, the
kappa-tilde gap, is asked on shape (m, n) with the indices of its n live
lanes. Each entry's value must depend only on its own point and lane, not
on the rest of the call.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np

from .errors import ConvergenceError, MoralBargainError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2
_LOG_INVPHI = math.log(_INVPHI)

# Most scan points in one objective call, over all lanes: a wider scan is
# split into blocks of rows so the objective's temporaries stay small.
_SCAN_CELLS = 1 << 15
# bisect_root's step cap; a live lane after this many steps is a ConvergenceError
_BISECT_MAX_ITER = 500
# Most points in one speculative call, over all lanes: bisect_boundary asks
# for the next d halvings at 2^d - 1 points a lane, and kappa-tilde scans
# several kappa steps a call, while they fit. On a quiet host a kappa-tilde
# gap call costs about 2.3 ms at one lane, 3.0 ms at 24, 4.0 ms at 63 and
# 14 ms at 420, so a few dozen points the one-step loop would skip cost
# less than one call more in a row. The kappa-tilde halvings also ask each
# lane's route below the tree (_halve_boundary), whose length the bracket
# sets, not this budget: a route that holds decides all 20 halvings in one
# call.
_SPEC_LANES = 64


def _lanes(lo, hi):
    """Both bounds as float arrays of one shape (L,), and whether both were scalars."""
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, dtype=float)),
                                 np.atleast_1d(np.asarray(hi, dtype=float)))
    if lo.ndim != 1:
        raise ValueError(f"brackets must be scalars or 1-D arrays, got shape {lo.shape}")
    return scalar, lo.copy(), hi.copy()


def _result(x, scalar: bool):
    return float(x[0]) if scalar else x


def golden_section_max(
    f: Callable,
    lo: float | np.ndarray,
    hi: float | np.ndarray,
    tol: float = 1e-9,
) -> float | np.ndarray:
    """Maximize f on [lo, hi] per lane; assumes unimodality on each bracket.

    Returns the abscissae. Endpoints are compared against the interior
    optimum so boundary maxima are returned exactly. A lane no wider than
    tol returns the first of (lo, hi, mid) with the largest value. Each
    lane's step count comes from math.log on its own width, as a scalar
    search would compute it.
    """
    scalar, lo, hi = _lanes(lo, hi)
    if np.any(hi < lo):
        i = int(np.argmax(hi < lo))
        raise ValueError(f"empty bracket [{lo[i]}, {hi[i]}]")
    h = hi - lo
    tiny = h <= tol
    n = np.array([0 if w <= tol else int(math.ceil(math.log(tol / w) / _LOG_INVPHI))
                  for w in h.tolist()])
    mid = 0.5 * (lo + hi)
    a = lo
    c = np.where(tiny, mid, a + _INVPHI2 * h)
    d = np.where(tiny, mid, a + _INVPHI * h)
    fc, fd = f(c), f(d)
    n_all = int(n.min()) if n.size else 0
    for it in range(int(n.max(initial=0))):
        # fc > fd keeps [a, d]: the old c becomes d and a new c is probed;
        # otherwise [c, b] is kept: the old d becomes c and a new d is probed
        gt = fc > fd
        a_new = np.where(gt, a, c)
        h_new = h * _INVPHI
        x = a_new + np.where(gt, _INVPHI2, _INVPHI) * h_new
        live = None if it < n_all else it < n
        if live is not None:
            x = np.where(live, x, c)
        fx = f(x)
        state = (a_new, h_new, np.where(gt, x, d), np.where(gt, c, x),
                 np.where(gt, fx, fd), np.where(gt, fc, fx))
        if live is not None:
            state = tuple(np.where(live, new, old) for new, old in zip(state, (a, h, c, d, fc, fd)))
        a, h, c, d, fc, fd = state
    flo, fhi = f(lo), f(hi)
    gt = fc > fd
    best = np.where(tiny, lo, np.where(gt, c, d))
    fbest = np.where(tiny, flo, np.where(gt, fc, fd))
    # an endpoint wins only if strictly better, lo before hi; tiny lanes end on mid
    up = ~tiny & (flo > fbest)
    best, fbest = np.where(up, lo, best), np.where(up, flo, fbest)
    up = fhi > fbest
    best, fbest = np.where(up, hi, best), np.where(up, fhi, fbest)
    best = np.where(tiny & (fc > fbest), mid, best)
    return _result(best, scalar)


def scan_then_golden(
    f: Callable,
    lo: float | np.ndarray,
    hi: float | np.ndarray,
    n_scan: int = 200,
    tol: float = 1e-9,
) -> float | np.ndarray:
    """Coarse n_scan-point scan to bracket the max, then golden-section refine.

    The scan calls f on abscissae of shape (n_scan + 1, L), row i at
    lo + i (hi - lo) / n_scan, in blocks of rows of at most _SCAN_CELLS
    points over all lanes; so f must broadcast, and per-lane parameters of
    shape (L,) line up with the columns. When every lane has the same lo
    and step, f gets one column, shape (n_scan + 1, 1), and its values
    broadcast to all L lanes: per-lane parameters spread them, and a value
    with no lane dependence serves every lane. The golden-section steps
    call f on shape (L,). Ties in the coarse scan go to the lowest
    abscissa. A NaN anywhere in a lane's scan is a ConvergenceError naming
    that lane's bracket, not a silent pick. A lane with hi <= lo returns
    lo; its entries of every call hold lo, and if all lanes are such, f is
    not called.
    """
    scalar, lo, hi = _lanes(lo, hi)
    empty = hi <= lo
    if empty.all():
        return _result(lo, scalar)
    step = np.where(empty, 0.0, (hi - lo) / n_scan)
    # lanes on one bracket share their abscissae: f scans one column, and
    # the values it broadcasts to every lane keep their bits
    shared = (lo == lo[0]).all() and (step == step[0]).all()
    x0, dx = (lo[:1], step[:1]) if shared else (lo, step)
    idx = np.arange(n_scan + 1)[:, None]
    vals = np.empty((n_scan + 1, lo.size))
    rows = max(1, _SCAN_CELLS // lo.size)
    for r in range(0, n_scan + 1, rows):
        vals[r:r + rows] = f(x0 + idx[r:r + rows] * dx)
    k = np.argmax(vals, axis=0)
    bad = np.isnan(vals[k, np.arange(lo.size)]) & ~empty
    if bad.any():
        i = int(np.argmax(bad))
        raise ConvergenceError(f"objective is NaN on the scan of [{lo[i]}, {hi[i]}]")
    a = lo + np.maximum(k - 1, 0) * step
    b = lo + np.minimum(k + 1, n_scan) * step
    best = golden_section_max(f, a, b, tol=tol)
    return _result(np.where(empty, lo, best), scalar)


def bisect_root(
    f: Callable,
    lo: float | np.ndarray,
    hi: float | np.ndarray,
    residual_tol: float = 1e-10,
) -> float | np.ndarray:
    """Find a sign change of f on [lo, hi] per lane by bisection.

    A lane stops when |f(mid)| < residual_tol. A lane whose bracket
    collapses to machine width first (4 ulp of its own magnitude) returns
    the midpoint if the bracket still holds a sign change, as it does
    around a steep root where adjacent floats differ by more than
    residual_tol in f. A ConvergenceError names the first lane whose
    endpoints share a sign, or that collapses onto a NaN: f NaN at the
    midpoint or at an end, so that the sign change is not known.
    """
    scalar, lo, hi = _lanes(lo, hi)
    flo, fhi = f(lo), f(hi)
    res = np.where(flo == 0.0, lo, hi)
    live = ~((flo == 0.0) | (fhi == 0.0))
    # signs are compared through np.sign: a product of two tiny values
    # underflows to zero and would read as no sign information
    bad = live & (np.sign(flo) * np.sign(fhi) > 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConvergenceError(
            f"no sign change on [{lo[i]}, {hi[i]}]: f={flo[i]:.3g},{fhi[i]:.3g}"
        )
    # a bracket can collapse only once it is within 4 ulp of its largest magnitude
    near = 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
    a, b = lo.copy(), hi.copy()
    flo, fhi = np.array(flo, dtype=float), np.array(fhi, dtype=float)
    for _ in range(_BISECT_MAX_ITER):
        if not np.count_nonzero(live):
            return _result(res, scalar)
        mid = 0.5 * (a + b)
        fm = f(mid)
        hit = live & (np.abs(fm) < residual_tol)
        if np.count_nonzero(hit):
            np.copyto(res, mid, where=hit)
            live &= ~hit
        neg = np.sign(fm) * np.sign(flo) < 0.0
        np.copyto(b, mid, where=live & neg)
        np.copyto(fhi, fm, where=live & neg)
        moved = live & ~neg
        np.copyto(a, mid, where=moved)
        np.copyto(flo, fm, where=moved)
        width = b - a
        if not np.count_nonzero(width <= near):
            continue
        # np.spacing is math.ulp for these positive magnitudes
        shut = live & (width <= 4.0 * np.spacing(np.maximum(np.abs(a), np.abs(b))))
        if np.count_nonzero(shut):
            mid = 0.5 * (a + b)
            fm = f(mid)
            sign_change = (np.sign(flo) * np.sign(fhi) < 0.0) & ~np.isnan(fm)
            fail = shut & ~(np.abs(fm) < residual_tol) & ~sign_change
            if fail.any():
                i = int(np.argmax(fail))
                raise ConvergenceError(
                    f"bisection bracket collapsed at {mid[i]} with residual {fm[i]:.3g}"
                )
            np.copyto(res, mid, where=shut)
            live &= ~shut
    if live.any():
        raise ConvergenceError("bisection exceeded max iterations")
    return _result(res, scalar)


def bisect_boundary(
    pred: Callable,
    lo: float | np.ndarray,
    hi: float | np.ndarray,
    x_tol: float = 1e-12,
) -> float | np.ndarray:
    """Boundary of a monotone predicate per lane: smallest x in [lo, hi] with pred(x).

    Requires pred(hi) true. A lane where pred(lo) holds returns lo. The
    ends are asked on shape (L,) and the halvings on shape (m, L), column i
    holding lane i's points, so pred must broadcast over (m, L); see
    _halve_boundary.
    """
    scalar, lo, hi = _lanes(lo, hi)
    at_lo = np.asarray(pred(lo), dtype=bool)
    if at_lo.all():
        return _result(lo, scalar)
    bad = ~at_lo & ~np.asarray(pred(hi), dtype=bool)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConvergenceError(f"predicate false on all of [{lo[i]}, {hi[i]}]")
    return _result(_halve_boundary(pred, lo, np.where(at_lo, lo, hi), x_tol), scalar)


def _spec_steps(lanes: int) -> int:
    """How many steps of `lanes` lanes one speculative call covers: at least 1."""
    return max(1, _SPEC_LANES // max(lanes, 1))


def _speculate(call: Callable):
    """call(), or None if it raised a package error or warned.

    A caller that gets None redoes the same steps one per call, so that such
    an error or a warning can come only from a point the one-step loop
    visits, and with its message.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
        except MoralBargainError:
            return None
    return None if caught else out


def _halve_boundary(
    pred: Callable, a: np.ndarray, b: np.ndarray, x_tol: float, ends=None
) -> np.ndarray:
    """bisect_boundary's halving loop on lanes where pred(a) is false and
    pred(b) true (or a == b); returns b once every lane is at most x_tol
    wide or one float wide (its midpoint rounds onto an end), so an x_tol
    below the float spacing still ends.
    A caller that has already evaluated pred at both ends calls it directly.

    Each call of pred decides the next d halvings of every lane: it gets
    the midpoints of all 2^d - 1 brackets those halvings can reach, shape
    (2^d - 1, L) in level order (node j's halves are nodes 2j + 1, lower,
    and 2j + 2), each from the same 0.5 * (lo + hi) as one halving at a
    time. The walk then takes the lanes down the levels, so every lane
    visits the midpoints, and ends on the bits, of one halving per call.
    The 2^d - 1 points a lane fit _SPEC_LANES, and d spreads the halvings
    the widest lane still needs evenly over the fewest calls; a call of
    more than one point a lane that raises a package error or warns is
    redone with d = 1, and without a route, for the rest of the loop.

    With ends = (fa, fb), pred is a score whose decision is score <= 0, and
    fa, fb are its values at a and b. pred(x, j) then gets the points x,
    shape (m, n), of the live lanes j only, and returns their scores. Below
    the tree each lane's call also holds its route: the midpoints of the
    halvings it would take, down to the depth the widest lane needs, were
    the boundary at the regula-falsi point of the scores at its bracket
    ends. A lane walks on down the route while its decisions agree with
    the route's, and takes the first level where they differ as well, so a
    call decides at least the tree's d levels and, on a good guess, all of
    them. Each decision is still the score's sign at that halving's own
    midpoint; the scores at the new bracket ends aim the next route.
    """
    a, b = a.copy(), b.copy()
    live = (b - a) > x_tol
    scores = route = ends is not None
    if scores:
        fa, fb = (np.array(f, dtype=float) for f in ends)
    cap = (_spec_steps(a.size) + 1).bit_length() - 1  # the largest d with 2^d - 1 <= steps
    while np.count_nonzero(live):
        ratio = float(np.max((b - a)[live])) / x_tol if x_tol > 0.0 else math.inf
        need = math.ceil(math.log2(ratio)) if ratio < math.inf else cap
        depth = math.ceil(need / math.ceil(need / cap))
        levels = need if route else depth
        # a score is asked on its live lanes only, a predicate on every lane
        j = np.flatnonzero(live) if scores else np.arange(a.size)
        lo, hi, alive = a[j], b[j], live[j]
        mids = _midpoint_tree(lo, hi, depth)
        if levels > depth:
            path, guess = _route(lo, hi, fa[j], fb[j], levels)
            mids = np.concatenate([mids, path[depth:]])
        if scores:
            call = lambda: np.asarray(pred(mids, j), dtype=float)
        else:
            call = lambda: np.asarray(pred(mids), dtype=bool)
        got = call() if len(mids) == 1 else _speculate(call)
        if got is None:
            cap, route = 1, False
            continue
        hits = got <= 0.0 if scores else got
        if scores:
            flo, fhi = fa[j], fb[j]
        lo0, hi0 = lo.copy(), hi.copy()
        cols = np.arange(j.size)
        node = np.zeros(j.size, dtype=np.intp)
        agree = np.ones(j.size, dtype=bool)
        for k in range(levels):
            # the tree's levels move every live lane, the route's those still on it
            row = node if k < depth else 2**depth - 1 + k - depth
            move = alive if k < depth else alive & agree
            mid, hit = mids[row, cols], hits[row, cols]
            lower = move & hit
            np.copyto(hi, mid, where=lower)
            np.copyto(lo, mid, where=move ^ lower)
            if scores:
                np.copyto(fhi, got[row, cols], where=lower)
                np.copyto(flo, got[row, cols], where=move ^ lower)
            alive = alive & ((hi - lo) > x_tol)
            if levels > depth:
                agree &= hit == guess[k]
            node = 2 * node + 2 - hit
        # a lane the call left in place is one float wide: its midpoint
        # rounds onto an end, and every later call would ask that point again
        live[j] = alive & ((lo != lo0) | (hi != hi0))
        a[j], b[j] = lo, hi
        if scores:
            fa[j], fb[j] = flo, fhi
    return b


def _route(a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray, levels: int):
    """Midpoints and decisions, each shape (levels, L), of the first `levels`
    halvings of [a, b] were the boundary at the regula-falsi point of the
    scores fa at a and fb at b; each midpoint is 0.5 * (lo + hi), as in a
    halving. A NaN guess sends every step up."""
    with np.errstate(all="ignore"):
        guess = a - fa * ((b - a) / (fb - fa))
    mids = np.empty((levels, a.size))
    hits = np.empty((levels, a.size), dtype=bool)
    lo, hi = a.copy(), b.copy()
    for k in range(levels):
        mid = 0.5 * (lo + hi)
        hit = mid >= guess
        mids[k], hits[k] = mid, hit
        np.copyto(hi, mid, where=hit)
        np.copyto(lo, mid, where=~hit)
    return mids, hits


def _midpoint_tree(a: np.ndarray, b: np.ndarray, depth: int) -> np.ndarray:
    """Midpoints of the brackets of the next `depth` halvings, shape (2^depth - 1, L), level order.

    Level k's brackets are the neighbours in `ends`, all bracket ends after
    k halvings in order; each level's midpoints interleave into the next.
    """
    ends = np.stack([a, b])
    levels = []
    for _ in range(depth):
        mid = 0.5 * (ends[:-1] + ends[1:])
        levels.append(mid)
        grown = np.empty((2 * len(ends) - 1, a.size))
        grown[0::2], grown[1::2] = ends, mid
        ends = grown
    return np.concatenate(levels)
