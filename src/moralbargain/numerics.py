"""Scalar search primitives: coarse-scan bracketing, golden-section, bisection."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConvergenceError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_section_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-9,
) -> float:
    """Maximize f on [lo, hi]; assumes unimodality on the bracket.

    Returns the abscissa. Endpoints are compared against the interior
    optimum so boundary maxima are returned exactly.
    """
    if hi < lo:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    a, b = lo, hi
    h = b - a
    if h <= tol:
        mid = 0.5 * (a + b)
        return max((lo, hi, mid), key=f)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = f(c), f(d)
    n = int(math.ceil(math.log(tol / h) / math.log(_INVPHI))) if h > tol else 0
    for _ in range(n):
        if fc > fd:
            b, d, fd = d, c, fc
            h *= _INVPHI
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h *= _INVPHI
            d = a + _INVPHI * h
            fd = f(d)
    best, fbest = (c, fc) if fc > fd else (d, fd)
    # boundary maxima beat the interior probe if strictly better
    for cand in (lo, hi):
        fc2 = f(cand)
        if fc2 > fbest:
            best, fbest = cand, fc2
    return best


def scan_then_golden(
    f: Callable,
    lo: float,
    hi: float,
    n_scan: int = 200,
    tol: float = 1e-9,
) -> float:
    """Coarse n_scan-point scan to bracket the max, then golden-section refine.

    The scan is one call of f on the array of n_scan + 1 abscissae, so f
    must broadcast; the golden-section steps call it on Python floats.
    Ties in the coarse scan go to the lowest abscissa. A NaN anywhere in
    the scan is a ConvergenceError, not a silent pick.
    """
    if hi <= lo:
        return lo
    step = (hi - lo) / n_scan
    vals = f(lo + np.arange(n_scan + 1) * step)
    k = int(np.argmax(vals))
    if math.isnan(vals[k]):
        raise ConvergenceError(f"objective is NaN on the scan of [{lo}, {hi}]")
    a = lo + max(0, k - 1) * step
    b = lo + min(n_scan, k + 1) * step
    return golden_section_max(f, a, b, tol=tol)


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    residual_tol: float = 1e-10,
    max_iter: int = 500,
) -> float:
    """Find a sign change of f on [lo, hi] by bisection.

    Stops when |f(mid)| < residual_tol; raises ConvergenceError if the
    bracket collapses to machine width first.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ConvergenceError(f"no sign change on [{lo}, {hi}]: f={flo:.3g},{fhi:.3g}")
    a, b = lo, hi
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if abs(fm) < residual_tol:
            return mid
        if fm * flo < 0.0:
            b = mid
        else:
            a, flo = mid, fm
        if (b - a) <= 4.0 * math.ulp(max(abs(a), abs(b), 1.0)):
            mid = 0.5 * (a + b)
            if abs(f(mid)) < residual_tol:
                return mid
            raise ConvergenceError(
                f"bisection bracket collapsed at {mid} with residual {f(mid):.3g}"
            )
    raise ConvergenceError("bisection exceeded max iterations")


def bisect_boundary(
    pred: Callable[[float], bool],
    lo: float,
    hi: float,
    x_tol: float = 1e-12,
) -> float:
    """Boundary of a monotone predicate: smallest x in [lo, hi] with pred(x).

    Requires pred(hi) true. If pred(lo) holds, returns lo.
    """
    if pred(lo):
        return lo
    if not pred(hi):
        raise ConvergenceError(f"predicate false on all of [{lo}, {hi}]")
    a, b = lo, hi  # invariant: pred(a) false, pred(b) true
    while (b - a) > x_tol:
        mid = 0.5 * (a + b)
        if pred(mid):
            b = mid
        else:
            a = mid
    return b
