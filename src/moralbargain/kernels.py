"""Hot grid kernels of the brute-force oracle and the equilibrium verifier.

Both return the first maximal cell in C order of (i, j), as a full-grid
scan would: the lowest x1 index, then the lowest x2 index.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def _check_axes(x1s, x2s, kernel: str) -> None:
    """Both kernels read the x1 >= x2 indicator off searchsorted, so x2s must
    be ascending and neither axis may hold a NaN."""
    if np.isnan(x1s).any() or np.isnan(x2s).any() or np.any(x2s[1:] < x2s[:-1]):
        raise ValidationError(f"{kernel} needs NaN-free axes with x2s sorted ascending")


def grid_argmax(a, b, c, x1s, x2s):
    """Argmax of u[i,j] = a[i] + b[j] + c[i]*1{x1s[i] >= x2s[j]}, summed left to right.

    Ties break to the lowest x1, then lowest x2 (C-order first hit).
    Returns (i, j, u_max). With x2s ascending, row i is on (c[i] added)
    for j < r[i] = #{x2s <= x1s[i]} and off after. fl(x + y) never falls
    as y rises, so for finite terms the row maximum is the larger of
    (a[i] + max b[:r]) + c[i] and a[i] + max b[r:], an empty run reading
    -inf: O(n) in all, and only the first row that reaches the overall
    maximum is scored cell by cell, as the full grid scores it.
    """
    _check_axes(x1s, x2s, "grid_argmax")
    r = np.searchsorted(x2s, x1s, "right")
    pre = np.concatenate(([-np.inf], np.maximum.accumulate(b)))  # pre[k] = max b[:k]
    suf = np.concatenate((np.maximum.accumulate(b[::-1])[::-1], [-np.inf]))  # suf[k] = max b[k:]
    i = int(np.argmax(np.maximum((a + pre[r]) + c, a + suf[r])))
    row = a[i] + b + np.where(x1s[i] >= x2s, c[i], 0.0)
    j = int(np.argmax(row))
    return i, j, float(row[j])


def deviation_best(pa, racc, c, x1s, x2s, y1, y2):
    """Best unilateral deviation against each of P fixed opponents (y1[p], y2[p]).

    u[p,i,j] = pa[i]*1{x1s[i] >= y2[p]} + racc[p]*1{y1[p] >= x2s[j]}
               + c[i]*1{x1s[i] >= x2s[j]}, summed left to right.
    With x2s ascending, both j-indicators switch off once, so each row is
    at most three runs of equal value: both terms on, one on, neither.
    Scoring the runs in increasing j and keeping a run only if it beats
    the best so far strictly gives the first hit of the full (i, j) grid
    in O(n) per row. Returns arrays (u_max, i, j) of length P.
    """
    _check_axes(x1s, x2s, "deviation_best")
    racc = np.asarray(racc, dtype=float)[:, None]
    prop = np.where(x1s >= np.asarray(y2, dtype=float)[:, None], pa, 0.0)
    r1 = np.searchsorted(x2s, y1, "right")[:, None]  # responder term on for j < r1
    r2 = np.searchsorted(x2s, x1s, "right")  # c term on for j < r2[i]
    lo = np.minimum(r1, r2)
    hi = np.maximum(r1, r2)
    both = (prop + racc) + c
    one = np.where(r1 < r2, (prop + 0.0) + c, (prop + racc) + 0.0)
    neither = (prop + 0.0) + 0.0
    u = np.full(prop.shape, -np.inf)
    j = np.zeros(prop.shape, dtype=np.intp)
    for start, stop, val in ((0, lo, both), (lo, hi, one), (hi, len(x2s), neither)):
        take = (stop > start) & (val > u)
        u = np.where(take, val, u)
        j = np.where(take, start, j)
    i = np.argmax(u, axis=1)
    lanes = np.arange(len(i))
    return u[lanes, i], i, j[lanes, i]
