"""Hot grid kernels of the brute-force oracle and the equilibrium verifier.

Both return the first maximal cell in C order of (i, j), as a full-grid
scan would: the lowest x1 index, then the lowest x2 index.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def grid_argmax(a, b, c, x1s, x2s):
    """Argmax of u[i,j] = a[i] + b[j] + c[i]*1{x1s[i] >= x2s[j]}.

    Ties break to the lowest x1, then lowest x2 (C-order first hit).
    Returns (i, j, u_max).
    """
    ind = x1s[:, None] >= x2s[None, :]
    u = a[:, None] + b[None, :] + np.where(ind, c[:, None], 0.0)
    k = int(np.argmax(u))
    i, j = divmod(k, u.shape[1])
    return i, j, float(u[i, j])


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
    if np.any(x2s[1:] < x2s[:-1]):
        raise ValidationError("deviation_best needs x2s sorted ascending")
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
