"""The benchmark's own computations, which the package's outputs are checked against.

Nothing here calls moralbargain. Every formula is written out again from
the model's definitions with numpy and the standard library: the payoff
curves, integer-shape Beta beliefs, the responder tail integrals, a grid
maximiser of the veil expected utility, the ex-post best-response check
of the Nash verifier, the dictator objective, and the constant-error and
logit mixture likelihoods.
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# payoff curves and beliefs


class Curve:
    """v(x) and v'(x) for 'crra' (x^(1-rho)/(1-rho)) and 'shifted_log' (ln(1+x))."""

    def __init__(self, kind: str, rho: float | None = None):
        if kind not in ("crra", "shifted_log"):
            raise ValueError(f"unsupported curve {kind!r}")
        self.kind = kind
        self.rho = rho

    def v(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "crra":
            e = 1.0 - self.rho
            return np.power(x, e) / e
        return np.log1p(x)

    def dv(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "crra":
            with np.errstate(divide="ignore"):
                return np.power(x, -self.rho)
        return 1.0 / (1.0 + x)


class IntBeta:
    """Beta(a, b) with integer shapes, scaled to [0, w/2]."""

    def __init__(self, a: int, b: int, w: float):
        if a != int(a) or b != int(b) or a < 1 or b < 1:
            raise ValueError("only integer Beta shapes are written out here")
        self.a, self.b, self.half = int(a), int(b), 0.5 * w
        self._norm = math.gamma(a + b) / (math.gamma(a) * math.gamma(b))

    def cdf(self, x):
        # I_u(a, b) = sum_{j=a}^{a+b-1} C(a+b-1, j) u^j (1-u)^(a+b-1-j)
        u = np.clip(np.asarray(x, dtype=float) / self.half, 0.0, 1.0)
        n = self.a + self.b - 1
        return sum(math.comb(n, j) * u**j * (1.0 - u) ** (n - j) for j in range(self.a, n + 1))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        u = np.clip(x / self.half, 0.0, 1.0)
        dens = self._norm * u ** (self.a - 1) * (1.0 - u) ** (self.b - 1) / self.half
        return np.where((x >= 0.0) & (x <= self.half), dens, 0.0)


# ---------------------------------------------------------------------------
# ultimatum game under the veil


class UltimatumModel:
    """Veil expected utility with tail integrals from a fine trapezoid table.

    u(x1, x2) = (1-k) v(w-x1) F(x1) + (1-k+a) I1(x2) - a I2(x2)
                + k [v(w-x1) + v(x1)] 1{x1 >= x2},
    I1(t) = int_t^{w/2} v(y) f(y) dy and I2(t) = int_t^{w/2} v(w-y) f(y) dy.
    """

    def __init__(self, curve: Curve, thresholds: IntBeta, offers: IntBeta, w: float,
                 n_fine: int = 400_001):
        self.curve, self.thresholds, self.w = curve, thresholds, w
        half = 0.5 * w
        grid = np.linspace(0.0, half, n_fine)
        dens = offers.pdf(grid)
        self._grid = grid
        self._tail1 = _tail_trapezoid(curve.v(grid) * dens, grid)
        self._tail2 = _tail_trapezoid(curve.v(w - grid) * dens, grid)

    def tails(self, t):
        t = np.asarray(t, dtype=float)
        return (np.interp(t, self._grid, self._tail1, right=0.0),
                np.interp(t, self._grid, self._tail2, right=0.0))

    def utility(self, alpha: float, kappa: float, x1, x2):
        v = self.curve.v
        w = self.w
        x1 = np.asarray(x1, dtype=float)
        i1, i2 = self.tails(x2)
        u = (1.0 - kappa) * v(w - x1) * self.thresholds.cdf(x1)
        u = u + (1.0 - kappa + alpha) * i1 - alpha * i2
        return u + np.where(x1 >= x2, kappa * (v(w - x1) + v(x1)), 0.0)

    def grid_argmax(self, alpha: float, kappa: float, n: int):
        """Best (x1, x2) on the (n+1)^2 lattice over [0, w]^2; first hit in C order."""
        w, v = self.w, self.curve.v
        xs = np.linspace(0.0, w, n + 1)
        a = (1.0 - kappa) * v(w - xs) * self.thresholds.cdf(xs)
        i1, i2 = self.tails(xs)
        b = (1.0 - kappa + alpha) * i1 - alpha * i2
        c = kappa * (v(w - xs) + v(xs))
        u = a[:, None] + b[None, :] + np.where(xs[:, None] >= xs[None, :], c[:, None], 0.0)
        i, j = divmod(int(np.argmax(u)), n + 1)
        return float(xs[i]), float(xs[j]), float(u[i, j])

    def alpha_bar(self, n: int = 500_001) -> float:
        """v(x_s) / (v(w - x_s) - v(x_s)) with x_s the dense-grid argmax of v(w-x) F(x)."""
        w, v = self.w, self.curve.v
        xs = np.linspace(0.0, 0.5 * w, n)
        x_s = float(xs[int(np.argmax(v(w - xs) * self.thresholds.cdf(xs)))])
        return float(v(x_s) / (v(w - x_s) - v(x_s)))

    def threshold_residual(self, alpha: float, kappa: float, x: float) -> float:
        v = self.curve.v
        return abs(float((1.0 + alpha - kappa) * v(x) - alpha * v(self.w - x)))


def _tail_trapezoid(vals: np.ndarray, grid: np.ndarray) -> np.ndarray:
    steps = 0.5 * (vals[1:] + vals[:-1]) * np.diff(grid)
    cum = np.concatenate([[0.0], np.cumsum(steps)])
    return cum[-1] - cum


# ---------------------------------------------------------------------------
# complete-information Nash verifier


def nash_gain(curve: Curve, w: float, kappa: float, alpha: float, y: float, n: int = 400) -> float:
    """Largest ex-post gain of a lattice deviation (x1, x2) against the profile (y, y).

    Own payoff: the own proposal x1 is accepted iff x1 >= y; the opponent's
    offer y is accepted iff y >= x2; the universalization term applies iff
    x1 >= x2. Each accepted split scores (1-k) v(own) - a max(v(other) - v(own), 0).
    """
    v = curve.v
    axis = np.linspace(0.0, w, n + 1)
    keep, give = v(w - axis), v(axis)
    prop = (1.0 - kappa) * keep - alpha * np.maximum(give - keep, 0.0)
    own_y, oth_y = float(v(y)), float(v(w - y))
    resp = (1.0 - kappa) * own_y - alpha * max(oth_y - own_y, 0.0)
    univ = kappa * (keep + give)
    u = (np.where(axis >= y, prop, 0.0)[:, None]
         + np.where(y >= axis, resp, 0.0)[None, :]
         + np.where(axis[:, None] >= axis[None, :], univ[:, None], 0.0))
    keep_y = float(v(w - y))
    current = ((1.0 - kappa) * keep_y - alpha * max(own_y - keep_y, 0.0)) + resp + kappa * (keep_y + own_y)
    return float(u.max()) - current


# ---------------------------------------------------------------------------
# dictator game


def dg_objective(curve: Curve, w: float, alpha: float, beta: float, kappa: float, x):
    """Half-weighted dictator objective at transfer x."""
    keep, give = curve.v(w - np.asarray(x, dtype=float)), curve.v(x)
    return 0.5 * ((1.0 - kappa) * keep - alpha * np.maximum(give - keep, 0.0)
                  - beta * np.maximum(keep - give, 0.0) + kappa * (keep + give))


# ---------------------------------------------------------------------------
# mixture likelihoods


def veil_utilities(game, curve: Curve, alpha: float, beta: float, kappa: float) -> np.ndarray:
    """Utility of the four pure veil strategies of a binary game, indexed [a, b].

    Each role has weight 1/2 and faces the opponent mix in the game's
    beliefs; the universalization term scores the strategy against itself.
    """
    pa = np.asarray(game.payoff_a, dtype=float)
    pb = np.asarray(game.payoff_b, dtype=float)
    v = curve.v

    def social(own, other):
        vo, vt = float(v(own)), float(v(other))
        return (1.0 - kappa) * vo - alpha * max(vt - vo, 0.0) - beta * max(vo - vt, 0.0)

    probs_a = (game.belief_a, 1.0 - game.belief_a)
    probs_b = (game.belief_b, 1.0 - game.belief_b)
    u = np.zeros((2, 2))
    for a in (0, 1):
        for b in (0, 1):
            total = 0.0
            for opp in (0, 1):
                total += 0.5 * probs_a[opp] * social(pa[a, opp, 0], pa[a, opp, 1])
                total += 0.5 * probs_b[opp] * social(pb[b, opp, 0], pb[b, opp, 1])
            total += 0.5 * kappa * (float(v(pa[a, b, 0])) + float(v(pb[b, a, 0])))
            u[a, b] = total
    return u


def pattern_and_margin(games, curve: Curve, t: dict):
    """Preferred action (0, 1, or 2 for a tie) and margin U(1) - U(0) per game and role.

    The other role's action is held at the joint argmax of the four strategies.
    """
    pattern = np.zeros((len(games), 2), dtype=int)
    margin = np.zeros((len(games), 2))
    for g, game in enumerate(games):
        u = veil_utilities(game, curve, t["alpha"], t["beta"], t["kappa"])
        a_star, b_star = divmod(int(np.argmax(u.ravel())), 2)
        margin[g] = (u[1, b_star] - u[0, b_star], u[a_star, 1] - u[a_star, 0])
        for r in (0, 1):
            pattern[g, r] = 2 if abs(margin[g, r]) <= 1e-12 else int(margin[g, r] > 0)
    return pattern, margin


def _log_expit(z):
    z = np.asarray(z, dtype=float)
    return np.where(z >= 0.0, -np.log1p(np.exp(-np.abs(z))), z - np.log1p(np.exp(-np.abs(z))))


def subject_loglik(counts: np.ndarray, games, curve: Curve, t: dict, model: str) -> np.ndarray:
    """Per-subject log-likelihood of one type; counts is (N, G, role, action)."""
    pattern, margin = pattern_and_margin(games, curve, t)
    lam = t["lambda"]
    if model == "constant":
        out = np.zeros(counts.shape[0])
        for g in range(len(games)):
            for r in (0, 1):
                c0, c1 = counts[:, g, r, 0], counts[:, g, r, 1]
                if pattern[g, r] == 2:
                    out += (c0 + c1) * math.log(0.5)
                else:
                    match = c1 if pattern[g, r] == 1 else c0
                    miss = c0 if pattern[g, r] == 1 else c1
                    out += match * math.log1p(-0.5 * lam) + miss * math.log(0.5 * lam)
        return out
    z = margin / lam
    return (counts[..., 1] * _log_expit(z)[None]).sum(axis=(1, 2)) + (
        counts[..., 0] * _log_expit(-z)[None]).sum(axis=(1, 2))


def mixture_loglik(counts, games, curve: Curve, types, model: str):
    """(log-likelihood, classification entropy) of a fitted mixture."""
    cols = [subject_loglik(counts, games, curve, t, model) + math.log(t["share"]) for t in types]
    joint = np.column_stack(cols)
    top = joint.max(axis=1, keepdims=True)
    norm = top[:, 0] + np.log(np.exp(joint - top).sum(axis=1))
    tau = np.exp(joint - norm[:, None])
    en = -float(np.sum(np.where(tau > 0.0, tau * np.log(np.where(tau > 0.0, tau, 1.0)), 0.0)))
    return float(norm.sum()), en
