"""Finite-mixture estimation of behavioral types from binary veil-of-ignorance
choices: EM with a lattice M-step, classification diagnostics (EN, ICL, NEC),
bootstrap standard errors, and the mapping from types to predicted behavior.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.sparse import csr_array
from scipy.special import log_expit

from .curves import PayoffCurve
from .errors import ConvergenceError, ValidationError
from .params import (
    ALPHA_BOUNDS,
    BETA_BOUNDS,
    ESTIMATION_ENDOWMENT,
    KAPPA_BOUNDS,
    LAMBDA_BOUNDS,
    LATTICE_STEP_BOUNDS,
    PreferenceParams,
    validate_endowment,
)
from .solver import constrained_threshold
from .utility import dg_transfer

ROLES = ("P", "R")
CHOICE_MODELS = ("constant", "logit")

_TIE_TOL = 1e-12
_NEC_RTOL = 16 * np.finfo(float).eps
_LOGIT_LAM_GRID = np.array([0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 0.99])
# Most lattice points per _structure call while a lattice is built
_BUILD_ROWS = 8192


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True)
class BinaryGame:
    """Two-action game played in both roles behind the veil.

    payoff_a[a][b] is the (own, other) point pair when holding role A and
    playing a against a role-B opponent playing b; payoff_b[b][a] mirrors it
    for role B. belief_a / belief_b give the probability that the opponent
    picks their first action, per own role.
    """

    game_id: str
    payoff_a: tuple
    payoff_b: tuple
    belief_a: float = 0.5
    belief_b: float = 0.5

    def __post_init__(self):
        for table in (self.payoff_a, self.payoff_b):
            if len(table) != 2 or any(len(row) != 2 for row in table):
                raise ValidationError(f"game {self.game_id}: payoff table must be 2x2")
            for row in table:
                for cell in row:
                    if len(cell) != 2 or min(cell) < 0:
                        raise ValidationError(
                            f"game {self.game_id}: payoffs must be (own, other) pairs >= 0"
                        )
        for b in (self.belief_a, self.belief_b):
            if not 0.0 <= b <= 1.0:
                raise ValidationError(f"game {self.game_id}: beliefs must lie in [0, 1]")

    @classmethod
    def mini_ug(
        cls,
        unequal: tuple,
        equal: tuple = (50.0, 50.0),
        punish: tuple = (10.0, 10.0),
        game_id: str | None = None,
    ) -> "BinaryGame":
        """Mini ultimatum game: equal vs unequal proposal; punishment hits the
        unequal proposal only (action 1 in both roles)."""
        u_own, u_oth = float(unequal[0]), float(unequal[1])
        eq = (float(equal[0]), float(equal[1]))
        pu = (float(punish[0]), float(punish[1]))
        gid = game_id or f"mini-ug-{int(u_own)}-{int(u_oth)}"
        payoff_a = ((eq, eq), ((u_own, u_oth), pu))
        payoff_b = (((eq[1], eq[0]), (u_oth, u_own)), ((eq[1], eq[0]), (pu[1], pu[0])))
        return cls(gid, payoff_a, payoff_b)


def default_games() -> tuple[BinaryGame, ...]:
    """The six built-in mini ultimatum games: (50,50) vs (60,40)...(85,15)."""
    splits = ((60, 40), (65, 35), (70, 30), (75, 25), (80, 20), (85, 15))
    return tuple(BinaryGame.mini_ug(s) for s in splits)


@dataclass(frozen=True)
class ChoiceRecord:
    subject_id: str
    game_id: str
    role: str
    action: int

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValidationError(f"role must be one of {ROLES}, got {self.role!r}")
        if self.action not in (0, 1):
            raise ValidationError(f"action must be 0 or 1, got {self.action!r}")


@dataclass(frozen=True)
class MixtureFit:
    k: int
    params: tuple[PreferenceParams, ...]
    shares: tuple[float, ...]
    posterior: np.ndarray
    loglik: float
    en: float
    icl: float
    nec: float | None
    n_subjects: int
    n_records: int
    choice_model: str
    n_iter: int
    flags: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# utilities of pure veil strategies


def game_coefficients(game: BinaryGame, curve: PayoffCurve) -> np.ndarray:
    """Per-strategy utility coefficients: U(a,b) = c0 + kappa c1 + alpha c2 + beta c3.

    Utilities are linear in (kappa, alpha, beta) once the curve values of the
    payoff cells are fixed, which the lattice M-step exploits.
    """
    out = np.zeros((2, 2, 4))
    pa = np.asarray(game.payoff_a, dtype=float)
    pb = np.asarray(game.payoff_b, dtype=float)
    prob_a = (game.belief_a, 1.0 - game.belief_a)
    prob_b = (game.belief_b, 1.0 - game.belief_b)
    for a in (0, 1):
        for b in (0, 1):
            c = np.zeros(4)
            for table, own_act, probs in ((pa, a, prob_a), (pb, b, prob_b)):
                for opp in (0, 1):
                    v_own = curve.value(table[own_act, opp, 0])
                    v_oth = curve.value(table[own_act, opp, 1])
                    c[0] += 0.5 * probs[opp] * v_own
                    c[1] -= 0.5 * probs[opp] * v_own
                    c[2] -= 0.5 * probs[opp] * max(v_oth - v_own, 0.0)
                    c[3] -= 0.5 * probs[opp] * max(v_own - v_oth, 0.0)
            # universalization: everyone plays (a, b), so role A faces b and role B faces a
            c[1] += 0.5 * (curve.value(pa[a, b, 0]) + curve.value(pb[b, a, 0]))
            out[a, b] = c
    return out


def _basis(p: PreferenceParams) -> np.ndarray:
    return np.array([1.0, p.kappa, p.alpha, p.beta])


def strategy_utilities(p: PreferenceParams, curve: PayoffCurve, game: BinaryGame) -> np.ndarray:
    """Expected utility of the four pure veil strategies, indexed [a, b].

    Each role carries weight 1/2; opponent play follows the game's beliefs;
    the universalization term evaluates the strategy against itself.
    """
    return game_coefficients(game, curve) @ _basis(p)


def _structure(coeffs: np.ndarray, theta: np.ndarray):
    """Preferred patterns and margins per point, game and role.

    coeffs stacks one game_coefficients table per game; theta holds
    (alpha, beta, kappa) rows. The off-role action is pinned at the joint
    argmax, so each entry reduces to a binary comparison between the two
    veil strategies that differ in that role's action alone. Margin =
    U(action 1) - U(action 0); the pattern is the preferred action, or 2
    for a tie. Both come out with shape (T, G, 2).
    """
    basis = np.column_stack([np.ones(len(theta)), theta[:, 2], theta[:, 0], theta[:, 1]])
    u = np.einsum("gabc,tc->tgab", coeffs, basis)
    joint = u.reshape(len(theta), len(coeffs), 4).argmax(axis=2)
    # u at the joint argmax's b (over a) and at its a (over b); a
    # two-way select is exact and cheaper than a gather
    u_b = np.where((joint % 2 == 1)[..., None], u[..., 1], u[..., 0])
    d_p = u_b[:, :, 1] - u_b[:, :, 0]
    u_a = np.where((joint // 2 == 1)[..., None], u[:, :, 1], u[:, :, 0])
    d_r = u_a[:, :, 1] - u_a[:, :, 0]
    margins = np.stack([d_p, d_r], axis=2)
    patterns = np.where(np.abs(margins) <= _TIE_TOL, 2, (margins > 0).astype(np.int8))
    return patterns.astype(np.int8), margins


def _theta_of(params) -> np.ndarray:
    return np.array([[p.alpha, p.beta, p.kappa] for p in params])


def preferred_pattern(p: PreferenceParams, curve: PayoffCurve, games) -> np.ndarray:
    """Per-game, per-role preferred action (0, 1, or 2 for a tie)."""
    coeffs = np.stack([game_coefficients(g, curve) for g in games])
    return _structure(coeffs, _theta_of([p]))[0][0]


# ---------------------------------------------------------------------------
# data encoding


def _games_by_id(games) -> dict[str, int]:
    ids = [g.game_id for g in games]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate game ids")
    return {gid: i for i, gid in enumerate(ids)}


def _encode(data, games) -> np.ndarray:
    """Records -> count tensor (N, G, 2 roles, 2 actions), subjects in id order."""
    gmap = _games_by_id(games)
    subjects = sorted({r.subject_id for r in data})
    if not subjects:
        raise ValidationError("no choice records")
    smap = {sid: i for i, sid in enumerate(subjects)}
    cnt = np.zeros((len(subjects), len(games), 2, 2), dtype=np.int64)
    for r in data:
        if r.game_id not in gmap:
            raise ValidationError(f"record references unknown game {r.game_id!r}")
        cnt[smap[r.subject_id], gmap[r.game_id], ROLES.index(r.role), r.action] += 1
    return cnt


def _match_tie(patterns: np.ndarray, counts: np.ndarray):
    """Matched and tied action weight of counts under preferred patterns.

    patterns (..., G, 2) and counts (..., G, 2, 2) broadcast over their
    leading axes: (T, G, 2) patterns against one table in the M-step,
    (K, 1, G, 2) patterns against (N, G, 2, 2) subject counts in the E-step.
    Both weights are copied into one C-contiguous (G * 2, 2, ...) array,
    (game, role) entries on its leading axis, which np.add.reduce(axis=0)
    adds one row at a time: one game and role at a time, games outer, so
    every leading shape gets the same bits. (Along a contiguous axis numpy
    would sum in unrolled partial sums instead.)
    """
    c0, c1 = counts[..., 0], counts[..., 1]
    tied = patterns == 2
    matched = np.where(tied, 0.0, np.where(patterns == 1, c1, c0))
    ties = np.where(tied, c0 + c1, 0.0)
    g2 = 2 * matched.shape[-2]
    rows = np.empty((g2, 2, matched.size // g2))
    rows[:, 0] = matched.reshape(-1, g2).T
    rows[:, 1] = ties.reshape(-1, g2).T
    acc = np.add.reduce(rows, axis=0).reshape(2, *matched.shape[:-2])
    return acc[0], acc[1]


def _loglik_matrix(cnt, params, coeffs, choice_model, patterns=None):
    """Per-subject log-likelihood column for each type.

    Under the constant model, patterns may give the types' (G, 2) pattern
    rows, as the M-steps that picked them kept them; otherwise one
    _structure call computes them. Under logit the columns read margins.
    """
    if choice_model == "constant":
        if patterns is None:
            patterns = _structure(coeffs, _theta_of(params))[0]
        matched, tied = _match_tie(np.stack(patterns)[:, None], cnt)
        missed = cnt.sum(axis=(1, 2, 3)) - matched - tied
        cols = [
            m * math.log1p(-0.5 * p.lam) + d * math.log(0.5 * p.lam) + t * math.log(0.5)
            for p, m, d, t in zip(params, matched, missed, tied)
        ]
    else:
        cols = []
        for p, margin in zip(params, _structure(coeffs, _theta_of(params))[1]):
            z = margin / p.lam
            lp1 = log_expit(z)
            lp0 = log_expit(-z)
            cols.append(
                np.einsum("ngr,gr->n", cnt[..., 1], lp1) + np.einsum("ngr,gr->n", cnt[..., 0], lp0)
            )
    return np.column_stack(cols)


def _log_normalizer(joint: np.ndarray) -> np.ndarray:
    """scipy.special.logsumexp(joint, axis=1), bit for bit, without its
    array-API wrapping.

    The operations of scipy 1.17.1's real, unweighted path, in its order:
    the row maximum a_max; the mask of entries equal to it, set to -inf;
    m, the mask's count; s, the row sum of exp(a - a_max), divided by m
    unless it is 0; then log1p(s) + log(m) + a_max. A row whose result is
    not finite (an all -inf or a NaN row) takes log(sum(exp(joint))).
    scipy's sign handling is left out: m >= 1 and s >= 0 here, so it
    changes nothing.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = np.log(np.exp(joint).sum(axis=1))
    a_max = joint.max(axis=1, keepdims=True)
    at_max = joint == a_max
    with np.errstate(divide="ignore", invalid="ignore"):
        m = at_max.sum(axis=1, dtype=float)
        s = np.exp(np.where(at_max, -np.inf, joint) - a_max).sum(axis=1)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max[:, 0]
    return np.where(np.isfinite(out), out, direct)


# ---------------------------------------------------------------------------
# lattice M-step


class _Lattice:
    """Coarse parameter lattice with per-point choice structure.

    Under the constant-error model the likelihood is piecewise constant in
    (alpha, beta, kappa) with lambda profiled in closed form, so a scan over
    the sign-flip cells plus local refinement is the exact-enough direct
    search; the logit model reuses the same candidate machinery with the
    temperature profiled over a grid and polished on the winners.

    The constant-error objective depends on a point only through its
    preferred pattern, and the lattice carries few distinct patterns
    (209 of 137,781 points on the nine-game design), so the coarse scan
    scores unique_patterns and gathers the result through pattern_id;
    members[starts[u]:starts[u + 1]] lists pattern u's points in index
    order. maximize draws its seeds from seed_pool. The refinement
    candidates of one seed triple (the seed points and their boxes, sorted
    and deduplicated, with each row's index into the pattern rows that
    score it) are built once per memo (see maximize), which also keeps them
    with the last incumbent placed in them until the incumbent moves
    (_refinement); each seed box's patterns are computed once per lattice
    and kept in _boxes as int8 rows and a small integer inverse. A type's
    pattern row is computed once, by the M-step that scores its pick, and
    the next E-step and M-step read it. The logit coarse scan scores the
    distinct margin values of each (game, role) column (103,443 values for
    2,480,058 entries on that design) and sums them into the points with
    one sparse row-sum matrix, both built on its first call (logit_table);
    its columns for the grid lams are kept for one weight table at a time
    (_coarse_columns).
    """

    def __init__(self, games, curve, step: float = 0.05):
        self.games = games
        self.coeffs = np.stack([game_coefficients(g, curve) for g in games])
        aa, bb, kk = np.meshgrid(
            _axis(*ALPHA_BOUNDS, step), _axis(*BETA_BOUNDS, step), _axis(*KAPPA_BOUNDS, step),
            indexing="ij",
        )
        self.theta = np.column_stack([aa.ravel(), bb.ravel(), kk.ravel()])
        self.step = step
        # _structure in row blocks: its (T, G, 2, 2) utility table and
        # selects stay small, and each row's pattern and margins come out
        # as from one call
        shape = (len(self.theta), len(games), 2)
        self.patterns, self.margins = np.empty(shape, dtype=np.int8), np.empty(shape)
        for r in range(0, len(self.theta), _BUILD_ROWS):
            rows = slice(r, r + _BUILD_ROWS)
            self.patterns[rows], self.margins[rows] = _structure(self.coeffs, self.theta[rows])
        first, pattern_id = _distinct_patterns(self.patterns)
        self.unique_patterns = self.patterns[first]
        counts = np.bincount(pattern_id)
        # a small integer dtype lets the stable sort run as a radix sort
        self.pattern_id = pattern_id.astype(np.min_scalar_type(len(counts) - 1))
        self.members = np.argsort(self.pattern_id, kind="stable").astype(np.int32)
        self.starts = np.concatenate([[0], np.cumsum(counts)])
        # each pattern's three lowest lattice indices, in index order: the
        # coarse top three always lie among them (see maximize)
        rank = np.arange(len(self.members)) - np.repeat(self.starts[:-1], counts)
        self.seed_pool = np.sort(self.members[rank < 3])
        # refinement box patterns by seed index: (distinct rows, inverse)
        self._boxes = {}
        # (weight table bytes, {grid lam: coarse logit column}); see _coarse_columns
        self._grid_slot = (None, {})

    def _objective_constant(self, patterns: np.ndarray, weights3: np.ndarray):
        """Profiled-lambda weighted log-likelihood for a block of patterns.

        weights3 is the (G, 2, 2) responsibility-weighted action count table.
        The inner maximizer is lambda* = 2D / (M + D), clipped to its box.
        """
        m, t = _match_tie(patterns, weights3)
        d = weights3.sum() - m - t
        lam = np.clip(2.0 * d / np.maximum(m + d, 1e-300), *LAMBDA_BOUNDS)
        obj = m * np.log1p(-0.5 * lam) + d * np.log(0.5 * lam) + t * math.log(0.5)
        return obj, lam

    @cached_property
    def logit_table(self):
        """_logit_table of the lattice margins, built on the first logit scan."""
        return _logit_table(self.margins)

    def _coarse_columns(self, weights3: np.ndarray, lams: list):
        """Logit objective columns over the lattice, one per lam in lams.

        The columns of the _LOGIT_LAM_GRID values come from a one-entry
        slot keyed by the weight table's bytes; another table replaces the
        entry. A one-type fit gets the same table from every E-step (each
        posterior is exactly 1), so its M-steps after the first score only
        the incumbent's lam.
        """
        key = weights3.tobytes()
        if self._grid_slot[0] != key:
            cols = _logit_columns(self.logit_table, weights3, _LOGIT_LAM_GRID)
            self._grid_slot = (key, dict(zip(_LOGIT_LAM_GRID.tolist(), cols)))
        grid = self._grid_slot[1]
        extra = _logit_columns(self.logit_table, weights3, [lam for lam in lams if lam not in grid])
        return (grid[lam] if lam in grid else next(extra) for lam in lams)

    def _score(self, theta, weights3, model, lam_grid):
        """(obj, lam, patterns) at each row of theta, points off the lattice
        (refinement candidates and the centroid); _coarse scores the lattice."""
        patterns, margins = _structure(self.coeffs, theta)
        if model == "constant":
            return (*self._objective_constant(patterns, weights3), patterns)
        cols = _logit_columns(_logit_table(margins), weights3, lam_grid)
        return (*_best_lam(cols, lam_grid, len(theta)), patterns)

    def _coarse(self, weights3, model, lam_grid):
        """Coarse scan as (obj, unit, pool): obj[unit] is the value at every
        lattice point, and pool holds the indices the seeds are drawn from.

        Under the constant model the units are unique_patterns and the pool
        is seed_pool; under logit every point is its own unit.
        """
        if model == "constant":
            obj, _ = self._objective_constant(self.unique_patterns, weights3)
            return obj, self.pattern_id, self.seed_pool
        # no name holds the columns: their generator's frame (the repeated
        # weights and the last z) is freed before the index array is built
        obj, _ = _best_lam(self._coarse_columns(weights3, lam_grid.tolist()), lam_grid,
                           len(self.theta))
        every = np.arange(len(self.theta))
        return obj, every, every

    def _candidates(self, seeds: np.ndarray, model: str):
        """Refinement candidates of one seed triple as (rows, patterns, ids).

        rows holds the seed points and their 0.01 boxes, deduplicated and in
        lexicographic order (_unique_rows, which keeps the first of equal
        rows). Under the constant model patterns stacks the seed patterns
        from the coarse table and each box's distinct patterns from _boxes,
        and patterns[ids] is the pattern table of rows, with ids in a small
        integer dtype; under logit both are None.
        """
        boxes = [_local_box(self.theta[idx], self.step, 0.01) for idx in seeds]
        cand = np.vstack([self.theta[seeds], *boxes])
        keep = _unique_rows(cand)
        if model != "constant":
            return cand[keep], None, None
        blocks = [(self.unique_patterns[self.pattern_id[seeds]], np.arange(len(seeds)))]
        for idx, box in zip(seeds.tolist(), boxes):
            if idx not in self._boxes:
                patterns = _structure(self.coeffs, box)[0]
                first, inverse = _distinct_patterns(patterns)
                small = inverse.astype(np.min_scalar_type(len(first) - 1))
                self._boxes[idx] = (patterns[first], small)
            blocks.append(self._boxes[idx])
        offsets = np.cumsum([0] + [len(rows) for rows, _ in blocks[:-1]])
        ids = np.concatenate([ids.astype(np.intp) + off for (_, ids), off in zip(blocks, offsets)])
        patterns = np.concatenate([rows for rows, _ in blocks])
        # the dtype also holds len(patterns), the incumbent's id in _refinement
        return cand[keep], patterns, ids[keep].astype(np.min_scalar_type(len(patterns)))

    def _refinement(self, seeds, current, weights3, model, lam_grid, memo, pattern=None):
        """(theta, obj, lam, patterns, ids) over the refinement candidates of
        seeds.

        theta holds the rows np.unique gives over the seed points, their
        boxes and the incumbent's (alpha, beta, kappa); obj and lam score
        them. Under the constant model patterns[ids] is theta's pattern
        table, and the objective is scored once per pattern row; under
        logit both are None. memo holds one entry per seed triple, keyed by
        (model, seeds) and built on a miss: the candidates, and the last
        incumbent's row with the candidates it was placed in. The incumbent
        joins them at its lexicographic place, or is dropped when it equals
        one, with its pattern row (pattern, or one _structure call when it
        is None); the placing is redone only when the incumbent's row
        differs from the entry's.
        """
        key = (model, *seeds.tolist())
        if key not in memo:
            memo[key] = [self._candidates(seeds, model), None, None]
        entry = memo[key]
        theta, patterns, ids = entry[0]
        if current is not None:
            row = np.array([current.alpha, current.beta, current.kappa])
            if entry[1] != row.tobytes():
                pos, present = _lex_place(theta, row)
                if not present:
                    theta = np.insert(theta, pos, row, axis=0)
                    if model == "constant":
                        if pattern is None:
                            pattern = _structure(self.coeffs, row[None])[0][0]
                        ids = np.insert(ids, pos, len(patterns))
                        patterns = np.concatenate([patterns, pattern[None]])
                entry[1:] = row.tobytes(), (theta, patterns, ids)
            theta, patterns, ids = entry[2]
        if model != "constant":
            obj, lam, _ = self._score(theta, weights3, model, lam_grid)
            return theta, obj, lam, None, None
        obj, lam = self._objective_constant(patterns, weights3)
        return theta, obj[ids], lam[ids], patterns, ids

    def maximize(
        self, weights3: np.ndarray, current: PreferenceParams | None, model: str, memo=None,
        pattern=None,
    ):
        """(params, objective, pattern): the best (alpha, beta, kappa,
        lambda) for one type's weighted counts.

        Coarse scan, local 0.01-step refinement around three coarse seeds,
        centroid-of-argmax reporting, and the incumbent parameters as a
        guaranteed candidate so EM ascent is preserved.

        The seeds are the three largest coarse values; among equal values,
        the lowest lattice indices (_top_three). The rule fixes the seeds on
        a plateau of tied points, where an unstable sort's order would
        depend on numpy's SIMD target. Each of those three points is among
        its own unit's three lowest indices, since its unit's lower indices
        tie with it and rank ahead; so _top_three over the index-sorted pool
        picks them from a few hundred values instead of every point.

        memo holds the refinement candidates by seed triple (see
        _refinement); the M-steps of one fit share one (see _em), and
        without it each call builds its own. Under the constant model,
        pattern may give the incumbent's (G, 2) pattern row, and the
        returned pattern is the pick's row as its scoring computed it, so
        the next E-step and M-step read it instead of computing it again
        (a row's pattern does not depend on the rows scored with it).
        Under logit the returned pattern is None.
        """
        lam_grid = _LOGIT_LAM_GRID
        if model == "logit" and current is not None:
            lam_grid = np.unique(np.append(lam_grid, current.lam))
        obj, unit, pool = self._coarse(weights3, model, lam_grid)
        seeds = pool[_top_three(obj[unit[pool]])]
        theta, obj_f, lam_f, patterns, ids = self._refinement(
            seeds, current, weights3, model, lam_grid, {} if memo is None else memo, pattern
        )
        best = obj_f.max()
        at_max = obj_f >= best - 1e-12
        # Argmax ties form a plateau under the constant-error model.  The
        # coarse lattice samples it uniformly, so its tied points give an
        # unbiased plateau centroid; refinement points cluster around the
        # top coarse cells and would drag the mean toward them.
        coarse_at_max = np.flatnonzero(obj >= best - 1e-12)
        if coarse_at_max.size:
            if model == "constant":  # obj holds one value per pattern
                coarse_at_max = np.sort(np.concatenate(
                    [self.members[self.starts[u]:self.starts[u + 1]] for u in coarse_at_max]
                ))
            centroid = self.theta[coarse_at_max].mean(axis=0)[None, :]
        else:
            centroid = theta[at_max].mean(axis=0)[None, :]
        c_obj, c_lam, c_patterns = self._score(centroid, weights3, model, lam_grid)
        if c_obj[0] >= best - 1e-12:
            pick, pick_lam, best, pattern = centroid[0], c_lam[0], c_obj[0], c_patterns[0]
        else:
            first = int(np.argmax(at_max))
            pick, pick_lam = theta[first], lam_f[first]
            pattern = None if ids is None else patterns[ids[first]]
        if model == "logit":
            pick_lam, best = _polish_logit_lam(
                self, pick, weights3, float(pick_lam), float(best)
            )
            pattern = None
        p = PreferenceParams(
            alpha=float(pick[0]), beta=float(pick[1]), kappa=float(pick[2]), lam=float(pick_lam)
        )
        return p, float(best), pattern


def _top_three(obj: np.ndarray) -> np.ndarray:
    """Indices of the three largest values; among equal values, the lowest.

    The set np.argsort(-obj, kind="stable")[:3] picks, in O(n): a partition
    finds the third-largest value and only the entries at or above it are
    sorted. obj holds at least three values (a coarse lattice).
    """
    cut = np.partition(obj, len(obj) - 3)[len(obj) - 3]
    at_or_above = np.flatnonzero(obj >= cut)
    return at_or_above[np.argsort(-obj[at_or_above], kind="stable")[:3]]


def _logit_table(margins: np.ndarray):
    """(values, sizes, rows) for a (T, G, 2) margin table.

    Each (g, r) column is deduplicated on its own: its sorted distinct
    values form one block of sizes[c] values, blocks in (g, r) order. A
    value shared by two columns is stored twice (103,443 values against
    103,431 for one np.unique over the nine-game lattice), but sorting T
    values per column takes about half the time of sorting the whole
    table. rows is the (T, len(values)) CSR matrix with a one at each of a
    point's G * 2 values, stored in (g, r) order, so for x over values,
    rows @ x sums x over each point's entries (see _logit_columns).
    """
    flat = margins.reshape(len(margins), -1)
    index = np.empty(flat.shape, dtype=np.int32)
    blocks, offset = [], 0
    for col in range(flat.shape[1]):
        values, inverse = np.unique(flat[:, col], return_inverse=True)
        index[:, col] = inverse + offset
        blocks.append(values)
        offset += len(values)
    indptr = np.arange(0, index.size + 1, flat.shape[1], dtype=np.int32)
    rows = csr_array((np.ones(index.size), index.reshape(-1), indptr), shape=(len(flat), offset))
    return np.concatenate(blocks), np.array([len(b) for b in blocks]), rows


def _logit_columns(table, weights3: np.ndarray, lams):
    """Weighted logit log-likelihood of every row of a _logit_table, one
    column per lam, computed as each is drawn.

    The weight of each (g, r) column is repeated over its block of values,
    so a point's objective is rows @ (w1 * log_expit(z)) + rows @ (w0 *
    log_expit(-z)) with z = values / lam. Each product is the one a
    per-entry sum forms, times the stored 1.0, and a CSR row sum adds its
    stored entries in order from 0, as the per-entry einsum over (g, r)
    does; so the bits are those of scoring every entry. Nothing may sort,
    merge or drop the stored entries.
    """
    values, sizes, rows = table
    wv1, wv0 = (np.repeat(weights3[:, :, a].ravel(), sizes) for a in (1, 0))
    for lam in lams:
        z = values / lam
        yield rows @ (wv1 * log_expit(z)) + rows @ (wv0 * log_expit(-z))


def _best_lam(columns, lams, n: int):
    """(obj, lam) for n rows: the largest of the columns, drawn in lams
    order; a later lam wins only by a strictly larger value."""
    best_obj = np.full(n, -np.inf)
    best_lam = np.full(n, lams[0])
    for lam, obj in zip(lams, columns):
        improved = obj > best_obj
        best_obj = np.where(improved, obj, best_obj)
        best_lam = np.where(improved, lam, best_lam)
    return best_obj, best_lam


def _unique_rows(theta: np.ndarray) -> np.ndarray:
    """Selection with theta[sel] == np.unique(theta, axis=0) for an (n, 3)
    float array, by one lexsort.

    Rows come out in the same lexicographic order (column 0 first), which
    maximize's first-tied-candidate pick relies on.
    """
    order = np.lexsort(theta.T[::-1])
    rows = theta[order]
    keep = np.empty(len(rows), dtype=bool)
    keep[:1] = True
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return order[keep]


def _lex_place(rows: np.ndarray, row: np.ndarray):
    """(position, present) of row among the distinct rows of an (n, 3)
    array in lexicographic order: the number of rows that sort before it,
    and whether one equals it."""
    before = rows[:, 0] < row[0]
    tie = rows[:, 0] == row[0]
    for col in (1, 2):
        before |= tie & (rows[:, col] < row[col])
        tie &= rows[:, col] == row[col]
    return int(np.count_nonzero(before)), bool(tie.any())


def _distinct_patterns(patterns: np.ndarray):
    """(first, inverse): patterns[first] holds the distinct (G, 2) rows and
    patterns[first][inverse] == patterns."""
    # one void scalar per int8 pattern row; np.unique(axis=0) takes ~30x as long
    flat = patterns.reshape(len(patterns), -1)
    rows = flat.view(np.dtype((np.void, flat.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return first, inverse


def _polish_logit_lam(lattice, theta, weights3, lam0, obj0):
    """Golden refinement of the logit temperature at a fixed lattice point."""
    from scipy.optimize import minimize_scalar

    _, margins = _structure(lattice.coeffs, theta[None, :])
    w1, w0 = weights3[:, :, 1], weights3[:, :, 0]

    def neg(lam):
        z = margins[0] / lam
        return -(np.sum(log_expit(z) * w1) + np.sum(log_expit(-z) * w0))

    res = minimize_scalar(neg, bounds=LAMBDA_BOUNDS, method="bounded")
    if res.success and -res.fun > obj0:
        return float(res.x), float(-res.fun)
    return lam0, obj0


@lru_cache(maxsize=8)
def _lattice_for(games: tuple, curve: PayoffCurve, step: float) -> _Lattice:
    # games and curve are frozen dataclasses, so the pattern table can be
    # shared across restarts and bootstrap replicates
    return _Lattice(games, curve, step)


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(round((hi - lo) / step))
    return np.linspace(lo, hi, n + 1)


def _local_box(center: np.ndarray, radius: float, step: float) -> np.ndarray:
    bounds = (ALPHA_BOUNDS, BETA_BOUNDS, KAPPA_BOUNDS)
    axes = []
    for dim in range(3):
        lo = max(bounds[dim][0], center[dim] - radius)
        hi = min(bounds[dim][1], center[dim] + radius)
        # arange's last value can pass the bound by an ulp (kappa
        # 1.0000000000000002 at steps 0.1 and 0.2). Clip to the bound only:
        # clipping to hi would also move box rows, and fits, at step 0.05
        axes.append(np.minimum(np.arange(lo, hi + 0.5 * step, step), bounds[dim][1]))
    aa, bb, kk = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([aa.ravel(), bb.ravel(), kk.ravel()])


# ---------------------------------------------------------------------------
# EM


def em_fit(
    data,
    games,
    curve: PayoffCurve,
    k: int,
    restarts: int = 5,
    tol: float = 1e-6,
    seed: int = 0,
    choice_model: str = "constant",
    max_iter: int = 200,
    lattice_step: float = 0.05,
) -> MixtureFit:
    """Fit a k-type mixture of preference parameters to binary choices.

    E-step: posterior type responsibilities from current shares and
    per-subject likelihoods. M-step: closed-form shares; per-type bounded
    lattice search over (alpha, beta, kappa) with the noise parameter
    profiled (closed form under the constant-error model, grid plus golden
    polish under logit). Best of `restarts` random initializations wins.

    lattice_step is the coarse lattice spacing and the radius of each
    0.01-step refinement box. It must lie in LATTICE_STEP_BOUNDS, [0.04, 0.2]:
    a k=1 constant fit on nine games peaks near 171 MB at 0.04, 139 MB at
    0.05 and 188 MB at 0.2 (a logit fit near 260, 185 and 224 MB).
    Memory grows as 1/step**3 below the range and with the box volume above
    it; a step of 2 makes every box the whole grid, about 4.7 GB.

    flags names each type whose share is below 1/(10 N)
    (type-<i>-degenerate-share) and an undefined NEC (nec-undefined, when
    lnL_K equals lnL_1 up to rounding; nec is then nan).

    Raises ValidationError for k < 1, an unknown choice model, max_iter < 1,
    a negative or non-finite tol, and a lattice_step outside its range.
    """
    cnt, lattice = _prepare(data, games, curve, k, tol, choice_model, max_iter, lattice_step)
    params, shares, loglik, posterior, n_iter = _em(
        cnt, lattice, k, restarts, seed, tol, choice_model, max_iter
    )
    n = cnt.shape[0]
    flags = tuple(
        f"type-{idx}-degenerate-share"
        for idx, share in enumerate(shares)
        if share < 1.0 / (10.0 * n)
    )

    en = entropy(posterior)
    icl_val = icl(loglik, k, n, en)
    nec_val = None
    if k >= 2:
        base_loglik = _em(cnt, lattice, 1, 1, seed, tol, choice_model, max_iter)[2]
        nec_val = nec(en, loglik, base_loglik)
        if math.isnan(nec_val):
            flags += ("nec-undefined",)

    return MixtureFit(
        k=k,
        params=params,
        shares=tuple(float(s) for s in shares),
        posterior=posterior,
        loglik=float(loglik),
        en=float(en),
        icl=float(icl_val),
        nec=nec_val,
        n_subjects=n,
        n_records=int(cnt.sum()),
        choice_model=choice_model,
        n_iter=n_iter,
        flags=flags,
    )


def _prepare(
    data, games, curve, k, tol=1e-6, choice_model="constant", max_iter=200, lattice_step=0.05
):
    """Validate em_fit's arguments, then (count tensor, lattice).

    Every check runs before the lattice is built; see em_fit for the list.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if choice_model not in CHOICE_MODELS:
        raise ValidationError(f"choice_model must be one of {CHOICE_MODELS}")
    if max_iter < 1:
        raise ValidationError("max_iter must be >= 1")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError("tol must be finite and >= 0")
    lo, hi = LATTICE_STEP_BOUNDS
    if not lo <= lattice_step <= hi:  # also rejects nan
        raise ValidationError(f"lattice_step must lie in [{lo}, {hi}], got {lattice_step}")
    return _encode(data, games), _lattice_for(tuple(games), curve, lattice_step)


def _em(cnt, lattice, k, restarts, seed, tol=1e-6, choice_model="constant", max_iter=200):
    """The best of `restarts` EM runs on a count tensor.

    Returns (params, shares, loglik, posterior, n_iter) with the types in
    descending share order. em_fit adds the diagnostics; bootstrap
    replicates read params and shares alone, so they skip its k=1 NEC fit.
    """
    best = None
    n_restarts = 1 if k == 1 else max(1, restarts)
    # refinement candidates by seed triple, shared by this fit's M-steps only
    memo = {}
    for child in np.random.SeedSequence(seed).spawn(n_restarts):
        rng = np.random.default_rng(child)
        fit = _em_once(cnt, lattice, k, rng, tol, max_iter, choice_model, memo)
        if best is None or fit[2] > best[2]:
            best = fit
    params, shares, loglik, posterior, n_iter = best
    order = np.argsort(-shares)
    return tuple(params[i] for i in order), shares[order], loglik, posterior[:, order], n_iter


def _em_once(cnt, lattice, k, rng, tol, max_iter, choice_model, memo):
    n = cnt.shape[0]
    idx = rng.choice(len(lattice.theta), size=k, replace=False)
    params = [
        PreferenceParams(
            alpha=float(lattice.theta[i, 0]),
            beta=float(lattice.theta[i, 1]),
            kappa=float(lattice.theta[i, 2]),
            lam=float(rng.uniform(0.1, 0.4)),
        )
        for i in idx
    ]
    # each type's (G, 2) pattern row, read by the E-step and handed to the
    # M-step that refines the type, which returns its pick's row (None
    # under logit, whose E-step reads margins)
    patterns = list(lattice.patterns[idx])
    shares = np.full(k, 1.0 / k)
    posterior = np.full((n, k), 1.0 / k)
    prev_ll = -np.inf
    ll = prev_ll
    it = 0
    for it in range(1, max_iter + 1):
        lmat = _loglik_matrix(cnt, params, lattice.coeffs, choice_model, patterns)
        joint = lmat + np.log(shares)[None, :]
        norm = _log_normalizer(joint)
        ll = float(norm.sum())
        if ll < prev_ll - 1e-9:
            raise ConvergenceError(f"log-likelihood decreased: {prev_ll} -> {ll}")
        posterior = np.exp(joint - norm[:, None])
        if it > 1 and abs(ll - prev_ll) < tol:
            break
        prev_ll = ll
        shares = np.clip(posterior.mean(axis=0), 1e-12, None)
        shares /= shares.sum()
        steps = [
            lattice.maximize(
                np.einsum("n,ngra->gra", posterior[:, j], cnt),
                params[j], choice_model, memo, patterns[j],
            )
            for j in range(k)
        ]
        params, _, patterns = map(list, zip(*steps))
    return params, shares, ll, posterior, it


# ---------------------------------------------------------------------------
# diagnostics


def entropy(posterior: np.ndarray) -> float:
    """Classification entropy EN = -sum tau ln tau, with 0 ln 0 = 0."""
    tau = np.asarray(posterior, dtype=float)
    if tau.ndim != 2 or np.any(tau < -1e-12):
        raise ValidationError("posterior must be a nonnegative matrix")
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(tau > 0.0, tau * np.log(np.where(tau > 0.0, tau, 1.0)), 0.0)
    return float(-term.sum())


def icl(loglik: float, k: int, n: int, en: float = 0.0) -> float:
    """ICL = -2 lnL + (5k - 1) ln N + EN (4 parameters per type plus shares)."""
    if n <= 0:
        raise ValidationError("n must be positive")
    return -2.0 * loglik + (5 * k - 1) * math.log(n) + en


def nec(en_k: float, loglik_k: float, loglik_1: float) -> float:
    """NEC = EN_K / (lnL_K - lnL_1); nan when the denominator vanishes.

    A denominator of at most 16 eps max(|lnL_K|, |lnL_1|) counts as zero: a
    K-type fit that collapses onto one type differs from the one-type fit
    by rounding alone, and dividing by that residue gave NEC near 5e14.
    """
    denom = loglik_k - loglik_1
    if abs(denom) <= _NEC_RTOL * max(abs(loglik_k), abs(loglik_1)):
        warnings.warn("NEC undefined: lnL_K equals lnL_1 up to rounding", stacklevel=2)
        return math.nan
    return en_k / denom


# ---------------------------------------------------------------------------
# bootstrap


@dataclass(frozen=True)
class BootstrapSE:
    """Per-parameter standard errors over aligned bootstrap replicates."""

    param_se: np.ndarray  # (k, 4): alpha, beta, kappa, lambda
    share_se: np.ndarray  # (k,)
    b: int
    unresolved: int


def bootstrap_se(
    data,
    games,
    curve: PayoffCurve,
    k: int,
    b: int = 50,
    seed: int = 0,
    restarts: int = 2,
    base: MixtureFit | None = None,
    **fit_kw,
) -> BootstrapSE:
    """Resample subjects with replacement, refit, align types, take SDs.

    Replicate types are aligned to the base fit by greedy nearest-neighbor
    matching in (alpha, beta, kappa, lambda); a replicate counts as
    unresolved when a matched distance exceeds half the smallest inter-type
    distance of the base fit (ambiguous attribution), and a warning fires
    when more than 10% of replicates are unresolved. A given base fit must
    have k types.
    """
    if b < 2:
        raise ValidationError("b must be >= 2")
    if base is None:
        base = em_fit(data, games, curve, k, seed=seed, **fit_kw)
    elif len(base.params) != k:
        raise ValidationError(f"base fit has {len(base.params)} types, expected k={k}")
    base_mat = np.array([[p.alpha, p.beta, p.kappa, p.lam] for p in base.params])
    if k > 1:
        gaps = [
            float(np.linalg.norm(base_mat[i] - base_mat[j]))
            for i in range(k)
            for j in range(i + 1, k)
        ]
        ambiguity_radius = 0.5 * min(gaps)
    else:
        ambiguity_radius = math.inf

    cnt, lattice = _prepare(data, games, curve, k, **fit_kw)
    fit_kw.pop("lattice_step", None)  # the lattice carries it
    n = cnt.shape[0]

    reps_params = np.empty((b, k, 4))
    reps_shares = np.empty((b, k))
    unresolved = 0
    for rep, child in enumerate(np.random.SeedSequence(seed).spawn(b)):
        rng = np.random.default_rng(child)
        # a replicate's subjects are rows of the count tensor
        draw = rng.choice(n, size=n, replace=True)
        params, shares, *_ = _em(
            cnt[draw], lattice, k, restarts, int(rng.integers(2**31)), **fit_kw
        )
        rep_mat = np.array([[p.alpha, p.beta, p.kappa, p.lam] for p in params])
        assign, worst = _greedy_align(base_mat, rep_mat)
        if worst > ambiguity_radius:
            unresolved += 1
        reps_params[rep] = rep_mat[assign]
        reps_shares[rep] = shares[assign]

    if unresolved > 0.1 * b:
        warnings.warn(
            f"label switching unresolved in {unresolved}/{b} replicates", stacklevel=2
        )
    return BootstrapSE(
        param_se=reps_params.std(axis=0, ddof=1),
        share_se=reps_shares.std(axis=0, ddof=1),
        b=b,
        unresolved=unresolved,
    )


def _greedy_align(base: np.ndarray, rep: np.ndarray):
    """Greedy nearest-neighbor bijection rep -> base; returns (assignment, worst distance)."""
    k = len(base)
    dist = np.linalg.norm(base[:, None, :] - rep[None, :, :], axis=2)
    assign = np.full(k, -1)
    open_b = set(range(k))
    open_r = set(range(k))
    worst = 0.0
    for _ in range(k):
        d, i, j = min((dist[i, j], i, j) for i in open_b for j in open_r)
        assign[i] = j
        open_b.discard(i)
        open_r.discard(j)
        worst = max(worst, d)
    return assign, worst


# ---------------------------------------------------------------------------
# behavioral summaries


@dataclass(frozen=True)
class RejectionSummary:
    points: float
    non_monotone: bool


def implicit_rejection_threshold(records, games) -> RejectionSummary:
    """Largest responder share among rejected unequal splits (0 if none).

    The responder share is read from each game's accept-the-unequal cell.
    A subject who accepts some split below a rejected one is flagged
    non-monotone but still scored by the definitional maximum.
    """
    gmap = {g.game_id: g for g in games}
    share_action: dict[str, int] = {}
    for r in records:
        if r.role != "R":
            continue
        if r.game_id not in gmap:
            raise ValidationError(f"record references unknown game {r.game_id!r}")
        share_action[r.game_id] = r.action
    rejected, accepted = [], []
    for gid, action in share_action.items():
        share = float(np.asarray(gmap[gid].payoff_b, dtype=float)[0, 1, 0])
        (rejected if action == 1 else accepted).append(share)
    if not rejected:
        return RejectionSummary(0.0, False)
    top = max(rejected)
    return RejectionSummary(top, any(a < top for a in accepted))


@dataclass(frozen=True)
class PredictedBehavior:
    dg_transfer: float
    ug_threshold: float


def predict_behavior(
    p: PreferenceParams,
    w: float = ESTIMATION_ENDOWMENT,
    curve: PayoffCurve | None = None,
) -> PredictedBehavior:
    """Map estimated type parameters to a DG transfer and a UG threshold.

    The threshold takes the proposer side as pinned at the equal split, so
    only the acceptance cutoff varies with (alpha, kappa).
    """
    validate_endowment(w)
    curve = curve or PayoffCurve.shifted_log()
    return PredictedBehavior(
        dg_transfer=dg_transfer(p, curve, w),
        ug_threshold=constrained_threshold(p.kappa, p.alpha, curve, w),
    )


# ---------------------------------------------------------------------------
# simulation


def simulate_choices(
    types,
    shares,
    games,
    curve: PayoffCurve,
    n_subjects: int,
    seed: int = 0,
):
    """Draw synthetic choice records from a known mixture.

    Each subject gets a type from `shares`; per decision the intended action
    is the type's preferred pattern, replaced by a uniform coin with the
    type's lam probability (ties always resolved by coin). Returns
    (records, type labels). Matches the constant-error choice model.
    """
    shares = np.asarray(shares, dtype=float)
    if len(types) != len(shares):
        raise ValidationError("types and shares must align")
    if abs(shares.sum() - 1.0) > 1e-9 or np.any(shares < 0.0):
        raise ValidationError("shares must be a probability vector")
    rng = np.random.default_rng(seed)
    patterns = [preferred_pattern(p, curve, games) for p in types]
    labels = rng.choice(len(types), size=n_subjects, p=shares)
    records = []
    for i in range(n_subjects):
        t = int(labels[i])
        lam = types[t].lam
        sid = f"s{i:04d}"
        for g, game in enumerate(games):
            for ro, role in enumerate(ROLES):
                pref = patterns[t][g, ro]
                if pref == 2 or rng.random() < lam:
                    action = int(rng.integers(2))
                else:
                    action = int(pref)
                records.append(ChoiceRecord(sid, game.game_id, role, action))
    return records, labels
