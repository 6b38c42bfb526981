"""Mixture-model tests: veil-strategy utilities, choice model, EM fits,
classification diagnostics, bootstrap SEs, and behavioral summaries.

Frozen fit values were computed from seeded synthetic samples on the
nine-game harness (six built-in mini ultimatum games plus the three
config games shipped in data/) and verified against hand counts before
freezing.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import log_expit

import moralbargain.mixture as mx
from moralbargain import (
    BinaryGame,
    ChoiceRecord,
    PayoffCurve,
    PreferenceParams,
    ValidationError,
    bootstrap_se,
    default_games,
    em_fit,
    entropy,
    icl,
    implicit_rejection_threshold,
    nec,
    predict_behavior,
    preferred_pattern,
    simulate_choices,
    strategy_utilities,
)
from moralbargain.io import load_games_config

_CONFIG = Path(__file__).resolve().parent.parent / "data" / "games_config.json"


@pytest.fixture(scope="module")
def games9():
    return tuple(default_games()) + load_games_config(_CONFIG)


@pytest.fixture(scope="module")
def g85():
    return BinaryGame.mini_ug((85, 15))


# ---------------------------------------------------------------------------
# games


class TestBinaryGame:
    def test_default_games(self):
        games = default_games()
        assert len(games) == 6
        assert [g.game_id for g in games] == [
            f"mini-ug-{a}-{b}"
            for a, b in ((60, 40), (65, 35), (70, 30), (75, 25), (80, 20), (85, 15))
        ]

    def test_mini_ug_tables(self, g85):
        # proposer: equal row is punish-proof, unequal row can be punished
        assert g85.payoff_a == (((50.0, 50.0), (50.0, 50.0)), ((85.0, 15.0), (10.0, 10.0)))
        assert g85.payoff_b == (((50.0, 50.0), (15.0, 85.0)), ((50.0, 50.0), (10.0, 10.0)))
        assert g85.belief_a == g85.belief_b == 0.5

    def test_validation(self):
        with pytest.raises(ValidationError):
            BinaryGame("bad", payoff_a=(((1, 1),),), payoff_b=(((1, 1),),))
        with pytest.raises(ValidationError):
            BinaryGame.mini_ug((60, -5))
        with pytest.raises(ValidationError):
            dataclasses.replace(BinaryGame.mini_ug((60, 40)), belief_a=1.5)

    def test_duplicate_game_ids_rejected(self, g85):
        rec = ChoiceRecord("s1", g85.game_id, "P", 0)
        with pytest.raises(ValidationError, match="duplicate"):
            em_fit([rec], [g85, g85], PayoffCurve.shifted_log(), k=1)


# ---------------------------------------------------------------------------
# strategy utilities


class TestStrategyUtilities:
    def test_full_universalization_table(self, g85, shifted_log):
        # kappa=1 with no distributional concerns: only the everyone-plays-
        # (a,b) outcome survives, evaluated once per role
        p = PreferenceParams(alpha=0.0, beta=0.0, kappa=1.0, lam=0.1)
        u = strategy_utilities(p, shifted_log, g85)
        hand = np.array(
            [
                [math.log(51), math.log(51)],
                [0.5 * (math.log(86) + math.log(16)), math.log(11)],
            ]
        )
        assert np.abs(u - hand).max() < 1e-12

    def test_envy_drives_rejection(self, g85, shifted_log):
        # alpha=2 responder: accepting (85,15) costs 2[v(85)-v(15)], so the
        # punish action wins by a hand-computable margin in both rows
        p = PreferenceParams(alpha=2.0, beta=0.0, kappa=0.0, lam=0.1)
        u = strategy_utilities(p, shifted_log, g85)
        margin = 0.25 * (math.log(11) - math.log(16) + 2 * (math.log(86) - math.log(16)))
        assert u[0, 1] - u[0, 0] == pytest.approx(margin, abs=1e-12)
        assert u[1, 1] - u[1, 0] == pytest.approx(margin, abs=1e-12)
        assert preferred_pattern(p, shifted_log, [g85])[0, 1] == 1

    def test_selfish_proposer_belief_cutoff(self, linear):
        # unequal split pays iff acceptance-weighted 60 beats the sure 50
        selfish = PreferenceParams(alpha=0.0, beta=0.0, kappa=0.0, lam=0.1)
        g60 = BinaryGame.mini_ug((60, 40))
        for q, sign in ((0.5, -1.0), (0.9, 1.0)):
            gq = dataclasses.replace(g60, belief_a=q)
            u = strategy_utilities(selfish, linear, gq)
            margin = u[1, 0] - u[0, 0]
            assert margin == pytest.approx(0.5 * (q * 60 + (1 - q) * 10 - 50), abs=1e-12)
            assert sign * margin > 0

    def test_affine_in_parameters(self, games9, shifted_log, rng):
        # utilities are affine in (kappa, alpha, beta) at fixed curve values
        for _ in range(20):
            g = games9[rng.integers(len(games9))]
            t1 = rng.uniform([-2, -2, 0], [2, 2, 1])
            t2 = rng.uniform([-2, -2, 0], [2, 2, 1])
            mid = 0.5 * (t1 + t2)

            def u_at(t):
                p = PreferenceParams(alpha=t[0], beta=t[1], kappa=t[2], lam=0.1)
                return strategy_utilities(p, shifted_log, g)

            assert np.abs(u_at(mid) - 0.5 * (u_at(t1) + u_at(t2))).max() < 1e-10

    def test_tied_actions_flagged(self, shifted_log):
        flat = ((10.0, 10.0), (10.0, 10.0))
        g = BinaryGame("flat", (flat, flat), (flat, flat))
        p = PreferenceParams(alpha=0.3, beta=0.1, kappa=0.4, lam=0.1)
        assert (preferred_pattern(p, shifted_log, [g]) == 2).all()


# ---------------------------------------------------------------------------
# simulation


class TestSimulateChoices:
    def test_deterministic_under_seed(self, games9, shifted_log):
        t = PreferenceParams(alpha=0.33, beta=0.09, kappa=0.26, lam=0.02)
        a1, l1 = simulate_choices([t], [1.0], games9, shifted_log, 12, seed=5)
        a2, l2 = simulate_choices([t], [1.0], games9, shifted_log, 12, seed=5)
        b1, _ = simulate_choices([t], [1.0], games9, shifted_log, 12, seed=6)
        assert a1 == a2 and (l1 == l2).all()
        assert a1 != b1
        assert len(a1) == 12 * len(games9) * 2

    def test_label_shares(self, games9, shifted_log):
        t1 = PreferenceParams(alpha=0.3, beta=0.0, kappa=0.2, lam=0.1)
        t2 = PreferenceParams(alpha=-0.5, beta=0.5, kappa=0.8, lam=0.1)
        _, labels = simulate_choices([t1, t2], [0.5, 0.5], games9, shifted_log, 600, seed=1)
        assert abs(labels.mean() - 0.5) < 0.1

    def test_validation(self, games9, shifted_log):
        t = PreferenceParams(alpha=0.0, beta=0.0, kappa=0.0, lam=0.1)
        with pytest.raises(ValidationError):
            simulate_choices([t], [0.5, 0.5], games9, shifted_log, 5)
        with pytest.raises(ValidationError):
            simulate_choices([t, t], [0.7, 0.7], games9, shifted_log, 5)


# ---------------------------------------------------------------------------
# EM


class LatticeReached(Exception):
    pass


def _no_lattice(*args):
    raise LatticeReached


class TestEmFit:
    def test_single_type_recovery(self, games9, shifted_log):
        truth = PreferenceParams(alpha=0.33, beta=0.09, kappa=0.26, lam=0.02)
        recs, _ = simulate_choices([truth], [1.0], games9, shifted_log, 100, seed=101)
        fit = em_fit(recs, games9, shifted_log, k=1)
        p = fit.params[0]
        assert abs(p.alpha - truth.alpha) <= 0.1
        assert abs(p.beta - truth.beta) <= 0.1
        assert abs(p.kappa - truth.kappa) <= 0.1
        assert fit.k == 1 and fit.n_subjects == 100 and fit.n_records == 1800
        assert fit.en == 0.0
        assert fit.nec is None
        assert fit.shares == (1.0,)
        assert np.all(fit.posterior == 1.0)

    def test_two_type_fit_invariants(self, games9, shifted_log):
        tA = PreferenceParams(alpha=0.05, beta=0.08, kappa=0.25, lam=0.02)
        tB = PreferenceParams(alpha=0.28, beta=-0.30, kappa=0.19, lam=0.02)
        recs, _ = simulate_choices([tA, tB], [0.6, 0.4], games9, shifted_log, 40, seed=402)
        fit = em_fit(recs, games9, shifted_log, k=2, seed=2)
        assert np.abs(fit.posterior.sum(axis=1) - 1.0).max() < 1e-10
        assert abs(sum(fit.shares) - 1.0) < 1e-10
        assert fit.shares[0] >= fit.shares[1]
        assert fit.en >= 0.0
        assert fit.icl == pytest.approx(
            -2.0 * fit.loglik + 9 * math.log(fit.n_subjects) + fit.en, abs=1e-9
        )
        assert fit.nec is not None
        for p in fit.params:
            assert -2.0 <= p.alpha <= 2.0
            assert -2.0 <= p.beta <= 2.0
            assert 0.0 <= p.kappa <= 1.0
            assert 0.01 <= p.lam <= 0.99

    def test_ascent_across_seeds(self, games9, shifted_log):
        # a likelihood decrease raises ConvergenceError inside em_fit, so
        # completing is the assertion
        t = PreferenceParams(alpha=0.14, beta=-0.01, kappa=0.22, lam=0.25)
        recs, _ = simulate_choices([t], [1.0], games9, shifted_log, 30, seed=9)
        for seed in (0, 1, 2):
            fit = em_fit(recs, games9, shifted_log, k=2, seed=seed, restarts=2)
            assert np.isfinite(fit.loglik) and fit.n_iter >= 1

    def test_degenerate_share_flagged(self, games9, shifted_log):
        # noiseless single-type data: one of the two components collapses
        clean = PreferenceParams(alpha=0.33, beta=0.09, kappa=0.26, lam=0.0)
        recs, _ = simulate_choices([clean], [1.0], games9, shifted_log, 20, seed=17)
        with pytest.warns(UserWarning, match="NEC undefined"):
            fit = em_fit(recs, games9, shifted_log, k=2, seed=0)
        assert fit.shares[1] < 1.0 / (10 * fit.n_subjects)
        # both types land on one point, so lnL_2 - lnL_1 is a rounding residue
        assert fit.params[0] == fit.params[1]
        assert "type-1-degenerate-share" in fit.flags and "nec-undefined" in fit.flags

    def test_refit_recovers_generator_loglik(self, games9, shifted_log):
        # parametric-bootstrap sanity on the same simulated sample: the refit
        # must weakly beat the generating parameters and not by much
        gen = PreferenceParams(alpha=0.14, beta=-0.01, kappa=0.22, lam=0.25)
        sample, _ = simulate_choices([gen], [1.0], games9, shifted_log, 96, seed=2026)
        pat = preferred_pattern(gen, shifted_log, games9)
        gmap = {g.game_id: i for i, g in enumerate(games9)}
        m = d = t = 0
        for r in sample:
            pref = pat[gmap[r.game_id], mx.ROLES.index(r.role)]
            if pref == 2:
                t += 1
            elif r.action == pref:
                m += 1
            else:
                d += 1
        hand = (
            m * math.log1p(-0.5 * gen.lam)
            + d * math.log(0.5 * gen.lam)
            + t * math.log(0.5)
        )
        fit = em_fit(sample, games9, shifted_log, k=1)
        assert fit.loglik >= hand - 1e-9
        assert abs(fit.loglik - hand) <= 0.02 * abs(hand)

    def test_validation(self, games9, shifted_log, g85):
        rec = ChoiceRecord("s1", games9[0].game_id, "P", 0)
        with pytest.raises(ValidationError):
            em_fit([rec], games9, shifted_log, k=0)
        with pytest.raises(ValidationError):
            em_fit([rec], games9, shifted_log, k=1, choice_model="probit")
        with pytest.raises(ValidationError):
            em_fit([], games9, shifted_log, k=1)
        with pytest.raises(ValidationError, match="unknown game"):
            em_fit([ChoiceRecord("s1", "no-such-game", "P", 0)], games9, shifted_log, k=1)

    def test_degenerate_fit_arguments_rejected(self, games9, shifted_log, monkeypatch):
        # every case fails before a lattice is built: a step of 2 or more
        # makes every refinement box the whole 0.01 grid (about 4.7 GB), and
        # 0.01 gives a 16.2M-point coarse lattice
        monkeypatch.setattr(mx, "_lattice_for", _no_lattice)
        rec = ChoiceRecord("s1", games9[0].game_id, "P", 0)
        with pytest.raises(ValidationError, match="max_iter"):
            em_fit([rec], games9, shifted_log, k=1, max_iter=0)
        for step in (0.0, -0.05, math.nan, math.inf, 0.01, 0.039, 0.21, 2.0, 5.0):
            with pytest.raises(ValidationError, match="lattice_step"):
                em_fit([rec], games9, shifted_log, k=1, lattice_step=step)
        for tol in (math.nan, -1e-6, math.inf):
            with pytest.raises(ValidationError, match="tol"):
                em_fit([rec], games9, shifted_log, k=1, tol=tol)

    def test_lattice_step_range_ends_reach_the_lattice(self, games9, shifted_log, monkeypatch):
        monkeypatch.setattr(mx, "_lattice_for", _no_lattice)
        rec = ChoiceRecord("s1", games9[0].game_id, "P", 0)
        lo, hi = mx.LATTICE_STEP_BOUNDS
        for step in (lo, 0.05, 0.1, hi):
            with pytest.raises(LatticeReached):
                em_fit([rec], games9, shifted_log, k=1, lattice_step=step)

    @pytest.mark.parametrize("n_subjects", [1, 2, 5])
    def test_collapsed_two_type_fit_has_undefined_nec(self, shifted_log, n_subjects):
        # one-type data: lnL_2 - lnL_1 is a rounding residue near 6e-16 of
        # |lnL|, which made NEC about 5e14
        clean = PreferenceParams(alpha=0.33, beta=0.09, kappa=0.26, lam=0.0)
        recs, _ = simulate_choices([clean], [1.0], default_games(), shifted_log, n_subjects, seed=3)
        with pytest.warns(UserWarning, match="NEC undefined"):
            fit = em_fit(recs, default_games(), shifted_log, k=2, seed=0, restarts=2)
        assert math.isnan(fit.nec)
        assert "nec-undefined" in fit.flags

    def test_logit_model_runs(self, games9, shifted_log):
        t = PreferenceParams(alpha=0.33, beta=0.09, kappa=0.26, lam=0.02)
        recs, _ = simulate_choices([t], [1.0], games9, shifted_log, 20, seed=3)
        fit = em_fit(recs, games9, shifted_log, k=1, choice_model="logit")
        assert fit.choice_model == "logit"
        assert np.isfinite(fit.loglik)


def _estep_reference(records, games, curve, params, model):
    """Per-subject log-likelihood columns, built record by record.

    Each type's margins come from strategy_utilities, with the off-role
    action pinned at the joint argmax and |margin| <= _TIE_TOL a tie. The
    constant model counts matches, mismatches and ties per record; the
    logit model sums its count table with the E-step's own einsum, so the
    check can be bitwise.
    """
    subjects = sorted({r.subject_id for r in records})
    gidx = {g.game_id: i for i, g in enumerate(games)}
    cnt = np.zeros((len(subjects), len(games), 2, 2), dtype=np.int64)
    for r in records:
        cnt[subjects.index(r.subject_id), gidx[r.game_id], mx.ROLES.index(r.role), r.action] += 1
    cols, n_ties = [], 0
    for p in params:
        margin = np.zeros((len(games), 2))
        for g, game in enumerate(games):
            u = strategy_utilities(p, curve, game)
            a_star, b_star = divmod(int(np.argmax(u.ravel())), 2)
            margin[g] = (u[1, b_star] - u[0, b_star], u[a_star, 1] - u[a_star, 0])
        if model == "logit":
            z = margin / p.lam
            cols.append(
                np.einsum("ngr,gr->n", cnt[..., 1], log_expit(z))
                + np.einsum("ngr,gr->n", cnt[..., 0], log_expit(-z))
            )
            continue
        m, d, t = np.zeros(len(subjects)), np.zeros(len(subjects)), np.zeros(len(subjects))
        for r in records:
            s, g, ro = subjects.index(r.subject_id), gidx[r.game_id], mx.ROLES.index(r.role)
            if abs(margin[g, ro]) <= mx._TIE_TOL:
                t[s] += 1
                n_ties += 1
            elif r.action == int(margin[g, ro] > 0):
                m[s] += 1
            else:
                d[s] += 1
        cols.append(m * math.log1p(-0.5 * p.lam) + d * math.log(0.5 * p.lam) + t * math.log(0.5))
    return np.column_stack(cols), n_ties


class TestEStep:
    def test_loglik_columns_match_per_record_reference(self, games9, shifted_log):
        types = [
            PreferenceParams(alpha=0.05, beta=0.08, kappa=0.25, lam=0.28),
            PreferenceParams(alpha=0.28, beta=-0.30, kappa=0.19, lam=0.16),
            # a lattice point whose pattern carries ties
            PreferenceParams(alpha=0.0, beta=0.4, kappa=1.0, lam=0.3),
        ]
        recs, _ = simulate_choices(types, [0.4, 0.3, 0.3], games9, shifted_log, 30, seed=12)
        cnt = mx._encode(recs, games9)
        coeffs = np.stack([mx.game_coefficients(g, shifted_log) for g in games9])
        for k in (2, 3):
            for model in mx.CHOICE_MODELS:
                got = mx._loglik_matrix(cnt, types[-k:], coeffs, model)
                want, n_ties = _estep_reference(recs, games9, shifted_log, types[-k:], model)
                assert np.array_equal(_bits(got), _bits(want))
                assert model == "logit" or n_ties > 0


# ---------------------------------------------------------------------------
# lattice M-step over distinct choice patterns


@pytest.fixture(scope="module")
def lattice9(games9):
    return mx._Lattice(games9, PayoffCurve.shifted_log())


class TestLatticePatterns:
    def test_unique_patterns_rebuild_every_point(self, lattice9):
        lat = lattice9
        assert lat.pattern_id.shape == (len(lat.theta),)
        assert np.array_equal(lat.unique_patterns[lat.pattern_id], lat.patterns)
        # the tie code 2 survives the row view
        assert (lat.unique_patterns == 2).any()

    def test_distinct_pattern_counts(self, lattice9, shifted_log):
        assert len(lattice9.theta) == 137_781
        assert len(lattice9.unique_patterns) == 209
        assert len(mx._Lattice(default_games(), shifted_log).unique_patterns) == 93

    def test_pattern_path_is_bitwise_point_path(self, lattice9, rng):
        # the lattice holds tied (code 2) entries, asserted above
        lat = lattice9
        n_games = len(lat.games)
        for draw in range(12):
            weights3 = rng.uniform(0.0, 30.0, size=(n_games, 2, 2))
            if draw % 3 == 1:
                weights3[rng.choice(n_games, size=3, replace=False)] = 0.0
            if draw % 3 == 2:
                weights3[..., 1] = weights3[..., 0]  # equal action counts everywhere
            obj, unit, _ = lat._coarse(weights3, "constant", None)
            assert unit is lat.pattern_id
            want_obj, _ = lat._objective_constant(lat.patterns, weights3)
            assert np.array_equal(obj[unit], want_obj)

    def test_member_lists_partition_the_lattice(self, lattice9):
        lat = lattice9
        assert lat.pattern_id.dtype.itemsize <= 2
        assert lat.members.dtype == np.int32
        assert lat.starts[-1] == len(lat.theta)
        for u in range(len(lat.unique_patterns)):
            segment = lat.members[lat.starts[u]:lat.starts[u + 1]]
            assert len(segment) > 0 and np.all(np.diff(segment) > 0)
            assert np.all(lat.pattern_id[segment] == u)
        assert np.array_equal(np.sort(lat.members), np.arange(len(lat.theta)))

    def test_row_block_build_is_one_structure_call(self, games9, shifted_log):
        lat = mx._Lattice(games9, shifted_log, 0.1)
        assert len(lat.theta) > 2 * mx._BUILD_ROWS  # a short last block too
        patterns, margins = mx._structure(lat.coeffs, lat.theta)
        assert np.array_equal(lat.patterns, patterns)
        assert np.array_equal(_bits(lat.margins), _bits(margins))

    def test_coarse_scan_scores_distinct_patterns_only(self, lattice9, monkeypatch):
        rows = []
        original = mx._Lattice._objective_constant

        def spy(self, patterns, weights3):
            rows.append(len(patterns))
            return original(self, patterns, weights3)

        monkeypatch.setattr(mx._Lattice, "_objective_constant", spy)
        weights3 = np.arange(len(lattice9.games) * 4, dtype=float).reshape(-1, 2, 2)
        lattice9.maximize(weights3, None, "constant")
        assert rows[0] == len(lattice9.unique_patterns)
        assert len(lattice9.theta) not in rows


def _logit_every_entry(margins, weights3, lams):
    """The per-entry logit scan: log_expit over the whole (T, G, 2) table."""
    w1, w0 = weights3[:, :, 1], weights3[:, :, 0]
    best_obj = np.full(len(margins), -np.inf)
    best_lam = np.full(len(margins), lams[0])
    for lam in lams:
        z = margins / lam
        obj = np.einsum("tgr,gr->t", log_expit(z), w1) + np.einsum(
            "tgr,gr->t", log_expit(-z), w0
        )
        improved = obj > best_obj
        best_obj = np.where(improved, obj, best_obj)
        best_lam = np.where(improved, lam, best_lam)
    return best_obj, best_lam


def _structure_by_gather(lat, theta):
    """Margins and patterns read with take_along_axis at the joint argmax."""
    basis = np.column_stack([np.ones(len(theta)), theta[:, 2], theta[:, 0], theta[:, 1]])
    u = np.einsum("gabc,tc->tgab", lat.coeffs, basis)
    joint = u.reshape(len(theta), len(lat.games), 4).argmax(axis=2)
    a_star, b_star = joint // 2, joint % 2
    u_b = np.take_along_axis(u, b_star[:, :, None, None], axis=3)[..., 0]
    u_a = np.take_along_axis(u, a_star[:, :, None, None], axis=2)[:, :, 0, :]
    margins = np.stack([u_b[:, :, 1] - u_b[:, :, 0], u_a[:, :, 1] - u_a[:, :, 0]], axis=2)
    patterns = np.where(np.abs(margins) <= mx._TIE_TOL, 2, (margins > 0).astype(np.int8))
    return patterns.astype(np.int8), margins


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


class TestLogitScan:
    def test_coarse_path_is_bitwise_every_entry_path(self, lattice9, rng):
        lat = lattice9
        n_games = len(lat.games)
        for draw in range(3):
            weights3 = rng.uniform(0.0, 30.0, size=(n_games, 2, 2))
            if draw == 1:
                weights3[rng.choice(n_games, size=3, replace=False)] = 0.0
            if draw == 2:
                weights3[..., 1] = weights3[..., 0]  # equal action counts everywhere
            # the grid plus an off-grid incumbent, as maximize builds it
            lams = np.unique(np.append(mx._LOGIT_LAM_GRID, rng.uniform(0.011, 0.98)))
            obj, unit, pool = lat._coarse(weights3, "logit", lams)
            want_obj, _ = _logit_every_entry(lat.margins, weights3, lams)
            assert np.array_equal(_bits(obj), _bits(want_obj))
            # every point is its own unit and in the seed pool
            every = np.arange(len(lat.theta))
            assert np.array_equal(unit, every) and np.array_equal(pool, every)

    def test_candidate_path_is_bitwise_every_entry_path(self, lattice9, rng):
        lat = lattice9
        theta = np.column_stack(
            [rng.uniform(-2, 2, 300), rng.uniform(-2, 2, 300), rng.uniform(0, 1, 300)]
        )
        weights3 = rng.uniform(0.0, 30.0, size=(len(lat.games), 2, 2))
        obj, lam = lat._score(theta, weights3, "logit", mx._LOGIT_LAM_GRID)
        margins = mx._structure(lat.coeffs, theta)[1]
        want = _logit_every_entry(margins, weights3, mx._LOGIT_LAM_GRID)
        assert np.array_equal(_bits(obj), _bits(want[0]))
        assert np.array_equal(_bits(lam), _bits(want[1]))

    def test_candidate_path_one_row_and_zero_weight_games(self, lattice9, rng):
        # maximize scores its centroid as a one-row candidate set, and an
        # E-step can leave whole games without weight
        lat = lattice9
        rows = np.column_stack(
            [rng.uniform(-2, 2, 300), rng.uniform(-2, 2, 300), rng.uniform(0, 1, 300)]
        )
        centroid = lat.theta[rng.choice(len(lat.theta), size=50)].mean(axis=0)[None, :]
        lams = np.unique(np.append(mx._LOGIT_LAM_GRID, rng.uniform(0.011, 0.98)))
        for theta in (centroid, rows):
            for zeroed in (0, 3, len(lat.games)):
                weights3 = rng.uniform(0.0, 30.0, size=(len(lat.games), 2, 2))
                weights3[rng.choice(len(lat.games), size=zeroed, replace=False)] = 0.0
                obj, lam = lat._score(theta, weights3, "logit", lams)
                margins = mx._structure(lat.coeffs, theta)[1]
                want = _logit_every_entry(margins, weights3, lams)
                assert obj.shape == (len(theta),)
                assert np.array_equal(_bits(obj), _bits(want[0]))
                assert np.array_equal(_bits(lam), _bits(want[1]))

    def test_coarse_scan_scores_distinct_margins_only(self, lattice9, monkeypatch):
        lat = lattice9
        # another test may have left this table's grid columns in the slot
        lat._grid_slot = (None, {})
        values, block_sizes, rows = lat.logit_table
        index = rows.indices
        assert index.dtype == np.int32 and len(index) == lat.margins.size
        assert np.array_equal(values[index].reshape(lat.margins.shape), lat.margins)
        assert np.all(rows.data == 1.0)
        # each (g, r) column indexes its own block of values
        block = np.repeat(np.arange(len(block_sizes)), block_sizes)
        assert np.array_equal(block[index], np.tile(np.arange(len(block_sizes)), len(lat.theta)))
        sizes = []
        original = mx.log_expit

        def spy(x):
            sizes.append(np.size(x))
            return original(x)

        monkeypatch.setattr(mx, "log_expit", spy)
        weights3 = np.arange(len(lat.games) * 4, dtype=float).reshape(-1, 2, 2)
        lat._coarse(weights3, "logit", mx._LOGIT_LAM_GRID)
        assert sizes == [len(values)] * (2 * len(mx._LOGIT_LAM_GRID))
        # 103,443 values (distinct per (g, r) column) for 2,480,058 entries
        assert len(values) < lat.margins.size // 20


class TestCandidateRows:
    @settings(max_examples=300, deadline=None)
    @given(
        ints=st.lists(
            st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=40
        ),
        scale=st.sampled_from([0.01, 0.05, 0.3, 1.0]),
        repeats=st.lists(st.integers(0, 39), max_size=10),
        center=st.tuples(
            st.sampled_from([-2.0, -1.95, -0.05, 0.0, 0.35, 2.0]),
            st.sampled_from([-2.0, -0.1, 0.0, 1.95]),
            st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        ),
        incumbent=st.integers(0, 10**6),
    )
    def test_matches_np_unique_rows(self, ints, scale, repeats, center, incumbent):
        # small integer grids force duplicates and ties in the first and
        # second columns; the box and the incumbent mimic maximize's blocks
        rows = np.array(ints, dtype=float) * scale
        rows = np.vstack([rows, rows[[i % len(rows) for i in repeats]]])
        box = mx._local_box(np.array(center), 0.05, 0.01)
        cand = np.vstack([rows, box, box[incumbent % len(box)][None, :]])
        got = cand[mx._unique_rows(cand)]
        want = np.unique(cand, axis=0)
        assert np.array_equal(_bits(got), _bits(want))


class TestLocalBox:
    @pytest.mark.parametrize("step", [0.04, 0.05, 0.1, 0.2])
    def test_boxes_stay_inside_the_bounds(self, step):
        # np.arange's last value overshot the upper bound at steps 0.1 and
        # 0.2 (kappa 1.0000000000000002, alpha 2.0000000000000004); every
        # axis value of the lattice is a center once
        bounds = (mx.ALPHA_BOUNDS, mx.BETA_BOUNDS, mx.KAPPA_BOUNDS)
        axes = [mx._axis(*b, step) for b in bounds]
        lo, hi = np.array(bounds).T
        for i in range(max(len(a) for a in axes)):
            center = np.array([a[i % len(a)] for a in axes])
            box = mx._local_box(center, step, 0.01)
            assert np.all(box.min(axis=0) >= lo) and np.all(box.max(axis=0) <= hi)

    @pytest.mark.parametrize("step, draws", [(0.2, (33, 178, 288)), (0.1, (281,))])
    def test_mstep_picks_stay_inside_the_bounds(self, games9, shifted_log, step, draws):
        # weight tables whose first tied candidate was an overshooting box
        # row, so that PreferenceParams rejected the pick
        lat = mx._Lattice(games9, shifted_log, step)
        rng = np.random.default_rng(5)
        for draw in range(max(draws) + 1):
            weights3 = rng.integers(0, 6, size=(9, 2, 2)).astype(float)
            weights3[rng.uniform(size=9) < 0.3] = 0.0
            if draw in draws:
                p, _ = lat.maximize(weights3, None, "constant")
                assert p.kappa <= 1.0 and p.alpha <= 2.0


class TestTopThree:
    @settings(max_examples=400, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.integers(-3, 3).map(float), st.just(-np.inf)), min_size=3, max_size=60
        )
    )
    @example(values=[1.0, 1.0, 1.0])
    @example(values=[0.0, 2.0, -np.inf])
    @example(values=[5.0] * 50)
    @example(values=[-np.inf] * 7)
    def test_matches_stable_argsort(self, values):
        # small integers force ties at and above the cut
        obj = np.array(values)
        want = np.argsort(-obj, kind="stable")[:3]
        assert set(mx._top_three(obj).tolist()) == set(want.tolist())

    def test_lattice_sized_plateau_takes_lowest_indices(self, lattice9):
        obj = np.zeros(len(lattice9.theta))
        obj[[70_000, 90_000]] = 1.0
        assert set(mx._top_three(obj).tolist()) == {0, 70_000, 90_000}


# Recipe tables whose M-step picks differed between numpy's default dispatch
# and X86_V4 (AVX-512) disabled while the seeds came from an unstable argsort.
_SIMD_DRAWS = (144, 209, 276, 284, 296)

_SIMD_PICKS_SCRIPT = """
import json, sys
sys.path.insert(0, {tests!r})
import test_mixture as t
games = tuple(t.default_games()) + t.load_games_config(t._CONFIG)
lat = t.mx._Lattice(games, t.PayoffCurve.shifted_log())
print(json.dumps(t._recipe_picks(lat, {draws!r})))
"""


def _recipe_picks(lat, draws):
    """(alpha, beta, kappa) of maximize on the listed draws of the seeded recipe."""
    rng = np.random.default_rng(7)
    picks = []
    for draw in range(max(draws) + 1):
        w = rng.uniform(0, 30, size=(9, 2, 2)) * (rng.uniform(size=(9, 1, 1)) < 0.8)
        if draw in draws:
            p, _ = lat.maximize(w, None, "constant")
            picks.append([p.alpha, p.beta, p.kappa])
    return picks


def _has_avx512() -> bool:
    from numpy._core._multiarray_umath import __cpu_features__

    return bool(__cpu_features__.get("AVX512_SKX"))


# numpy reports the AVX-512 dispatch targets above X86_V4 as enabled unless
# they are disabled by name
_AVX512_ABOVE_V4 = ("AVX512_ICL", "AVX512_SPR")

_CHECK_DISABLED = """
from numpy._core._multiarray_umath import __cpu_features__
still_on = [t for t in {disabled!r} if __cpu_features__.get(t)]
assert not still_on, f"dispatch targets still enabled: {{still_on}}"
"""


def _run_without_targets(script: str, targets) -> str:
    """stdout of script in a subprocess with the host's listed numpy dispatch
    targets disabled; the subprocess first asserts that none reads as enabled."""
    from numpy._core._multiarray_umath import __cpu_features__

    disabled = [t for t in targets if __cpu_features__.get(t)]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled))
    src = str(Path(mx.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _CHECK_DISABLED.format(disabled=disabled) + script],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout


@pytest.mark.skipif(not _has_avx512(), reason="host has no AVX-512 target to disable")
def test_mstep_picks_do_not_depend_on_simd_target(lattice9):
    here = _recipe_picks(lattice9, _SIMD_DRAWS)
    script = _SIMD_PICKS_SCRIPT.format(tests=str(Path(__file__).parent), draws=_SIMD_DRAWS)
    there = json.loads(_run_without_targets(script, ("X86_V4",) + _AVX512_ABOVE_V4))

    def sig12(picks):
        return [[f"{x:.12g}" for x in row] for row in picks]

    assert sig12(here) == sig12(there)


_LOGIT_SIMD_SCRIPT = """
import sys
sys.path.insert(0, {tests!r})
import numpy as np
import test_mixture as t
games = tuple(t.default_games()) + t.load_games_config(t._CONFIG)
lat = t.mx._Lattice(games, t.PayoffCurve.shifted_log())
print(t._coarse_logit_is_bitwise(lat, np.random.default_rng(1616)))
"""


def _coarse_logit_is_bitwise(lat, rng) -> bool:
    """Two coarse logit scans against the per-entry path, on one weight
    table with three zero-weight games: a cold one over the grid plus an
    off-grid lam, then a warm one, as a one-type fit's next M-step makes,
    that reads the grid columns from the slot and scores a new lam."""
    weights3 = rng.uniform(0.0, 30.0, size=(len(lat.games), 2, 2))
    weights3[rng.choice(len(lat.games), size=3, replace=False)] = 0.0
    same = []
    for _ in range(2):
        lams = np.unique(np.append(mx._LOGIT_LAM_GRID, rng.uniform(0.011, 0.98)))
        got = lat._coarse(weights3, "logit", lams)[0]
        want = _logit_every_entry(lat.margins, weights3, lams)[0]
        same.append(np.array_equal(_bits(got), _bits(want)))
    return all(same) and lat._grid_slot[0] == weights3.tobytes()


@pytest.mark.parametrize("disabled", ["X86_V4", "X86_V3 X86_V4"])
def test_coarse_logit_path_is_bitwise_under_lower_simd_targets(disabled):
    # the sparse row sums against the einsum reference, each run under the
    # same reduced numpy dispatch
    from numpy._core._multiarray_umath import __cpu_features__

    if not all(__cpu_features__.get(target) for target in disabled.split()):
        pytest.skip(f"host has no {disabled} target to disable")
    script = _LOGIT_SIMD_SCRIPT.format(tests=str(Path(__file__).parent))
    out = _run_without_targets(script, disabled.split() + list(_AVX512_ABOVE_V4))
    assert out.strip() == "True"


def _reference_score(lat, weights3, model, lam_grid):
    """score(theta): objective and lambda at each row of theta, from one
    _structure call (from the full pattern or margin table for lat.theta)."""

    def score(theta):
        if model == "constant":
            if theta is lat.theta:
                obj, lam = lat._objective_constant(lat.unique_patterns, weights3)
                return obj[lat.pattern_id], lam[lat.pattern_id]
            return lat._objective_constant(mx._structure(lat.coeffs, theta)[0], weights3)
        # every lam scored afresh: the coarse scan bypasses the grid slot
        table = (
            lat.logit_table
            if theta is lat.theta
            else mx._logit_table(mx._structure(lat.coeffs, theta)[1])
        )
        return mx._best_lam(mx._logit_columns(table, weights3, lam_grid), lam_grid, len(theta))

    return score


def _reference_refinement(lat, seeds, current, score):
    """(theta, obj, lam) over the sorted distinct seed, box and incumbent rows."""
    cand = [lat.theta[seeds]] + [mx._local_box(lat.theta[i], lat.step, 0.01) for i in seeds]
    if current is not None:
        cand.append(np.array([[current.alpha, current.beta, current.kappa]]))
    theta = np.vstack(cand)
    theta = theta[np.lexsort(theta.T[::-1])]
    theta = theta[np.r_[True, (theta[1:] != theta[:-1]).any(axis=1)]]
    return (theta, *score(theta))


def _maximize_reference(lat, weights3, current, model):
    """The point-level M-step search, kept as maximize's reference:
    _top_three over every lattice point's coarse value, one _structure call
    on the deduplicated candidates, the plateau mask over every point."""
    lam_grid = mx._LOGIT_LAM_GRID
    if current is not None:
        lam_grid = np.unique(np.append(lam_grid, current.lam))
    score = _reference_score(lat, weights3, model, lam_grid)
    obj, _ = score(lat.theta)
    seeds = mx._top_three(obj)
    theta, obj_f, lam_f = _reference_refinement(lat, seeds, current, score)
    best = obj_f.max()
    at_max = obj_f >= best - 1e-12
    coarse_at_max = obj >= best - 1e-12
    if coarse_at_max.any():
        centroid = lat.theta[coarse_at_max].mean(axis=0)[None, :]
    else:
        centroid = theta[at_max].mean(axis=0)[None, :]
    c_obj, c_lam = score(centroid)
    if c_obj[0] >= best - 1e-12:
        pick, pick_lam, best = centroid[0], c_lam[0], c_obj[0]
    else:
        first = int(np.argmax(at_max))
        pick, pick_lam = theta[first], lam_f[first]
    if model == "logit":
        pick_lam, best = mx._polish_logit_lam(lat, pick, weights3, float(pick_lam), float(best))
    return (float(pick[0]), float(pick[1]), float(pick[2]), float(pick_lam)), float(best)


def _recipe_tables(n):
    """The first n weight tables of _recipe_picks's seeded recipe."""
    rng = np.random.default_rng(7)
    return [
        rng.uniform(0, 30, size=(9, 2, 2)) * (rng.uniform(size=(9, 1, 1)) < 0.8)
        for _ in range(n)
    ]


_OFF_LATTICE = PreferenceParams(alpha=0.1234, beta=-0.0567, kappa=0.3141, lam=0.17)


def _as_bits(p, obj):
    return _bits([p.alpha, p.beta, p.kappa, p.lam, obj]).tolist()


class TestPatternLevelMaximize:
    def test_constant_picks_match_reference_on_recipe_tables(self, lattice9):
        for weights3 in _recipe_tables(300):
            for current in (None, _OFF_LATTICE):
                want_p, want_obj = _maximize_reference(lattice9, weights3, current, "constant")
                p, obj = lattice9.maximize(weights3, current, "constant")
                assert _as_bits(p, obj) == _bits([*want_p, want_obj]).tolist()

    def test_logit_picks_match_reference(self, games9, shifted_log):
        # a 0.1 lattice keeps the logit scans short; the first recipe tables
        lat = mx._Lattice(games9, shifted_log, 0.1)
        for weights3 in _recipe_tables(3):
            for current in (None, _OFF_LATTICE):
                want_p, want_obj = _maximize_reference(lat, weights3, current, "logit")
                p, obj = lat.maximize(weights3, current, "logit")
                assert _as_bits(p, obj) == _bits([*want_p, want_obj]).tolist()

    @settings(max_examples=150, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 3), min_size=36, max_size=36),
        zero_games=st.lists(st.integers(0, 8), max_size=9),
    )
    @example(counts=[0] * 36, zero_games=[])
    @example(counts=[1] * 36, zero_games=[0, 1, 2, 3, 4, 5, 6, 7])
    def test_pool_seeds_equal_top_three_over_every_point(self, lattice9, counts, zero_games):
        # small integer counts and empty games make wide plateaus of tied values
        weights3 = np.array(counts, dtype=float).reshape(9, 2, 2)
        weights3[zero_games] = 0.0
        obj, unit, pool = lattice9._coarse(weights3, "constant", None)
        want = mx._top_three(obj[unit])
        assert np.array_equal(pool[mx._top_three(obj[unit[pool]])], want)

    def test_second_call_hits_the_box_memo(self, games9, shifted_log, monkeypatch):
        lat = mx._Lattice(games9, shifted_log, 0.1)
        (weights3,) = _recipe_tables(1)
        first = [lat.maximize(weights3, cur, "constant") for cur in (None, _OFF_LATTICE)]
        memo = dict(lat._boxes)
        assert 1 <= len(memo) <= 3
        misses = []
        original = mx._distinct_patterns

        def spy(patterns):
            misses.append(len(patterns))
            return original(patterns)

        monkeypatch.setattr(mx, "_distinct_patterns", spy)
        again = [lat.maximize(weights3, cur, "constant") for cur in (None, _OFF_LATTICE)]
        assert misses == []
        assert lat._boxes.keys() == memo.keys()
        assert all(lat._boxes[k] is memo[k] for k in memo)
        assert [_as_bits(*r) for r in again] == [_as_bits(*r) for r in first]
        # the memo holds int8 pattern rows and small integer inverses only
        for rows, inverse in memo.values():
            assert rows.dtype == np.int8 and inverse.dtype.itemsize <= 2


def _seeds_and_incumbents(lat, weights3, model, lam_grid, lam):
    """maximize's seeds on weights3, and incumbents at lam that equal a box
    row, fall between two box rows of one (alpha, beta), sort before every
    candidate and sort after every candidate."""
    obj, unit, pool = lat._coarse(weights3, model, lam_grid)
    seeds = pool[mx._top_three(obj[unit[pool]])]
    boxes = [mx._local_box(lat.theta[i], lat.step, 0.01) for i in seeds]
    cand = np.vstack([lat.theta[seeds], *boxes])
    order = np.lexsort(cand.T[::-1])
    (a0, b0, k0), (a1, b1, k1) = cand[order[0]], cand[order[-1]]
    # a box's last kappa can overshoot 1 by an ulp, which PreferenceParams rejects
    box = boxes[1][boxes[1][:, 2] <= 0.99]
    row = box[len(box) // 3]
    rows = (row, row + [0.0, 0.0, 0.005], (a0, np.nextafter(b0, -np.inf), k0),
            (a1, np.nextafter(b1, np.inf), min(k1, 1.0)))
    return seeds, [PreferenceParams(alpha=a, beta=b, kappa=k, lam=lam) for a, b, k in rows]


class TestGridSlot:
    @pytest.fixture()
    def lat(self, games9, shifted_log):
        # a 0.1 lattice keeps the reference's per-entry scans short
        return mx._Lattice(games9, shifted_log, 0.1)

    def test_second_mstep_with_the_same_table_scores_the_incumbent_lam_only(
        self, lat, monkeypatch
    ):
        (weights3,) = _recipe_tables(1)
        n_values = len(lat.logit_table[0])
        sizes = []
        original = mx.log_expit

        def spy(x):
            sizes.append(np.size(x))
            return original(x)

        monkeypatch.setattr(mx, "log_expit", spy)
        lat.maximize(weights3, dataclasses.replace(_OFF_LATTICE, lam=0.3), "logit")
        # the eight grid lams and the incumbent's
        assert sizes.count(n_values) == 2 * 9
        incumbents = [PreferenceParams(alpha=0.3, beta=0.1, kappa=0.2, lam=lam)
                      for lam in (0.23, 0.2)]
        picks = []
        for current, coarse_calls in zip(incumbents, (2, 0)):  # 0.2 is a grid lam
            sizes.clear()
            picks.append(lat.maximize(weights3, current, "logit"))
            assert sizes.count(n_values) == coarse_calls
        monkeypatch.undo()
        for current, got in zip(incumbents, picks):
            want_p, want_obj = _maximize_reference(lat, weights3, current, "logit")
            assert _as_bits(*got) == _bits([*want_p, want_obj]).tolist()

    def test_alternating_tables_keep_one_entry_and_the_same_bits(self, lat):
        tables = _recipe_tables(2)
        want = [
            _bits([*wp, wo]).tolist()
            for wp, wo in (_maximize_reference(lat, w, _OFF_LATTICE, "logit") for w in tables)
        ]
        for weights3, bits in zip(tables * 2, want * 2):
            got = lat.maximize(weights3, _OFF_LATTICE, "logit")
            assert _as_bits(*got) == bits
            key, cols = lat._grid_slot
            assert key == weights3.tobytes()
            assert list(cols) == mx._LOGIT_LAM_GRID.tolist()


class TestCandidateMemo:
    @pytest.mark.parametrize("step", [0.05, 0.2])
    @pytest.mark.parametrize("model", ["constant", "logit"])
    def test_placed_incumbents_match_reference(self, games9, shifted_log, lattice9, step, model):
        # at step 0.2 the boxes reach past the bounds and are clipped
        lat = lattice9 if step == 0.05 else mx._Lattice(games9, shifted_log, step)
        lam_grid = np.unique(np.append(mx._LOGIT_LAM_GRID, 0.17))
        # a step-0.2 box holds up to 41 ** 3 points: one table there
        for weights3 in _recipe_tables(4 if (model, step) == ("constant", 0.05) else 1):
            memo = {}
            seeds, incumbents = _seeds_and_incumbents(lat, weights3, model, lam_grid, 0.17)
            score = _reference_score(lat, weights3, model, lam_grid)
            for current in incumbents:
                got = lat._refinement(seeds, current, weights3, model, lam_grid, memo)
                want = _reference_refinement(lat, seeds, current, score)
                assert all(np.array_equal(_bits(g), _bits(w)) for g, w in zip(got, want))
                want_p, want_obj = _maximize_reference(lat, weights3, current, model)
                p, obj = lat.maximize(weights3, current, model, memo)
                assert _as_bits(p, obj) == _bits([*want_p, want_obj]).tolist()
            assert len(memo) == 1

    def test_second_mstep_with_the_same_seeds_builds_no_candidates(self, lattice9, monkeypatch):
        (weights3,) = _recipe_tables(1)
        memo = {}
        lattice9.maximize(weights3, None, "constant", memo)
        built = []
        for name in ("_local_box", "_unique_rows"):
            original = getattr(mx, name)

            def spy(*args, _original=original, _name=name):
                built.append(_name)
                return _original(*args)

            monkeypatch.setattr(mx, name, spy)
        again = lattice9.maximize(weights3, _OFF_LATTICE, "constant", memo)
        assert built == [] and len(memo) == 1
        monkeypatch.undo()
        assert _as_bits(*again) == _as_bits(*lattice9.maximize(weights3, _OFF_LATTICE, "constant"))


class TestStructureAt:
    def test_matches_gather_on_random_and_tied_points(self, lattice9, rng):
        lat = lattice9
        random_theta = np.column_stack(
            [rng.uniform(-2, 2, 2000), rng.uniform(-2, 2, 2000), rng.uniform(0, 1, 2000)]
        )
        # zero and equal coordinates tie veil strategies; lattice points that
        # carry the tie code 2 sit on a margin's zero plane
        tied = lat.theta[(lat.patterns == 2).any(axis=(1, 2))]
        corners = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [-2.0, 2.0, 0.5]])
        for theta in (random_theta, tied, corners):
            pat, margins = mx._structure(lat.coeffs, theta)
            want_pat, want_margins = _structure_by_gather(lat, theta)
            assert np.array_equal(pat, want_pat)
            assert np.array_equal(_bits(margins), _bits(want_margins))
        assert len(tied) > 0


# ---------------------------------------------------------------------------
# diagnostics


class TestDiagnostics:
    def test_entropy_single_type(self):
        assert entropy(np.ones((25, 1))) == 0.0

    def test_entropy_uniform_rows(self):
        assert entropy(np.full((7, 2), 0.5)) == pytest.approx(7 * math.log(2), abs=1e-12)

    def test_entropy_validation(self):
        with pytest.raises(ValidationError):
            entropy(np.array([[0.5, -0.5]]))
        with pytest.raises(ValidationError):
            entropy(np.ones(4))

    def test_icl_reproduces_printed_columns(self):
        # printed (lnL, EN, N) inputs from the estimation table, pure formula
        assert icl(-2063.28, 1, 96, 0.0) == pytest.approx(4144.82, abs=0.02)
        assert icl(-1902.76, 2, 96, 4.00) == pytest.approx(3850.59, abs=0.02)
        assert icl(-1865.90, 3, 96, 13.50) == pytest.approx(3809.21, abs=0.02)

    def test_icl_validation(self):
        with pytest.raises(ValidationError):
            icl(-100.0, 1, 0)

    def test_nec_reproduces_printed_rows(self):
        two = nec(4.00, -1902.76, -2063.28)
        assert two == pytest.approx(4.00 / 160.52, abs=1e-9)
        assert two == pytest.approx(0.02, abs=0.005)
        three = nec(13.50, -1865.90, -2063.28)
        assert three == pytest.approx(13.50 / 197.38, abs=1e-9)
        assert three == pytest.approx(0.07, abs=0.005)

    def test_nec_undefined_signaled(self):
        with pytest.warns(UserWarning, match="NEC undefined"):
            out = nec(1.0, -50.0, -50.0)
        assert math.isnan(out)

    def test_nec_rounding_residue_is_undefined(self):
        for lnl_1 in (np.nextafter(-50.0, -np.inf), -50.0 * (1 + 15 * np.finfo(float).eps)):
            with pytest.warns(UserWarning, match="NEC undefined"):
                assert math.isnan(nec(1.0, -50.0, lnl_1))
        # a denominator of 1e-7 of lnL is a real gain and keeps its NEC
        assert nec(0.5, -100.0, -100.0 - 1e-5) == pytest.approx(0.5 / 1e-5, rel=1e-9)


# ---------------------------------------------------------------------------
# bootstrap


def _shuffled_ids(games, curve):
    """Two-type choices of 12 subjects whose ids sort in another order than
    the records list them, with the records shuffled."""
    types = [PreferenceParams(alpha=0.05, beta=0.08, kappa=0.25, lam=0.2),
             PreferenceParams(alpha=0.28, beta=-0.30, kappa=0.19, lam=0.2)]
    recs, _ = simulate_choices(types, [0.5, 0.5], games, curve, 12, seed=31)
    rename = {f"s{i:04d}": f"{'qzakmbxcwlpe'[i]}-{i}" for i in range(12)}
    order = np.random.default_rng(32).permutation(len(recs))
    return [dataclasses.replace(recs[i], subject_id=rename[recs[i].subject_id]) for i in order]


def _record_replicates(data, games, b, seed):
    """(count tensor, fit seed) of each bootstrap replicate, the record way:
    the drawn subjects rebuilt as records with ids b0000, b0001, ... and
    encoded."""
    by_subject = {}
    for r in data:
        by_subject.setdefault(r.subject_id, []).append(r)
    ids = sorted(by_subject)
    out = []
    for child in np.random.SeedSequence(seed).spawn(b):
        rng = np.random.default_rng(child)
        draw = rng.choice(len(ids), size=len(ids), replace=True)
        sample = [
            ChoiceRecord(f"b{copy:04d}", r.game_id, r.role, r.action)
            for copy, i in enumerate(draw)
            for r in by_subject[ids[i]]
        ]
        out.append((mx._encode(sample, games), int(rng.integers(2**31))))
    return out


class TestBootstrap:
    def test_b_floor(self, games9, shifted_log):
        rec = ChoiceRecord("s1", games9[0].game_id, "P", 0)
        with pytest.raises(ValidationError):
            bootstrap_se([rec], games9, shifted_log, k=1, b=1)

    def test_base_fit_must_match_k(self, games9, shifted_log):
        t = PreferenceParams(alpha=0.33, beta=0.09, kappa=0.26, lam=0.02)
        recs, _ = simulate_choices([t], [1.0], games9, shifted_log, 10, seed=3)
        base = em_fit(recs, games9, shifted_log, k=1)
        with pytest.raises(ValidationError, match="base fit"):
            bootstrap_se(recs, games9, shifted_log, k=2, b=2, base=base)

    def test_smoke_b2(self, games9, shifted_log):
        t = PreferenceParams(alpha=0.33, beta=0.09, kappa=0.26, lam=0.02)
        recs, _ = simulate_choices([t], [1.0], games9, shifted_log, 15, seed=21)
        se = bootstrap_se(recs, games9, shifted_log, k=1, b=2, seed=1)
        assert se.b == 2
        assert np.isfinite(se.param_se).all() and np.isfinite(se.share_se).all()
        assert se.share_se.shape == (1,) and se.param_se.shape == (1, 4)

    def test_generator_with_shared_kappa_has_tiny_kappa_se(self, games9, shifted_log):
        # both generating types carry kappa=0.26, so replicate fits re-find
        # the same lattice value and its SE collapses
        t1 = PreferenceParams(alpha=0.33, beta=0.09, kappa=0.26, lam=0.02)
        t2 = PreferenceParams(alpha=0.05, beta=0.30, kappa=0.26, lam=0.02)
        recs, _ = simulate_choices([t1, t2], [0.5, 0.5], games9, shifted_log, 80, seed=888)
        base = em_fit(recs, games9, shifted_log, k=2, seed=4)
        se = bootstrap_se(recs, games9, shifted_log, k=2, b=8, seed=5, base=base)
        assert np.all(se.param_se[:, 2] < 0.05)
        assert np.all(se.param_se[:, 2] < 1e-6)
        assert se.unresolved == 0

    @pytest.mark.filterwarnings("ignore:label switching")
    def test_replicates_run_no_nec_base_fit(self, games9, shifted_log, monkeypatch):
        t = PreferenceParams(alpha=0.33, beta=0.09, kappa=0.26, lam=0.02)
        recs, _ = simulate_choices([t], [1.0], games9, shifted_log, 10, seed=3)
        base = em_fit(recs, games9, shifted_log, k=2, seed=1, restarts=1)
        ks = []
        original = mx._em_once

        def spy(cnt, lattice, k, *args):
            ks.append(k)
            return original(cnt, lattice, k, *args)

        monkeypatch.setattr(mx, "_em_once", spy)
        bootstrap_se(recs, games9, shifted_log, k=2, b=2, seed=1, restarts=1, base=base)
        # one k=2 run per replicate and restart, none at k=1
        assert ks == [2, 2]

    @pytest.mark.filterwarnings("ignore:label switching")
    @pytest.mark.parametrize(
        "model, k, b, fit_kw",
        [("constant", 2, 3, {}), ("logit", 1, 2, {"max_iter": 2, "lattice_step": 0.1})],
    )
    def test_replicates_resample_count_rows(self, games9, shifted_log, monkeypatch,
                                            model, k, b, fit_kw):
        recs = _shuffled_ids(games9, shifted_log)
        ids = list(dict.fromkeys(r.subject_id for r in recs))
        assert ids != sorted(ids)
        base = em_fit(recs, games9, shifted_log, k=k, seed=1, restarts=1,
                      choice_model=model, **fit_kw)
        seen = []
        original = mx._em

        def spy(cnt, lattice, k, restarts, seed, **kw):
            seen.append((cnt, seed))
            return original(cnt, lattice, k, restarts, seed, **kw)

        monkeypatch.setattr(mx, "_em", spy)
        bootstrap_se(recs, games9, shifted_log, k=k, b=b, seed=9, restarts=1, base=base,
                     choice_model=model, **fit_kw)
        want = _record_replicates(recs, games9, b, seed=9)
        assert len(seen) == b
        for (cnt, seed), (want_cnt, want_seed) in zip(seen, want):
            assert cnt.dtype == want_cnt.dtype and np.array_equal(cnt, want_cnt)
            assert seed == want_seed

    @pytest.mark.filterwarnings("ignore:label switching")
    def test_records_encode_once_per_call(self, games9, shifted_log, monkeypatch):
        recs = _shuffled_ids(games9, shifted_log)
        calls = []
        original = mx._encode

        def spy(data, games):
            calls.append(len(data))
            return original(data, games)

        monkeypatch.setattr(mx, "_encode", spy)
        base = em_fit(recs, games9, shifted_log, k=2, seed=1, restarts=1, max_iter=3)
        # the k=2 fit and its k=1 NEC fit share one tensor
        assert calls == [len(recs)]
        for b in (2, 3):
            calls.clear()
            bootstrap_se(recs, games9, shifted_log, k=2, b=b, restarts=1, base=base,
                         max_iter=2)
            assert calls == [len(recs)]
        # without a base, its em_fit encodes once more, still not per replicate
        calls.clear()
        bootstrap_se(recs, games9, shifted_log, k=2, b=3, restarts=1, max_iter=2)
        assert calls == [len(recs)] * 2

    def test_share_se_shrinks_with_sample_size(self, games9, shifted_log):
        # quadrupling N spans two doublings; the per-doubling share-SE factor
        # sits in the 1/sqrt(N) window, lambda SEs shrink but are noisier at
        # this replicate count
        tA = PreferenceParams(alpha=0.05, beta=0.08, kappa=0.25, lam=0.02)
        tB = PreferenceParams(alpha=0.28, beta=-0.30, kappa=0.19, lam=0.02)
        ses = {}
        for n in (60, 240):
            recs, _ = simulate_choices([tA, tB], [0.6, 0.4], games9, shifted_log, n, seed=999)
            base = em_fit(recs, games9, shifted_log, k=2, seed=6)
            ses[n] = bootstrap_se(recs, games9, shifted_log, k=2, b=16, seed=7, base=base)
        per_doubling = np.sqrt(ses[60].share_se / ses[240].share_se)
        assert np.all(per_doubling >= 1.2) and np.all(per_doubling <= 1.7)
        assert np.all(ses[60].param_se[:, 3] > ses[240].param_se[:, 3])


# ---------------------------------------------------------------------------
# behavioral summaries


def _responder_records(actions: dict) -> list:
    return [ChoiceRecord("s1", gid, "R", act) for gid, act in actions.items()]


class TestImplicitRejection:
    GAMES = default_games()

    def test_all_accepted(self):
        recs = _responder_records({g.game_id: 0 for g in self.GAMES})
        out = implicit_rejection_threshold(recs, self.GAMES)
        assert out.points == 0.0 and out.non_monotone is False

    def test_single_rejection(self):
        actions = {g.game_id: 0 for g in self.GAMES}
        actions["mini-ug-85-15"] = 1
        out = implicit_rejection_threshold(_responder_records(actions), self.GAMES)
        assert out.points == 15.0 and out.non_monotone is False

    def test_two_rejections_take_the_larger_share(self):
        actions = {g.game_id: 0 for g in self.GAMES}
        actions["mini-ug-85-15"] = 1
        actions["mini-ug-80-20"] = 1
        out = implicit_rejection_threshold(_responder_records(actions), self.GAMES)
        assert out.points == 20.0 and out.non_monotone is False

    def test_non_monotone_pattern_flagged(self):
        # accepts the 15-point split while rejecting the 20-point one
        actions = {g.game_id: 0 for g in self.GAMES}
        actions["mini-ug-80-20"] = 1
        out = implicit_rejection_threshold(_responder_records(actions), self.GAMES)
        assert out.points == 20.0 and out.non_monotone is True

    def test_proposer_records_ignored(self):
        recs = [ChoiceRecord("s1", g.game_id, "P", 1) for g in self.GAMES]
        out = implicit_rejection_threshold(recs, self.GAMES)
        assert out.points == 0.0

    def test_unknown_game_rejected(self):
        with pytest.raises(ValidationError):
            implicit_rejection_threshold([ChoiceRecord("s1", "mystery", "R", 1)], self.GAMES)


class TestPredictBehavior:
    THRESHOLDS = {
        (0.14, 0.22): 0.85956,
        (0.05, 0.25): 0.29096,
        (0.28, 0.19): 1.83739,
        (0.13, 0.26): 0.83894,
    }
    TRANSFERS = {
        (0.13, 0.22, 0.26): 22.16191,
        (0.05, 0.08, 0.25): 15.05120,
        (-0.02, -0.08, 0.22): 5.97705,
        (0.14, -0.01, 0.22): 9.46557,
    }

    def test_ug_thresholds(self):
        for (a, k), want in self.THRESHOLDS.items():
            p = PreferenceParams(alpha=a, beta=0.0, kappa=k, lam=0.1)
            assert predict_behavior(p).ug_threshold == pytest.approx(want, abs=1e-4)

    def test_dg_transfers(self):
        for (a, b, k), want in self.TRANSFERS.items():
            p = PreferenceParams(alpha=a, beta=b, kappa=k, lam=0.1)
            assert predict_behavior(p).dg_transfer == pytest.approx(want, abs=1e-4)

    def test_zero_cells_exact(self):
        # alpha <= 0 kills the rejection threshold; beta + kappa < 0 kills
        # the transfer
        no_envy = PreferenceParams(alpha=-0.02, beta=-0.08, kappa=0.22, lam=0.1)
        assert predict_behavior(no_envy).ug_threshold == 0.0
        corner = PreferenceParams(alpha=0.28, beta=-0.30, kappa=0.19, lam=0.1)
        assert predict_behavior(corner).dg_transfer == 0.0
