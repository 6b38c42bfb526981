"""Mixture-model tests: veil-strategy utilities, choice model, EM fits,
classification diagnostics, bootstrap SEs, and behavioral summaries.

Frozen fit values were computed from seeded synthetic samples on the
nine-game harness (six built-in mini ultimatum games plus the three
config games shipped in data/) and verified against hand counts before
freezing.
"""

import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import moralbargain.mixture as mx
from moralbargain import (
    BinaryGame,
    ChoiceRecord,
    PayoffCurve,
    PreferenceParams,
    ValidationError,
    bootstrap_se,
    choice_prob,
    default_games,
    em_fit,
    entropy,
    icl,
    implicit_rejection_threshold,
    logit_choice_prob,
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
# choice model


class TestChoiceProb:
    def test_named_values(self):
        assert choice_prob(1.0, 2.0, 1.0) == 0.5
        assert choice_prob(0.0, 2.0, 1.0) == 1.0
        assert choice_prob(0.16, 2.0, 1.0) == pytest.approx(0.92, rel=1e-12)

    def test_ties_are_half_regardless_of_lambda(self):
        for lam in (0.0, 0.2, 1.0):
            assert choice_prob(lam, 3.0, 3.0) == 0.5

    def test_sums_to_one_exactly(self, rng):
        for lam in rng.uniform(0.0, 1.0, 500):
            assert choice_prob(lam, 2.0, 1.0) + choice_prob(lam, 1.0, 2.0) == 1.0

    def test_bounds(self, rng):
        for _ in range(500):
            lam = float(rng.uniform(0.0, 1.0))
            u1, u2 = rng.normal(size=2)
            p = choice_prob(lam, u1, u2)
            assert 0.5 * lam <= p <= 1.0 - 0.5 * lam

    def test_validates_lambda(self):
        with pytest.raises(ValidationError):
            choice_prob(1.2, 1.0, 0.0)

    def test_logit_variant(self):
        with pytest.raises(ValidationError):
            logit_choice_prob(0.0, 1.0, 0.0)
        assert logit_choice_prob(1.0, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        p_big = logit_choice_prob(0.5, 2.0, 0.0)
        p_small = logit_choice_prob(0.5, 1.0, 0.0)
        assert p_big > p_small > 0.5
        total = logit_choice_prob(0.5, 2.0, 0.0) + logit_choice_prob(0.5, 0.0, 2.0)
        assert total == pytest.approx(1.0, abs=1e-12)


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
        fit = em_fit(recs, games9, shifted_log, k=2, seed=0)
        assert fit.shares[1] < 1.0 / (10 * fit.n_subjects)
        assert "type-1-degenerate-share" in fit.flags

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

    def test_degenerate_fit_arguments_rejected(self, games9, shifted_log):
        rec = ChoiceRecord("s1", games9[0].game_id, "P", 0)
        with pytest.raises(ValidationError, match="max_iter"):
            em_fit([rec], games9, shifted_log, k=1, max_iter=0)
        for step in (0.0, -0.05, math.nan, math.inf):
            with pytest.raises(ValidationError, match="lattice_step"):
                em_fit([rec], games9, shifted_log, k=1, lattice_step=step)
        for tol in (math.nan, -1e-6, math.inf):
            with pytest.raises(ValidationError, match="tol"):
                em_fit([rec], games9, shifted_log, k=1, tol=tol)

    def test_logit_model_runs(self, games9, shifted_log):
        t = PreferenceParams(alpha=0.33, beta=0.09, kappa=0.26, lam=0.02)
        recs, _ = simulate_choices([t], [1.0], games9, shifted_log, 20, seed=3)
        fit = em_fit(recs, games9, shifted_log, k=1, choice_model="logit")
        assert fit.choice_model == "logit"
        assert np.isfinite(fit.loglik)


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
            obj, lam = lat._score(lat.theta, weights3, "constant", None)
            want_obj, want_lam = lat._objective_constant(lat.patterns, weights3)
            assert np.array_equal(obj, want_obj)
            assert np.array_equal(lam, want_lam)

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


# ---------------------------------------------------------------------------
# bootstrap


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
