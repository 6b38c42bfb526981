"""Symmetric Nash-set bounds and the grid best-response verifier.

The verifier is the ground truth for the equilibrium segment; the printed
offer upper bound is loose in concave configurations (see nash_set docs),
so segment assertions go through the verifier and the bound functions keep
formula-level checks only.
"""

import math
import warnings

import numpy as np
import pytest

from moralbargain import (
    PayoffCurve,
    constrained_offer,
    constrained_threshold,
    nash_set,
    rho_of_kappa,
    tau_of_kappa,
    verify_nash,
    x1_upper_of,
)
from moralbargain.errors import ValidationError
import moralbargain.nash as nash_mod
from moralbargain.nash import _verify
from moralbargain.params import PreferenceParams, Strategy
from moralbargain.utility import eval_expost_symmetric

W = 10.0
X1_UPPER_SL = 5.461264910281898  # root of 1.09 ln(11-x) = ln(x+1)
RHO_06_CRRA = 9.65  # kappa=0.6, step w/200


class TestTau:
    def test_corners(self, crra, shifted_log):
        assert tau_of_kappa(0.0, shifted_log, W) == 0.0
        assert tau_of_kappa(0.0, crra, W) == 0.0
        # strictly concave v: v'(w-x) >= v'(x) first holds at the half-split
        assert tau_of_kappa(1.0, crra, W) == pytest.approx(W / 2, abs=1e-9)

    def test_shifted_log_closed_form(self, shifted_log):
        # 1/(11-x) = 0.5/(x+1) solves to x = 3
        assert tau_of_kappa(0.5, shifted_log, W) == pytest.approx(3.0, abs=1e-9)

    def test_defining_inequality_flips_at_tau(self, shifted_log):
        tau = tau_of_kappa(0.5, shifted_log, W)
        ok = lambda x: shifted_log.derivative(W - x) >= 0.5 * shifted_log.derivative(x)
        assert ok(tau + 1e-9)
        assert not ok(tau - 1e-6)

    def test_nondecreasing_in_kappa(self, crra):
        ks = np.linspace(0.0, 1.0, 21)
        taus = [tau_of_kappa(float(k), crra, W) for k in ks]
        assert np.all(np.diff(taus) >= -1e-12)
        assert all(t <= W / 2 + 1e-12 for t in taus)

    def test_validation(self, crra):
        with pytest.raises(ValidationError):
            tau_of_kappa(1.5, crra, W)


class TestX1Upper:
    def test_alpha_equals_kappa_is_half(self, crra, shifted_log):
        assert x1_upper_of(0.3, 0.3, crra, W) == pytest.approx(W / 2, abs=1e-9)
        assert x1_upper_of(0.7, 0.7, shifted_log, W) == pytest.approx(W / 2, abs=1e-9)

    def test_linear_closed_form(self, linear, rng):
        for _ in range(25):
            k = rng.uniform(0.0, 1.0)
            a = rng.uniform(0.0, 2.0)
            want = W * (1.0 + a - k) / (2.0 + a - k)
            assert x1_upper_of(k, a, linear, W) == pytest.approx(want, abs=1e-9)

    def test_shifted_log_frozen_root(self, shifted_log):
        got = x1_upper_of(0.19, 0.28, shifted_log, W)
        assert got == pytest.approx(X1_UPPER_SL, abs=1e-6)
        assert 1.09 * np.log(11.0 - got) - np.log(got + 1.0) == pytest.approx(0.0, abs=1e-9)

    def test_defining_inequality_flips(self, crra):
        got = x1_upper_of(0.4, 0.9, crra, W)
        ok = lambda x: (1.0 - 0.4 + 0.9) * crra.value(W - x) >= crra.value(x)
        assert ok(got - 1e-9)
        assert not ok(got + 1e-6)
        # above the half-split only when alpha covers the kappa drag
        assert got >= W / 2

    @pytest.mark.parametrize("kappa, alpha", [
        (2.0, 0.5), (-1.0, 0.5), (float("nan"), 0.5), (0.5, float("nan")), (0.5, float("inf")),
    ])
    def test_degenerate_inputs_rejected(self, crra, kappa, alpha):
        # these gave 0.0, 7.24, 0.0, 0.0 and 10.0 (the last with a RuntimeWarning)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                x1_upper_of(kappa, alpha, crra, W)


def test_one_kappa_check_for_every_bound_and_root(crra, thresholds):
    calls = [
        lambda: tau_of_kappa(2.0, crra, W),
        lambda: x1_upper_of(2.0, 0.5, crra, W),
        lambda: constrained_offer(2.0, crra, thresholds, W),
        lambda: constrained_threshold(2.0, 0.5, crra, W),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match=r"kappa must lie in \[0, 1\], got 2\.0"):
            call()


class TestX2Lower:
    # nash_set's lower bound is the rejection threshold; it does not depend on
    # the lattice, so a coarse step keeps these calls cheap
    STEP = W / 20

    def test_matches_solver_threshold(self, crra, rng):
        for _ in range(20):
            k = rng.uniform(0.0, 0.99)
            a = rng.uniform(1e-3, 3.0)
            assert nash_set(k, a, crra, W, self.STEP).x2_lower == pytest.approx(
                constrained_threshold(k, a, crra, W), abs=1e-9
            )

    def test_full_universalization_limit(self, crra):
        assert nash_set(1.0, 0.5, crra, W, self.STEP).x2_lower == W / 2
        assert nash_set(1.0, 0.0, crra, W, self.STEP).x2_lower == 0.0

    def test_nondecreasing_in_alpha(self, crra):
        alphas = np.linspace(0.05, 2.5, 15)
        vals = [nash_set(0.3, float(a), crra, W, self.STEP).x2_lower for a in alphas]
        assert np.all(np.diff(vals) > 0)


class TestVerifier:
    def test_equal_split_passes(self, crra, shifted_log):
        for curve in (crra, shifted_log):
            for k, a in ((0.5, 0.5), (0.2, 0.0), (0.9, 1.5)):
                chk = verify_nash(Strategy(W / 2, W / 2), k, a, curve, W)
                assert chk.is_nash
                assert chk.gain <= 1e-9
                assert chk.best_deviation is None

    def test_failing_profile_reports_deviation(self, crra):
        chk = verify_nash(Strategy(0.5, 4.0), 0.3, 1.0, crra, W)
        assert not chk.is_nash
        assert chk.gain > 1e-9
        assert chk.best_deviation is not None
        # the reported deviation realizes the reported gain on the lattice
        assert 0.0 <= chk.best_deviation.x1 <= W

    def test_offers_below_the_threshold_bound_never_survive(self, crra, rng):
        # 200 sampled profiles one lattice step clear of the boundary layer
        step = W / 400
        done = 0
        while done < 200:
            k = rng.uniform(0.05, 0.95)
            a = rng.uniform(1e-2, 2.0)
            x2lo = constrained_threshold(k, a, crra, W)
            if x2lo <= step:
                continue
            profile = Strategy(rng.uniform(0.0, x2lo - step), rng.uniform(0.0, W))
            assert not verify_nash(profile, k, a, crra, W).is_nash
            done += 1

    def test_grid_step_validation(self, crra):
        with pytest.raises(ValidationError):
            verify_nash(Strategy(5.0, 5.0), 0.5, 0.5, crra, W, grid_step=-0.1)

    @pytest.mark.parametrize("step", [math.inf, math.nan, W / 2 + 1e-9, 2 * W])
    def test_grid_step_that_collapses_the_lattice_rejected(self, crra, step):
        # a step above w/2 rounds the lattice to {0}, where every profile
        # would pass vacuously; this profile has a deviation gaining ~7
        bad = Strategy(0.5, 4.0)
        with pytest.raises(ValidationError):
            verify_nash(bad, 0.3, 1.0, crra, W, grid_step=step)
        with pytest.raises(ValidationError):
            rho_of_kappa(0.6, crra, W, step)
        with pytest.raises(ValidationError):
            nash_set(0.6, 0.5, crra, W, grid_step=step)

    def test_half_endowment_step_is_the_coarsest_accepted(self, crra):
        chk = verify_nash(Strategy(0.5, 4.0), 0.3, 1.0, crra, W, grid_step=W / 2)
        assert not chk.is_nash

    def test_batch_matches_one_profile_calls(self, crra, shifted_log, rng):
        step = W / 50
        profiles = [Strategy(x, x) for x in (0.0, W / 2, W)]
        profiles += [Strategy(float(a), float(b)) for a, b in rng.uniform(0.0, W, size=(30, 2))]
        for curve in (crra, shifted_log):
            for k, a in ((0.6, 0.5), (0.3, 1.0), (1.0, 0.0)):
                batch = _verify(profiles, k, a, curve, W, step)
                assert batch == [verify_nash(s, k, a, curve, W, step) for s in profiles]
                assert not all(chk.is_nash for chk in batch)

    def test_own_utility_matches_expost_evaluator(self, crra, shifted_log, linear, rng, monkeypatch):
        # each gain is the kernel's best deviation minus eval_expost_symmetric
        # of the profile against itself, to the bit; the profiles include
        # stub probes with x1 < x2, x1 = w and the lattice ends
        step = W / 50
        tau = tau_of_kappa(0.5, shifted_log, W)
        profiles = [Strategy(tau, 0.5 * tau), Strategy(tau, 0.0), Strategy(tau, tau + 2 * step)]
        profiles += [Strategy(W, 0.0), Strategy(W, 3.0), Strategy(W, W), Strategy(0.0, 0.0)]
        profiles += [Strategy(0.0, W), Strategy(1.0, 4.0), Strategy(4.0, 4.0 + 1e-12)]
        profiles += [Strategy(float(a), float(b)) for a, b in rng.uniform(0.0, W, size=(30, 2))]
        best = []
        real = nash_mod.kernels.deviation_best

        def recorded(*args):
            out = real(*args)
            best.extend(out[0].tolist())
            return out

        monkeypatch.setattr(nash_mod.kernels, "deviation_best", recorded)
        for curve in (crra, shifted_log, linear):
            for k, a in ((0.5, 0.0), (0.6, 0.5), (0.3, 1.0), (1.0, 2.0)):
                best.clear()
                checks = _verify(profiles, k, a, curve, W, step)
                p = PreferenceParams(alpha=a, kappa=k)
                for s, u, chk in zip(profiles, best, checks):
                    want = u - eval_expost_symmetric(p, curve, s, s, W)
                    assert repr(chk.gain) == repr(want)
                    assert chk.is_nash == (want <= 1e-9)

    @pytest.mark.parametrize(
        "bad", [(-0.1, 1.0), (1.0, -1e-9), (W + 1e-9, 5.0), (5.0, W + 0.1), (math.nan, 1.0), (1.0, math.nan)]
    )
    def test_profile_outside_the_square_rejected(self, crra, bad):
        with pytest.raises(ValidationError):
            verify_nash(Strategy(*bad), 0.6, 0.5, crra, W)
        # one bad profile in a batch rejects the batch
        with pytest.raises(ValidationError):
            _verify([Strategy(5.0, 5.0), Strategy(*bad)], 0.6, 0.5, crra, W, W / 50)

    def test_chunked_batch_matches_one_call(self, crra, rng, monkeypatch):
        # a cell budget of four profiles on the 51-point lattice splits 51
        # profiles into twelve chunks of four and one of three
        step = W / 50
        profiles = [Strategy(float(a), float(b)) for a, b in rng.uniform(0.0, W, size=(40, 2))]
        profiles += [Strategy(x, x) for x in np.linspace(0.0, W, 11).tolist()]
        one = _verify(profiles, 0.6, 0.5, crra, W, step)
        chunks = []
        real = nash_mod.kernels.deviation_best

        def counted(*args):
            chunks.append(len(args[-1]))
            return real(*args)

        monkeypatch.setattr(nash_mod, "_VERIFY_CELLS", 4 * 51)
        monkeypatch.setattr(nash_mod.kernels, "deviation_best", counted)
        assert _verify(profiles, 0.6, 0.5, crra, W, step) == one
        assert chunks == [4] * 12 + [3]
        assert not all(chk.is_nash for chk in one)


class TestRho:
    def test_full_universalization_shrinks_to_half(self, crra):
        assert rho_of_kappa(1.0, crra, W, 0.1) == pytest.approx(W / 2)

    def test_frozen_value_and_definition(self, crra):
        step = W / 200
        rho = rho_of_kappa(0.6, crra, W, step)
        assert rho == pytest.approx(RHO_06_CRRA, abs=1e-9)
        assert verify_nash(Strategy(rho, rho), 0.6, 0.0, crra, W, step).is_nash
        beyond = rho + step
        assert not verify_nash(Strategy(beyond, beyond), 0.6, 0.0, crra, W, step).is_nash

    def test_nonincreasing_in_kappa(self, crra):
        step = W / 100
        rhos = [rho_of_kappa(float(k), crra, W, step) for k in (0.2, 0.4, 0.6, 0.8, 1.0)]
        assert np.all(np.diff(rhos) <= 1e-12)


class TestNashSet:
    def test_validation(self, crra):
        with pytest.raises(ValidationError):
            nash_set(0.0, 0.5, crra, W)
        with pytest.raises(ValidationError):
            nash_set(0.5, -0.1, crra, W)

    def test_segment_composition_and_verifier_consistency(self, crra):
        step = W / 100
        ns = nash_set(0.6, 0.5, crra, W, grid_step=step)
        assert ns.set_kind == "SymmetricSegment"
        assert ns.x2_lower == pytest.approx(constrained_threshold(0.6, 0.5, crra, W), abs=1e-9)
        assert ns.formula_segment[0] == pytest.approx(max(ns.x2_lower, ns.tau), abs=1e-12)
        assert ns.formula_segment[1] == pytest.approx(min(ns.x1_upper, ns.rho), abs=1e-12)
        lo, hi = ns.segment
        # the verified run brackets the formula segment to within a step
        assert lo <= ns.formula_segment[0] + step
        assert hi >= ns.formula_segment[1] - step
        # endpoints pass, one step beyond each endpoint fails
        assert verify_nash(Strategy(lo, lo), 0.6, 0.5, crra, W, step).is_nash
        assert verify_nash(Strategy(hi, hi), 0.6, 0.5, crra, W, step).is_nash
        assert not verify_nash(Strategy(lo - step, lo - step), 0.6, 0.5, crra, W, step).is_nash
        assert not verify_nash(Strategy(hi + step, hi + step), 0.6, 0.5, crra, W, step).is_nash

    def test_interior_grid_points_pass(self, crra):
        step = W / 100
        ns = nash_set(0.6, 0.5, crra, W, grid_step=step)
        lo, hi = ns.segment
        for x in np.linspace(lo, hi, 7):
            x = round(x / step) * step
            assert verify_nash(Strategy(x, x), 0.6, 0.5, crra, W, step).is_nash

    def test_asymmetric_stub_when_tau_exceeds_threshold(self, shifted_log):
        # alpha=0 puts the acceptance bound at 0 while tau=3: the stub
        # {x1 = tau, x2 <= tau} survives and is reported
        ns = nash_set(0.5, 0.0, shifted_log, W, grid_step=0.1)
        assert ns.set_kind == "SegmentPlusAsymmetricStub"
        assert ns.tau == pytest.approx(3.0, abs=1e-9)
        stub_x1, (stub_lo, stub_hi) = ns.asymmetric_stub
        assert stub_x1 == ns.tau
        assert (stub_lo, stub_hi) == (0.0, ns.tau)
        assert "stub-direction-x2-below" in ns.flags
        assert ns.segment[0] == pytest.approx(3.0, abs=1e-9)

    def test_alpha_zero_shape(self, shifted_log):
        # either x2 <= x1 = tau, or tau < x1 = x2 <= rho
        ns = nash_set(0.5, 0.0, shifted_log, W, grid_step=0.1)
        assert ns.asymmetric_stub is not None
        lo, hi = ns.segment
        assert lo == pytest.approx(ns.tau, abs=0.1)
        assert hi <= ns.rho + 1e-12

    def test_lower_edge_monotone_in_alpha(self, crra):
        # enlarging alpha weakly raises the segment's lower edge
        edges = []
        for a in (0.0, 0.5, 1.0, 1.5):
            ns = nash_set(0.6, a, crra, W, grid_step=0.1)
            edges.append(max(ns.x2_lower, ns.tau))
        assert np.all(np.diff(edges) >= -1e-12)
