"""The three workloads: inputs built from the seed, timed operations, and checks.

Each operation is one result a user asks for, through the CLI entry point
(`cli.main(argv)`, in process) or the public API. Its check compares the
output against `reference.py` or against properties the model must have,
and returns the list of problems found (empty when the output is right).
Package functions are looked up on their modules at call time, so the
traced mode's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io as _io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_CSV = ROOT / "data" / "test_sample.csv"
GAMES_JSON = ROOT / "data" / "games_config.json"

THEORY_W = 10.0
ESTIMATION_W = 58.8
NASH_TOL = 1e-9  # the verifier's own pass tolerance on the deviation gain
ROOT_TOL = 1e-9  # threshold-root residual
OPT_TOL = 1e-6  # utility margin of the solver's strategy below the grid optimum


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def run_cli(cli, argv) -> int:
    """cli.main(argv) with its stdout captured, as a user calling the entry point."""
    with contextlib.redirect_stdout(_io.StringIO()):
        return cli.main(argv)


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_sample() -> list:
    with open(SAMPLE_CSV, newline="") as fh:
        return [row for row in csv.DictReader(fh)]


def write_rows(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)


# ---------------------------------------------------------------------------
# theory-sweep


def check_strategy_cells(cells, model: ref.UltimatumModel, abar: float, where: str) -> list:
    """Region shapes, R3 only above alpha-bar, threshold roots, and optimality.

    cells: (alpha, kappa, region, x1, x2) tuples. Optimality: the strategy
    scores no worse than the w/400 grid optimum, less OPT_TOL.
    """
    bad = []
    for alpha, kappa, region, x1, x2 in cells:
        tag = f"{where} cell (alpha={alpha:g}, kappa={kappa:g})"
        shape_ok = {"R1": x1 >= x2, "R2": x1 == x2, "R3": x1 < x2}.get(region)
        if not shape_ok:
            bad.append(f"{tag}: region {region} does not match ({x1}, {x2})")
        if alpha <= 0.0 and (region != "R1" or x2 != 0.0):
            bad.append(f"{tag}: alpha <= 0 must give R1 with x2 = 0, got {region} x2={x2}")
        if region == "R3" and alpha < abar - 1e-4:
            bad.append(f"{tag}: R3 below alpha-bar {abar:.6f}")
        if x2 > 0.0 and region != "R2":
            resid = model.threshold_residual(alpha, kappa, x2)
            if not resid < ROOT_TOL:
                bad.append(f"{tag}: threshold residual {resid:.3g}")
        _, _, u_grid = model.grid_argmax(alpha, kappa, 400)
        u_sol = float(model.utility(alpha, kappa, x1, x2))
        if not u_sol >= u_grid - OPT_TOL:
            bad.append(f"{tag}: {region} utility {u_sol:.9f} below grid optimum {u_grid:.9f}")
    return bad


class TheorySweep:
    """Default theory configuration: region map, two statics runs, the sample batch."""

    name = "theory-sweep"

    def __init__(self, mb, seed: int, workdir: Path):
        self.mb, self.workdir = mb, workdir
        self.cfg3 = workdir / "statics-alpha3.json"
        with open(self.cfg3, "w") as fh:
            json.dump({"kappa_grid": [0.0, 0.05, 6]}, fh)
        rows = read_sample()
        random.Random(seed).shuffle(rows)
        self.pairs = [(float(r["alpha"]), float(r["kappa"])) for r in rows]
        self.curve = mb.PayoffCurve.crra(0.05)
        self.beliefs = mb.BeliefDistribution.scaled_beta(2.0, 4.0, THEORY_W)
        self.model = None

    def reset(self) -> None:
        pass

    def _model(self) -> ref.UltimatumModel:
        if self.model is None:
            beliefs = ref.IntBeta(2, 4, THEORY_W)
            self.model = ref.UltimatumModel(ref.Curve("crra", 0.05), beliefs, beliefs, THEORY_W)
            self.abar = self.model.alpha_bar()
        return self.model

    def ops(self) -> list:
        cli, mb, wd = self.mb.cli, self.mb, self.workdir
        return [
            Op("region_map",
               lambda: run_cli(cli, ["region-map", "--format", "json", "--out", str(wd / "map")]),
               self.check_map),
            Op("statics_alpha_0.5",
               lambda: run_cli(cli, ["statics", "--alpha", "0.5", "--format", "json",
                                     "--out", str(wd / "statics-0.5")]),
               lambda rc: self.check_statics(rc, "statics-0.5", 0.5)),
            Op("statics_alpha_3",
               lambda: run_cli(cli, ["statics", "--alpha", "3", "--config", str(self.cfg3),
                                     "--format", "json", "--out", str(wd / "statics-3")]),
               lambda rc: self.check_statics(rc, "statics-3", 3.0)),
            Op("classify_sample",
               lambda: mb.classify_many(self.pairs, self.curve, self.beliefs, self.beliefs, THEORY_W),
               self.check_classify),
        ]

    def check_map(self, rc) -> list:
        if rc != 0:
            return [f"region-map exited {rc}"]
        body = read_json(self.workdir / "map" / "region_map.json")
        model = self._model()
        cells = [(c["alpha"], c["kappa"], c["region"], c["x1_star"], c["x2_star"])
                 for c in body["cells"]]
        bad = []
        if len(cells) != 41 * 39:
            bad.append(f"region map has {len(cells)} cells, expected 1599")
        if not abs(body["alpha_bar"] - self.abar) <= 1e-4:
            bad.append(f"alpha-bar {body['alpha_bar']} vs recomputed {self.abar}")
        tally = {r: sum(c[2] == r for c in cells) for r in ("R1", "R2", "R3")}
        if body["counts"] != tally:
            bad.append(f"counts {body['counts']} do not tally the cells {tally}")
        return bad + check_strategy_cells(cells, model, self.abar, "map")

    def check_statics(self, rc, sub: str, alpha: float) -> list:
        if rc != 0:
            return [f"statics alpha={alpha:g} exited {rc}"]
        body = read_json(self.workdir / sub / "statics.json")
        model = self._model()
        cells = [(alpha, r["kappa"], r["region"], r["x1_star"], r["x2_star"]) for r in body["rows"]]
        bad = check_strategy_cells(cells, model, self.abar, f"statics alpha={alpha:g}")
        switches = body["switches"]
        if len(switches) != 1:
            return bad + [f"statics alpha={alpha:g}: {len(switches)} switches, expected 1"]
        if alpha == 3.0:
            sw = switches[0]
            if not (sw["x1_jump"] > 0.0 and sw["x2_jump"] < 0.0):
                bad.append(f"alpha=3 switch: offer jump {sw['x1_jump']}, "
                           f"threshold jump {sw['x2_jump']}")
            lo = model.grid_argmax(alpha, sw["kappa"] - 1e-3, 1000)
            hi = model.grid_argmax(alpha, sw["kappa"] + 1e-3, 1000)
            if not (lo[0] < lo[1] and hi[0] == hi[1]):
                bad.append(f"alpha=3 switch at {sw['kappa']:.6f}: grid optimum "
                           f"({lo[0]}, {lo[1]}) below and ({hi[0]}, {hi[1]}) above")
        return bad

    def check_classify(self, cells) -> list:
        model = self._model()
        bad = []
        if len(cells) != len(self.pairs):
            bad.append(f"classify_many returned {len(cells)} cells for {len(self.pairs)} pairs")
        for c, (alpha, kappa) in zip(cells, self.pairs):
            if (c.alpha, c.kappa) != (alpha, kappa):
                bad.append(f"classify_many cell ({c.alpha}, {c.kappa}) out of order")
                break
        tuples = [(c.alpha, c.kappa, c.region, c.x1_star, c.x2_star) for c in cells]
        return bad + check_strategy_cells(tuples, model, self.abar, "sample")


# ---------------------------------------------------------------------------
# equilibrium-oracle

# (kappa, alpha): kappa = 1 and alpha = 0 are the degenerate ends of the Nash set.
NASH_FIXED = ((1.0, 0.5), (0.6, 0.0), (0.6, 0.5), (0.3, 1.0))
# The seed adds two pairs from this lattice; every lattice pair passes the checks.
NASH_KAPPAS = tuple(round(0.05 * i, 2) for i in range(1, 20))
NASH_ALPHAS = tuple(round(0.25 * i, 2) for i in range(0, 11))
NASH_SEEDED = 2


class EquilibriumOracle:
    """nash_set over fixed and seeded (kappa, alpha) pairs, then oracle-check."""

    name = "equilibrium-oracle"

    def __init__(self, mb, seed: int, workdir: Path):
        self.mb, self.workdir = mb, workdir
        rng = random.Random(seed)
        seeded = [(rng.choice(NASH_KAPPAS), rng.choice(NASH_ALPHAS)) for _ in range(NASH_SEEDED)]
        self.pairs = list(NASH_FIXED) + seeded
        self.curve = mb.PayoffCurve.crra(0.05)
        self.ref_curve = ref.Curve("crra", 0.05)

    def reset(self) -> None:
        pass

    def ops(self) -> list:
        mb, wd = self.mb, self.workdir
        ops = [
            Op(f"nash_set_{i}_k{kappa:g}_a{alpha:g}",
               lambda kappa=kappa, alpha=alpha: mb.nash_set(kappa, alpha, self.curve, THEORY_W),
               lambda nb, kappa=kappa, alpha=alpha: self.check_nash(nb, kappa, alpha))
            for i, (kappa, alpha) in enumerate(self.pairs)
        ]
        # the command's own draws use its default seed, so every run does the same work
        ops.append(Op("oracle_check",
                      lambda: run_cli(mb.cli, ["oracle-check", "--format", "json",
                                               "--out", str(wd / "oracle")]),
                      self.check_oracle))
        return ops

    def check_nash(self, nb, kappa: float, alpha: float) -> list:
        tag = f"nash_set(kappa={kappa:g}, alpha={alpha:g})"
        curve, w = self.ref_curve, THEORY_W
        bad = []
        if nb.segment is None:
            bad.append(f"{tag}: no segment")
        else:
            axis = np.linspace(0.0, w, 401)
            lo_i = int(np.argmin(np.abs(axis - nb.segment[0])))
            hi_i = int(np.argmin(np.abs(axis - nb.segment[1])))
            for i in (lo_i, hi_i):
                gain = ref.nash_gain(curve, w, kappa, alpha, float(axis[i]))
                if not gain <= NASH_TOL:
                    bad.append(f"{tag}: endpoint {axis[i]:g} has a deviation gaining {gain:.3g}")
            for i in (lo_i - 1, hi_i + 1):
                if 0 <= i <= 400:
                    gain = ref.nash_gain(curve, w, kappa, alpha, float(axis[i]))
                    if not gain > NASH_TOL:
                        bad.append(f"{tag}: {axis[i]:g}, one step outside the segment, "
                                   f"passes the best-response check")
        x2lo = nb.x2_lower
        if kappa == 1.0:
            want = 0.5 * w if alpha > 0.0 else 0.0
            if x2lo != want:
                bad.append(f"{tag}: x2_lower {x2lo} at kappa = 1, expected {want}")
        elif alpha <= 0.0:
            if x2lo != 0.0:
                bad.append(f"{tag}: x2_lower {x2lo} with alpha <= 0")
        else:
            resid = abs(float((1.0 + alpha - kappa) * curve.v(x2lo) - alpha * curve.v(w - x2lo)))
            if not resid < ROOT_TOL:
                bad.append(f"{tag}: x2_lower residual {resid:.3g}")
        tau = nb.tau
        if tau > 0.0:
            below = tau - 1e-9 if tau > 1e-9 else 0.0
            if not curve.dv(w - tau) >= kappa * curve.dv(tau):
                bad.append(f"{tag}: tau {tau} fails v'(w - tau) >= kappa v'(tau)")
            if curve.dv(w - below) >= kappa * curve.dv(below):
                bad.append(f"{tag}: the tau condition already holds at {below}, below tau {tau}")
        return bad

    def check_oracle(self, rc) -> list:
        if rc != 0:
            return [f"oracle-check exited {rc}"]
        checks = read_json(self.workdir / "oracle" / "oracle_check.json")["checks"]
        names = {"optimal-vs-brute", "threshold-root-residual", "threshold-sign",
                 "dg-vs-brute", "foc-fd-match"}
        bad = [f"oracle-check {c['check']} failed (worst {c['worst']})"
               for c in checks if not c["pass"]]
        if {c["check"] for c in checks} != names or len(checks) != 5:
            bad.append(f"oracle-check listed {[c['check'] for c in checks]}")
        return bad


# ---------------------------------------------------------------------------
# estimation

# The criterion-8 two-type profile, its simulation seed and fit seed. The data
# and the program's seeds stay fixed: with seeded data the EM iteration counts,
# and with them the fit times, vary by 12% (constant model) to 45% (logit)
# between seeds. The benchmark seed shuffles the row order of both input files.
TYPE_A = dict(alpha=0.05, beta=0.08, kappa=0.25, lam=0.28)
TYPE_B = dict(alpha=0.28, beta=-0.30, kappa=0.19, lam=0.16)
SHARES = (0.61, 0.39)
N_SUBJECTS = 100
SIM_SEED = 400
FIT_SEED = 2
BOOTSTRAP_B = 3


class Estimation:
    """Simulated two-type choices: CLI estimate, bootstrap, logit fit, CLI predict."""

    name = "estimation"

    def __init__(self, mb, seed: int, workdir: Path):
        self.mb, self.workdir = mb, workdir
        mio = mb.io
        self.curve = mb.PayoffCurve.shifted_log()
        self.games = tuple(mb.default_games()) + mio.load_games_config(GAMES_JSON)
        types = [mb.PreferenceParams(**TYPE_A), mb.PreferenceParams(**TYPE_B)]
        records, _ = mb.simulate_choices(types, list(SHARES), self.games, self.curve,
                                         N_SUBJECTS, seed=SIM_SEED)
        records = list(records)
        rng = random.Random(seed)
        rng.shuffle(records)
        self.records = records
        self.choices_csv = workdir / "choices.csv"
        mio.save_choices(records, self.choices_csv)
        rows = read_sample()
        rng.shuffle(rows)
        self.sample = rows
        self.sample_csv = workdir / "estimates.csv"
        write_rows(self.sample_csv, ["id", "alpha", "beta", "kappa"],
                   [[r["id"], r["alpha"], r["beta"], r["kappa"]] for r in rows])
        self.counts = None
        self.fit_body = None
        # kept before the traced mode wraps the name, to clear the cache itself
        self._lattice_cache = getattr(mb.mixture, "_lattice_for", None)

    def reset(self) -> None:
        # every round pays for the lattice, as one `estimate` command does
        if hasattr(self._lattice_cache, "cache_clear"):
            self._lattice_cache.cache_clear()
        self.fit_body = None

    def ops(self) -> list:
        mb, wd = self.mb, self.workdir
        return [
            Op("estimate_k2",
               lambda: run_cli(mb.cli, ["estimate", "--choices", str(self.choices_csv),
                                        "--games", str(GAMES_JSON), "--k", "2",
                                        "--seed", str(FIT_SEED), "--format", "json",
                                        "--out", str(wd / "estimate")]),
               self.check_estimate),
            Op("bootstrap", self.run_bootstrap, self.check_bootstrap),
            Op("em_logit_k1",
               lambda: mb.em_fit(self.records, self.games, self.curve, k=1,
                                 seed=FIT_SEED, choice_model="logit"),
               self.check_logit),
            Op("predict",
               lambda: run_cli(mb.cli, ["predict", "--estimates", str(self.sample_csv),
                                        "--format", "json", "--out", str(wd / "predict")]),
               self.check_predict),
        ]

    def run_bootstrap(self):
        """bootstrap_se on the fit the estimate command wrote; it reads only the types."""
        mb = self.mb
        body = self.fit_body
        if body is None:
            raise RuntimeError("no estimate fit to bootstrap")
        params = tuple(mb.PreferenceParams(alpha=t["alpha"], beta=t["beta"], kappa=t["kappa"],
                                           lam=t["lambda"]) for t in body["types"])
        base = mb.MixtureFit(
            k=body["k"], params=params, shares=tuple(t["share"] for t in body["types"]),
            posterior=np.empty((0, body["k"])), loglik=body["loglik"], en=body["en"],
            icl=body["icl"], nec=body["nec"], n_subjects=body["n_subjects"],
            n_records=body["n_records"], choice_model=body["choice_model"],
            n_iter=body["n_iter"],
        )
        return mb.bootstrap_se(self.records, self.games, self.curve, k=2, b=BOOTSTRAP_B,
                               seed=FIT_SEED, base=base)

    # -- checks ----------------------------------------------------------------

    def _counts(self) -> np.ndarray:
        if self.counts is None:
            with open(self.choices_csv, newline="") as fh:
                rows = list(csv.DictReader(fh))
            subjects = sorted({r["subject_id"] for r in rows})
            s_idx = {s: i for i, s in enumerate(subjects)}
            g_idx = {g.game_id: i for i, g in enumerate(self.games)}
            counts = np.zeros((len(subjects), len(self.games), 2, 2))
            for r in rows:
                role = 0 if r["role"] == "P" else 1
                counts[s_idx[r["subject_id"]], g_idx[r["game_id"]], role, int(r["action"])] += 1
            self.counts = counts
        return self.counts

    def _check_fit(self, tag, model, k, types, loglik, icl_value) -> list:
        counts = self._counts()
        curve = ref.Curve("shifted_log")
        ll, en = ref.mixture_loglik(counts, self.games, curve, types, model)
        bad = []
        if len(types) != k:
            bad.append(f"{tag}: {len(types)} types, expected {k}")
        if not abs(ll - loglik) <= 1e-8 * abs(ll):
            bad.append(f"{tag}: log-likelihood {loglik} vs recomputed {ll}")
        n = counts.shape[0]
        want_icl = -2.0 * ll + (5 * k - 1) * math.log(n) + en
        if not abs(icl_value - want_icl) <= 1e-6 * max(1.0, abs(want_icl)):
            bad.append(f"{tag}: ICL {icl_value} vs -2lnL + (5k-1)lnN + EN = {want_icl}")
        return bad

    def check_estimate(self, rc) -> list:
        if rc != 0:
            return [f"estimate exited {rc}"]
        body = read_json(self.workdir / "estimate" / "estimate.json")
        self.fit_body = body
        types = body["types"]
        bad = self._check_fit("estimate k=2", "constant", 2, types, body["loglik"], body["icl"])
        nec, en = body["nec"], body["en"]
        # NEC = EN / (lnL_2 - lnL_1) with EN > 0, so lnL_2 >= lnL_1 iff NEC > 0
        if nec is None or not (math.isfinite(nec) and nec > 0.0 and en > 0.0):
            bad.append(f"estimate k=2: NEC {nec} with EN {en} does not show lnL_2 >= lnL_1")
        truth = (TYPE_A, TYPE_B)
        keys = ("alpha", "beta", "kappa")

        def dist(t, g):
            return sum(abs(t[c] - g[c]) for c in keys)

        order = (0, 1) if dist(types[0], truth[0]) + dist(types[1], truth[1]) <= \
            dist(types[0], truth[1]) + dist(types[1], truth[0]) else (1, 0)
        for slot, gen, share in zip(order, truth, SHARES):
            got = types[slot]
            if not (abs(got["share"] - share) <= 0.1
                    and all(abs(got[c] - gen[c]) <= 0.15 for c in keys)):
                bad.append(f"estimate k=2: type {slot} {got} does not recover {gen} at {share}")
        return bad

    def check_bootstrap(self, se) -> list:
        vals = np.concatenate([np.ravel(se.param_se), np.ravel(se.share_se)])
        bad = []
        if se.b != BOOTSTRAP_B or np.shape(se.param_se) != (2, 4):
            bad.append(f"bootstrap: b={se.b}, param_se shape {np.shape(se.param_se)}")
        if not (np.all(np.isfinite(vals)) and np.all(vals >= 0.0)):
            bad.append(f"bootstrap: standard errors not finite and >= 0: {vals}")
        return bad

    def check_logit(self, fit) -> list:
        types = [dict(share=s, alpha=p.alpha, beta=p.beta, kappa=p.kappa, **{"lambda": p.lam})
                 for p, s in zip(fit.params, fit.shares)]
        return self._check_fit("logit k=1", "logit", 1, types, fit.loglik, fit.icl)

    def check_predict(self, rc) -> list:
        if rc != 0:
            return [f"predict exited {rc}"]
        body = read_json(self.workdir / "predict" / "predict.json")
        curve, w = ref.Curve("shifted_log"), ESTIMATION_W
        subjects = body["subjects"]
        bad = []
        if [s["id"] for s in subjects] != [r["id"] for r in self.sample]:
            return [f"predict returned {len(subjects)} subjects, not the {len(self.sample)} given"]
        grid = np.linspace(0.0, w, 20_001)
        for s, r in zip(subjects, self.sample):
            alpha, beta, kappa = float(r["alpha"]), float(r["beta"]), float(r["kappa"])
            x, t = s["dg_transfer"], s["ug_threshold"]
            best = float(ref.dg_objective(curve, w, alpha, beta, kappa, grid).max())
            got = float(ref.dg_objective(curve, w, alpha, beta, kappa, x))
            if not (0.0 <= x <= w and got >= best - 1e-9):
                bad.append(f"predict {s['id']}: transfer {x} scores {got}, grid optimum {best}")
            if alpha <= 0.0:
                if t != 0.0:
                    bad.append(f"predict {s['id']}: threshold {t} with alpha <= 0")
            else:
                resid = abs(float((1.0 + alpha - kappa) * curve.v(t) - alpha * curve.v(w - t)))
                if not (t > 0.0 and resid < ROOT_TOL):
                    bad.append(f"predict {s['id']}: threshold {t} residual {resid:.3g}")
        for key, col in (("dg_summary", "dg_transfer"), ("ug_summary", "ug_threshold")):
            mean = float(np.mean([s[col] for s in subjects]))
            if not abs(body[key]["mean"] - mean) <= 1e-12 * max(1.0, abs(mean)):
                bad.append(f"predict {key} mean {body[key]['mean']} vs row mean {mean}")
        return bad


WORKLOADS = {cls.name: cls for cls in (TheorySweep, EquilibriumOracle, Estimation)}
