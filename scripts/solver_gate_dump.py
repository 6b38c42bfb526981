"""Print the solver bit-identity set: every checked value in full precision.

A solver change that claims to keep its results must leave this output
byte-identical. Run it on both commits and diff:

    python3 scripts/solver_gate_dump.py > after.txt

The set, all under the default configuration (w = 10, CRRA(0.05),
Beta(2, 4) beliefs on both sides):

- the JSON of the default CLI `oracle-check` (seed 0, 40 draws, step w/400);
- acceptance criterion 6's worst margin over its 300 draws (rng seed 6300),
  and the sha256 of the `repr` of the 300 SolverOutputs of those draws,
  one optimal_strategy call per draw, one line each;
- kappa-tilde at alpha = 2 and 3, and at criterion 6's 63 high-spite alpha;
- the sha256 of a freshly generated `region-map` CSV, and whether it equals
  tests/golden/region_map.csv;
- the sha256 of the JSON of CLI `statics --alpha 0.5`, and of CLI
  `statics --alpha 3` with kappa_grid [0, 0.05, 6];
- the `repr` of comparative_statics' switches (kappa, regions and both
  jumps) at alpha in {0.5, 1.5, 3} on the kappa grids [0, 0.95, 39] (the
  default) and [0, 0.5, 11], one line each;
- the sha256 of the `repr` of classify_many over the 96 subjects of
  data/test_sample.csv, one cell per line;
- the sha256 of the JSON and of the CSV of CLI `predict` on that file;
- the `repr` of nash_set at (kappa, alpha) = (1, 0.5), (0.6, 0), (0.6, 0.5)
  and (0.3, 1), and the sha256 of the `repr` of nash_set over the
  benchmark's lattice kappa in {0.05, ..., 0.95} x alpha in {0, 0.25, ..., 2.5},
  one line per pair;
- at kappa = 1, the `repr` of optimal_strategy at alpha in {-0.5, 0, 0.5, 2}
  with Beta(2, 4) and with always-accept offer beliefs, and of
  constrained_threshold at kappa in {1 - 1e-12, 1} and those alpha (or the
  class of the error it raises), one line each;
- the `repr` of optimal_vs_brute's worst margin on the 12 configurations
  of tests/test_oracle.py's _WIDE (linear, shifted log and CRRA(0.3) curves,
  uniform and Beta(2, 2) beliefs, w = 10 and 58.8; 12 draws, rng seed 8000
  plus the index, step w/400), and on 40 draws with empirical and with
  always-accept offer beliefs (rng seeds 9101 and 9102);
- the `repr` of brute_force_ug (its argmax cell and utility, step w/400) at
  8 fixed (alpha, kappa) points, kappa = 0 and 1 among them, on three
  configurations: the default, shifted log with uniform beliefs at
  w = 58.8, and the default with the empirical offer belief above;
- the sha256 of the bytes of TailIntegrals' own and other tails (both read
  through its one lookup, `_eval`) on one fixed dense query set: the
  100,001 table nodes on [0, w/2] and both float neighbours of each, the
  sample atoms and their neighbours, 20,000 points on [-w/10, 3w/5]
  (rng seed 2500), and 0, -0, w/2, w, NaN and +-inf; for the default offer
  belief, the empirical offer belief of the optimal_vs_brute line above and
  the always-accept offer belief, under CRRA(0.05);
- per curve (linear, CRRA(0.05), shifted log), the sha256 of the bytes of
  dg_transfer over 300 ParamLanes at w = 58.8 (rng seed 1300: alpha, beta
  and kappa drawn per lane);
- per curve (linear, CRRA(0.05), shifted log), the sha256 of the `repr` of
  the utility evaluators on one fixed set of cases (rng seed 1700), one
  value per line:
  - eval_expected_utility and expected_utility_riemann at 24 (params,
    strategy) pairs, with x1 < x2, x1 = x2 and x1 > x2 strategies;
  - eval_expost_symmetric at 40 (params, own, other) profile pairs, each
    ordering of offer and threshold included;
  - brute_force_symmetric at 8 params, step w/400;
  and the sha256 of the bytes of dg_objective over 300 ParamLanes times
  41 transfers on [0, w] at w = 58.8 (rng seed 1300), and of
  constrained_offer over 50 kappa lanes (0, 1 and 48 drawn with rng seed
  1700);
- per curve (linear, CRRA(0.05), shifted log) and threshold belief
  (Beta(2, 4), uniform, the empirical belief above, always-accept), the
  `repr` of selfish_offer, alpha_bar, alpha_tilde at kappa = 0 and a
  _CachedProblem's x_s and abar, one line each configuration;
- kappa_tilde at alpha = NaN and -inf: its `repr`, or the class of the
  error it raises;
- the `repr` of kappa-tilde at 40 alpha spaced geometrically from 0.95 to
  100 times alpha-bar, one line each, solved as one batch on each of three
  configurations with a finite alpha-bar: shifted log at w = 58.8 and
  CRRA(0.3) at w = 10, both with Beta(2, 4) beliefs, and the linear curve
  with Beta(2, 2) beliefs at w = 10;
- the CLI output bytes: for each invocation below, each --format (json,
  csv) and each destination (stdout, and the file an --out run writes),
  the exit code and the sha256 of the output, one line each:
  - solve at (alpha, kappa) = (0.2, 0.1) (R1) and (0.5, 0.6) (R2);
  - dg at (0.13, 0.22, 0.26);
  - region-map, and statics --alpha 0.5, on alpha_grid [-1, 3, 5] and
    kappa_grid [0.4, 0.52, 4];
  - nash --kappa 0.6 --alpha 0.5;
  - predict on data/test_sample.csv, with and without --suppress-kappa,
    and on a one-row file at (alpha, beta, kappa) = (0.5, 0, 1);
  - estimate --k 1 --bootstrap 2 on 12 simulated subjects (one type,
    simulation seed 12, shifted log, the built-in games);
  - metrics with --lnl1, and oracle-check --draws 4 (its stdout is the
    printed table under either format).

Output depends on numpy's SIMD dispatch: transcendental ufuncs may round
differently under another target, so compare runs on one machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from moralbargain import (  # noqa: E402
    BeliefDistribution,
    MoralBargainError,
    PayoffCurve,
    PreferenceParams,
    Strategy,
    alpha_bar,
    alpha_tilde,
    classify_many,
    comparative_statics,
    constrained_offer,
    constrained_threshold,
    default_games,
    dg_transfer,
    eval_expected_utility,
    eval_expost_symmetric,
    kappa_tilde,
    nash_set,
    optimal_strategy,
    selfish_offer,
    simulate_choices,
)
from moralbargain.io import load_estimates, save_choices  # noqa: E402
from moralbargain.cli import main as cli_main  # noqa: E402
from moralbargain.oracle import (  # noqa: E402
    brute_force_symmetric,
    brute_force_ug,
    expected_utility_riemann,
    optimal_vs_brute,
)
from moralbargain.params import ParamLanes  # noqa: E402
from moralbargain.solver import _CachedProblem  # noqa: E402
from moralbargain.utility import TailIntegrals, dg_objective  # noqa: E402

W = 10.0
ALPHA_BAR = 0.908812520585837  # as in tests/test_acceptance.py
GOLDEN_MAP = ROOT / "tests" / "golden" / "region_map.csv"
SAMPLE = ROOT / "data" / "test_sample.csv"


def cli_output(argv: list[str], name: str) -> tuple[int, str]:
    """Run one CLI subcommand into a fresh directory; its exit code and the named
    file's text ("" when a failed run wrote none)."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(argv + ["--out", tmp])
        out = Path(tmp) / name
        text = out.read_text() if out.exists() else ""
    return code, text


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_lines() -> list[str]:
    """The exit code and output sha256 of each CLI invocation x format x destination."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "small-grid.json"
        cfg.write_text(json.dumps({"alpha_grid": [-1.0, 3.0, 5], "kappa_grid": [0.4, 0.52, 4]}))
        choices = Path(tmp) / "choices.csv"
        truth = PreferenceParams(alpha=0.33, beta=0.09, kappa=0.26, lam=0.1)
        records, _ = simulate_choices([truth], [1.0], default_games(), PayoffCurve.shifted_log(),
                                      12, seed=12)
        save_choices(records, choices)
        kappa_one = Path(tmp) / "kappa-one.csv"
        kappa_one.write_text("id,alpha,beta,kappa\na,0.5,0.0,1.0\n")
        runs = [
            ("solve R1", ["solve", "--alpha", "0.2", "--kappa", "0.1"], "solve"),
            ("solve R2", ["solve", "--alpha", "0.5", "--kappa", "0.6"], "solve"),
            ("dg", ["dg", "--alpha", "0.13", "--beta", "0.22", "--kappa", "0.26"], "dg"),
            ("region-map", ["region-map", "--config", str(cfg)], "region_map"),
            ("statics", ["statics", "--alpha", "0.5", "--config", str(cfg)], "statics"),
            ("nash", ["nash", "--kappa", "0.6", "--alpha", "0.5"], "nash"),
            ("predict", ["predict", "--estimates", str(SAMPLE)], "predict"),
            ("predict --suppress-kappa",
             ["predict", "--estimates", str(SAMPLE), "--suppress-kappa"], "predict"),
            ("predict kappa=1", ["predict", "--estimates", str(kappa_one)], "predict"),
            ("estimate", ["estimate", "--choices", str(choices), "--k", "1", "--bootstrap", "2"],
             "estimate"),
            ("metrics", ["metrics", "--lnl", "-1865.90", "--k", "3", "--n", "96", "--en", "13.50",
                         "--lnl1", "-2063.28"], "metrics"),
            ("oracle-check", ["oracle-check", "--draws", "4"], "oracle_check"),
        ]
        for label, argv, name in runs:
            for fmt in ("json", "csv"):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli_main(argv + ["--format", fmt])
                lines.append(f"cli {label} {fmt} stdout: exit={code} sha256={sha(buf.getvalue())}")
                code, text = cli_output(argv + ["--format", fmt], f"{name}.{fmt}")
                lines.append(f"cli {label} {fmt} --out: exit={code} sha256={sha(text)}")
    return lines


def utility_cases(rng: np.random.Generator, n: int, w: float):
    """n (params, strategy) pairs: offers and thresholds drawn on [0, w/2],
    every third pair put on the diagonal, so x1 < x2, x1 = x2 and x1 > x2 all occur."""
    cases = []
    for i in range(n):
        p = PreferenceParams(alpha=rng.uniform(-1.0, 3.0), beta=rng.uniform(-1.0, 1.0),
                             kappa=rng.uniform(0.0, 1.0))
        x1, x2 = rng.uniform(0.0, 0.5 * w, 2)
        cases.append((p, Strategy(x1, x1 if i % 3 == 0 else x2)))
    return cases


def utility_lines(curve, beliefs, w: float) -> str:
    """The utility evaluators' values on utility_cases (rng seed 1700), one per line."""
    rng = np.random.default_rng(1700)
    lines = []
    for p, s in utility_cases(rng, 24, w):
        lines.append(repr(eval_expected_utility(p, curve, beliefs, beliefs, s, w)))
        lines.append(repr(expected_utility_riemann(p, curve, beliefs, beliefs, s, w)))
    pairs = utility_cases(rng, 80, w)
    for (p, own), (_, other) in zip(pairs[::2], pairs[1::2]):
        lines.append(repr(eval_expost_symmetric(p, curve, own, other, w)))
    for p, _ in utility_cases(rng, 8, w):
        lines.append(repr(brute_force_symmetric(p, curve, beliefs, beliefs, w, w / 400)))
    return "\n".join(lines)


def tail_lines(curve, offers: dict[str, BeliefDistribution], atoms, w: float) -> list[str]:
    """The sha256 of the own and other tails' bytes at one dense query set, per offer belief."""
    grid = np.linspace(0.0, 0.5 * w, 100_001)
    atoms = np.asarray(atoms, dtype=float)
    queries = np.concatenate([
        grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
        atoms, np.nextafter(atoms, -np.inf), np.nextafter(atoms, np.inf),
        np.random.default_rng(2500).uniform(-0.1 * w, 0.6 * w, 20_000),
        [0.0, -0.0, 0.5 * w, w, np.nan, np.inf, -np.inf],
    ])
    lines = []
    for name, belief in offers.items():
        tails = TailIntegrals(belief, curve, w)
        digest = hashlib.sha256(tails.own(queries).tobytes() + tails.other(queries).tobytes())
        lines.append(f"tail integrals, {name} offers, {queries.size} queries: "
                     f"sha256={digest.hexdigest()}")
    return lines


def main() -> None:
    curve = PayoffCurve.crra(0.05)
    beliefs = BeliefDistribution.scaled_beta(2.0, 4.0, W)

    code, text = cli_output(["oracle-check", "--format", "json"], "oracle_check.json")
    print(f"oracle-check default: exit={code}\n{text}")

    worst = optimal_vs_brute(np.random.default_rng(6300), 300, curve, beliefs, beliefs, W, W / 400)
    print(f"criterion 6 worst margin: {worst!r}")
    rng = np.random.default_rng(6300)  # the runner's draws: alpha, then kappa
    draws = [(rng.uniform(-1.0, 3.0), rng.uniform(0.0, 0.95)) for _ in range(300)]
    outs = "\n".join(
        repr(optimal_strategy(PreferenceParams(alpha=a, kappa=k), curve, beliefs, beliefs, W))
        for a, k in draws
    )
    print(f"criterion 6 outputs sha256: {sha(outs)}")

    for a in (2.0, 3.0):
        print(f"kappa_tilde({a!r}): {kappa_tilde(a, curve, beliefs, beliefs, W)!r}")
    ktils = [kappa_tilde(float(a), curve, beliefs, beliefs, W)
             for a in np.linspace(ALPHA_BAR + 1e-3, 2.0, 63)]
    print(f"kappa_tilde at the 63 high-spite alpha: {ktils!r}")

    code, text = cli_output(["region-map", "--format", "csv"], "region_map.csv")
    print(f"region-map default: exit={code} csv sha256={sha(text)} "
          f"equals golden: {text == GOLDEN_MAP.read_text()}")

    code, text = cli_output(["statics", "--alpha", "0.5", "--format", "json"], "statics.json")
    print(f"statics alpha=0.5: exit={code} json sha256={sha(text)}")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "statics-alpha3.json"
        cfg.write_text(json.dumps({"kappa_grid": [0.0, 0.05, 6]}))
        code, text = cli_output(
            ["statics", "--alpha", "3", "--config", str(cfg), "--format", "json"], "statics.json"
        )
    print(f"statics alpha=3 on kappa_grid [0, 0.05, 6]: exit={code} json sha256={sha(text)}")
    for a in (0.5, 1.5, 3.0):
        for grid in ((0.0, 0.95, 39), (0.0, 0.5, 11)):
            res = comparative_statics(a, np.linspace(*grid), curve, beliefs, beliefs, W)
            print(f"comparative_statics({a!r}) on kappa grid {list(grid)!r}: {res.switches!r}")

    records, _ = load_estimates(SAMPLE)
    cells = classify_many([(r.alpha, r.kappa) for r in records], curve, beliefs, beliefs, W)
    print(f"classify_many over {len(cells)} sample subjects: repr sha256="
          f"{sha(chr(10).join(repr(c) for c in cells))}")
    for fmt in ("json", "csv"):
        code, text = cli_output(["predict", "--estimates", str(SAMPLE), "--format", fmt],
                                f"predict.{fmt}")
        print(f"predict on the sample: exit={code} {fmt} sha256={sha(text)}")

    for kappa, alpha in ((1.0, 0.5), (0.6, 0.0), (0.6, 0.5), (0.3, 1.0)):
        print(f"nash_set({kappa!r}, {alpha!r}): {nash_set(kappa, alpha, curve, W)!r}")
    lattice = "\n".join(
        repr(nash_set(round(0.05 * i, 2), round(0.25 * j, 2), curve, W))
        for i in range(1, 20) for j in range(11)
    )
    print(f"nash_set over the 19 x 11 (kappa, alpha) lattice: repr sha256={sha(lattice)}")

    edge_alphas = (-0.5, 0.0, 0.5, 2.0)
    edge_offers = {"Beta(2, 4)": beliefs, "always-accept": BeliefDistribution.always_accept(W)}
    for name, offers in edge_offers.items():
        for a in edge_alphas:
            out = optimal_strategy(PreferenceParams(alpha=a, kappa=1.0), curve, beliefs, offers, W)
            print(f"optimal_strategy({a!r}, 1.0), {name} offers: {out!r}")
    for kappa in (1.0 - 1e-12, 1.0):
        for a in edge_alphas:
            try:
                got = repr(constrained_threshold(kappa, a, curve, W))
            except MoralBargainError as exc:
                got = f"raises {type(exc).__name__}"
            print(f"constrained_threshold({kappa!r}, {a!r}): {got}")

    wide_curves = {"linear": PayoffCurve.linear(), "shifted-log": PayoffCurve.shifted_log(),
                   "crra(0.3)": PayoffCurve.crra(0.3)}
    wide = itertools.product(wide_curves, ("uniform", "beta(2,2)"), (W, 58.8))
    for k, (name, belief, w) in enumerate(wide):
        dist = (BeliefDistribution.uniform_on_half(w) if belief == "uniform"
                else BeliefDistribution.scaled_beta(2.0, 2.0, w))
        worst = optimal_vs_brute(np.random.default_rng(8000 + k), 12, wide_curves[name],
                                 dist, dist, w, w / 400)
        print(f"optimal_vs_brute {name} {belief} w={w!r}: {worst!r}")
    sample = [0.5, 1.0, 1.0, 1.5, 2.0, 2.5, 2.5, 3.0, 4.0, 5.0]
    for seed, name, offers in ((9101, "empirical", BeliefDistribution.empirical(sample, W)),
                               (9102, "always-accept", BeliefDistribution.always_accept(W))):
        worst = optimal_vs_brute(np.random.default_rng(seed), 40, curve, beliefs, offers, W, W / 400)
        print(f"optimal_vs_brute {name} offers: {worst!r}")
    grid_configs = {
        "default": (curve, beliefs, beliefs, W),
        "shifted-log uniform w=58.8": (PayoffCurve.shifted_log(),
                                       BeliefDistribution.uniform_on_half(58.8),
                                       BeliefDistribution.uniform_on_half(58.8), 58.8),
        "empirical offers": (curve, beliefs, BeliefDistribution.empirical(sample, W), W),
    }
    grid_points = ((-1.0, 0.0), (0.0, 0.0), (1.0, 0.1), (0.5, 0.3), (2.0, 0.6),
                   (-0.5, 0.9), (3.0, 0.95), (0.5, 1.0))
    for name, (g_curve, th, offers, w) in grid_configs.items():
        for a, k in grid_points:
            got = brute_force_ug(PreferenceParams(alpha=a, kappa=k), g_curve, th, offers, w, w / 400)
            print(f"brute_force_ug({a!r}, {k!r}), {name}: {got!r}")
    tail_offers = {"default": beliefs, "empirical": BeliefDistribution.empirical(sample, W),
                   "always-accept": BeliefDistribution.always_accept(W)}
    print("\n".join(tail_lines(curve, tail_offers, sample, W)))

    rng = np.random.default_rng(1300)
    lanes = ParamLanes(
        rng.uniform(-1.0, 3.0, 300), rng.uniform(-1.0, 1.0, 300), rng.uniform(0.0, 1.0, 300)
    )
    for dg_curve in (PayoffCurve.linear(), curve, PayoffCurve.shifted_log()):
        digest = hashlib.sha256(dg_transfer(lanes, dg_curve, 58.8).tobytes()).hexdigest()
        print(f"dg_transfer over 300 lanes, {dg_curve.label()}: sha256={digest}")

    transfers = np.linspace(0.0, 58.8, 41)[:, None]
    kappas = np.concatenate([[0.0, 1.0], np.random.default_rng(1700).uniform(0.0, 1.0, 48)])
    for u_curve in (PayoffCurve.linear(), curve, PayoffCurve.shifted_log()):
        name = u_curve.label()
        print(f"utility evaluators, {name}: repr sha256={sha(utility_lines(u_curve, beliefs, W))}")
        digest = hashlib.sha256(dg_objective(lanes, u_curve, transfers, 58.8).tobytes()).hexdigest()
        print(f"dg_objective over 300 lanes x 41 transfers, {name}: sha256={digest}")
        digest = hashlib.sha256(constrained_offer(kappas, u_curve, beliefs, W).tobytes()).hexdigest()
        print(f"constrained_offer over 50 kappa lanes, {name}: sha256={digest}")

    lane_beliefs = {"Beta(2, 4)": beliefs, "uniform": BeliefDistribution.uniform_on_half(W),
                    "empirical": BeliefDistribution.empirical(sample, W),
                    "always-accept": BeliefDistribution.always_accept(W)}
    for s_curve in (PayoffCurve.linear(), curve, PayoffCurve.shifted_log()):
        for name, th in lane_beliefs.items():
            prob = _CachedProblem(s_curve, th, th, W)
            print(f"kappa = 0 lane, {s_curve.label()}, {name} thresholds: "
                  f"selfish_offer={selfish_offer(s_curve, th, W)!r} "
                  f"alpha_bar={alpha_bar(s_curve, th, W)!r} "
                  f"alpha_tilde(0.0)={alpha_tilde(0.0, s_curve, th, W)!r} "
                  f"_CachedProblem x_s={prob.x_s!r} abar={prob.abar!r}")
    for a in (float("nan"), -float("inf")):
        try:
            got = repr(kappa_tilde(a, curve, beliefs, beliefs, W))
        except MoralBargainError as exc:
            got = f"raises {type(exc).__name__}"
        print(f"kappa_tilde({a!r}): {got}")

    ktil_configs = {
        "shifted-log Beta(2, 4) w=58.8": (PayoffCurve.shifted_log(),
                                          BeliefDistribution.scaled_beta(2.0, 4.0, 58.8), 58.8),
        "crra(0.3) Beta(2, 4) w=10": (PayoffCurve.crra(0.3), beliefs, W),
        "linear Beta(2, 2) w=10": (PayoffCurve.linear(), BeliefDistribution.scaled_beta(2.0, 2.0, W),
                                   W),
    }
    for name, (k_curve, belief, w) in ktil_configs.items():
        prob = _CachedProblem(k_curve, belief, belief, w)
        k_alphas = (np.geomspace(0.95, 100.0, 40) * prob.abar).tolist()
        for a, kt in zip(k_alphas, prob.kappa_tildes(k_alphas)):
            print(f"kappa_tilde({a!r}), {name}: {kt!r}")

    print("\n".join(cli_lines()))


if __name__ == "__main__":
    main()
