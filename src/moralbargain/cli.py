"""Command-line surface for the solvers, the estimator, and the predictors.

Subcommands
    solve         one (alpha, beta, kappa) -> optimal strategy plus region
    dg            dictator transfer for one parameter triple
    region-map    R1/R2/R3 classification over the configured grid
    statics       strategy components along a kappa path at fixed alpha
    nash          symmetric equilibrium segment and bounds at (kappa, alpha)
    predict       per-subject DG/UG predictions from an estimates CSV
    estimate      finite-mixture EM fit of binary choice data
    metrics       ICL/NEC from a supplied log-likelihood, EN, K, and N
    oracle-check  brute-force consistency table for the analytic solvers

Global flags: --config (JSON run configuration), --seed, --out (directory;
default prints to stdout), --format {json,csv}. Exit codes: 0 success,
2 validation failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from io import StringIO
from pathlib import Path

import numpy as np

from . import io as mio
from .curves import PayoffCurve
from .errors import ConvergenceError, IndeterminateError, ValidationError
from .mixture import bootstrap_se, default_games, em_fit, icl, nec
from .nash import _DEFAULT_GRID_DIVISOR, nash_set
from .oracle import (
    brute_force_dg,
    foc_residual,
    optimal_vs_brute,
)
from .params import ESTIMATION_ENDOWMENT, LATTICE_STEP_BOUNDS, PreferenceParams, Strategy
from .solver import (
    comparative_statics,
    constrained_threshold,
    optimal_strategy,
    region_map,
)
from .utility import dg_objective, dg_transfer


# ---------------------------------------------------------------------------
# output plumbing


def _kv_csv(payload: dict) -> str:
    """Two-column key,value rendering for scalar payloads."""
    import csv as _csv

    buf = StringIO()
    wtr = _csv.writer(buf, lineterminator="\n")
    wtr.writerow(["key", "value"])
    for key, val in payload.items():
        if isinstance(val, (dict, list, tuple)):
            val = json.dumps(val)
        elif isinstance(val, float):
            val = format(val, ".10g")
        wtr.writerow([key, val])
    return buf.getvalue()


def _deliver(name: str, payload: dict, csv_body: str | None, out_dir, fmt: str) -> None:
    text = (csv_body if csv_body is not None else _kv_csv(payload)) if fmt == "csv" else mio.json_text(payload)
    if out_dir:
        path = Path(out_dir) / f"{name}.{fmt}"
        mio.write_text(path, text)
        print(path)
    else:
        sys.stdout.write(text)


def _nan_none(x: float | None) -> float | None:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return None
    return x


_CURVE_FLAGS = {
    "linear": lambda rho: PayoffCurve.linear(),
    "crra": lambda rho: PayoffCurve.crra(rho),
    "shifted-log": lambda rho: PayoffCurve.shifted_log(),
}


def _prediction_setup(args, cfg: mio.RunConfig) -> tuple[float, PayoffCurve]:
    """Endowment and curve for DG/UG prediction commands.

    Explicit flags win, then an explicit --config, then the estimation
    defaults (w = 58.8, shifted log); the built-in config is theory-side
    and would silently change the predicted scale.
    """
    if args.curve is not None:
        curve = _CURVE_FLAGS[args.curve](args.rho)
    elif args.config is not None:
        curve = cfg.curve
    else:
        curve = PayoffCurve.shifted_log()
    if args.w is not None:
        w = args.w
    elif args.config is not None:
        w = cfg.w
    else:
        w = ESTIMATION_ENDOWMENT
    return w, curve


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_solve(args, cfg, seed, out_dir, fmt) -> int:
    p = PreferenceParams(alpha=args.alpha, beta=args.beta, kappa=args.kappa)
    out = optimal_strategy(p, cfg.curve, cfg.thresholds, cfg.offers, cfg.w)
    payload = {
        "alpha": args.alpha,
        "beta": args.beta,
        "kappa": args.kappa,
        "w": cfg.w,
        "curve": cfg.curve.label(),
        "region": out.region,
        "optimal": {"x1": out.optimal.x1, "x2": out.optimal.x2},
        "x_selfish": out.x_selfish,
        "x_constrained": out.x_constrained,
        "threshold": out.threshold,
        "symmetric": _nan_none(out.symmetric),
        "alpha_bar": out.alpha_bar,
        "alpha_tilde": out.alpha_tilde,
        "kappa_tilde": _nan_none(out.kappa_tilde),
        "flags": list(out.flags),
    }
    _deliver("solve", payload, None, out_dir, fmt)
    return 0


def _cmd_dg(args, cfg, seed, out_dir, fmt) -> int:
    w, curve = _prediction_setup(args, cfg)
    p = PreferenceParams(alpha=args.alpha, beta=args.beta, kappa=args.kappa)
    transfer = dg_transfer(p, curve, w)
    payload = {
        "alpha": args.alpha,
        "beta": args.beta,
        "kappa": args.kappa,
        "w": w,
        "curve": curve.label(),
        "transfer": transfer,
        "share": transfer / w,
    }
    _deliver("dg", payload, None, out_dir, fmt)
    return 0


def _cmd_region_map(args, cfg, seed, out_dir, fmt) -> int:
    result = region_map(cfg.alphas(), cfg.kappas(), cfg.curve, cfg.thresholds, cfg.offers, cfg.w)
    payload = {
        "w": cfg.w,
        "curve": cfg.curve.label(),
        "alpha_bar": result.alpha_bar,
        "counts": result.counts(),
        "cells": [
            {
                "alpha": c.alpha,
                "kappa": c.kappa,
                "region": c.region,
                "x1_star": c.x1_star,
                "x2_star": c.x2_star,
            }
            for c in result.cells
        ],
    }
    _deliver("region_map", payload, mio.region_map_csv_text(result), out_dir, fmt)
    return 0


def _cmd_statics(args, cfg, seed, out_dir, fmt) -> int:
    res = comparative_statics(args.alpha, cfg.kappas(), cfg.curve, cfg.thresholds, cfg.offers, cfg.w)
    payload = {
        "alpha": args.alpha,
        "w": cfg.w,
        "curve": cfg.curve.label(),
        "rows": [
            {"kappa": r.kappa, "x1_star": r.x1_star, "x2_star": r.x2_star, "region": r.region}
            for r in res.rows
        ],
        "switches": [
            {
                "kappa": s.kappa,
                "from_region": s.from_region,
                "to_region": s.to_region,
                "x1_jump": s.x1_jump,
                "x2_jump": s.x2_jump,
            }
            for s in res.switches
        ],
    }
    csv_body = mio.csv_text(
        ["kappa", "x1_star", "x2_star", "region"],
        [(r.kappa, r.x1_star, r.x2_star, r.region) for r in res.rows],
    )
    _deliver("statics", payload, csv_body, out_dir, fmt)
    return 0


def _cmd_nash(args, cfg, seed, out_dir, fmt) -> int:
    nb = nash_set(args.kappa, args.alpha, cfg.curve, cfg.w, grid_step=args.step)
    stub = None
    if nb.asymmetric_stub is not None:
        x1, (lo, hi) = nb.asymmetric_stub
        stub = {"x1": x1, "x2_range": [lo, hi]}
    payload = {
        "kappa": args.kappa,
        "alpha": args.alpha,
        "w": cfg.w,
        "curve": cfg.curve.label(),
        "tau": nb.tau,
        "x2_lower": nb.x2_lower,
        "x1_upper": nb.x1_upper,
        "rho": _nan_none(nb.rho),
        "set_kind": nb.set_kind,
        "segment": list(nb.segment) if nb.segment is not None else None,
        "formula_segment": list(nb.formula_segment) if nb.formula_segment is not None else None,
        "asymmetric_stub": stub,
        "flags": list(nb.flags),
    }
    _deliver("nash", payload, None, out_dir, fmt)
    return 0


def _cmd_predict(args, cfg, seed, out_dir, fmt) -> int:
    w, curve = _prediction_setup(args, cfg)
    records, report = mio.load_estimates(args.estimates)
    table = mio.predict_all(records, w=w, curve=curve, suppress_kappa=args.suppress_kappa)
    payload = mio.prediction_payload(table)
    payload["filter_report"] = {
        "n_read": report.n_read,
        "n_kept": report.n_kept,
        "n_dropped": report.n_dropped,
        "dropped_ids": list(report.dropped_ids),
        "stats": report.stats,
    }
    csv_body = mio.csv_text(
        ["subject_id", "dg_transfer", "ug_threshold"],
        [(r.subject_id, r.dg_transfer, r.ug_threshold) for r in table.rows],
    )
    _deliver("predict", payload, csv_body, out_dir, fmt)
    return 0


def _cmd_estimate(args, cfg, seed, out_dir, fmt) -> int:
    data = mio.load_choices(args.choices)
    games = list(default_games())
    if args.games is not None:
        games.extend(mio.load_games_config(args.games))
    if args.curve is not None:
        curve = _CURVE_FLAGS[args.curve](args.rho)
    elif args.config is not None:
        curve = cfg.curve
    else:
        curve = PayoffCurve.shifted_log()
    fit = em_fit(
        data,
        games,
        curve,
        k=args.k,
        restarts=args.restarts,
        seed=seed,
        choice_model=args.choice_model,
        max_iter=args.max_iter,
        lattice_step=args.lattice_step,
    )
    se = None
    if args.bootstrap > 0:
        se = bootstrap_se(
            data,
            games,
            curve,
            k=args.k,
            b=args.bootstrap,
            seed=seed,
            base=fit,
            choice_model=args.choice_model,
            max_iter=args.max_iter,
            lattice_step=args.lattice_step,
        )
    payload = mio.fit_payload(fit, se)
    header, rows = mio.fit_summary_table(fit, se)
    _deliver("estimate", payload, mio.csv_text(header, rows), out_dir, fmt)
    return 0


def _cmd_metrics(args, cfg, seed, out_dir, fmt) -> int:
    payload = {
        "lnl": args.lnl,
        "k": args.k,
        "n": args.n,
        "en": args.en,
        "icl": icl(args.lnl, args.k, args.n, args.en),
    }
    if args.lnl1 is not None:
        payload["nec"] = nec(args.en, args.lnl, args.lnl1)
    _deliver("metrics", payload, None, out_dir, fmt)
    return 0


def _cmd_oracle_check(args, cfg, seed, out_dir, fmt) -> int:
    rng = np.random.default_rng(seed)
    w = cfg.w
    step = w / 400.0 if args.step is None else args.step
    n = args.draws
    checks: list[dict] = []

    def record(name: str, count: int, worst: float, ok: bool) -> None:
        checks.append({"check": name, "n": count, "worst": worst, "pass": bool(ok)})

    # analytic optimum vs exhaustive grid
    worst = optimal_vs_brute(rng, n, cfg.curve, cfg.thresholds, cfg.offers, w, step)
    record("optimal-vs-brute", n, worst, worst >= -1e-6)

    # acceptance threshold solves the indifference equation
    worst = 0.0
    for _ in range(n):
        alpha = rng.uniform(1e-6, 3.0)
        kappa = rng.uniform(0.0, 0.95)
        t = constrained_threshold(kappa, alpha, cfg.curve, w)
        if t > 0.0:
            resid = abs((1.0 - kappa + alpha) * cfg.curve.value(t) - alpha * cfg.curve.value(w - t))
            worst = max(worst, resid)
    record("threshold-root-residual", n, worst, worst < 1e-10)

    # nonpositive alpha forces a zero threshold; positive alpha a positive one
    ok = True
    for _ in range(n):
        kappa = rng.uniform(0.0, 0.99)
        t0 = constrained_threshold(kappa, rng.uniform(-2.0, 0.0), cfg.curve, w)
        t1 = constrained_threshold(kappa, rng.uniform(1e-9, 2.0), cfg.curve, w)
        ok = ok and t0 == 0.0 and t1 > 0.0
    record("threshold-sign", n, 0.0, ok)

    # dictator transfer vs 1-D exhaustive scan, same objective
    worst = math.inf
    for _ in range(n):
        p = PreferenceParams(
            alpha=rng.uniform(-1.0, 1.0),
            beta=rng.uniform(-1.0, 1.0),
            kappa=rng.uniform(0.0, 0.95),
        )
        x = dg_transfer(p, cfg.curve, w)
        _, u_brute = brute_force_dg(p, cfg.curve, w, w / 2000.0)
        worst = min(worst, dg_objective(p, cfg.curve, x, w) - u_brute)
    record("dg-vs-brute", n, worst, worst >= -1e-9)

    # finite differences match the analytic gradient away from optima
    worst = 0.0
    for _ in range(n):
        p = PreferenceParams(alpha=rng.uniform(-1.0, 3.0), kappa=rng.uniform(0.0, 0.95))
        x1 = rng.uniform(0.05 * w, 0.95 * w)
        x2 = rng.uniform(0.05 * w, 0.45 * w)
        if abs(x1 - x2) < 1e-3 * w:
            continue
        r1, r2 = foc_residual(p, cfg.curve, cfg.thresholds, cfg.offers, Strategy(x1, x2), w)
        worst = max(worst, abs(r1), abs(r2))
    record("foc-fd-match", n, worst, worst < 1e-4)

    all_ok = all(c["pass"] for c in checks)
    width = max(len(c["check"]) for c in checks)
    print(f"{'check':<{width}}  {'n':>4}  {'worst':>10}  result")
    for c in checks:
        verdict = "pass" if c["pass"] else "FAIL"
        print(f"{c['check']:<{width}}  {c['n']:>4}  {c['worst']:>10.3g}  {verdict}")
    print("all checks passed" if all_ok else "ORACLE CHECK FAILED")

    if out_dir:
        payload = {"w": w, "curve": cfg.curve.label(), "step": step, "seed": seed, "checks": checks}
        csv_body = mio.csv_text(
            ["check", "n", "worst", "pass"],
            [(c["check"], c["n"], c["worst"], c["pass"]) for c in checks],
        )
        _deliver("oracle_check", payload, csv_body, out_dir, fmt)
    return 0 if all_ok else 3


_HANDLERS = {
    "solve": _cmd_solve,
    "dg": _cmd_dg,
    "region-map": _cmd_region_map,
    "statics": _cmd_statics,
    "nash": _cmd_nash,
    "predict": _cmd_predict,
    "estimate": _cmd_estimate,
    "metrics": _cmd_metrics,
    "oracle-check": _cmd_oracle_check,
}


# ---------------------------------------------------------------------------
# parser


def _add_prediction_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--w", type=float, help="endowment (default 58.8 unless --config)")
    p.add_argument(
        "--curve",
        choices=sorted(_CURVE_FLAGS),
        help="payoff curve (default shifted-log unless --config)",
    )
    p.add_argument("--rho", type=float, default=0.05, help="CRRA exponent for --curve crra")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moralbargain",
        description="Bargaining with distributional and universalization preferences.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--seed", type=int, metavar="N", help="seed override (nonnegative)")
    common.add_argument("--out", metavar="DIR", help="write outputs into DIR instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), help="output format (default json)")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("solve", parents=[common], help="optimal strategy for one parameter set")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--kappa", type=float, required=True)

    p = sub.add_parser("dg", parents=[common], help="dictator transfer for one parameter set")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    _add_prediction_flags(p)

    sub.add_parser("region-map", parents=[common], help="region classification over the grid")

    p = sub.add_parser("statics", parents=[common], help="strategy path over kappa at fixed alpha")
    p.add_argument("--alpha", type=float, required=True)

    p = sub.add_parser("nash", parents=[common], help="symmetric equilibrium set summary")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument(
        "--step", type=float, help=f"verifier lattice step (default w/{_DEFAULT_GRID_DIVISOR})"
    )

    p = sub.add_parser("predict", parents=[common], help="DG/UG predictions from estimates")
    p.add_argument("--estimates", required=True, metavar="CSV", help="id,alpha,beta,kappa file")
    p.add_argument("--suppress-kappa", action="store_true", help="force kappa to zero")
    _add_prediction_flags(p)

    p = sub.add_parser("estimate", parents=[common], help="EM mixture fit of choice data")
    p.add_argument("--choices", required=True, metavar="CSV", help="subject_id,game_id,role,action")
    p.add_argument("--games", metavar="JSON", help="extra games appended to the built-in set")
    p.add_argument("--k", type=int, default=1, help="number of types")
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--choice-model", choices=("constant", "logit"), default="constant")
    p.add_argument("--bootstrap", type=int, default=0, metavar="B", help="bootstrap replicates")
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument(
        "--lattice-step", type=float, default=0.05,
        help="coarse lattice step and refinement radius, in [%g, %g] (default 0.05)"
        % LATTICE_STEP_BOUNDS,
    )
    p.add_argument("--curve", choices=sorted(_CURVE_FLAGS), help="payoff curve (default shifted-log)")
    p.add_argument("--rho", type=float, default=0.05, help="CRRA exponent for --curve crra")

    p = sub.add_parser("metrics", parents=[common], help="ICL/NEC from summary statistics")
    p.add_argument("--lnl", type=float, required=True, help="log-likelihood at the optimum")
    p.add_argument("--k", type=int, required=True, help="number of types")
    p.add_argument("--n", type=int, required=True, help="number of subjects")
    p.add_argument("--en", type=float, default=0.0, help="classification entropy")
    p.add_argument("--lnl1", type=float, help="one-type log-likelihood (enables NEC)")

    p = sub.add_parser("oracle-check", parents=[common], help="brute-force consistency table")
    p.add_argument("--draws", type=int, default=40, help="random draws per check")
    p.add_argument("--step", type=float, help="brute-force grid step (default w/400)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = mio.load_run_config(args.config) if args.config else mio.default_run_config()
        if args.seed is not None and args.seed < 0:
            raise ValidationError("--seed must be nonnegative")
        seed = args.seed if args.seed is not None else cfg.seed
        fmt = args.format if args.format else cfg.fmt
        out_dir = args.out if args.out is not None else (cfg.out_dir or None)
        return _HANDLERS[args.command](args, cfg, seed, out_dir, fmt)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, IndeterminateError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
