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

Global flags: --config (JSON run configuration), --seed (overrides the
config's seed), --out (directory; default prints to stdout), --format
{json,csv}. --out and --format are flags only: a run configuration holds
no output settings. Exit codes: 0 success, 2 validation failure, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import io as mio
from .curves import PayoffCurve
from .errors import ConvergenceError, IndeterminateError, ValidationError
from .mixture import bootstrap_se, default_games, em_fit, icl, nec
from .nash import _DEFAULT_GRID_DIVISOR, nash_set
from .oracle import oracle_checks
from .params import ESTIMATION_ENDOWMENT, LATTICE_STEP_BOUNDS, PreferenceParams
from .solver import (
    RegionCell,
    RegionSwitch,
    StaticsRow,
    comparative_statics,
    optimal_strategy,
    region_map,
)
from .utility import dg_transfer


# ---------------------------------------------------------------------------
# output plumbing


def _deliver(args, name: str, payload: dict, table=None) -> None:
    """Write the payload as JSON, or as CSV: the (header, rows) table, or
    key,value rows when there is none. Into --out/<name>.<format> when
    --out is given, else to stdout. Table rows may be a generator, so a
    JSON run never formats them."""
    if args.format == "json":
        text = mio.json_text(payload)
    else:
        text = mio.csv_text(*(table or (["key", "value"], payload.items())))
    if args.out:
        path = Path(args.out) / f"{name}.{args.format}"
        mio.write_text(path, text)
        print(path)
    else:
        sys.stdout.write(text)


def _records(items, cls) -> list[dict]:
    """Flat dataclass records as dicts in field order: asdict without its deep copies."""
    names = [f.name for f in dataclasses.fields(cls)]
    return [{n: getattr(x, n) for n in names} for x in items]


def _nan_none(x: float | None) -> float | None:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return None
    return x


def _estimation_curve(args, cfg: mio.RunConfig) -> PayoffCurve:
    """The --curve flag, then an explicit --config, then the shifted log.

    The built-in config's curve is theory-side, so it is not a default here.
    """
    if args.curve is not None:
        return mio.curve_from_spec({"kind": args.curve.replace("-", "_"), "rho": args.rho})
    if args.config is not None:
        return cfg.curve
    return PayoffCurve.shifted_log()


def _prediction_setup(args, cfg: mio.RunConfig) -> tuple[float, PayoffCurve]:
    """Endowment and curve for DG/UG prediction commands.

    Explicit flags win, then an explicit --config, then the estimation
    defaults (w = 58.8, shifted log); the built-in config is theory-side
    and would silently change the predicted scale.
    """
    curve = _estimation_curve(args, cfg)
    if args.w is not None:
        w = args.w
    elif args.config is not None:
        w = cfg.w
    else:
        w = ESTIMATION_ENDOWMENT
    return w, curve


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_solve(args, cfg) -> int:
    p = PreferenceParams(alpha=args.alpha, beta=args.beta, kappa=args.kappa)
    out = optimal_strategy(p, cfg.curve, cfg.thresholds, cfg.offers, cfg.w)
    payload = {
        "alpha": args.alpha,
        "beta": args.beta,
        "kappa": args.kappa,
        "w": cfg.w,
        "curve": cfg.curve.label(),
        "region": out.region,
        "optimal": dataclasses.asdict(out.optimal),
        "x_selfish": out.x_selfish,
        "x_constrained": out.x_constrained,
        "threshold": out.threshold,
        "symmetric": _nan_none(out.symmetric),
        "alpha_bar": out.alpha_bar,
        "alpha_tilde": out.alpha_tilde,
        "kappa_tilde": _nan_none(out.kappa_tilde),
        "flags": list(out.flags),
    }
    _deliver(args, "solve", payload)
    return 0


def _cmd_dg(args, cfg) -> int:
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
    _deliver(args, "dg", payload)
    return 0


def _region_kappas(args, cfg: mio.RunConfig) -> np.ndarray:
    """The configured kappa grid, for the commands that classify regions (kappa < 1)."""
    kappas = cfg.kappas()
    if kappas.max() >= 1.0:
        raise ValidationError(
            f"{args.config}: kappa_grid reaches kappa = {float(kappas.max())}; "
            f"{args.command} needs every kappa < 1"
        )
    return kappas


def _cmd_region_map(args, cfg) -> int:
    kappas = _region_kappas(args, cfg)
    result = region_map(cfg.alphas(), kappas, cfg.curve, cfg.thresholds, cfg.offers, cfg.w)
    payload = {
        "w": cfg.w,
        "curve": cfg.curve.label(),
        "alpha_bar": result.alpha_bar,
        "counts": result.counts(),
        "cells": _records(result.cells, RegionCell),
    }
    _deliver(args, "region_map", payload, mio.region_map_table(result))
    return 0


def _cmd_statics(args, cfg) -> int:
    kappas = _region_kappas(args, cfg)
    res = comparative_statics(args.alpha, kappas, cfg.curve, cfg.thresholds, cfg.offers, cfg.w)
    payload = {
        "alpha": args.alpha,
        "w": cfg.w,
        "curve": cfg.curve.label(),
        "rows": _records(res.rows, StaticsRow),
        "switches": _records(res.switches, RegionSwitch),
    }
    table = (
        ["kappa", "x1_star", "x2_star", "region"],
        ((r.kappa, r.x1_star, r.x2_star, r.region) for r in res.rows),
    )
    _deliver(args, "statics", payload, table)
    return 0


def _cmd_nash(args, cfg) -> int:
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
    _deliver(args, "nash", payload)
    return 0


def _cmd_predict(args, cfg) -> int:
    w, curve = _prediction_setup(args, cfg)
    records, report = mio.load_estimates(args.estimates)
    table = mio.predict_all(records, w=w, curve=curve, suppress_kappa=args.suppress_kappa)
    payload = mio.prediction_payload(table)
    payload["filter_report"] = dataclasses.asdict(report)
    rows = ((r.subject_id, r.dg_transfer, r.ug_threshold) for r in table.rows)
    _deliver(args, "predict", payload, (["subject_id", "dg_transfer", "ug_threshold"], rows))
    return 0


def _cmd_estimate(args, cfg) -> int:
    data = mio.load_choices(args.choices)
    games = list(default_games())
    if args.games is not None:
        games.extend(mio.load_games_config(args.games))
    curve = _estimation_curve(args, cfg)
    fit = em_fit(
        data,
        games,
        curve,
        k=args.k,
        restarts=args.restarts,
        seed=cfg.seed,
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
            seed=cfg.seed,
            base=fit,
            choice_model=args.choice_model,
            max_iter=args.max_iter,
            lattice_step=args.lattice_step,
        )
    _deliver(args, "estimate", mio.fit_payload(fit, se), mio.fit_summary_table(fit, se))
    return 0


def _cmd_metrics(args, cfg) -> int:
    payload = {
        "lnl": args.lnl,
        "k": args.k,
        "n": args.n,
        "en": args.en,
        "icl": icl(args.lnl, args.k, args.n, args.en),
    }
    if args.lnl1 is not None:
        payload["nec"] = nec(args.en, args.lnl, args.lnl1)
    _deliver(args, "metrics", payload)
    return 0


def _cmd_oracle_check(args, cfg) -> int:
    step = cfg.w / 400.0 if args.step is None else args.step
    rng = np.random.default_rng(cfg.seed)
    checks = oracle_checks(rng, args.draws, cfg.curve, cfg.thresholds, cfg.offers, cfg.w, step)
    all_ok = all(c.passed for c in checks)
    width = max(len(c.name) for c in checks)
    print(f"{'check':<{width}}  {'n':>4}  {'worst':>10}  result")
    for c in checks:
        print(f"{c.name:<{width}}  {c.n:>4}  {c.worst:>10.3g}  {'pass' if c.passed else 'FAIL'}")
    print("all checks passed" if all_ok else "ORACLE CHECK FAILED")

    if args.out:
        records = [{"check": c.name, "n": c.n, "worst": c.worst, "pass": c.passed} for c in checks]
        payload = {"w": cfg.w, "curve": cfg.curve.label(), "step": step, "seed": cfg.seed,
                   "checks": records}
        _deliver(args, "oracle_check", payload, (["check", "n", "worst", "pass"], checks))
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


def _add_curve_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--curve",
        choices=("crra", "linear", "shifted-log"),
        help="payoff curve (default shifted-log unless --config)",
    )
    p.add_argument("--rho", type=float, default=0.05, help="CRRA exponent for --curve crra")


def _add_prediction_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--w", type=float, help="endowment (default 58.8 unless --config)")
    _add_curve_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moralbargain",
        description="Bargaining with distributional and universalization preferences.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--seed", type=int, metavar="N", help="seed override (nonnegative)")
    common.add_argument("--out", metavar="DIR", help="write outputs into DIR instead of stdout")
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format (default json)"
    )
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
    _add_curve_flags(p)

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
        if args.seed is not None:
            if args.seed < 0:
                raise ValidationError("--seed must be nonnegative")
            cfg = dataclasses.replace(cfg, seed=args.seed)
        return _HANDLERS[args.command](args, cfg)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, IndeterminateError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
