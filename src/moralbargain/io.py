"""File formats: estimate CSVs, choice data, game configs, fit reports.

Every writer goes through an atomic temp-file rename and emits a fixed
column order, so reruns under the same inputs are byte-identical. Every
CSV is written by csv_text and read by _csv_rows; every JSON input is
parsed by _json_body.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from io import StringIO
from pathlib import Path

import numpy as np

from .beliefs import BeliefDistribution
from .curves import PayoffCurve
from .errors import ValidationError
from .mixture import BinaryGame, BootstrapSE, ChoiceRecord, MixtureFit
from .params import (
    ALPHA_BOUNDS,
    BETA_BOUNDS,
    ESTIMATION_ENDOWMENT,
    KAPPA_BOUNDS,
    THEORY_ENDOWMENT,
    ParamLanes,
    PreferenceParams,
)
from .solver import RegionMapResult, constrained_threshold
from .utility import dg_transfer

SCHEMA_VERSION = 1

_ESTIMATE_HEADER = ["id", "alpha", "beta", "kappa"]
_CHOICE_HEADER = ["subject_id", "game_id", "role", "action"]
_HIST_BINS = 20
_RUN_CONFIG_KEYS = (
    "w", "curve", "threshold_beliefs", "offer_beliefs", "alpha_grid", "kappa_grid", "seed",
)
_DEFAULT_BELIEFS = {"kind": "scaled_beta", "a": 2.0, "b": 4.0}


# ---------------------------------------------------------------------------
# writers and readers


def write_text(path: str | Path, text: str) -> None:
    """Atomic text write (temp file in the target directory, then rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_text(payload: dict) -> str:
    """JSON rendering with the schema-version field first."""
    body = {"schema_version": SCHEMA_VERSION}
    body.update(payload)
    return json.dumps(body, indent=2) + "\n"


def _cell(c):
    """One CSV cell: floats as .10g, containers as JSON, None as empty."""
    if isinstance(c, float):
        return format(c, ".10g")
    if isinstance(c, (dict, list, tuple)):
        return json.dumps(c)
    return "" if c is None else c


def csv_text(header: list[str], rows) -> str:
    """CSV with a header row, minimal quoting and "\\n" line ends."""
    buf = StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(header)
    out.writerows([_cell(c) for c in row] for row in rows)
    return buf.getvalue()


def write_csv(path: str | Path, header: list[str], rows) -> None:
    write_text(path, csv_text(header, rows))


def _csv_rows(path: Path, header: list[str], what: str) -> list[tuple[int, list[str]]]:
    """The (line number, stripped cells) of every non-blank data row of a
    CSV that must start with `header`; an empty file, another header, a
    row of another width or no data rows is a ValidationError."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValidationError(f"{path}: empty {what} file")
    got = [c.strip() for c in rows[0]]
    if got != header:
        raise ValidationError(
            f"{path}: expected header {','.join(header)!r}, got {','.join(got)!r}"
        )
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        cells = [c.strip() for c in row]
        if not any(cells):
            continue
        if len(cells) != len(header):
            raise ValidationError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(cells)}"
            )
        out.append((lineno, cells))
    if not out:
        raise ValidationError(f"{path}: no data rows")
    return out


def _json_body(path: Path) -> dict:
    """The JSON object in a config file; invalid JSON or a non-object is a ValidationError."""
    with open(path) as fh:
        try:
            body = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(body, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return body


# ---------------------------------------------------------------------------
# individual estimates


@dataclass(frozen=True)
class EstimateRecord:
    subject_id: str
    alpha: float
    beta: float
    kappa: float


@dataclass(frozen=True)
class FilterReport:
    """What the estimate filter kept, what it dropped, and why."""

    n_read: int
    n_kept: int
    n_dropped: int
    dropped_ids: tuple[str, ...]
    stats: dict[str, dict[str, float]]  # param -> min/max/mean/median (kept rows)


def _in_box(alpha: float, beta: float, kappa: float) -> bool:
    return (
        ALPHA_BOUNDS[0] <= alpha <= ALPHA_BOUNDS[1]
        and BETA_BOUNDS[0] <= beta <= BETA_BOUNDS[1]
        and KAPPA_BOUNDS[0] <= kappa <= KAPPA_BOUNDS[1]
    )


def load_estimates(path: str | Path) -> tuple[tuple[EstimateRecord, ...], FilterReport]:
    """Parse an `id,alpha,beta,kappa` CSV and apply the test-sample filter.

    Rows outside alpha, beta in [-2, 2] or kappa in [0, 1] are dropped and
    counted; malformed rows and duplicate ids are errors (with the offending
    line number / id), as is a file without data rows.
    """
    path = Path(path)
    kept: list[EstimateRecord] = []
    dropped: list[str] = []
    seen: set[str] = set()
    for lineno, row in _csv_rows(path, _ESTIMATE_HEADER, "estimates"):
        sid = row[0]
        if not sid:
            raise ValidationError(f"{path}:{lineno}: empty subject id")
        if sid in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate subject id {sid!r}")
        seen.add(sid)
        try:
            alpha, beta, kappa = (float(c) for c in row[1:])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: malformed number ({exc})") from None
        if not all(np.isfinite([alpha, beta, kappa])):
            raise ValidationError(f"{path}:{lineno}: non-finite value")
        if _in_box(alpha, beta, kappa):
            kept.append(EstimateRecord(sid, alpha, beta, kappa))
        else:
            dropped.append(sid)

    stats: dict[str, dict[str, float]] = {}
    if kept:
        for name in ("alpha", "beta", "kappa"):
            vals = np.array([getattr(r, name) for r in kept])
            stats[name] = {
                "min": float(vals.min()),
                "max": float(vals.max()),
                "mean": float(vals.mean()),
                "median": float(np.median(vals)),
            }
    report = FilterReport(
        n_read=len(kept) + len(dropped),
        n_kept=len(kept),
        n_dropped=len(dropped),
        dropped_ids=tuple(dropped),
        stats=stats,
    )
    return tuple(kept), report


# ---------------------------------------------------------------------------
# behaviour prediction over an estimate sample


@dataclass(frozen=True)
class PredictionRow:
    subject_id: str
    dg_transfer: float
    ug_threshold: float


@dataclass(frozen=True)
class DistributionSummary:
    mean: float
    mean_share: float  # mean / w
    sd: float
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


@dataclass(frozen=True)
class Histogram:
    """20 equal-width bins on [0, w/2]; values beyond w/2 land in overflow."""

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    overflow: int


@dataclass(frozen=True)
class PredictionTable:
    rows: tuple[PredictionRow, ...]
    dg_summary: DistributionSummary
    ug_summary: DistributionSummary
    dg_hist: Histogram
    ug_hist: Histogram
    w: float
    curve_label: str
    kappa_suppressed: bool


def _summarize(vals: np.ndarray, w: float) -> DistributionSummary:
    q1, med, q3 = np.percentile(vals, [25.0, 50.0, 75.0])
    return DistributionSummary(
        mean=float(vals.mean()),
        mean_share=float(vals.mean() / w),
        sd=float(vals.std(ddof=1)) if len(vals) > 1 else 0.0,
        minimum=float(vals.min()),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        maximum=float(vals.max()),
    )


def _histogram(vals: np.ndarray, w: float) -> Histogram:
    counts, edges = np.histogram(vals, bins=_HIST_BINS, range=(0.0, 0.5 * w))
    return Histogram(
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        overflow=int((vals > 0.5 * w).sum()),
    )


def predict_all(
    estimates,
    w: float = ESTIMATION_ENDOWMENT,
    curve: PayoffCurve | None = None,
    suppress_kappa: bool = False,
) -> PredictionTable:
    """Per-subject DG transfer and UG rejection threshold, plus summaries.

    The transfer uses the full (alpha, beta, kappa) triple; the threshold
    uses (alpha, kappa) only, since beta never enters the responder root.
    `suppress_kappa` forces kappa = 0, the social-preferences-only variant.
    """
    if curve is None:
        curve = PayoffCurve.shifted_log()
    if not estimates:
        raise ValidationError("predict_all needs at least one estimate")
    lanes = ParamLanes.of(
        PreferenceParams(alpha=rec.alpha, beta=rec.beta, kappa=0.0 if suppress_kappa else rec.kappa)
        for rec in estimates
    )
    transfers = dg_transfer(lanes, curve, w).tolist()
    thresholds = constrained_threshold(lanes.kappa, lanes.alpha, curve, w).tolist()
    rows = [
        PredictionRow(subject_id=rec.subject_id, dg_transfer=x, ug_threshold=t)
        for rec, x, t in zip(estimates, transfers, thresholds)
    ]
    dg = np.array([r.dg_transfer for r in rows])
    ug = np.array([r.ug_threshold for r in rows])
    return PredictionTable(
        rows=tuple(rows),
        dg_summary=_summarize(dg, w),
        ug_summary=_summarize(ug, w),
        dg_hist=_histogram(dg, w),
        ug_hist=_histogram(ug, w),
        w=w,
        curve_label=curve.label(),
        kappa_suppressed=suppress_kappa,
    )


def prediction_payload(table: PredictionTable) -> dict:
    def summ(s: DistributionSummary) -> dict:
        return {
            "mean": s.mean,
            "mean_share": s.mean_share,
            "sd": s.sd,
            "min": s.minimum,
            "q1": s.q1,
            "median": s.median,
            "q3": s.q3,
            "max": s.maximum,
        }

    return {
        "w": table.w,
        "curve": table.curve_label,
        "kappa_suppressed": table.kappa_suppressed,
        "dg_summary": summ(table.dg_summary),
        "ug_summary": summ(table.ug_summary),
        "dg_histogram": asdict(table.dg_hist),
        "ug_histogram": asdict(table.ug_hist),
        "subjects": [
            {"id": r.subject_id, "dg_transfer": r.dg_transfer, "ug_threshold": r.ug_threshold}
            for r in table.rows
        ],
    }


# ---------------------------------------------------------------------------
# choice data


def load_choices(path: str | Path) -> tuple[ChoiceRecord, ...]:
    path = Path(path)
    out = []
    for lineno, (sid, gid, role, action) in _csv_rows(path, _CHOICE_HEADER, "choices"):
        if action not in ("0", "1"):
            raise ValidationError(f"{path}:{lineno}: action must be 0 or 1, got {action!r}")
        try:
            out.append(ChoiceRecord(sid, gid, role, int(action)))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return tuple(out)


def save_choices(records, path: str | Path) -> None:
    write_csv(
        path,
        _CHOICE_HEADER,
        [(r.subject_id, r.game_id, r.role, r.action) for r in records],
    )


# ---------------------------------------------------------------------------
# game configs


def _game_from_payload(entry: dict, where: str) -> BinaryGame:
    if "mini_ug" in entry:
        spec = entry["mini_ug"]
        try:
            return BinaryGame.mini_ug(
                tuple(spec["unequal"]),
                equal=tuple(spec.get("equal", (50.0, 50.0))),
                punish=tuple(spec.get("punish", (10.0, 10.0))),
                game_id=spec.get("game_id"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{where}: bad mini_ug entry ({exc})") from None
    try:
        return BinaryGame(
            game_id=entry["game_id"],
            payoff_a=tuple(tuple(tuple(c) for c in row) for row in entry["payoff_a"]),
            payoff_b=tuple(tuple(tuple(c) for c in row) for row in entry["payoff_b"]),
            belief_a=float(entry.get("belief_a", 0.5)),
            belief_b=float(entry.get("belief_b", 0.5)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: bad game entry ({exc})") from None


def load_games_config(path: str | Path) -> tuple[BinaryGame, ...]:
    """Extra games from a JSON config: full payoff tables or mini-UG shorthand."""
    path = Path(path)
    body = _json_body(path)
    if not isinstance(body.get("games"), list):
        raise ValidationError(f"{path}: expected an object with a 'games' list")
    games = tuple(
        _game_from_payload(entry, f"{path}: games[{i}]")
        for i, entry in enumerate(body["games"])
    )
    ids = [g.game_id for g in games]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"{path}: duplicate game ids in config")
    return games


# ---------------------------------------------------------------------------
# fit reports


def fit_payload(fit: MixtureFit, se: BootstrapSE | None = None) -> dict:
    body = {
        "k": fit.k,
        "choice_model": fit.choice_model,
        "n_subjects": fit.n_subjects,
        "n_records": fit.n_records,
        "loglik": fit.loglik,
        "en": fit.en,
        "icl": fit.icl,
        "nec": fit.nec,
        "n_iter": fit.n_iter,
        "flags": list(fit.flags),
        "types": [
            {
                "share": float(fit.shares[i]),
                "alpha": p.alpha,
                "beta": p.beta,
                "kappa": p.kappa,
                "lambda": p.lam,
            }
            for i, p in enumerate(fit.params)
        ],
    }
    if se is not None:
        body["bootstrap"] = {
            "replicates": se.b,
            "unresolved": se.unresolved,
            "share_se": [float(v) for v in se.share_se],
            "param_se": [
                {
                    "alpha": float(row[0]),
                    "beta": float(row[1]),
                    "kappa": float(row[2]),
                    "lambda": float(row[3]),
                }
                for row in se.param_se
            ],
        }
    return body


def fit_summary_table(
    fit: MixtureFit, se: BootstrapSE | None = None
) -> tuple[list[str], list[tuple]]:
    """Type-by-parameter summary table, one column per estimated type."""
    header = ["quantity"] + [f"type_{i + 1}" for i in range(fit.k)]
    rows: list[tuple] = []
    for col, (name, attr) in enumerate(
        (("alpha", "alpha"), ("beta", "beta"), ("kappa", "kappa"), ("lambda", "lam"))
    ):
        rows.append((name, *(getattr(p, attr) for p in fit.params)))
        if se is not None:
            rows.append((f"se_{name}", *(float(v) for v in se.param_se[:, col])))
    rows.append(("share", *(float(v) for v in fit.shares)))
    if se is not None:
        rows.append(("se_share", *(float(v) for v in se.share_se)))
    for name, val in (
        ("loglik", fit.loglik),
        ("EN", fit.en),
        ("ICL", fit.icl),
        ("NEC", fit.nec if fit.nec is not None else float("nan")),
    ):
        rows.append((name, *([val] + [""] * (fit.k - 1))))
    return header, rows


# ---------------------------------------------------------------------------
# CSV tables


def region_map_table(result: RegionMapResult):
    """The region map's CSV header and rows, one per cell, at fixed decimals
    (the golden-file format: 6 for alpha and kappa, 9 for the strategy).
    The rows are a generator, formatted only when a CSV is written."""
    return ["alpha", "kappa", "region", "x1_star", "x2_star"], (
        (f"{c.alpha:.6f}", f"{c.kappa:.6f}", c.region, f"{c.x1_star:.9f}", f"{c.x2_star:.9f}")
        for c in result.cells
    )


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of endowment, curve, beliefs, grids and seed."""

    w: float
    curve: PayoffCurve
    thresholds: BeliefDistribution
    offers: BeliefDistribution
    alpha_grid: tuple[float, float, int]  # lo, hi, points
    kappa_grid: tuple[float, float, int]
    seed: int

    def alphas(self) -> np.ndarray:
        lo, hi, n = self.alpha_grid
        return np.linspace(lo, hi, n)

    def kappas(self) -> np.ndarray:
        lo, hi, n = self.kappa_grid
        return np.linspace(lo, hi, n)


def curve_from_spec(spec: dict) -> PayoffCurve:
    kind = spec.get("kind")
    if kind == "linear":
        return PayoffCurve.linear()
    if kind == "crra":
        if "rho" not in spec:
            raise ValidationError("crra curve spec needs 'rho'")
        return PayoffCurve.crra(float(spec["rho"]))
    if kind == "shifted_log":
        return PayoffCurve.shifted_log()
    raise ValidationError(f"unknown curve kind {kind!r}")


def beliefs_from_spec(spec: dict, w: float) -> BeliefDistribution:
    kind = spec.get("kind")
    if kind == "scaled_beta":
        return BeliefDistribution.scaled_beta(float(spec["a"]), float(spec["b"]), w)
    if kind == "uniform":
        return BeliefDistribution.uniform_on_half(w)
    if kind == "always_accept":
        return BeliefDistribution.always_accept(w)
    if kind == "empirical":
        return BeliefDistribution.empirical([float(s) for s in spec["sample"]], w)
    raise ValidationError(f"unknown belief kind {kind!r}")


def default_run_config() -> RunConfig:
    """The theory-side configuration: w=10, CRRA rho=0.05, Beta(2,4) beliefs."""
    w = THEORY_ENDOWMENT
    return RunConfig(
        w=w,
        curve=PayoffCurve.crra(0.05),
        thresholds=beliefs_from_spec(_DEFAULT_BELIEFS, w),
        offers=beliefs_from_spec(_DEFAULT_BELIEFS, w),
        alpha_grid=(-1.0, 3.0, 41),
        kappa_grid=(0.0, 0.95, 39),
        seed=0,
    )


def load_run_config(path: str | Path) -> RunConfig:
    """A run configuration from a JSON object. Only _RUN_CONFIG_KEYS may
    appear; each one left out keeps its default_run_config value (the
    beliefs scaled to the config's w)."""
    path = Path(path)
    body = _json_body(path)
    unknown = sorted(set(body) - set(_RUN_CONFIG_KEYS))
    if unknown:
        raise ValidationError(f"{path}: unknown config keys {unknown}")
    base = default_run_config()
    try:
        w = float(body.get("w", base.w))
        if not (w > 0.0 and np.isfinite(w)):
            raise ValidationError(f"{path}: endowment must be positive and finite")
        curve = curve_from_spec(body["curve"]) if "curve" in body else base.curve
        thresholds = beliefs_from_spec(body.get("threshold_beliefs", _DEFAULT_BELIEFS), w)
        offers = beliefs_from_spec(body.get("offer_beliefs", _DEFAULT_BELIEFS), w)
        a_g = body.get("alpha_grid", list(base.alpha_grid))
        k_g = body.get("kappa_grid", list(base.kappa_grid))
        alpha_grid = (float(a_g[0]), float(a_g[1]), int(a_g[2]))
        kappa_grid = (float(k_g[0]), float(k_g[1]), int(k_g[2]))
        if alpha_grid[2] < 2 or kappa_grid[2] < 2:
            raise ValidationError(f"{path}: grids need at least 2 points")
        if not (0.0 <= kappa_grid[0] and kappa_grid[1] <= 1.0):
            raise ValidationError(f"{path}: kappa grid must stay inside [0, 1]")
        seed = int(body.get("seed", base.seed))
        if seed < 0:
            raise ValidationError(f"{path}: seed must be nonnegative")
        return RunConfig(
            w=w,
            curve=curve,
            thresholds=thresholds,
            offers=offers,
            alpha_grid=alpha_grid,
            kappa_grid=kappa_grid,
            seed=seed,
        )
    except ValidationError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"{path}: bad run config ({exc})") from None
