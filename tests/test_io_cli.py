"""File-format and command-line tests.

The region-map golden comparison is the one full-grid solver run in the
unit suite; everything else sticks to small grids and tiny samples. CLI
commands run in-process through cli.main(argv).
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moralbargain
import moralbargain.io as mio
from moralbargain import (
    BinaryGame,
    ChoiceRecord,
    PreferenceParams,
    ValidationError,
    default_games,
    simulate_choices,
)
from moralbargain.cli import main
from moralbargain.errors import ConvergenceError, IndeterminateError

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "data" / "test_sample.csv"
GAMES_CONFIG = ROOT / "data" / "games_config.json"
GOLDEN_MAP = Path(__file__).resolve().parent / "golden" / "region_map.csv"


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _reject_constant(token):
    raise ValueError(f"not a JSON token: {token}")


def _em_with_first_loglik(em):
    """_em whose later calls report the first call's log-likelihood, so
    em_fit's k=1 base fit ties the k-type fit and NEC's denominator is 0."""
    first = []

    def wrapped(*args, **kw):
        out = em(*args, **kw)
        first.append(out[2])
        return out[:2] + (first[0],) + out[3:]

    return wrapped


# ---------------------------------------------------------------------------
# estimate ingestion


class TestLoadEstimates:
    def test_shipped_sample_schema(self):
        records, report = mio.load_estimates(SAMPLE)
        assert report.n_kept == 96 and report.n_dropped == 0
        assert len(records) == 96
        assert len({r.subject_id for r in records}) == 96
        for name in ("alpha", "beta", "kappa"):
            s = report.stats[name]
            assert s["min"] <= s["median"] <= s["max"]
        assert all(-2.0 <= r.alpha <= 2.0 for r in records)
        assert all(-2.0 <= r.beta <= 2.0 for r in records)
        assert all(0.0 <= r.kappa <= 1.0 for r in records)

    def test_filter_drops_out_of_box_rows(self, tmp_path):
        path = tmp_path / "est.csv"
        path.write_text(
            "id,alpha,beta,kappa\n"
            "a,0.1,0.2,0.3\n"
            "b,0.1,0.2,1.2\n"
            "c,2.5,0.0,0.5\n"
            "d,-0.5,-0.5,0.0\n"
        )
        records, report = mio.load_estimates(path)
        assert [r.subject_id for r in records] == ["a", "d"]
        assert report.n_read == 4 and report.n_kept == 2 and report.n_dropped == 2
        assert report.dropped_ids == ("b", "c")

    def test_duplicate_id_names_the_id_and_line(self, tmp_path):
        path = tmp_path / "est.csv"
        path.write_text("id,alpha,beta,kappa\na,0,0,0\na,0.1,0,0\n")
        with pytest.raises(ValidationError, match=r":3: duplicate subject id 'a'"):
            mio.load_estimates(path)

    def test_malformed_rows_name_the_line(self, tmp_path):
        path = tmp_path / "est.csv"
        path.write_text("id,alpha,beta,kappa\na,0,0\n")
        with pytest.raises(ValidationError, match=":2:"):
            mio.load_estimates(path)
        path.write_text("id,alpha,beta,kappa\na,zero,0,0\n")
        with pytest.raises(ValidationError, match=":2: malformed number"):
            mio.load_estimates(path)
        path.write_text("id,alpha,beta,kappa\na,inf,0,0\n")
        with pytest.raises(ValidationError, match=":2: non-finite"):
            mio.load_estimates(path)

    def test_empty_and_bad_header(self, tmp_path):
        path = tmp_path / "est.csv"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            mio.load_estimates(path)
        for text in ("id,alpha,beta,kappa\n", "id,alpha,beta,kappa\n\n , ,,\n"):
            path.write_text(text)
            with pytest.raises(ValidationError, match="no data rows"):
                mio.load_estimates(path)
        path.write_text("subject,a,b,k\nx,0,0,0\n")
        with pytest.raises(ValidationError, match="expected header"):
            mio.load_estimates(path)


# ---------------------------------------------------------------------------
# behaviour predictions


class TestPredictAll:
    def test_nonpositive_alpha_gives_zero_threshold(self):
        recs = [
            mio.EstimateRecord("a", -0.5, 0.1, 0.4),
            mio.EstimateRecord("b", 0.0, 0.1, 0.4),
        ]
        table = mio.predict_all(recs)
        assert all(r.ug_threshold == 0.0 for r in table.rows)

    def test_suppress_kappa(self):
        recs = [mio.EstimateRecord("a", 0.3, 0.2, 0.5)]
        full = mio.predict_all(recs)
        off = mio.predict_all(recs, suppress_kappa=True)
        assert off.kappa_suppressed and not full.kappa_suppressed
        # removing the universalization motive lowers both predictions here
        assert off.rows[0].dg_transfer < full.rows[0].dg_transfer
        assert off.rows[0].ug_threshold < full.rows[0].ug_threshold

    def test_summaries_match_numpy(self):
        recs = [
            mio.EstimateRecord(f"s{i}", a, b, k)
            for i, (a, b, k) in enumerate(
                [(0.1, 0.1, 0.2), (0.3, 0.4, 0.5), (-0.2, 0.0, 0.1), (0.6, 0.2, 0.3)]
            )
        ]
        table = mio.predict_all(recs)
        dg = np.array([r.dg_transfer for r in table.rows])
        assert table.dg_summary.mean == pytest.approx(dg.mean(), abs=1e-12)
        assert table.dg_summary.mean_share == pytest.approx(dg.mean() / 58.8, abs=1e-12)
        assert table.dg_summary.sd == pytest.approx(dg.std(ddof=1), abs=1e-12)
        assert table.dg_summary.q1 == pytest.approx(np.percentile(dg, 25), abs=1e-12)
        assert table.dg_summary.maximum == dg.max()
        assert table.w == 58.8 and table.curve_label == "shifted_log"

    def test_histogram_bins_and_overflow(self):
        # alpha=-0.87 with small positive beta pushes the transfer past w/2
        recs = [
            mio.EstimateRecord("big", -0.87, 0.1, 0.3),
            mio.EstimateRecord("mid", 0.1, 0.1, 0.2),
        ]
        table = mio.predict_all(recs)
        h = table.dg_hist
        assert len(h.bin_edges) == 21 and len(h.counts) == 20
        assert h.bin_edges[0] == 0.0 and h.bin_edges[-1] == pytest.approx(29.4)
        assert h.overflow == 1
        assert sum(h.counts) + h.overflow == 2

    def test_requires_estimates(self):
        with pytest.raises(ValidationError):
            mio.predict_all([])


# ---------------------------------------------------------------------------
# round trips and writers


class TestRoundTrips:
    def test_choices_round_trip(self, tmp_path, shifted_log):
        t = PreferenceParams(alpha=0.3, beta=0.1, kappa=0.2, lam=0.1)
        records, _ = simulate_choices([t], [1.0], default_games(), shifted_log, 4, seed=1)
        path = tmp_path / "choices.csv"
        mio.save_choices(records, path)
        assert tuple(records) == mio.load_choices(path)

    def test_choices_round_trip_quotes_a_comma_in_an_id(self, tmp_path):
        records = [ChoiceRecord("a,b", g.game_id, "P", 1) for g in default_games()[:2]]
        path = tmp_path / "choices.csv"
        mio.save_choices(records, path)
        assert mio.load_choices(path) == tuple(records)

    def test_load_choices_errors(self, tmp_path):
        path = tmp_path / "choices.csv"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            mio.load_choices(path)
        path.write_text("subject_id,game_id,role,action\ns1,g,R,2\n")
        with pytest.raises(ValidationError, match=":2: action"):
            mio.load_choices(path)
        path.write_text("subject_id,game_id,role,action\ns1,g,Q,1\n")
        with pytest.raises(ValidationError, match=":2:"):
            mio.load_choices(path)

    def test_games_config_round_trip(self):
        games = mio.load_games_config(GAMES_CONFIG)
        assert [g.game_id for g in games] == [
            "cfg-78-22-p13",
            "cfg-dual-offer-veto",
            "cfg-split-choice",
        ]

    def test_games_config_mini_ug_shorthand(self, tmp_path):
        path = tmp_path / "games.json"
        path.write_text(json.dumps({"games": [{"mini_ug": {"unequal": [70, 30]}}]}))
        (game,) = mio.load_games_config(path)
        assert game == BinaryGame.mini_ug((70, 30))

    def test_games_config_errors(self, tmp_path):
        path = tmp_path / "games.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError, match="invalid JSON"):
            mio.load_games_config(path)
        path.write_text(json.dumps({"games": [{"game_id": "g"}]}))
        with pytest.raises(ValidationError, match=r"games\[0\]"):
            mio.load_games_config(path)
        path.write_text(json.dumps({"games": [{"mini_ug": {"unequal": ["x", 30]}}]}))
        with pytest.raises(ValidationError, match=r"games\[0\]: bad mini_ug entry"):
            mio.load_games_config(path)
        for body in ({"games": 5}, ["games"]):
            path.write_text(json.dumps(body))
            with pytest.raises(ValidationError, match="expected"):
                mio.load_games_config(path)
        entry = {"mini_ug": {"unequal": [70, 30], "game_id": "dup"}}
        path.write_text(json.dumps({"games": [entry, entry]}))
        with pytest.raises(ValidationError, match="duplicate game ids"):
            mio.load_games_config(path)

    def test_json_schema_version_first(self):
        text = mio.json_text({"x": 1})
        assert text.startswith('{\n  "schema_version": 1')
        assert json.loads(text) == {"schema_version": 1, "x": 1}

    def test_atomic_write_leaves_no_residue(self, tmp_path):
        path = tmp_path / "report.txt"
        mio.write_text(path, "one\n")
        mio.write_text(path, "two\n")
        assert path.read_text() == "two\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]

    def test_fit_report_round_trip(self, shifted_log):
        from moralbargain import em_fit

        t = PreferenceParams(alpha=0.33, beta=0.09, kappa=0.26, lam=0.02)
        records, _ = simulate_choices([t], [1.0], default_games(), shifted_log, 8, seed=2)
        fit = em_fit(records, default_games(), shifted_log, k=1)
        body = mio.fit_payload(fit)
        assert body["k"] == 1 and body["n_subjects"] == 8
        assert body["types"][0]["share"] == 1.0
        header, rows = mio.fit_summary_table(fit)
        assert header == ["quantity", "type_1"]
        assert [r[0] for r in rows] == [
            "alpha", "beta", "kappa", "lambda", "share", "loglik", "EN", "ICL", "NEC",
        ]


class TestRunConfig:
    def test_defaults(self):
        cfg = mio.default_run_config()
        assert cfg.w == 10.0
        assert cfg.curve.label() == "crra(0.05)"
        assert len(cfg.alphas()) == 41 and len(cfg.kappas()) == 39

    def test_load_custom(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            json.dumps(
                {
                    "w": 20.0,
                    "curve": {"kind": "shifted_log"},
                    "offer_beliefs": {"kind": "uniform"},
                    "alpha_grid": [0.0, 1.0, 5],
                    "kappa_grid": [0.0, 0.5, 3],
                    "seed": 7,
                }
            )
        )
        cfg = mio.load_run_config(path)
        assert cfg.w == 20.0 and cfg.curve.label() == "shifted_log" and cfg.seed == 7
        assert cfg.offers.kind == "uniform" and cfg.offers.w == 20.0
        assert list(cfg.alphas()) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_validation(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{bad")
        with pytest.raises(ValidationError, match="invalid JSON"):
            mio.load_run_config(path)
        for body in (
            {"w": -1.0},
            {"curve": {"kind": "cubic"}},
            {"kappa_grid": [0.0, 1.2, 5]},
            {"alpha_grid": [0.0, 1.0, 1]},
            {"seed": -2},
            {"w": "ten"},
            {"curve": {"kind": "crra", "rho": "x"}},
            [0.0, 1.0],
        ):
            path.write_text(json.dumps(body))
            with pytest.raises(ValidationError):
                mio.load_run_config(path)

    @pytest.mark.parametrize(
        "body, key", [({"format": "xml"}, "format"), ({"kappa_grd": [0, 0.5, 3]}, "kappa_grd")]
    )
    def test_unknown_key_exit_2_names_it(self, body, key, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(body))
        code, out, err = run_cli(
            ["solve", "--alpha", "0.5", "--kappa", "0.6", "--config", str(cfg),
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2 and out == "" and repr(key) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


# ---------------------------------------------------------------------------
# command line


class TestCliCore:
    def test_solve_example(self, capsys):
        code, out, _ = run_cli(["solve", "--alpha", "0.5", "--kappa", "0.6"], capsys)
        assert code == 0
        body = json.loads(out)
        assert body["schema_version"] == 1
        assert body["region"] == "R2"
        assert body["optimal"]["x1"] == body["optimal"]["x2"]
        assert body["symmetric"] == pytest.approx(3.2510385119233085, abs=1e-9)

    def test_metrics_printed_table(self, capsys):
        code, out, _ = run_cli(
            ["metrics", "--lnl", "-1865.90", "--k", "3", "--n", "96", "--en", "13.50",
             "--lnl1", "-2063.28"],
            capsys,
        )
        assert code == 0
        body = json.loads(out)
        assert body["icl"] == pytest.approx(3809.2009, abs=1e-3)
        assert body["icl"] == pytest.approx(3809.21, abs=0.02)
        assert body["nec"] == pytest.approx(13.50 / 197.38, abs=1e-6)

    def test_metrics_deterministic_output(self, capsys):
        argv = ["metrics", "--lnl", "-100.5", "--k", "2", "--n", "50", "--en", "3.0"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_dg_uses_estimation_defaults(self, capsys):
        code, out, _ = run_cli(
            ["dg", "--alpha", "0.13", "--beta", "0.22", "--kappa", "0.26"], capsys
        )
        assert code == 0
        body = json.loads(out)
        assert body["w"] == 58.8 and body["curve"] == "shifted_log"
        assert body["transfer"] == pytest.approx(22.16191, abs=1e-4)
        assert body["share"] == pytest.approx(body["transfer"] / 58.8, abs=1e-12)

    def test_statics_locates_switch(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"kappa_grid": [0.40, 0.52, 4]}))
        code, out, _ = run_cli(
            ["statics", "--alpha", "0.5", "--config", str(cfg)], capsys
        )
        assert code == 0
        body = json.loads(out)
        assert len(body["rows"]) == 4
        (switch,) = body["switches"]
        assert switch["from_region"] == "R1" and switch["to_region"] == "R2"
        assert switch["kappa"] == pytest.approx(0.46045, abs=2e-3)

    def test_statics_descending_kappa_grid_exit_2(self, tmp_path, capsys):
        # statics bisects between ascending neighbours; region-map has no
        # switches and keeps accepting a descending grid
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"kappa_grid": [0.05, 0.0, 6]}))
        code, out, err = run_cli(["statics", "--alpha", "3", "--config", str(cfg)], capsys)
        assert code == 2 and out == "" and "nondecreasing" in err
        code, out, _ = run_cli(["region-map", "--config", str(cfg)], capsys)
        assert code == 0
        assert [c["kappa"] for c in json.loads(out)["cells"][:6]] == np.linspace(0.05, 0.0, 6).tolist()

    def test_statics_switch_within_tol_of_kappa_one_exit_0(self, tmp_path, capsys):
        # alpha-tilde rises near kappa = 1 (0.0486 at 0.99, 0.0526 at
        # 0.99999), so the R2 -> R1 switch lands near 0.99993: a jump end
        # read at the switch + 1e-4 used to reach kappa >= 1 and exit 2
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"kappa_grid": [0.999, 0.99999, 2]}))
        code, out, err = run_cli(["statics", "--alpha", "0.0526", "--config", str(cfg)], capsys)
        assert code == 0, err
        body = json.loads(out)
        assert [r["region"] for r in body["rows"]] == ["R2", "R1"]
        (switch,) = body["switches"]
        assert 0.999 < switch["kappa"] <= 0.99999
        assert (switch["from_region"], switch["to_region"]) == ("R2", "R1")
        assert math.isfinite(switch["x1_jump"]) and math.isfinite(switch["x2_jump"])

    def test_nash_stub_case(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"curve": {"kind": "shifted_log"}}))
        code, out, _ = run_cli(
            ["nash", "--kappa", "0.5", "--alpha", "0.0", "--step", "0.1",
             "--config", str(cfg)],
            capsys,
        )
        assert code == 0
        body = json.loads(out)
        assert body["set_kind"] == "SegmentPlusAsymmetricStub"
        assert body["tau"] == pytest.approx(3.0, abs=1e-9)
        assert body["segment"][0] == pytest.approx(3.0, abs=1e-9)
        assert body["segment"][1] == pytest.approx(9.1, abs=1e-9)
        assert body["asymmetric_stub"]["x1"] == pytest.approx(3.0, abs=1e-9)
        assert body["asymmetric_stub"]["x2_range"][0] == 0.0
        assert "stub-direction-x2-below" in body["flags"]

    def test_predict_sample_payload_shape(self, capsys):
        code, out, _ = run_cli(["predict", "--estimates", str(SAMPLE)], capsys)
        assert code == 0
        body = json.loads(out)
        assert body["filter_report"]["n_kept"] == 96
        assert len(body["subjects"]) == 96
        assert len(body["dg_histogram"]["counts"]) == 20
        assert body["kappa_suppressed"] is False

    def test_predict_csv_quotes_a_comma_in_an_id(self, tmp_path, capsys):
        import csv

        est = tmp_path / "est.csv"
        est.write_text('id,alpha,beta,kappa\n"a,b",0.3,0.2,0.5\nc,0.1,0.1,0.2\n')
        code, out, _ = run_cli(["predict", "--estimates", str(est), "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert [len(r) for r in rows] == [3, 3, 3]
        assert [r[0] for r in rows] == ["subject_id", "a,b", "c"]

    def test_estimate_frozen_single_type(self, tmp_path, capsys, shifted_log):
        from moralbargain.io import load_games_config

        games = tuple(default_games()) + load_games_config(GAMES_CONFIG)
        truth = PreferenceParams(alpha=0.33, beta=0.09, kappa=0.26, lam=0.02)
        records, _ = simulate_choices([truth], [1.0], games, shifted_log, 40, seed=301)
        choices = tmp_path / "choices.csv"
        mio.save_choices(records, choices)
        code, out, _ = run_cli(
            ["estimate", "--choices", str(choices), "--games", str(GAMES_CONFIG),
             "--k", "1"],
            capsys,
        )
        assert code == 0
        body = json.loads(out)
        (typ,) = body["types"]
        assert typ["alpha"] == pytest.approx(0.3423, abs=5e-4)
        assert typ["beta"] == pytest.approx(0.1000, abs=5e-4)
        assert typ["kappa"] == pytest.approx(0.2308, abs=5e-4)
        assert typ["lambda"] == pytest.approx(0.01944, abs=5e-5)
        assert body["loglik"] == pytest.approx(-39.399, abs=1e-2)
        assert body["icl"] == pytest.approx(93.554, abs=1e-2)

        code, out, _ = run_cli(
            ["estimate", "--choices", str(choices), "--games", str(GAMES_CONFIG),
             "--k", "1", "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert out.startswith("quantity,type_1")

    def test_estimate_bootstrap_forwards_max_iter(self, tmp_path, capsys, shifted_log,
                                                  monkeypatch):
        import moralbargain.mixture as mx

        truth = PreferenceParams(alpha=0.33, beta=0.09, kappa=0.26, lam=0.2)
        records, _ = simulate_choices([truth], [1.0], default_games(), shifted_log, 10, seed=5)
        choices = tmp_path / "choices.csv"
        mio.save_choices(records, choices)
        seen = []
        original = mx._em_once

        def spy(cnt, lattice, k, rng, tol, max_iter, *rest):
            seen.append(max_iter)
            return original(cnt, lattice, k, rng, tol, max_iter, *rest)

        monkeypatch.setattr(mx, "_em_once", spy)
        code, _, _ = run_cli(
            ["estimate", "--choices", str(choices), "--k", "1", "--bootstrap", "2",
             "--max-iter", "3"],
            capsys,
        )
        assert code == 0
        # the fit and both replicates
        assert seen == [3, 3, 3]

    @pytest.mark.filterwarnings("ignore:NEC undefined")
    @pytest.mark.parametrize(
        "argv, key",
        [
            (["metrics", "--en", "1", "--lnl", "-50", "--lnl1", "-50", "--k", "2", "--n", "10"],
             "nec"),
            (["solve", "--alpha", "0.5", "--kappa", "0.99999999"], "alpha_tilde"),
        ],
        ids=["metrics-nec", "solve-alpha_tilde"],
    )
    def test_undefined_values_are_json_null(self, argv, key, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        body = json.loads(out, parse_constant=_reject_constant)
        assert body[key] is None

    def test_selfish_offer_at_the_equal_split_maps_all_r1_with_null_alpha_bar(
        self, tmp_path, capsys, linear
    ):
        # uniform thresholds on the linear curve: the selfish offer is w/2,
        # where alpha_bar's denominator vanishes, so alpha_bar is inf
        uniform = moralbargain.BeliefDistribution.uniform_on_half(10.0)
        assert moralbargain.alpha_bar(linear, uniform, 10.0) == math.inf
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "curve": {"kind": "linear"}, "threshold_beliefs": {"kind": "uniform"},
            "alpha_grid": [-1.0, 3.0, 9], "kappa_grid": [0.0, 0.95, 5],
        }))
        code, out, _ = run_cli(["region-map", "--config", str(cfg)], capsys)
        assert code == 0
        body = json.loads(out, parse_constant=_reject_constant)
        assert body["alpha_bar"] is None
        assert body["counts"] == {"R1": 45, "R2": 0, "R3": 0}
        # a non-finite cell would also be written as null
        assert all(isinstance(c[key], float) for c in body["cells"]
                   for key in ("x1_star", "x2_star"))

    def test_estimate_json_names_an_undefined_nec(self, tmp_path, capsys, shifted_log,
                                                  monkeypatch):
        import moralbargain.mixture as mx

        truth = PreferenceParams(alpha=0.33, beta=0.09, kappa=0.26, lam=0.2)
        records, _ = simulate_choices([truth], [1.0], default_games(), shifted_log, 10, seed=5)
        choices = tmp_path / "choices.csv"
        mio.save_choices(records, choices)
        monkeypatch.setattr(mx, "_em", _em_with_first_loglik(mx._em))
        with pytest.warns(UserWarning, match="NEC undefined"):
            code, out, _ = run_cli(
                ["estimate", "--choices", str(choices), "--k", "2", "--max-iter", "3"], capsys
            )
        assert code == 0
        body = json.loads(out, parse_constant=_reject_constant)
        assert body["nec"] is None
        assert "nec-undefined" in body["flags"]

    def test_out_dir_writes_named_file(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["solve", "--alpha", "0.2", "--kappa", "0.1", "--out", str(tmp_path)], capsys
        )
        assert code == 0
        path = tmp_path / "solve.json"
        assert out.strip() == str(path)
        assert json.loads(path.read_text())["region"] == "R1"


class TestCliErrors:
    def test_validation_exit_2(self, capsys):
        code, _, err = run_cli(["solve", "--alpha", "0.5", "--kappa", "1.2"], capsys)
        assert code == 2 and "error:" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(
            ["predict", "--estimates", "/no/such/file.csv"], capsys
        )
        assert code == 2 and "error:" in err

    def test_numeric_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        # both numeric error kinds map to exit 3, whichever solver call raises
        est = tmp_path / "est.csv"
        est.write_text("id,alpha,beta,kappa\na,0.5,0.0,0.4\n")
        for error in (ConvergenceError, IndeterminateError):
            def fail(*args, error=error):
                raise error("injected")

            monkeypatch.setattr(mio, "constrained_threshold", fail)
            code, out, err = run_cli(["predict", "--estimates", str(est)], capsys)
            assert code == 3 and out == "" and "numeric failure: injected" in err

    def test_predict_at_kappa_one_exit_0(self, tmp_path, capsys):
        # kappa = 1 passes the ingest filter; the threshold there is w/2 for
        # alpha > 0 and 0 for alpha <= 0
        est = tmp_path / "est.csv"
        est.write_text("id,alpha,beta,kappa\na,0.5,0.0,1.0\nb,2.0,0.1,1.0\n"
                       "c,0.0,0.0,1.0\nd,-0.5,0.2,1.0\n")
        code, out, _ = run_cli(["predict", "--estimates", str(est)], capsys)
        assert code == 0
        body = json.loads(out)
        assert [r["ug_threshold"] for r in body["subjects"]] == [29.4, 29.4, 0.0, 0.0]
        assert body["w"] == 58.8

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    @pytest.mark.parametrize("command", [["solve", "--alpha", "0.5", "--kappa", "0.6"],
                                         ["region-map"]], ids=["solve", "region-map"])
    def test_non_finite_belief_parameter_exit_2(self, command, token, tmp_path, capsys):
        # NaN used to exit 3 on a NaN objective and Infinity to exit 0 on a
        # cdf of 0 everywhere; the config's beliefs are validated instead
        for spec in ('{"kind": "scaled_beta", "a": %s, "b": 4}' % token,
                     '{"kind": "scaled_beta", "a": 2, "b": %s}' % token,
                     '{"kind": "empirical", "sample": [%s, 1.0]}' % token):
            for side in ("threshold_beliefs", "offer_beliefs"):
                cfg = tmp_path / "run.json"
                cfg.write_text('{"%s": %s}' % (side, spec))
                code, out, err = run_cli(command + ["--config", str(cfg)], capsys)
                assert code == 2 and out == "" and "finite" in err

    def test_negative_seed_exit_2(self, capsys):
        code, _, _ = run_cli(
            ["solve", "--alpha", "0.1", "--kappa", "0.1", "--seed", "-1"], capsys
        )
        assert code == 2

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("{bad")
        code, _, _ = run_cli(
            ["solve", "--alpha", "0.1", "--kappa", "0.1", "--config", str(cfg)], capsys
        )
        assert code == 2

    def test_steep_crra_threshold_solves(self, tmp_path, capsys):
        # the threshold root lies near 5e-12; a bracket width floored at 4 ulp
        # of 1 used to stop short of the residual bound (exit 3)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"curve": {"kind": "crra", "rho": 0.9}}))
        argv = ["solve", "--config", str(cfg), "--alpha", "0.05", "--kappa", "0.2"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        want = (0.05 / (1.0 + 0.05 - 0.2)) ** 10 * 10.0
        assert json.loads(out)["threshold"] == pytest.approx(want, rel=1e-6)

    def test_offer_beta_shape_below_one_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"offer_beliefs": {"kind": "scaled_beta", "a": 0.5, "b": 4}}))
        argv = ["solve", "--alpha", "3", "--kappa", "0.3", "--config", str(cfg)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == "" and "Beta(0.5, 4)" in err

    @pytest.mark.parametrize("command", [["region-map"], ["statics", "--alpha", "0.5"]])
    def test_kappa_grid_reaching_one_names_the_config_exit_2(self, command, tmp_path, capsys):
        # the config is valid (kappa in [0, 1]); only the region commands need kappa < 1
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"alpha_grid": [0.0, 1.0, 3], "kappa_grid": [0.5, 1.0, 3]}))
        code, out, err = run_cli(command + ["--config", str(cfg)], capsys)
        assert code == 2 and out == ""
        assert str(cfg) in err and "kappa = 1.0" in err and command[0] in err
        code, out, _ = run_cli(["oracle-check", "--draws", "2", "--config", str(cfg)], capsys)
        assert code == 0 and "all checks passed" in out

    @pytest.mark.parametrize(
        "command", [["nash", "--kappa", "0.6", "--alpha", "0.5"], ["oracle-check"]]
    )
    def test_grid_step_that_collapses_the_grid_exit_2(self, command, capsys):
        code, out, err = run_cli(command + ["--step", "inf"], capsys)
        assert code == 2 and "error:" in err
        assert "all checks passed" not in out

    def test_oracle_check_negative_draws_exit_2(self, capsys):
        # a negative count is an error, not zero draws that all pass
        code, out, err = run_cli(["oracle-check", "--draws", "-3"], capsys)
        assert code == 2 and out == ""
        assert err == "error: draws must be nonnegative, got -3\n"
        # zero draws keep their no-draw worst values
        code, out, _ = run_cli(["oracle-check", "--draws", "0"], capsys)
        assert code == 0 and "all checks passed" in out
        assert out.splitlines()[1].split() == ["optimal-vs-brute", "0", "inf", "pass"]

    def test_lattice_step_outside_range_exit_2(self, tmp_path, capsys, monkeypatch):
        import moralbargain.mixture as mx

        def no_lattice(*args):
            raise AssertionError("a step of 5 must fail before any lattice is built")

        monkeypatch.setattr(mx, "_lattice_for", no_lattice)
        choices = tmp_path / "choices.csv"
        mio.save_choices([ChoiceRecord("s1", default_games()[0].game_id, "P", 0)], choices)
        code, _, err = run_cli(
            ["estimate", "--choices", str(choices), "--lattice-step", "5"], capsys
        )
        assert code == 2 and "lattice_step" in err

    def test_estimate_help_states_lattice_step_range(self, capsys):
        from moralbargain.params import LATTICE_STEP_BOUNDS

        with pytest.raises(SystemExit):
            main(["estimate", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "in [%g, %g]" % LATTICE_STEP_BOUNDS in help_text

    def test_nash_help_states_default_step(self, capsys):
        from moralbargain.nash import _DEFAULT_GRID_DIVISOR

        with pytest.raises(SystemExit) as exc:
            main(["nash", "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"(default w/{_DEFAULT_GRID_DIVISOR})" in help_text
        assert _DEFAULT_GRID_DIVISOR == 400

    def test_unknown_subcommand_usage_exit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestRegionMapGolden:
    def test_default_map_matches_golden_bytes(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["region-map", "--format", "csv", "--out", str(tmp_path)], capsys
        )
        assert code == 0
        produced = (tmp_path / "region_map.csv").read_text()
        assert produced == GOLDEN_MAP.read_text()
        lines = produced.strip().splitlines()
        assert lines[0] == "alpha,kappa,region,x1_star,x2_star"
        assert len(lines) == 1 + 41 * 39
        regions = [line.split(",")[2] for line in lines[1:]]
        assert regions.count("R1") == 598
        assert regions.count("R2") == 980
        assert regions.count("R3") == 21


_IMPORT_SURFACE_SCRIPT = """
import sys
import moralbargain.cli, moralbargain.io, moralbargain.kernels, moralbargain.mixture
from moralbargain import region_map
from moralbargain.io import default_run_config
from moralbargain.utility import TailIntegrals

cfg = default_run_config()
TailIntegrals(cfg.offers, cfg.curve, cfg.w)
region_map(cfg.alphas(), cfg.kappas(), cfg.curve, cfg.thresholds, cfg.offers, cfg.w)
print(" ".join(m for m in ("scipy.stats", "scipy.integrate", "scipy.optimize") if m in sys.modules))
"""


def test_cold_import_and_first_region_map_leave_heavy_scipy_unloaded():
    # scipy.stats (which imports scipy.integrate and scipy.optimize) is most of
    # a cold start; a lazy scipy import in the tail table would only move part
    # of that cost into the first region map, so a fresh interpreter builds one
    src = str(Path(moralbargain.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_SURFACE_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == ""
