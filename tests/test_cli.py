import csv
import datetime as dt
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from demandhmm import cli, dataio
from demandhmm.cli import main
from demandhmm.covariates import smooth_cwv_baseline
from demandhmm.filtering import forward_filter
from demandhmm.generative import default_truth, simulate, uk_holiday_calendar
from demandhmm.sampler import PosteriorDraws, SamplerConfig, run_mcmc
from demandhmm.priors import default_hyperparameters


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    uk_holiday_calendar(2020, 2023).to_csv(root / "holidays.csv")
    (root / "config.txt").write_text(
        "preset = paper-like\nk_annual = 2\nk_prec_annual = 2\n"
    )
    rc = main([
        "simulate", "--holidays", str(root / "holidays.csv"),
        "--config", str(root / "config.txt"), "--seed", "11",
        "--out-dir", str(root / "sim"), "--start", "2021-01-02", "--days", "380",
    ])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def fitted(workspace):
    rc = main([
        "fit", "--data", str(workspace / "sim" / "data.csv"),
        "--holidays", str(workspace / "holidays.csv"),
        "--config", str(workspace / "config.txt"), "--seed", "3",
        "--out-dir", str(workspace / "fit"), "--chains", "2", "--iters", "240",
        "--thin", "4", "--backend", "adaptive-metropolis",
    ])
    assert rc == 0
    return workspace / "fit"


class TestSimulate:
    def test_outputs_exist(self, workspace):
        for name in ("data.csv", "states.csv", "params.json", "manifest.json"):
            assert (workspace / "sim" / name).exists()

    def test_params_round_trip(self, workspace):
        rc = main([
            "simulate", "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "11",
            "--out-dir", str(workspace / "resim"), "--start", "2021-01-02", "--days", "380",
            "--params", str(workspace / "sim" / "params.json"),
        ])
        assert rc == 0
        for name in ("data.csv", "params.json"):
            resim = (workspace / "resim" / name).read_bytes()
            assert resim == (workspace / "sim" / name).read_bytes()

    def test_data_schema(self, workspace):
        with open(workspace / "sim" / "data.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"date", "y1", "y2", "w1", "w2"}
        assert len(rows) == 380
        assert float(rows[0]["y1"]) > 0

    def test_ingestion_round_trip_loglik_exact(self, workspace):
        # writing and re-reading the simulated series must not change the
        # likelihood in a single bit
        ds = dataio.load_dataset(
            workspace / "sim" / "data.csv", workspace / "holidays.csv"
        )
        emission, trans, _ = default_truth(2, 2)
        ll_file, _ = forward_filter(ds.y, ds.cov, emission, trans)

        sim = simulate(emission, trans, ds.cov, seed=123)
        path = workspace / "roundtrip.csv"
        dataio.write_demand_csv(path, ds.cov.dates, np.exp(sim.y), ds.cov.w)
        ds2 = dataio.load_dataset(path, workspace / "holidays.csv")
        # the dataset keeps the baseline that centred its weather
        assert np.array_equal(ds2.baseline.m, smooth_cwv_baseline(ds2.dates, ds2.cov.w).m)
        assert np.array_equal(ds2.cov.w_tilde, ds2.cov.w - ds2.baseline.lookup(ds2.cov.day_of_year))
        ll_mem, _ = forward_filter(sim.y, ds.cov, emission, trans)
        ll_rt, _ = forward_filter(ds2.y, ds2.cov, emission, trans)
        assert ll_rt == ll_mem
        assert np.isfinite(ll_file)


class TestFit:
    def test_hmc_backend_runs(self, workspace):
        out = workspace / "fit_hmc"
        rc = main([
            "fit", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "1",
            "--out-dir", str(out), "--backend", "hmc",
            "--iters", "20", "--chains", "2", "--thin", "1",
        ])
        assert rc == 0
        draws = dataio.read_draws_csv(out / "draws.csv")
        assert draws.n_draws == 2 * 10
        assert np.all(np.isfinite(draws.logpost))

    def test_outputs(self, fitted):
        assert (fitted / "draws.csv").exists()
        assert (fitted / "draws_meta.json").exists()
        meta = json.loads((fitted / "draws_meta.json").read_text())
        assert meta["mode"] == "four_state"
        diag = json.loads((fitted / "diagnostics.json").read_text())
        assert "max_rhat" in diag and "ess" in diag
        manifest = json.loads((fitted / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert len(manifest["inputs"]) == 3
        assert "draws_sha256" in manifest["extra"]

    def test_draws_round_trip(self, fitted):
        draws = dataio.read_draws_csv(fitted / "draws.csv")
        assert draws.n_draws == 2 * 30
        emission, trans, latents = draws.params_at(0)
        assert np.all(np.isfinite(emission.level))
        assert trans is not None

    def test_deterministic_output_bytes(self, workspace, fitted):
        rc = main([
            "fit", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "3",
            "--out-dir", str(workspace / "fit2"), "--chains", "2", "--iters", "240",
            "--thin", "4", "--backend", "adaptive-metropolis",
        ])
        assert rc == 0
        h1 = hashlib.sha256((fitted / "draws.csv").read_bytes()).hexdigest()
        h2 = hashlib.sha256((workspace / "fit2" / "draws.csv").read_bytes()).hexdigest()
        assert h1 == h2

    def test_strict_flags_non_convergence(self, workspace):
        rc = main([
            "fit", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "4",
            "--out-dir", str(workspace / "fit_strict"), "--chains", "2",
            "--iters", "40", "--thin", "2", "--backend", "adaptive-metropolis",
            "--strict", "--rhat-threshold", "1.0",
        ])
        assert rc == 4
        err = json.loads((workspace / "fit_strict" / "error.json").read_text())
        assert err["error"]["exit_code"] == 4


    def test_undefined_diagnostics_are_json_null(self, workspace):
        # one chain keeping one draw leaves R-hat and ESS undefined
        out = workspace / "fit_tiny"
        rc = main([
            "fit", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "3",
            "--out-dir", str(out), "--chains", "1", "--iters", "2", "--thin", "1",
            "--backend", "adaptive-metropolis",
        ])
        assert rc == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        diag = json.loads((out / "diagnostics.json").read_text(), parse_constant=reject)
        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=reject)
        assert diag["max_rhat"] is None
        assert all(v is None for v in diag["rhat"].values())
        assert manifest["extra"]["max_rhat"] is None


class TestDownstream:
    def test_smooth(self, workspace, fitted):
        rc = main([
            "smooth", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "5",
            "--out-dir", str(workspace / "smooth"), "--draws", str(fitted / "draws.csv"),
        ])
        assert rc == 0
        with open(workspace / "smooth" / "smoothed.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 381  # anchor day plus observations
        probs = np.array([[float(r[f"p_state{k}"]) for k in (1, 2, 3, 4)] for r in rows])
        assert probs.sum(axis=1) == pytest.approx(np.ones(len(rows)), abs=1e-9)

    def test_ppc(self, workspace, fitted):
        rc = main([
            "ppc", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "6",
            "--out-dir", str(workspace / "ppc"), "--draws", str(fitted / "draws.csv"),
        ])
        assert rc == 0
        doc = json.loads((workspace / "ppc" / "ppc.json").read_text())
        assert {b["gap"] for b in doc["buckets"]} == {"0", "1", "2", "3", "10+"}
        assert (workspace / "ppc" / "ppc_days.csv").exists()

    def test_forecast(self, workspace, fitted):
        with open(workspace / "sim" / "data.csv", newline="") as fh:
            last = dt.date.fromisoformat(list(csv.DictReader(fh))[-1]["date"])
        future = workspace / "future_cwv.csv"
        with open(future, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "w1", "w2"])
            for i in range(1, 15):
                writer.writerow([(last + dt.timedelta(days=i)).isoformat(), 8.0, 8.0])
        rc = main([
            "forecast", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "7",
            "--out-dir", str(workspace / "fc"), "--draws", str(fitted / "draws.csv"),
            "--horizon", "14", "--future-cwv", str(future),
        ])
        assert rc == 0
        with open(workspace / "fc" / "forecast.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 14 * 2
        for row in rows:
            assert float(row["pred_q025"]) <= float(row["pred_mean"]) <= float(row["pred_q975"])

    def test_report(self, workspace, fitted):
        rc = main([
            "report", "--out-dir", str(workspace / "rep"),
            "--draws", str(fitted / "draws.csv"),
            "--smoothed", str(workspace / "smooth" / "smoothed.csv"),
            "--ppc-days", str(workspace / "ppc" / "ppc_days.csv"),
        ])
        assert rc == 0
        for name in ("param_summary.csv", "state_timeline.csv", "ppc_scatter.csv"):
            assert (workspace / "rep" / name).exists()
        with open(workspace / "rep" / "state_timeline.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["modal_state"] in {"1", "2", "3", "4"} for r in rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_report_one_draw(self, workspace):
        # one retained draw has no sample standard deviation: sd is nan, quietly
        rc = main([
            "fit", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "3",
            "--out-dir", str(workspace / "fit1"), "--chains", "1", "--iters", "2",
            "--thin", "1", "--backend", "adaptive-metropolis",
        ])
        assert rc == 0
        assert dataio.read_draws_csv(str(workspace / "fit1" / "draws.csv")).n_draws == 1
        rc = main(["report", "--out-dir", str(workspace / "rep1"),
                   "--draws", str(workspace / "fit1" / "draws.csv")])
        assert rc == 0
        with open(workspace / "rep1" / "param_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["sd"] == "nan" for r in rows)
        assert all(r["mean"] == r["q500"] for r in rows)


def _future_cwv(path, data_csv, days):
    """A flat CWV scenario for the ``days`` after the last day of ``data_csv``."""
    with open(data_csv, newline="") as fh:
        last = dt.date.fromisoformat(list(csv.DictReader(fh))[-1]["date"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "w1", "w2"])
        for i in range(1, days + 1):
            writer.writerow([(last + dt.timedelta(days=i)).isoformat(), 8.0, 8.0])
    return path


# sha256 of every file the simulate -> fit -> smooth, ppc, forecast -> report
# chain below writes, manifest.json aside (it holds a timestamp and argv)
_PINNED_OUTPUTS = {
    "simulate/data.csv": "77f9ab94fd56de03c415a5a0331c2d39bfabecfd28c89739f96be03b396ce8fe",
    "simulate/params.json": "41d51584b11b8e09105099790da6440ea0b98ac9536017ca6d952b2bc3c84d14",
    "simulate/states.csv": "47e3ad5f7632f821be289f94d8ef02fef9ada57cd59c239402b04a50b18d547f",
    "fit/diagnostics.json": "46fa75a08b08a05f8cac314cf21174338a5872dba2eabe0aae267605f2cd10a9",
    "fit/draws.csv": "245c30f541568ce7d88eeb132c632d5f8bde78771e0391124213c61a3008e074",
    "fit/draws_meta.json": "5feff8b9453e162f8ae64217b6644d052d204ccc7721a7fa540acc88fbbab2c6",
    "smooth/smoothed.csv": "c41016e759122cc1155e044c2bfdbc8bcb96e05a17d2f7caad28c9df1ba1384b",
    "ppc/ppc.json": "b318674507cbbf25219effe5c34dfec3713325f4f5f4dad84e64448a76ed44ae",
    "ppc/ppc_days.csv": "4e11387dcf233857422ee21dee150a17a6de3f914ce2ee10521af3b6834abab1",
    "forecast/forecast.csv": "f66f9f828b103a81b6424deafad632137ab63b83e6118a4c6741966df4a4115a",
    "forecast/forecast_paths.csv": "ca089a50865b894440c5122e3e591d67c110c4c89e2942c9998f70d717bb82d3",
    "report/param_summary.csv": "7c0a14c72020f70def26cd027c91e16891a884e4332e7aaae67c651f87b374a0",
    "report/ppc_scatter.csv": "c67acae4ea5aa1ab6db7fdddcbb367c37ae756f4098d620e0609c396978981e4",
    "report/state_timeline.csv": "68ab76b7ffbc92b4f414745905ee21fbcee4254113be2bd5f0a8e3e7f0ce3edd",
}


class TestPinnedOutputs:
    def test_outputs_byte_identical(self, workspace, fitted, tmp_path):
        common = ["--data", str(workspace / "sim" / "data.csv"),
                  "--holidays", str(workspace / "holidays.csv"),
                  "--config", str(workspace / "config.txt"),
                  "--draws", str(fitted / "draws.csv")]
        future = _future_cwv(tmp_path / "future_cwv.csv", workspace / "sim" / "data.csv", 14)
        runs = [
            ["smooth", *common, "--seed", "5", "--out-dir", str(tmp_path / "smooth")],
            ["ppc", *common, "--seed", "6", "--out-dir", str(tmp_path / "ppc")],
            ["forecast", *common, "--seed", "7", "--out-dir", str(tmp_path / "forecast"),
             "--horizon", "14", "--future-cwv", str(future), "--write-paths"],
            ["report", "--out-dir", str(tmp_path / "report"), "--draws", str(fitted / "draws.csv"),
             "--smoothed", str(tmp_path / "smooth" / "smoothed.csv"),
             "--ppc-days", str(tmp_path / "ppc" / "ppc_days.csv")],
        ]
        for argv in runs:
            assert main(argv) == 0
        dirs = {"simulate": workspace / "sim", "fit": fitted,
                **{name: tmp_path / name for name in ("smooth", "ppc", "forecast", "report")}}
        digests = {
            f"{command}/{name}": hashlib.sha256((d / name).read_bytes()).hexdigest()
            for command, d in dirs.items()
            for name in sorted(os.listdir(d))
            if name != "manifest.json"
        }
        assert digests == _PINNED_OUTPUTS


class TestInputErrors:
    def test_missing_column(self, workspace):
        bad = workspace / "bad.csv"
        bad.write_text("date,y1,w1,w2\n2021-01-02,30,8,8\n")
        rc = main([
            "fit", "--data", str(bad), "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "1",
            "--out-dir", str(workspace / "err1"), "--backend", "adaptive-metropolis",
            "--iters", "20", "--chains", "1",
        ])
        assert rc == 2
        assert (workspace / "err1" / "error.json").exists()

    def test_negative_demand(self, workspace):
        bad = workspace / "bad2.csv"
        bad.write_text("date,y1,y2,w1,w2\n2021-01-02,30,-1,8,8\n2021-01-03,30,5,8,8\n")
        rc = main([
            "fit", "--data", str(bad), "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "1",
            "--out-dir", str(workspace / "err2"), "--backend", "adaptive-metropolis",
            "--iters", "20", "--chains", "1",
        ])
        assert rc == 2

    def test_unknown_config_key(self, workspace):
        bad = workspace / "badcfg.txt"
        bad.write_text("mystery_knob = 3\n")
        rc = main([
            "smooth", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"), "--config", str(bad),
            "--seed", "1", "--out-dir", str(workspace / "err3"), "--draws", "x.csv",
        ])
        assert rc == 2

    def test_margin_violation(self, workspace, tmp_path):
        short = tmp_path / "short_holidays.csv"
        short.write_text("date,type\n2021-02-01,2\n")
        rc = main([
            "fit", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(short), "--config", str(workspace / "config.txt"),
            "--seed", "1", "--out-dir", str(workspace / "err4"),
            "--backend", "adaptive-metropolis", "--iters", "20", "--chains", "1",
        ])
        assert rc == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"emission": {}},
            "missing_field",
            "unknown_field",
            "wrong_shape",
        ],
    )
    def test_malformed_params_is_input_error(self, workspace, tmp_path, doc):
        good = json.loads((workspace / "sim" / "params.json").read_text())
        if doc == "missing_field":
            del good["latents"]["mu_level"]
        elif doc == "unknown_field":
            good["trans"]["to_holiday"] = 0.0
        elif doc == "wrong_shape":
            good["emission"]["holiday"] = [0.1, 0.2, 0.3]
        if isinstance(doc, str):
            doc = good
        (tmp_path / "params.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = main([
            "simulate", "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "11",
            "--out-dir", str(out), "--start", "2021-01-02", "--days", "30",
            "--params", str(tmp_path / "params.json"),
        ])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["type"] == "ConfigError"

    def test_params_file_not_json(self, workspace, tmp_path):
        (tmp_path / "params.json").write_text("{not json")
        out = tmp_path / "out"
        rc = main([
            "simulate", "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "11",
            "--out-dir", str(out), "--start", "2021-01-02", "--days", "30",
            "--params", str(tmp_path / "params.json"),
        ])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "ConfigError"
        assert str(tmp_path / "params.json") in err["message"] and "not valid JSON" in err["message"]

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_forecast_horizon_below_one(self, workspace, fitted, tmp_path, horizon):
        with open(workspace / "sim" / "data.csv", newline="") as fh:
            last = dt.date.fromisoformat(list(csv.DictReader(fh))[-1]["date"])
        future = tmp_path / "future_cwv.csv"
        with open(future, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "w1", "w2"])
            for i in range(1, 29):
                writer.writerow([(last + dt.timedelta(days=i)).isoformat(), 8.0, 8.0])
        out = tmp_path / "out"
        rc = main([
            "forecast", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "7",
            "--out-dir", str(out), "--draws", str(fitted / "draws.csv"),
            "--horizon", horizon, "--future-cwv", str(future),
        ])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "DataError" and "horizon" in err["message"]
        assert not (out / "forecast.csv").exists()

    @pytest.mark.parametrize("damage", ["no_rows", "short_row"])
    def test_malformed_draws_file(self, workspace, fitted, tmp_path, damage):
        lines = (fitted / "draws.csv").read_text().splitlines()
        if damage == "no_rows":
            lines = lines[:1]
        else:
            lines[2] = ",".join(lines[2].split(",")[:-3])
        bad = tmp_path / "draws.csv"
        bad.write_text("\n".join(lines) + "\n")
        (tmp_path / "draws_meta.json").write_bytes((fitted / "draws_meta.json").read_bytes())
        out = tmp_path / "out"
        rc = main([
            "smooth", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "1",
            "--out-dir", str(out), "--draws", str(bad),
        ])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "DataError" and str(bad) in err["message"]
        if damage == "short_row":
            assert "line 3" in err["message"]

    @pytest.mark.parametrize("column, cell", [
        ("chain", "x"), ("iter", "1.5"), ("lp", "abc"), ("to_normal_const", "abc"),
        ("to_normal_const", "nan"), ("level_1", "inf"), ("ar_eig01_1", "1.5"),
    ])
    def test_bad_draws_cell(self, workspace, fitted, tmp_path, column, cell):
        lines = (fitted / "draws.csv").read_text().splitlines()
        row = lines[2].split(",")
        row[lines[0].split(",").index(column)] = cell
        lines[2] = ",".join(row)
        bad = tmp_path / "draws.csv"
        bad.write_text("\n".join(lines) + "\n")
        (tmp_path / "draws_meta.json").write_bytes((fitted / "draws_meta.json").read_bytes())
        out = tmp_path / "out"
        rc = main([
            "smooth", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "1",
            "--out-dir", str(out), "--draws", str(bad),
        ])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "DataError"
        assert err["message"].startswith(f"{bad}: line 3: ")
        assert not (out / "smoothed.csv").exists()

    def test_draws_lp_may_be_nan(self, fitted, tmp_path):
        lines = (fitted / "draws.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        text = "\n".join([lines[0]] + [",".join(r[:2] + ["nan"] + r[3:]) for r in rows]) + "\n"
        (tmp_path / "draws.csv").write_text(text)
        (tmp_path / "draws_meta.json").write_bytes((fitted / "draws_meta.json").read_bytes())
        draws = dataio.read_draws_csv(tmp_path / "draws.csv")
        assert np.all(np.isnan(draws.logpost))
        assert np.array_equal(draws.free_draws, dataio.read_draws_csv(fitted / "draws.csv").free_draws)

    def test_nonfinite_replicate_is_numerical_failure(self, workspace, fitted, tmp_path):
        # the overflowing draw of the test below replicates into inf/nan days
        lines = (fitted / "draws.csv").read_text().splitlines()
        header, row = lines[0].split(","), lines[2].split(",")
        for column in ("level_1", "annual_1_cos_1"):
            row[header.index(column)] = "1.7e308"
        lines[2] = ",".join(row)
        (tmp_path / "draws.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "draws_meta.json").write_bytes((fitted / "draws_meta.json").read_bytes())
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main([
                "ppc", "--data", str(workspace / "sim" / "data.csv"),
                "--holidays", str(workspace / "holidays.csv"),
                "--config", str(workspace / "config.txt"), "--seed", "6",
                "--out-dir", str(out), "--draws", str(tmp_path / "draws.csv"),
            ])
        assert rc == 3
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "FloatingPointError"
        assert err["message"] == "draw 1: replicate is not finite"

    @pytest.mark.parametrize("command", ["smooth", "forecast"])
    def test_nan_likelihood_draw_is_numerical_failure(self, workspace, fitted, tmp_path, command):
        # a finite draw whose mean overflows: its log likelihood is NaN
        lines = (fitted / "draws.csv").read_text().splitlines()
        header, row = lines[0].split(","), lines[1].split(",")
        for column in ("level_1", "annual_1_cos_1"):
            row[header.index(column)] = "1.7e308"
        lines[1] = ",".join(row)
        (tmp_path / "draws.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "draws_meta.json").write_bytes((fitted / "draws_meta.json").read_bytes())
        with open(workspace / "sim" / "data.csv", newline="") as fh:
            last = dt.date.fromisoformat(list(csv.DictReader(fh))[-1]["date"])
        future = tmp_path / "future_cwv.csv"
        with open(future, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "w1", "w2"])
            for i in range(1, 8):
                writer.writerow([(last + dt.timedelta(days=i)).isoformat(), 8.0, 8.0])
        out = tmp_path / "out"
        extra = ["--horizon", "7", "--future-cwv", str(future)] if command == "forecast" else []
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main([
                command, "--data", str(workspace / "sim" / "data.csv"),
                "--holidays", str(workspace / "holidays.csv"),
                "--config", str(workspace / "config.txt"), "--seed", "1",
                "--out-dir", str(out), "--draws", str(tmp_path / "draws.csv"), *extra,
            ])
        assert rc == 3
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "FloatingPointError"
        assert err["message"] == "draw 0: log likelihood is NaN"

    def test_first_day_law_failure_is_numerical_failure(self, workspace, fitted, tmp_path):
        # a finite precision inside its support whose 2x2 determinant cancels to <= 0
        lines = (fitted / "draws.csv").read_text().splitlines()
        header, row = lines[0].split(","), lines[1].split(",")
        row[header.index("prec_base_1")] = "1e8"
        lines[1] = ",".join(row)
        (tmp_path / "draws.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "draws_meta.json").write_bytes((fitted / "draws_meta.json").read_bytes())
        out = tmp_path / "out"
        rc = main([
            "smooth", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "1",
            "--out-dir", str(out), "--draws", str(tmp_path / "draws.csv"),
        ])
        assert rc == 3
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "LinAlgError"
        assert err["message"] == "omega1 must be symmetric positive definite"

    def test_draws_harmonics_must_match_config(self, workspace, fitted, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text("preset = paper-like\nk_annual = 6\nk_prec_annual = 2\n")
        out = tmp_path / "out"
        rc = main([
            "smooth", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"), "--config", str(config),
            "--seed", "1", "--out-dir", str(out), "--draws", str(fitted / "draws.csv"),
        ])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "DataError"
        assert str(fitted / "draws.csv") in err["message"]
        assert "(2, 2)" in err["message"] and "(6, 2)" in err["message"]
        assert not (out / "smoothed.csv").exists()

    @pytest.mark.parametrize("flag, text", [
        ("--smoothed", "date,state\n2021-01-01,1\n"),
        ("--smoothed", "date,p_state1,p_state2,p_state3,p_state4\n2021-01-01,0.5,abc,0.25,0.25\n"),
        ("--smoothed", "date,p_state1,p_state2,p_state3,p_state4\n2021-01-01,0.5,nan,0.25,0.25\n"),
        ("--smoothed", "date,p_state1,p_state2,p_state3,p_state4\n2021-01-01,0.5,0.5\n"),
        ("--ppc-days", "date,region,observed,pred_mean\n2021-01-02,1,3.1,3.0\n"),
        ("--ppc-days", "date,region,observed,pred_mean,pred_q025,pred_q975,outside95\n"
                       "2021-01-02,1,3.1,x,2.9,3.2,0\n"),
    ], ids=["no_state_columns", "non_numeric_probability", "nan_probability", "short_row",
            "missing_columns", "non_numeric_cell"])
    def test_malformed_report_input(self, tmp_path, flag, text):
        bad = tmp_path / "input.csv"
        bad.write_text(text)
        out = tmp_path / "out"
        rc = main(["report", "--out-dir", str(out), flag, str(bad)])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "DataError" and str(bad) in err["message"]

    def test_short_holiday_row(self, workspace, tmp_path):
        lines = (workspace / "holidays.csv").read_text().splitlines()
        lines[3] = lines[3].split(",")[0]
        bad = tmp_path / "holidays.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        rc = main([
            "simulate", "--holidays", str(bad), "--config", str(workspace / "config.txt"),
            "--seed", "11", "--out-dir", str(out), "--start", "2021-01-02", "--days", "30",
        ])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "CovariateError" and f"{bad}: bad row 4" in err["message"]

    @pytest.mark.parametrize("cell", ["inf", "nan", "warm"])
    def test_bad_future_cwv_cell(self, workspace, fitted, tmp_path, cell):
        future = _future_cwv(tmp_path / "future_cwv.csv", workspace / "sim" / "data.csv", 7)
        lines = future.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + cell
        future.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        rc = main([
            "forecast", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "7",
            "--out-dir", str(out), "--draws", str(fitted / "draws.csv"),
            "--horizon", "7", "--future-cwv", str(future),
        ])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "DataError" and err["message"].startswith(f"{future}: row 3: ")

    def test_manifest_hashes_params_file(self, workspace, tmp_path):
        params = workspace / "sim" / "params.json"
        common = ["simulate", "--holidays", str(workspace / "holidays.csv"),
                  "--config", str(workspace / "config.txt"), "--seed", "11",
                  "--start", "2021-01-02", "--days", "30"]
        assert main([*common, "--out-dir", str(tmp_path / "file"), "--params", str(params)]) == 0
        assert main([*common, "--out-dir", str(tmp_path / "demo"), "--params", "demo"]) == 0
        inputs = json.loads((tmp_path / "file" / "manifest.json").read_text())["inputs"]
        assert inputs[str(params)] == hashlib.sha256(params.read_bytes()).hexdigest()
        demo = json.loads((tmp_path / "demo" / "manifest.json").read_text())["inputs"]
        assert set(demo) == {str(workspace / "holidays.csv"), str(workspace / "config.txt")}

    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_fit_needs_an_iteration(self, workspace, tmp_path, iters):
        out = tmp_path / "out"
        rc = main([
            "fit", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "3",
            "--out-dir", str(out), "--iters", iters, "--backend", "adaptive-metropolis",
        ])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert "n_iterations must be >= 1" in err["message"]
        assert not (out / "draws.csv").exists()

    def test_unknown_backend_is_input_error(self, workspace, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "fit", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "3",
            "--out-dir", str(out), "--iters", "4", "--backend", "nope",
        ])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "ValueError" and "unknown algorithm 'nope'" in err["message"]
        assert not (out / "draws.csv").exists()

    def test_fit_without_a_finite_start_is_numerical_failure(self, workspace, tmp_path, monkeypatch):
        from demandhmm.sampler import NumpyPosterior

        monkeypatch.setattr(NumpyPosterior, "__call__", lambda self, u_free: -np.inf)
        out = tmp_path / "out"
        rc = main([
            "fit", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "3",
            "--out-dir", str(out), "--iters", "4", "--backend", "adaptive-metropolis",
        ])
        assert rc == 3
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "SamplingError"
        assert "no finite log posterior found for chain 0" in err["message"]
        assert not (out / "draws.csv").exists()

    @pytest.mark.parametrize("line", ["k_annual = 2.7", "k_prec_annual = 0"])
    def test_bad_harmonic_count(self, workspace, tmp_path, line):
        config = tmp_path / "config.txt"
        config.write_text(f"preset = paper-like\n{line}\n")
        out = tmp_path / "out"
        rc = main([
            "simulate", "--holidays", str(workspace / "holidays.csv"),
            "--config", str(config), "--seed", "11",
            "--out-dir", str(out), "--start", "2021-01-02", "--days", "30",
        ])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "ConfigError" and line.split()[0] in err["message"]

    def test_non_finite_hyperparameters(self, workspace, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text("preset = paper-like\nv_level = nan\nm_level = inf\n")
        out = tmp_path / "out"
        rc = main([
            "simulate", "--holidays", str(workspace / "holidays.csv"),
            "--config", str(config), "--seed", "11",
            "--out-dir", str(out), "--start", "2021-01-02", "--days", "30",
        ])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "ConfigError" and "m_level must be finite" in err["message"]
        assert not (out / "data.csv").exists()

    def test_comma_list_for_scalar_key(self, workspace, tmp_path):
        config = tmp_path / "config.txt"
        config.write_text("preset = paper-like\nk_annual = 2\nk_prec_annual = 2\nm_level = 1, 2\n")
        out = tmp_path / "out"
        rc = main([
            "simulate", "--holidays", str(workspace / "holidays.csv"),
            "--config", str(config), "--seed", "11",
            "--out-dir", str(out), "--start", "2021-01-02", "--days", "30",
        ])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "ConfigError" and "bad number for 'm_level'" in err["message"]

    @pytest.mark.parametrize("key, value", [
        ("free", None), ("mode", None), ("base_full", None),
        ("k_annual", "two"), ("mode", "three_state"), ("free", ["levels"]), ("base_full", [0.0, 1.0]),
        (None, "{not json"),
    ])
    def test_malformed_draws_meta(self, workspace, fitted, tmp_path, key, value):
        # value None drops the key; key None writes the value as the whole file
        meta = json.loads((fitted / "draws_meta.json").read_text())
        if value is None:
            del meta[key]
        elif key is not None:
            meta[key] = value
        (tmp_path / "draws_meta.json").write_text(value if key is None else json.dumps(meta))
        (tmp_path / "draws.csv").write_bytes((fitted / "draws.csv").read_bytes())
        out = tmp_path / "out"
        rc = main([
            "smooth", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "1",
            "--out-dir", str(out), "--draws", str(tmp_path / "draws.csv"),
        ])
        assert rc == 2
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["type"] == "DataError"
        assert str(tmp_path / "draws_meta.json") in err["message"]
        assert (repr(key) if key is not None else "not valid JSON") in err["message"]

    def test_unexpected_exception_is_internal_error(self, workspace, tmp_path, monkeypatch):
        def broken(args):
            raise RuntimeError("handler bug")

        monkeypatch.setitem(cli._HANDLERS, "simulate", broken)
        out = tmp_path / "out"
        rc = main([
            "simulate", "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "11",
            "--out-dir", str(out), "--start", "2021-01-02", "--days", "30",
        ])
        assert rc == 1
        err = json.loads((out / "error.json").read_text())["error"]
        assert err == {"exit_code": 1, "type": "RuntimeError", "message": "handler bug"}

    def test_console_entry_point(self, workspace):
        # the child imports the package from wherever this process found it
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "demandhmm.cli", "--version"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0


class TestDrawsCsv:
    def test_written_values_parse_back(self, workspace):
        ds = dataio.load_dataset(workspace / "sim" / "data.csv", workspace / "holidays.csv")
        hyper = default_hyperparameters("paper-like", 2, 2)
        cfg = SamplerConfig(n_chains=2, n_iterations=40, thin=2, seed=2,
                            algorithm="adaptive-metropolis")
        draws, _ = run_mcmc(ds.y, ds.cov, hyper, cfg)
        path = workspace / "draws_rt.csv"
        dataio.write_draws_csv(path, draws)
        back = dataio.read_draws_csv(path)
        assert back.names == draws.names
        assert np.array_equal(back.chain, draws.chain)
        assert back.free_draws == pytest.approx(draws.free_draws, abs=1e-9)
        assert np.array_equal(back.logpost, draws.logpost)
