import csv
import datetime as dt
import hashlib
import importlib.util
import json
import subprocess
import sys

import numpy as np
import pytest

from demandhmm import dataio
from demandhmm.cli import main
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
        ll_mem, _ = forward_filter(sim.y, ds.cov, emission, trans)
        ll_rt, _ = forward_filter(ds2.y, ds2.cov, emission, trans)
        assert ll_rt == ll_mem
        assert np.isfinite(ll_file)


class TestFit:
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
            "--mode", "four_state",
        ])
        assert rc == 0
        doc = json.loads((workspace / "ppc" / "ppc.json").read_text())
        assert {b["gap"] for b in doc["buckets"]} == {"0", "1", "2", "3", "10+"}
        assert (workspace / "ppc" / "ppc_days.csv").exists()

    def test_ppc_mode_mismatch_is_input_error(self, workspace, fitted):
        rc = main([
            "ppc", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "6",
            "--out-dir", str(workspace / "ppc_bad"), "--draws", str(fitted / "draws.csv"),
            "--mode", "two_state",
        ])
        assert rc == 2

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

    @pytest.mark.skipif(importlib.util.find_spec("jax") is not None, reason="jax is installed")
    def test_hmc_without_jax_is_input_error(self, workspace):
        rc = main([
            "fit", "--data", str(workspace / "sim" / "data.csv"),
            "--holidays", str(workspace / "holidays.csv"),
            "--config", str(workspace / "config.txt"), "--seed", "1",
            "--out-dir", str(workspace / "err5"), "--backend", "hmc",
            "--iters", "20", "--chains", "1",
        ])
        assert rc == 2
        err = json.loads((workspace / "err5" / "error.json").read_text())
        assert err["error"]["type"] == "ConfigError"

    def test_console_entry_point(self, workspace):
        proc = subprocess.run(
            [sys.executable, "-m", "demandhmm.cli", "--version"],
            capture_output=True, text=True,
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
