"""Batch command surface: simulate | fit | smooth | forecast | ppc | report.

Every command takes ``--seed`` and ``--out-dir``, writes its outputs plus a
``manifest.json`` (input hashes, config snapshot, seed, version, command),
and reports failures as machine-readable JSON on stderr with exit codes:
0 success, 2 input error, 3 numerical failure, 4 non-convergence under
``--strict``. All randomness derives from the single seed via documented
stream splitting, so identical invocations produce identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import json
import os
import sys

import numpy as np

from . import __version__, dataio
from .covariates import CovariateError, build_covariates
from .diagnostics import json_number
from .filtering import rao_blackwell_states
from .generative import default_truth, simulate, sinusoidal_cwv
from .paramspace import ParamSpace
from .ppc import coverage_by_gap, forecast, posterior_predictive_replicates
from .priors import ConfigError, load_hyperparameters
from .sampler import SamplerConfig, SamplingError, run_mcmc
from .states import ModelMode, TransitionParams
from .priors import HyperLatents
from .emission import EmissionParams


class ConvergenceError(RuntimeError):
    pass


EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CONVERGENCE = 4

_INPUT_ERRORS = (dataio.DataError, CovariateError, ConfigError, FileNotFoundError, ValueError)
_NUMERICAL_ERRORS = (SamplingError, np.linalg.LinAlgError, FloatingPointError, ArithmeticError)


def _add_common(p, data=True):
    p.add_argument("--holidays", required=True, help="holiday calendar CSV (date,type)")
    p.add_argument("--config", required=True, help="hyperparameter config file (key = value)")
    p.add_argument("--seed", required=True, type=int, help="master RNG seed")
    p.add_argument("--out-dir", required=True, help="output directory (created if needed)")
    if data:
        p.add_argument("--data", required=True, help="demand/weather CSV (date,y1,y2,w1,w2)")
    p.add_argument("--cwv-window", type=int, default=10,
                   help="half-width of the seasonal CWV baseline smoother (days)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="demandhmm",
        description="Four-state non-homogeneous HMM for daily gas demand",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    _add_common(p, data=False)
    p.add_argument("--start", required=True, help="first observation date (ISO)")
    p.add_argument("--days", required=True, type=int, help="number of days to simulate")
    p.add_argument("--params", default="demo",
                   help="'demo' for the documented truth values, or a params JSON file")
    p.add_argument("--mode", default="four_state", choices=["four_state", "two_state"])

    p = sub.add_parser("fit", help="sample the posterior by MCMC")
    _add_common(p)
    p.add_argument("--mode", default="four_state", choices=["four_state", "two_state"])
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--iters", type=int, default=10000)
    p.add_argument("--burn-in", type=float, default=0.5)
    p.add_argument("--thin", type=int, default=10)
    p.add_argument("--backend", default="hmc", choices=["hmc", "adaptive-metropolis"])
    p.add_argument("--leapfrog", type=int, default=16)
    p.add_argument("--target-accept", type=float, default=0.8)
    p.add_argument("--strict", action="store_true",
                   help="exit 4 when the R-hat threshold is breached")
    p.add_argument("--rhat-threshold", type=float, default=1.05)

    p = sub.add_parser("smooth", help="Rao-Blackwell smoothed state probabilities")
    _add_common(p)
    p.add_argument("--draws", required=True, help="draws CSV from fit")

    p = sub.add_parser("forecast", help="posterior predictive forecast paths")
    _add_common(p)
    p.add_argument("--draws", required=True)
    p.add_argument("--horizon", required=True, type=int)
    p.add_argument("--future-cwv", required=True, help="CSV date,w1,w2 for the horizon")
    p.add_argument("--write-paths", action="store_true", help="also write per-draw paths")

    p = sub.add_parser("ppc", help="posterior predictive coverage by holiday distance")
    _add_common(p)
    p.add_argument("--draws", required=True)
    p.add_argument("--mode", default="four_state", choices=["four_state", "two_state"])

    p = sub.add_parser("report", help="plot-ready summaries from previous outputs")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", help="draws CSV for parameter density summaries")
    p.add_argument("--smoothed", help="smoothed CSV for the state timeline")
    p.add_argument("--ppc-days", help="per-day PPC CSV for the scatter data")
    return ap


# ---------------------------------------------------------------------------
# Parameter JSON for simulate


def _params_to_json(emission, trans, latents) -> dict:
    def arr(x):
        return np.asarray(x).tolist()

    out = {
        "emission": {
            "ar_eig01": arr(emission.ar_eig01), "level": arr(emission.level),
            "holiday": arr(emission.holiday), "annual": arr(emission.annual),
            "weekday": arr(emission.weekday), "weather": arr(emission.weather),
            "decay_mean": arr(emission.decay_mean), "decay_prec": emission.decay_prec,
            "prec_base": arr(emission.prec_base), "prec_holiday": arr(emission.prec_holiday),
            "prec_annual": arr(emission.prec_annual),
        },
        "latents": {
            "mu_level": latents.mu_level, "mu_weather": arr(latents.mu_weather),
            "mu_weekday": arr(latents.mu_weekday), "mu_annual": arr(latents.mu_annual),
            "mu_holiday": arr(latents.mu_holiday),
            "logit_decay_mean": latents.logit_decay_mean,
            "mu_logit_decay": latents.mu_logit_decay,
        },
    }
    if trans is not None:
        out["trans"] = {k: getattr(trans, k) for k in (
            "to_pre_const", "to_pre_dist", "to_normal_const", "to_normal_days",
            "to_normal_eve", "to_post_const", "to_post_gap2")}
    return out


def _params_from_json(doc: dict):
    e = doc["emission"]
    emission = EmissionParams(
        ar_eig01=np.asarray(e["ar_eig01"], dtype=np.float64),
        level=np.asarray(e["level"], dtype=np.float64),
        holiday=np.asarray(e["holiday"], dtype=np.float64),
        annual=np.asarray(e["annual"], dtype=np.float64),
        weekday=np.asarray(e["weekday"], dtype=np.float64),
        weather=np.asarray(e["weather"], dtype=np.float64),
        decay_mean=np.asarray(e["decay_mean"], dtype=np.float64),
        decay_prec=float(e["decay_prec"]),
        prec_base=np.asarray(e["prec_base"], dtype=np.float64),
        prec_holiday=np.asarray(e["prec_holiday"], dtype=np.float64),
        prec_annual=np.asarray(e["prec_annual"], dtype=np.float64),
    )
    trans = TransitionParams(**doc["trans"]) if "trans" in doc else None
    lt = doc["latents"]
    latents = HyperLatents(
        mu_level=float(lt["mu_level"]),
        mu_weather=np.asarray(lt["mu_weather"], dtype=np.float64),
        mu_weekday=np.asarray(lt["mu_weekday"], dtype=np.float64),
        mu_annual=np.asarray(lt["mu_annual"], dtype=np.float64),
        mu_holiday=np.asarray(lt["mu_holiday"], dtype=np.float64),
        logit_decay_mean=float(lt["logit_decay_mean"]),
        mu_logit_decay=float(lt["mu_logit_decay"]),
    )
    return emission, trans, latents


# ---------------------------------------------------------------------------
# Command handlers


def _cmd_simulate(args) -> int:
    from .covariates import HolidayCalendar, smooth_cwv_baseline

    hyper = load_hyperparameters(args.config)
    calendar = HolidayCalendar.from_csv(args.holidays)
    start = dt.date.fromisoformat(args.start)
    dates = [start + dt.timedelta(days=i) for i in range(args.days)]
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 1]))
    cwv = sinusoidal_cwv(dates, rng)
    # the seasonal CWV baseline comes from a noise-free two-year pass of the
    # same generator, so short simulations are well defined too
    ref_dates = [start + dt.timedelta(days=i) for i in range(2 * 366)]
    ref_cwv = sinusoidal_cwv(ref_dates, np.random.default_rng(0), noise_sd=0.0)
    baseline = smooth_cwv_baseline(ref_dates, ref_cwv, args.cwv_window)
    cov = build_covariates(dates, calendar, cwv, baseline)

    if args.params == "demo":
        emission, trans, latents = default_truth(hyper.k_annual, hyper.k_prec_annual)
    else:
        with open(args.params) as fh:
            emission, trans, latents = _params_from_json(json.load(fh))
    mode = ModelMode(args.mode)
    sim = simulate(emission, trans, cov, np.random.SeedSequence([args.seed, 0]), mode)

    data_path = os.path.join(args.out_dir, "data.csv")
    dataio.write_demand_csv(data_path, dates, np.exp(sim.y), cwv)
    dataio.write_states_csv(os.path.join(args.out_dir, "states.csv"), cov, sim.states)
    with open(os.path.join(args.out_dir, "params.json"), "w") as fh:
        json.dump(_params_to_json(emission, trans, latents), fh, indent=1, sort_keys=True)
    dataio.write_manifest(
        args.out_dir, "simulate", vars(args), args.seed,
        [args.holidays, args.config], hyper,
        extra={"data_sha256": dataio.sha256_file(data_path)},
    )
    return 0


def _cmd_fit(args) -> int:
    hyper = load_hyperparameters(args.config)
    ds = dataio.load_dataset(args.data, args.holidays, args.cwv_window)
    cfg = SamplerConfig(
        n_chains=args.chains,
        n_iterations=args.iters,
        burn_in=args.burn_in,
        thin=args.thin,
        algorithm=args.backend,
        seed=args.seed,
        n_leapfrog=args.leapfrog,
        target_accept=args.target_accept,
    )
    draws, diag = run_mcmc(ds.y, ds.cov, hyper, cfg, ModelMode(args.mode))
    draws_path = os.path.join(args.out_dir, "draws.csv")
    dataio.write_draws_csv(draws_path, draws)
    with open(os.path.join(args.out_dir, "diagnostics.json"), "w") as fh:
        json.dump(diag.to_dict(), fh, indent=1, sort_keys=True)
    dataio.write_manifest(
        args.out_dir, "fit", vars(args), args.seed,
        [args.data, args.holidays, args.config], hyper,
        extra={"draws_sha256": dataio.sha256_file(draws_path),
               "max_rhat": json_number(diag.max_rhat), "min_ess": json_number(diag.min_ess)},
    )
    if args.strict and not (diag.max_rhat <= args.rhat_threshold):
        raise ConvergenceError(
            f"max R-hat {diag.max_rhat:.4f} exceeds threshold {args.rhat_threshold}"
        )
    return 0


def _cmd_smooth(args) -> int:
    hyper = load_hyperparameters(args.config)
    ds = dataio.load_dataset(args.data, args.holidays, args.cwv_window)
    draws = dataio.read_draws_csv(args.draws)
    smoothed = rao_blackwell_states(draws, ds.y, ds.cov)
    dataio.write_smoothed_csv(os.path.join(args.out_dir, "smoothed.csv"), ds.cov, smoothed.probs)
    dataio.write_manifest(
        args.out_dir, "smooth", vars(args), args.seed,
        [args.data, args.holidays, args.config, args.draws], hyper,
    )
    return 0


def _cmd_forecast(args) -> int:
    from .covariates import smooth_cwv_baseline

    hyper = load_hyperparameters(args.config)
    ds = dataio.load_dataset(args.data, args.holidays, args.cwv_window)
    draws = dataio.read_draws_csv(args.draws)
    fdates, fw = dataio.read_future_cwv_csv(args.future_cwv)
    if len(fdates) < args.horizon:
        raise dataio.DataError(
            f"future CWV covers {len(fdates)} days but horizon is {args.horizon}"
        )
    fdates = fdates[: args.horizon]
    fw = fw[: args.horizon]
    if fdates[0] != ds.dates[-1] + dt.timedelta(days=1):
        raise dataio.DataError(
            f"future CWV must start the day after the data ends ({ds.dates[-1]})"
        )
    baseline = smooth_cwv_baseline(ds.dates, ds.cov.w, args.cwv_window)
    future_cov = build_covariates(fdates, ds.calendar, fw, baseline, epoch=ds.cov.epoch)
    paths = forecast(draws, ds.y, ds.cov, future_cov, args.seed)
    dataio.write_forecast_csv(os.path.join(args.out_dir, "forecast.csv"), future_cov, paths)
    if args.write_paths:
        with open(os.path.join(args.out_dir, "forecast_paths.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["draw", "date", "region", "value"])
            for i in range(paths.shape[0]):
                for t, d in enumerate(future_cov.dates):
                    for j in range(2):
                        writer.writerow([i, d.isoformat(), j + 1, repr(float(paths[i, t, j]))])
    dataio.write_manifest(
        args.out_dir, "forecast", vars(args), args.seed,
        [args.data, args.holidays, args.config, args.draws, args.future_cwv], hyper,
    )
    return 0


def _cmd_ppc(args) -> int:
    hyper = load_hyperparameters(args.config)
    ds = dataio.load_dataset(args.data, args.holidays, args.cwv_window)
    draws = dataio.read_draws_csv(args.draws)
    mode = ModelMode(args.mode)
    replicates = posterior_predictive_replicates(draws, ds.y, ds.cov, mode, args.seed)
    summary = coverage_by_gap(replicates, ds.y, ds.cov)
    with open(os.path.join(args.out_dir, "ppc.json"), "w") as fh:
        json.dump(summary.to_dict(), fh, indent=1, sort_keys=True)
    dataio.write_ppc_days_csv(os.path.join(args.out_dir, "ppc_days.csv"), ds.cov, ds.y, summary)
    dataio.write_manifest(
        args.out_dir, "ppc", vars(args), args.seed,
        [args.data, args.holidays, args.config, args.draws], hyper,
    )
    return 0


def _cmd_report(args) -> int:
    wrote = []
    if args.draws:
        draws = dataio.read_draws_csv(args.draws)
        con = draws.constrained()
        qs = (0.025, 0.25, 0.5, 0.75, 0.975)
        path = os.path.join(args.out_dir, "param_summary.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["parameter", "mean", "sd", *[f"q{int(q * 1000):03d}" for q in qs]])
            for k, name in enumerate(draws.names):
                col = con[:, k]
                writer.writerow(
                    [name, repr(float(col.mean())), repr(float(col.std(ddof=1))),
                     *[repr(float(np.quantile(col, q))) for q in qs]]
                )
        wrote.append(path)
    if args.smoothed:
        path = os.path.join(args.out_dir, "state_timeline.csv")
        with open(args.smoothed, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "modal_state", "p_state1", "p_state2", "p_state3", "p_state4"])
            for row in rows:
                probs = [float(row[f"p_state{k}"]) for k in (1, 2, 3, 4)]
                writer.writerow([row["date"], int(np.argmax(probs)) + 1, *[repr(p) for p in probs]])
        wrote.append(path)
    if args.ppc_days:
        path = os.path.join(args.out_dir, "ppc_scatter.csv")
        with open(args.ppc_days, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["region", "observed", "pred_mean", "pred_q025", "pred_q975", "outside95"])
            for row in rows:
                writer.writerow([row["region"], row["observed"], row["pred_mean"],
                                 row["pred_q025"], row["pred_q975"], row["outside95"]])
        wrote.append(path)
    if not wrote:
        raise ValueError("report needs at least one of --draws, --smoothed, --ppc-days")
    dataio.write_manifest(
        args.out_dir, "report", vars(args), args.seed,
        [p for p in (args.draws, args.smoothed, args.ppc_days) if p],
    )
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "smooth": _cmd_smooth,
    "forecast": _cmd_forecast,
    "ppc": _cmd_ppc,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = getattr(args, "out_dir", None)
    try:
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
        return _HANDLERS[args.command](args)
    except ConvergenceError as exc:
        dataio.write_error_json(out_dir, EXIT_CONVERGENCE, type(exc).__name__, str(exc))
        return EXIT_CONVERGENCE
    except _NUMERICAL_ERRORS as exc:
        dataio.write_error_json(out_dir, EXIT_NUMERICAL, type(exc).__name__, str(exc))
        return EXIT_NUMERICAL
    except _INPUT_ERRORS as exc:
        dataio.write_error_json(out_dir, EXIT_INPUT, type(exc).__name__, str(exc))
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
