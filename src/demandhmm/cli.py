"""Batch command surface: simulate | fit | smooth | forecast | ppc | report.

Every command takes ``--seed`` and ``--out-dir``, writes its outputs plus a
``manifest.json`` (input hashes, config snapshot, seed, version, command),
and reports failures as machine-readable JSON on stderr with exit codes:
0 success, 1 internal error (any other exception, reported with its
traceback), 2 input error, 3 numerical failure, 4 non-convergence under
``--strict``. All randomness derives from the single seed via documented
stream splitting, so identical invocations produce identical outputs.

Each command imports the modules it runs when it starts, so only ``fit``
loads the sampler.
"""

from __future__ import annotations

import argparse
import datetime as dt
import os
import sys
import traceback
from dataclasses import fields

import numpy as np

from . import __version__, dataio
from .covariates import CovariateError, HolidayCalendar, build_covariates, smooth_cwv_baseline
from .priors import ConfigError, load_hyperparameters
from .states import ModelMode


class ConvergenceError(RuntimeError):
    pass


EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CONVERGENCE = 4

_INPUT_ERRORS = (dataio.DataError, CovariateError, ConfigError, FileNotFoundError, ValueError)
# ArithmeticError holds FloatingPointError and sampler.SamplingError
_NUMERICAL_ERRORS = (np.linalg.LinAlgError, ArithmeticError)

# The arguments that name an input file; the manifest hashes each one a command was given.
_INPUT_FILES = (
    "data", "holidays", "config", "draws", "future_cwv", "params", "smoothed", "ppc_days",
)
_MODES = [m.value for m in ModelMode]


def _add_common(p, data=True, draws=False):
    p.add_argument("--holidays", required=True, help="holiday calendar CSV (date,type)")
    p.add_argument("--config", required=True, help="hyperparameter config file (key = value)")
    p.add_argument("--seed", required=True, type=int, help="master RNG seed")
    p.add_argument("--out-dir", required=True, help="output directory (created if needed)")
    if data:
        p.add_argument("--data", required=True, help="demand/weather CSV (date,y1,y2,w1,w2)")
    if draws:
        p.add_argument("--draws", required=True, help="draws CSV from fit")
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
    p.add_argument("--mode", default=_MODES[0], choices=_MODES)

    p = sub.add_parser("fit", help="sample the posterior by MCMC")
    _add_common(p)
    p.add_argument("--mode", default=_MODES[0], choices=_MODES)
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--iters", type=int, default=10000)
    p.add_argument("--burn-in", type=float, default=0.5)
    p.add_argument("--thin", type=int, default=10)
    p.add_argument("--backend", default="hmc", help="hmc or adaptive-metropolis")
    p.add_argument("--leapfrog", type=int, default=16)
    p.add_argument("--strict", action="store_true",
                   help="exit 4 when the R-hat threshold is breached")
    p.add_argument("--rhat-threshold", type=float, default=1.05)

    p = sub.add_parser("smooth", help="Rao-Blackwell smoothed state probabilities")
    _add_common(p, draws=True)

    p = sub.add_parser("forecast", help="posterior predictive forecast paths")
    _add_common(p, draws=True)
    p.add_argument("--horizon", required=True, type=int)
    p.add_argument("--future-cwv", required=True, help="CSV date,w1,w2 for the horizon")
    p.add_argument("--write-paths", action="store_true", help="also write per-draw paths")

    p = sub.add_parser("ppc", help="posterior predictive coverage by holiday distance")
    _add_common(p, draws=True)

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
    """The ``params.json`` document: every dataclass field of each part, by name."""
    parts = {"emission": emission, "trans": trans, "latents": latents}
    return {
        key: {f.name: np.asarray(getattr(part, f.name)).tolist() for f in fields(part)}
        for key, part in parts.items()
        if part is not None
    }


def _params_from_json(doc, k_annual: int, k_prec_annual: int, mode: ModelMode):
    """Inverse of :func:`_params_to_json`; a malformed document raises ``ConfigError``.

    Each part must name every field of its dataclass and nothing else, as
    finite numbers shaped as the config's harmonic counts imply. ``trans`` may
    be left out in two-state mode.
    """
    from .generative import default_truth

    reference = dict(zip(("emission", "trans", "latents"), default_truth(k_annual, k_prec_annual)))
    required = {"emission", "latents"} | ({"trans"} if mode is ModelMode.FOUR_STATE else set())
    if not isinstance(doc, dict) or not required <= set(doc) <= set(reference):
        raise ConfigError(
            f"params file must hold the parts {sorted(required)} (and optionally 'trans')"
        )
    parts = {}
    for key, part in doc.items():
        ref = reference[key]
        names = [f.name for f in fields(ref)]
        if not isinstance(part, dict) or set(part) != set(names):
            got = set(part) if isinstance(part, dict) else set()
            missing, unknown = sorted(set(names) - got), sorted(got - set(names))
            raise ConfigError(f"params '{key}': missing {missing}, unknown {unknown}")
        values = {}
        for name in names:
            shape = np.shape(getattr(ref, name))
            try:
                value = np.asarray(part[name], dtype=np.float64)
            except (TypeError, ValueError):
                value = None
            if value is None or value.shape != shape or not np.all(np.isfinite(value)):
                raise ConfigError(f"params '{key}.{name}' must be finite numbers of shape {shape}")
            values[name] = float(value) if value.ndim == 0 else value
        parts[key] = type(ref)(**values)
    return parts["emission"], parts.get("trans"), parts["latents"]


# ---------------------------------------------------------------------------
# Command handlers


def _load(args):
    """``(hyper, dataset, draws)``: the config, plus the data and draws if the command takes them.

    Draws must carry the config's harmonic counts.
    """
    hyper = load_hyperparameters(args.config)
    ds = dataio.load_dataset(args.data, args.holidays, args.cwv_window) if "data" in args else None
    draws = None
    if "draws" in args:
        draws = dataio.read_draws_csv(args.draws)
        got = (draws.space.k_annual, draws.space.k_prec_annual)
        want = (hyper.k_annual, hyper.k_prec_annual)
        if got != want:
            raise dataio.DataError(
                f"{args.draws}: draws have (k_annual, k_prec_annual) = {got}, the config {want}"
            )
    return hyper, ds, draws


def _write_manifest(args, hyper=None, **extra):
    paths = {name: getattr(args, name, None) for name in _INPUT_FILES}
    if paths["params"] == "demo":  # the documented truth values, not a file
        del paths["params"]
    dataio.write_manifest(
        args.out_dir, args.command, vars(args), args.seed, list(paths.values()), hyper,
        extra=extra or None,
    )


def _cmd_simulate(args) -> int:
    from .generative import default_truth, simulate, sinusoidal_cwv

    hyper, _, _ = _load(args)
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

    mode = ModelMode(args.mode)
    if args.params == "demo":
        emission, trans, latents = default_truth(hyper.k_annual, hyper.k_prec_annual)
    else:
        doc = dataio.read_json(args.params, ConfigError)
        emission, trans, latents = _params_from_json(doc, hyper.k_annual, hyper.k_prec_annual, mode)
    sim_trans = trans if mode is ModelMode.FOUR_STATE else None
    sim = simulate(emission, sim_trans, cov, np.random.SeedSequence([args.seed, 0]))

    data_path = os.path.join(args.out_dir, "data.csv")
    dataio.write_demand_csv(data_path, dates, np.exp(sim.y), cwv)
    dataio.write_states_csv(os.path.join(args.out_dir, "states.csv"), cov, sim.states)
    dataio.write_json(
        os.path.join(args.out_dir, "params.json"), _params_to_json(emission, trans, latents)
    )
    _write_manifest(args, hyper, data_sha256=dataio.sha256_file(data_path))
    return 0


def _cmd_fit(args) -> int:
    from .diagnostics import json_number
    from .sampler import SamplerConfig, run_mcmc

    hyper, ds, _ = _load(args)
    cfg = SamplerConfig(
        n_chains=args.chains,
        n_iterations=args.iters,
        burn_in=args.burn_in,
        thin=args.thin,
        algorithm=args.backend,
        seed=args.seed,
        n_leapfrog=args.leapfrog,
    )
    draws, diag = run_mcmc(ds.y, ds.cov, hyper, cfg, ModelMode(args.mode))
    draws_path = os.path.join(args.out_dir, "draws.csv")
    dataio.write_draws_csv(draws_path, draws)
    dataio.write_json(os.path.join(args.out_dir, "diagnostics.json"), diag.to_dict())
    _write_manifest(
        args, hyper, draws_sha256=dataio.sha256_file(draws_path),
        max_rhat=json_number(diag.max_rhat), min_ess=json_number(diag.min_ess),
    )
    if args.strict and not (diag.max_rhat <= args.rhat_threshold):
        raise ConvergenceError(
            f"max R-hat {diag.max_rhat:.4f} exceeds threshold {args.rhat_threshold}"
        )
    return 0


def _cmd_smooth(args) -> int:
    from .filtering import rao_blackwell_states

    hyper, ds, draws = _load(args)
    smoothed = rao_blackwell_states(draws, ds.y, ds.cov)
    dataio.write_smoothed_csv(os.path.join(args.out_dir, "smoothed.csv"), ds.cov, smoothed.probs)
    _write_manifest(args, hyper)
    return 0


def _cmd_forecast(args) -> int:
    from .ppc import forecast

    if args.horizon < 1:
        raise dataio.DataError(f"horizon must be at least 1 day, got {args.horizon}")
    hyper, ds, draws = _load(args)
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
    future_cov = build_covariates(fdates, ds.calendar, fw, ds.baseline, epoch=ds.cov.epoch)
    paths = forecast(draws, ds.y, ds.cov, future_cov, args.seed)
    dataio.write_forecast_csv(os.path.join(args.out_dir, "forecast.csv"), future_cov, paths)
    if args.write_paths:
        dataio.write_forecast_paths_csv(
            os.path.join(args.out_dir, "forecast_paths.csv"), future_cov, paths
        )
    _write_manifest(args, hyper)
    return 0


def _cmd_ppc(args) -> int:
    from .ppc import coverage_by_gap, posterior_predictive_replicates

    hyper, ds, draws = _load(args)
    replicates = posterior_predictive_replicates(draws, ds.y, ds.cov, args.seed)
    summary = coverage_by_gap(replicates, ds.y, ds.cov)
    dataio.write_json(os.path.join(args.out_dir, "ppc.json"), summary.to_dict())
    dataio.write_ppc_days_csv(os.path.join(args.out_dir, "ppc_days.csv"), ds.cov, ds.y, summary)
    _write_manifest(args, hyper)
    return 0


_STATE_COLUMNS = ["p_state1", "p_state2", "p_state3", "p_state4"]
_SCATTER_COLUMNS = ["region", "observed", "pred_mean", "pred_q025", "pred_q975", "outside95"]


def _cmd_report(args) -> int:
    if not (args.draws or args.smoothed or args.ppc_days):
        raise ValueError("report needs at least one of --draws, --smoothed, --ppc-days")
    if args.draws:
        draws = dataio.read_draws_csv(args.draws)
        qs = (0.025, 0.25, 0.5, 0.75, 0.975)
        dataio.write_rows(
            os.path.join(args.out_dir, "param_summary.csv"),
            ["parameter", "mean", "sd", *[f"q{int(q * 1000):03d}" for q in qs]],
            # one draw has no sample standard deviation: nan, without numpy's warnings
            ([name, repr(float(col.mean())), repr(float(col.std(ddof=1) if col.size > 1 else np.nan)),
              *[repr(float(np.quantile(col, q))) for q in qs]]
             for name, col in zip(draws.names, draws.constrained().T)),
        )
    if args.smoothed:
        rows = dataio.read_columns(args.smoothed, ["date", *_STATE_COLUMNS])
        probs = dataio.read_numbers(args.smoothed, rows)
        dataio.write_rows(
            os.path.join(args.out_dir, "state_timeline.csv"),
            ["date", "modal_state", *_STATE_COLUMNS],
            ([cells[0], int(np.argmax(p)) + 1, *[repr(float(v)) for v in p]]
             for (_, cells), p in zip(rows, probs)),
        )
    if args.ppc_days:
        # copied through as written, once every cell is known to be a finite number
        rows = dataio.read_columns(args.ppc_days, _SCATTER_COLUMNS)
        dataio.read_numbers(args.ppc_days, rows, start=0)
        dataio.write_rows(
            os.path.join(args.out_dir, "ppc_scatter.csv"), _SCATTER_COLUMNS,
            (cells for _, cells in rows),
        )
    _write_manifest(args)
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
    except Exception as exc:
        # a bug: keep the traceback, and still leave the machine-readable report
        traceback.print_exc()
        dataio.write_error_json(out_dir, EXIT_INTERNAL, type(exc).__name__, str(exc))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
