"""File formats: input CSVs, persisted outputs and run manifests.

Input schemas (header rows required, days contiguous):

* demand/weather: ``date,y1,y2,w1,w2`` with raw demand in tenths of GWh
  (logged internally; zero or negative demand is a hard error) and one CWV
  column per region;
* holiday calendar: ``date,type`` with type 1 Easter, 2 Other, 3 Christmas;
* future CWV scenario: ``date,w1,w2``.

Outputs: draws CSV (one row per retained draw: ``chain,iter,lp`` plus one
column per sampled scalar in natural space) with a sidecar ``*_meta.json``
describing the model layout; smoothed-state CSV; per-day PPC CSV; forecast
CSV; and a ``manifest.json`` capturing input hashes, the configuration
snapshot, seed, software version and command line, which together determine
the outputs bit for bit.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .covariates import CovariateError, CovariateSeries, HolidayCalendar, build_covariates, smooth_cwv_baseline
from .paramspace import ParamSpace
from .priors import Hyperparameters, hyperparameters_to_dict
from .sampler import PosteriorDraws
from .states import ModelMode


class DataError(ValueError):
    """Raised for malformed input files."""


def _read_csv_columns(path, columns):
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(columns) <= set(reader.fieldnames):
            raise DataError(f"{path}: expected columns {','.join(columns)}")
        for lineno, row in enumerate(reader, start=2):
            try:
                rows.append((lineno, [row[c] for c in columns]))
            except KeyError as exc:
                raise DataError(f"{path}: row {lineno}: missing {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows


def _parse_dates_contiguous(path, raw):
    dates = []
    for lineno, vals in raw:
        try:
            dates.append(dt.date.fromisoformat(vals[0].strip()))
        except ValueError as exc:
            raise DataError(f"{path}: row {lineno}: bad date {vals[0]!r}") from exc
    for i, (a, b) in enumerate(zip(dates, dates[1:])):
        if (b - a).days != 1:
            raise DataError(f"{path}: dates not contiguous between rows {i + 2} and {i + 3}")
    return dates


def read_demand_csv(path):
    """(dates, raw demand (T, 2), cwv (T, 2)); demand must be positive."""
    raw = _read_csv_columns(path, ["date", "y1", "y2", "w1", "w2"])
    dates = _parse_dates_contiguous(path, raw)
    y = np.empty((len(raw), 2))
    w = np.empty((len(raw), 2))
    for i, (lineno, vals) in enumerate(raw):
        try:
            y[i] = (float(vals[1]), float(vals[2]))
            w[i] = (float(vals[3]), float(vals[4]))
        except ValueError as exc:
            raise DataError(f"{path}: row {lineno}: non-numeric value") from exc
        if not np.all(np.isfinite(y[i])) or not np.all(np.isfinite(w[i])):
            raise DataError(f"{path}: row {lineno}: non-finite value")
        if y[i, 0] <= 0.0 or y[i, 1] <= 0.0:
            raise DataError(f"{path}: row {lineno}: demand must be positive to take logs")
    return dates, y, w


def write_demand_csv(path, dates, y_raw, w):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "y1", "y2", "w1", "w2"])
        for i, d in enumerate(dates):
            writer.writerow(
                [d.isoformat(), repr(float(y_raw[i, 0])), repr(float(y_raw[i, 1])),
                 repr(float(w[i, 0])), repr(float(w[i, 1]))]
            )


def read_future_cwv_csv(path):
    raw = _read_csv_columns(path, ["date", "w1", "w2"])
    dates = _parse_dates_contiguous(path, raw)
    w = np.empty((len(raw), 2))
    for i, (lineno, vals) in enumerate(raw):
        try:
            w[i] = (float(vals[1]), float(vals[2]))
        except ValueError as exc:
            raise DataError(f"{path}: row {lineno}: non-numeric value") from exc
    return dates, w


@dataclass(frozen=True)
class Dataset:
    """Everything the fitting pipeline needs, assembled from the input files."""

    dates: tuple
    y_raw: np.ndarray
    y: np.ndarray            # log demand
    cov: CovariateSeries
    calendar: HolidayCalendar


def load_dataset(data_path, holidays_path, window_halfwidth: int = 10, epoch=None) -> Dataset:
    dates, y_raw, w = read_demand_csv(data_path)
    calendar = HolidayCalendar.from_csv(holidays_path)
    baseline = smooth_cwv_baseline(dates, w, window_halfwidth)
    cov = build_covariates(dates, calendar, w, baseline, epoch=epoch)
    return Dataset(
        dates=tuple(dates), y_raw=y_raw, y=np.log(y_raw), cov=cov, calendar=calendar
    )


# ---------------------------------------------------------------------------
# Posterior draws


def write_draws_csv(path, draws: PosteriorDraws):
    con = draws.constrained()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain", "iter", "lp", *draws.names])
        for i in range(draws.n_draws):
            writer.writerow(
                [int(draws.chain[i]), int(draws.iteration[i]), repr(float(draws.logpost[i])),
                 *[repr(float(v)) for v in con[i]]]
            )
    meta = {
        "mode": draws.mode.value,
        "k_annual": draws.space.k_annual,
        "k_prec_annual": draws.space.k_prec_annual,
        "free": list(draws.space.free) if draws.space.free is not None else None,
        "base_full": [float(v) for v in draws.base_full],
    }
    with open(_meta_path(path), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)


def _meta_path(path):
    root, _ = os.path.splitext(str(path))
    return root + "_meta.json"


def read_draws_csv(path) -> PosteriorDraws:
    with open(_meta_path(path)) as fh:
        meta = json.load(fh)
    space = ParamSpace(
        meta["k_annual"], meta["k_prec_annual"], ModelMode(meta["mode"]), free=meta["free"]
    )
    base_full = np.asarray(meta["base_full"], dtype=np.float64)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["chain", "iter", "lp"] or tuple(header[3:]) != space.free_names:
            raise DataError(f"{path}: draws header does not match the model layout")
        chain, iteration, lp, values = [], [], [], []
        for row in reader:
            chain.append(int(row[0]))
            iteration.append(int(row[1]))
            lp.append(float(row[2]))
            values.append([float(v) for v in row[3:]])
    values = np.asarray(values, dtype=np.float64)
    free_draws = np.empty_like(values)
    logit_free = space._logit_mask[space.free_idx]
    free_draws[:, ~logit_free] = values[:, ~logit_free]
    if logit_free.any():
        v = values[:, logit_free]
        free_draws[:, logit_free] = np.log(v) - np.log1p(-v)
    return PosteriorDraws(
        free_draws=free_draws,
        logpost=np.asarray(lp),
        chain=np.asarray(chain, dtype=np.int64),
        iteration=np.asarray(iteration, dtype=np.int64),
        space=space,
        base_full=base_full,
    )


# ---------------------------------------------------------------------------
# Other outputs


def write_smoothed_csv(path, cov: CovariateSeries, probs: np.ndarray):
    """Rows for days 0..T: ``date,p_state1..p_state4``."""
    dates = (cov.day0, *cov.dates)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "p_state1", "p_state2", "p_state3", "p_state4"])
        for i, d in enumerate(dates):
            writer.writerow([d.isoformat(), *[repr(float(p)) for p in probs[i]]])


def write_ppc_days_csv(path, cov: CovariateSeries, y, summary):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["date", "region", "observed", "pred_mean", "pred_q025", "pred_q975", "outside95"]
        )
        for i, d in enumerate(cov.dates):
            for j in range(2):
                writer.writerow(
                    [
                        d.isoformat(), j + 1, repr(float(y[i, j])),
                        repr(float(summary.pred_mean[i, j])),
                        repr(float(summary.pred_q025[i, j])),
                        repr(float(summary.pred_q975[i, j])),
                        int(summary.outside[i, j]),
                    ]
                )


def write_forecast_csv(path, future_cov: CovariateSeries, paths: np.ndarray):
    """Per-day forecast summary: mean and central 95% band per region."""
    mean = paths.mean(axis=0)
    q025 = np.quantile(paths, 0.025, axis=0)
    q975 = np.quantile(paths, 0.975, axis=0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "region", "pred_mean", "pred_q025", "pred_q975"])
        for i, d in enumerate(future_cov.dates):
            for j in range(2):
                writer.writerow(
                    [d.isoformat(), j + 1, repr(float(mean[i, j])),
                     repr(float(q025[i, j])), repr(float(q975[i, j]))]
                )


def write_states_csv(path, cov: CovariateSeries, states: np.ndarray):
    dates = (cov.day0, *cov.dates)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "state"])
        for d, s in zip(dates, states):
            writer.writerow([d.isoformat(), int(s)])


# ---------------------------------------------------------------------------
# Manifests and errors


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, command, args_dict, seed, input_paths, hyper=None, extra=None):
    manifest = {
        "command": command,
        "argv": list(sys.argv),
        "args": {k: (str(v) if isinstance(v, os.PathLike) else v) for k, v in args_dict.items()},
        "seed": seed,
        "version": __version__,
        "inputs": {str(p): sha256_file(p) for p in input_paths if p is not None},
        "timestamp": dt.datetime.now(dt.timezone.utc).isoformat(),
    }
    if hyper is not None:
        manifest["hyperparameters"] = hyperparameters_to_dict(hyper)
    if extra:
        manifest["extra"] = extra
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return path


def write_error_json(out_dir, code, err_type, message):
    payload = {"error": {"exit_code": code, "type": err_type, "message": message}}
    text = json.dumps(payload, indent=1)
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, "error.json"), "w") as fh:
                fh.write(text + "\n")
        except OSError:
            pass
    print(text, file=sys.stderr)
