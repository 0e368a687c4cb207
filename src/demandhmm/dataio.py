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

The demand, future-CWV and report input tables are read by :func:`read_columns`;
the holidays CSV (``HolidayCalendar.from_csv``) and the draws CSV
(:func:`read_draws_csv`) have their own loops. Every CSV output is written by
:func:`write_rows` and every JSON output but ``error.json`` by :func:`write_json`.
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
from .covariates import (
    CovariateSeries, HolidayCalendar, SeasonalCwvBaseline, build_covariates, smooth_cwv_baseline,
)
from .paramspace import ParamSpace, PosteriorDraws
from .priors import hyperparameters_to_dict
from .states import ModelMode


class DataError(ValueError):
    """Raised for malformed input files."""


def read_columns(path, columns):
    """``(line number, cells)`` for each data row of a CSV, ``cells`` in ``columns`` order.

    The header must name every column and every row must fill each of them.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(columns) <= set(reader.fieldnames):
            raise DataError(f"{path}: expected columns {','.join(columns)}")
        for row in reader:
            cells = [row[c] for c in columns]
            if None in cells:  # a short row
                missing = columns[cells.index(None)]
                raise DataError(f"{path}: row {reader.line_num}: missing {missing}")
            rows.append((reader.line_num, cells))
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows


def read_numbers(path, rows, start=1):
    """The cells of ``rows`` (from :func:`read_columns`) from ``start`` on, as finite floats."""
    out = np.empty((len(rows), len(rows[0][1]) - start))
    for i, (lineno, cells) in enumerate(rows):
        try:
            out[i] = [float(c) for c in cells[start:]]
        except ValueError as exc:
            raise DataError(f"{path}: row {lineno}: non-numeric value") from exc
    bad = np.flatnonzero(~np.all(np.isfinite(out), axis=1))
    if bad.size:
        raise DataError(f"{path}: row {rows[bad[0]][0]}: non-finite value")
    return out


def read_json(path, error=DataError):
    """A JSON document; text that is not JSON raises ``error`` naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise error(f"{path}: not valid JSON: {exc}") from exc


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
    raw = read_columns(path, ["date", "y1", "y2", "w1", "w2"])
    dates = _parse_dates_contiguous(path, raw)
    values = read_numbers(path, raw)
    bad = np.flatnonzero(np.any(values[:, :2] <= 0.0, axis=1))
    if bad.size:
        raise DataError(f"{path}: row {raw[bad[0]][0]}: demand must be positive to take logs")
    return dates, values[:, :2].copy(), values[:, 2:].copy()


def write_demand_csv(path, dates, y_raw, w):
    write_rows(
        path, ["date", "y1", "y2", "w1", "w2"],
        ([d.isoformat(), repr(float(y_raw[i, 0])), repr(float(y_raw[i, 1])),
          repr(float(w[i, 0])), repr(float(w[i, 1]))] for i, d in enumerate(dates)),
    )


def read_future_cwv_csv(path):
    raw = read_columns(path, ["date", "w1", "w2"])
    return _parse_dates_contiguous(path, raw), read_numbers(path, raw)


@dataclass(frozen=True)
class Dataset:
    """Everything the fitting pipeline needs, assembled from the input files."""

    dates: tuple
    y: np.ndarray            # log demand
    cov: CovariateSeries
    calendar: HolidayCalendar
    baseline: SeasonalCwvBaseline   # the seasonal CWV baseline that centres ``cov``'s weather


def load_dataset(data_path, holidays_path, window_halfwidth: int = 10) -> Dataset:
    dates, y_raw, w = read_demand_csv(data_path)
    calendar = HolidayCalendar.from_csv(holidays_path)
    baseline = smooth_cwv_baseline(dates, w, window_halfwidth)
    cov = build_covariates(dates, calendar, w, baseline)
    return Dataset(dates=tuple(dates), y=np.log(y_raw), cov=cov, calendar=calendar, baseline=baseline)


# ---------------------------------------------------------------------------
# Posterior draws


def write_draws_csv(path, draws: PosteriorDraws):
    con = draws.constrained()
    write_rows(
        path, ["chain", "iter", "lp", *draws.names],
        ([int(draws.chain[i]), int(draws.iteration[i]), repr(float(draws.logpost[i])),
          *[repr(float(v)) for v in con[i]]] for i in range(draws.n_draws)),
    )
    write_json(_meta_path(path), {
        "mode": draws.mode.value,
        "k_annual": draws.space.k_annual,
        "k_prec_annual": draws.space.k_prec_annual,
        "free": list(draws.space.free) if draws.space.free is not None else None,
        "base_full": [float(v) for v in draws.base_full],
    })


def _meta_path(path):
    root, _ = os.path.splitext(str(path))
    return root + "_meta.json"


# Each sidecar key with the test its value must pass (JSON booleans are not ints).
_META_KEYS = {
    "mode": lambda v: v in [m.value for m in ModelMode],
    "k_annual": lambda v: type(v) is int and v >= 1,
    "k_prec_annual": lambda v: type(v) is int and v >= 1,
    "free": lambda v: v is None or (type(v) is list and all(type(f) is str for f in v)),
    "base_full": lambda v: type(v) is list and all(type(x) in (int, float) for x in v),
}


def read_draws_csv(path) -> PosteriorDraws:
    meta_path = _meta_path(path)
    meta = read_json(meta_path)
    for key, valid in _META_KEYS.items():
        if not isinstance(meta, dict) or key not in meta:
            raise DataError(f"{meta_path}: missing key {key!r}")
        if not valid(meta[key]):
            raise DataError(f"{meta_path}: bad value for {key!r}")
    try:
        space = ParamSpace(
            meta["k_annual"], meta["k_prec_annual"], ModelMode(meta["mode"]), free=meta["free"]
        )
    except ValueError as exc:  # an unknown free family
        raise DataError(f"{meta_path}: bad value for 'free': {exc}") from exc
    base_full = np.asarray(meta["base_full"], dtype=np.float64)
    if base_full.size != space.full_size:
        raise DataError(f"{meta_path}: bad value for 'base_full': expected {space.full_size} numbers")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:3] != ["chain", "iter", "lp"] or tuple(header[3:]) != space.free_names:
            raise DataError(f"{path}: draws header does not match the model layout")
        chain, iteration, lp, values, lines = [], [], [], [], []
        for row in reader:
            if len(row) != len(header):
                raise DataError(
                    f"{path}: line {reader.line_num} has {len(row)} columns, expected {len(header)}"
                )
            try:
                chain.append(int(row[0]))
                iteration.append(int(row[1]))
                lp.append(float(row[2]))
                values.append([float(v) for v in row[3:]])
            except ValueError as exc:
                raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc
            lines.append(reader.line_num)
    if not values:
        raise DataError(f"{path}: no draws")
    # lp may be NaN; a parameter off its support has a non-finite unconstrained value
    with np.errstate(divide="ignore", invalid="ignore"):
        free_draws = space.free_unconstrained(values)
    bad = np.flatnonzero(~np.all(np.isfinite(free_draws), axis=1))
    if bad.size:
        raise DataError(
            f"{path}: line {lines[bad[0]]}: parameter value not finite or outside its support"
        )
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


def write_rows(path, header, rows):
    """Write a CSV: the ``header`` row, then each of ``rows``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, doc):
    """Write ``doc`` as JSON with sorted keys and a one-space indent."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def write_smoothed_csv(path, cov: CovariateSeries, probs: np.ndarray):
    """Rows for days 0..T: ``date,p_state1..p_state4``."""
    write_rows(
        path, ["date", "p_state1", "p_state2", "p_state3", "p_state4"],
        ([d.isoformat(), *[repr(float(p)) for p in probs[i]]]
         for i, d in enumerate((cov.day0, *cov.dates))),
    )


def write_ppc_days_csv(path, cov: CovariateSeries, y, summary):
    write_rows(
        path, ["date", "region", "observed", "pred_mean", "pred_q025", "pred_q975", "outside95"],
        ([d.isoformat(), j + 1, repr(float(y[i, j])), repr(float(summary.pred_mean[i, j])),
          repr(float(summary.pred_q025[i, j])), repr(float(summary.pred_q975[i, j])),
          int(summary.outside[i, j])]
         for i, d in enumerate(cov.dates) for j in range(2)),
    )


def write_forecast_csv(path, future_cov: CovariateSeries, paths: np.ndarray):
    """Per-day forecast summary: mean and central 95% band per region."""
    mean = paths.mean(axis=0)
    q025 = np.quantile(paths, 0.025, axis=0)
    q975 = np.quantile(paths, 0.975, axis=0)
    write_rows(
        path, ["date", "region", "pred_mean", "pred_q025", "pred_q975"],
        ([d.isoformat(), j + 1, repr(float(mean[i, j])), repr(float(q025[i, j])),
          repr(float(q975[i, j]))]
         for i, d in enumerate(future_cov.dates) for j in range(2)),
    )


def write_forecast_paths_csv(path, future_cov: CovariateSeries, paths: np.ndarray):
    """Every forecast path: one row per draw, day and region."""
    write_rows(
        path, ["draw", "date", "region", "value"],
        ([i, d.isoformat(), j + 1, repr(float(paths[i, t, j]))]
         for i in range(paths.shape[0]) for t, d in enumerate(future_cov.dates) for j in range(2)),
    )


def write_states_csv(path, cov: CovariateSeries, states: np.ndarray):
    write_rows(
        path, ["date", "state"],
        ([d.isoformat(), int(s)] for d, s in zip((cov.day0, *cov.dates), states)),
    )


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
    write_json(path, manifest)
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
