"""Seeded inputs of the pipeline benchmark.

``python3 perfbench/inputs.py --workload NAME --seed N --out DIR`` writes the
inputs a workload's CLI chain reads before its first command:

* ``holidays.csv``: UK-style observed holidays plus one seeded extra "Other"
  holiday per year, at least a week from any other;
* ``config.txt``: the hyperparameter config of the workload;
* ``draws.csv`` (+ ``draws_meta.json``): near-truth posterior draws, the
  documented truth plus seeded Gaussian noise in unconstrained coordinates,
  written with ``dataio.write_draws_csv`` so that ``smooth``, ``ppc`` and
  ``forecast`` do not depend on the sampler;
* ``hmc/``: for workloads with a default-backend ``fit`` attempt, a fixed
  calendar, config and dataset that do not depend on the seed.

The demand series itself comes from the workload's ``simulate`` command; the
benchmark splits its last ``horizon`` days off as the held-out continuation
and the future CWV of ``forecast``.
"""

from __future__ import annotations

import argparse
import datetime as dt
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = {
    "refit_380d": {
        "start": dt.date(2021, 1, 2),
        "days": 380,
        "horizon": 28,
        "k": (2, 2),
        "config": "preset = paper-like\nk_annual = 2\nk_prec_annual = 2\n",
        "fit": {"chains": 2, "iters": 24, "thin": 1},
        "n_draws": 40,
        "hmc_fit": {"chains": 2, "iters": 20, "thin": 1},
    },
    "posterior_1500d": {
        "start": dt.date(2019, 1, 2),
        "days": 1500,
        "horizon": 28,
        "k": (6, 12),
        "config": "preset = paper-like\n",
        "fit": {"chains": 1, "iters": 2, "thin": 1},
        "n_draws": 40,
        "hmc_fit": None,
    },
}

DRAW_NOISE_SD = 0.001
HMC_SEED = 0


def import_program():
    """Import ``demandhmm`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "demandhmm", "cli.py")):
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, SRC)
    import demandhmm

    if os.path.dirname(os.path.dirname(os.path.abspath(demandhmm.__file__))) != SRC:
        sys.exit(f"perfbench: demandhmm imported from {demandhmm.__file__}, not {SRC}")
    return demandhmm


def make_calendar(first: dt.date, last: dt.date, rng):
    """UK-style holidays spanning the range with margins, plus seeded extras."""
    from demandhmm.covariates import HOLIDAY_TYPE_OTHER, HolidayCalendar
    from demandhmm.generative import uk_holiday_calendar

    base = uk_holiday_calendar(first.year - 1, last.year + 1)
    taken = {d.toordinal() for d in base.dates}
    entries = list(zip(base.dates, base.types))
    for year in range(first.year - 1, last.year + 2):
        jan1 = dt.date(year, 1, 1).toordinal()
        while True:
            day = dt.date.fromordinal(jan1 + int(rng.integers(0, 365)))
            if day.weekday() < 5 and all(abs(day.toordinal() - h) >= 7 for h in taken):
                break
        taken.add(day.toordinal())
        entries.append((day, HOLIDAY_TYPE_OTHER))
    entries.sort()
    return HolidayCalendar(tuple(d for d, _ in entries), tuple(t for _, t in entries))


def near_truth_draws(spec, n_draws, rng):
    from demandhmm.generative import default_truth
    from demandhmm.paramspace import ParamSpace
    from demandhmm.sampler import PosteriorDraws

    space = ParamSpace(*spec["k"])
    truth = space.pack(*default_truth(*spec["k"]))
    half = n_draws // 2
    return PosteriorDraws(
        free_draws=truth + DRAW_NOISE_SD * rng.standard_normal((n_draws, truth.size)),
        logpost=np.full(n_draws, np.nan),  # not sampled: no log posterior
        chain=np.repeat([0, 1], [half, n_draws - half]),
        iteration=np.concatenate([np.arange(half), np.arange(n_draws - half)]),
        space=space,
        base_full=np.zeros(space.full_size),
    )


def write_hmc_inputs(spec, out):
    """Fixed inputs of the default-backend ``fit`` attempt, made as ``simulate`` makes them."""
    from demandhmm import dataio
    from demandhmm.covariates import build_covariates, smooth_cwv_baseline
    from demandhmm.generative import default_truth, simulate, sinusoidal_cwv

    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng(HMC_SEED)
    dates = [spec["start"] + dt.timedelta(days=i) for i in range(spec["days"])]
    calendar = make_calendar(dates[0], dates[-1], rng)
    calendar.to_csv(os.path.join(out, "holidays.csv"))
    with open(os.path.join(out, "config.txt"), "w") as fh:
        fh.write(spec["config"])
    cwv = sinusoidal_cwv(dates, rng)
    cov = build_covariates(dates, calendar, cwv, smooth_cwv_baseline(dates, cwv))
    emission, trans, _ = default_truth(*spec["k"])
    sim = simulate(emission, trans, cov, rng)
    dataio.write_demand_csv(os.path.join(out, "data.csv"), dates, np.exp(sim.y), cwv)


def make_inputs(workload: str, seed: int, out: str):
    from demandhmm import dataio

    spec = WORKLOADS[workload]
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 77]))
    last = spec["start"] + dt.timedelta(days=spec["days"] + spec["horizon"] - 1)
    make_calendar(spec["start"], last, rng).to_csv(os.path.join(out, "holidays.csv"))
    with open(os.path.join(out, "config.txt"), "w") as fh:
        fh.write(spec["config"])
    dataio.write_draws_csv(
        os.path.join(out, "draws.csv"), near_truth_draws(spec, spec["n_draws"], rng)
    )
    if spec["hmc_fit"] is not None:
        write_hmc_inputs(spec, os.path.join(out, "hmc"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="write a workload's seeded inputs")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    import_program()
    make_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
