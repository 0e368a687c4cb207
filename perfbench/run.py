"""Pipeline benchmark: the demandhmm CLI chain on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark writes its workload's inputs
from the seed (timed, in fresh processes, as ``setup_s``), then runs rounds of
the chain ``simulate -> fit -> smooth -> ppc -> forecast`` until the next
round would end after ``--seconds`` (at least one round). With ``--trace 0``
every command is a subprocess ``python -m demandhmm.cli``, one at a time,
timed from start to exit and scaled to a reference CPU speed (see
``SpeedProbe``), and the end-to-end metrics are the medians over rounds.
With ``--trace 1`` each round runs the chain twice in this process,
calling ``cli.main`` directly, once bare and once with timing spans around
the program's public functions (see ``tracing.py``), the two runs of each
command back to back; the per-layer metrics come from the traced chain and
``trace.overhead_s`` is its extra wall time.

Every round checks the program's outputs (see the ``check_*`` functions);
a run also checks the filter against ``reference.py`` on one draw. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import datetime as dt
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = len(os.sched_getaffinity(0))
# The benchmark and every command it starts run on one CPU (see SpeedProbe),
# so the numerical libraries get one thread each.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread caps)

import inputs  # noqa: E402
from inputs import HMC_SEED, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
DEADLINE_S = 170.0            # every run must end within 180 s
BURN_IN = 0.5                 # the fit command's default --burn-in
FORECAST_MIN_COVERAGE = 0.5   # share of held-out day-regions inside the 95% band
# Modal-state accuracy as in acceptance criterion 8, whose 0.90 over all
# proximity days holds on its one dataset only: across seeds, rare early
# pre-holiday entries a week or more out carry almost no dip and cannot be
# recovered (0.66 on one of 40 seeds). Proximity days next to a holiday can
# (at least 0.93 on each of those 40 seeds).
NEAR_MIN_ACCURACY = 0.85
FAR_MIN_ACCURACY = 0.99
ADMISSIBLE = {(1, 1), (1, 2), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4),
              (4, 1), (4, 2), (4, 4)}
CHAIN = ("simulate", "fit", "smooth", "ppc", "forecast")
PROBE_LOOP = 10000            # iterations of the speed probe's fixed loop
PROBE_PERIOD_S = 0.1
PROBE_PAD_S = 0.5             # probe samples this close to a command count for it
PROBE_REF_S = 0.001           # probe loop CPU time that defines reference speed


class SpeedProbe:
    """Samples the CPU's speed while commands run, to put their times on one scale.

    On a shared machine the CPU speed swings by tens of percent within a
    minute: on the 2-core machine this benchmark was written on, a fixed
    pure-Python loop ran at 0.72-1.14 times its median speed in one-second
    windows and 0.85-1.07 in 30-second windows, and a 2.2 s command took
    1.8-2.8 s from one minute to the next. No number of rounds in a run of
    under a minute averages that out. A thread therefore times a fixed
    pure-Python loop, in thread CPU time, every ``PROBE_PERIOD_S`` on the CPU
    the commands run on (the benchmark pins itself and its children to one
    CPU), and a command's time is its wall time times ``PROBE_REF_S`` over
    the median loop time around it: seconds at a fixed reference speed.
    """

    def __init__(self):
        self.samples = []             # (perf_counter at end, loop CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.is_set():
            start = time.thread_time()
            acc = 0
            for i in range(PROBE_LOOP):
                acc += i * i % 7
            self.samples.append((time.perf_counter(), time.thread_time() - start))
            self._stop.wait(PROBE_PERIOD_S)

    def scaled(self, start, end):
        """Wall time from ``start`` to ``end`` at reference speed."""
        around = [d for t, d in self.samples if start - PROBE_PAD_S <= t <= end + PROBE_PAD_S]
        return (end - start) * PROBE_REF_S / statistics.median(around)


# ---------------------------------------------------------------------------
# Commands


def fit_flags(cfg):
    return ["--chains", str(cfg["chains"]), "--iters", str(cfg["iters"]), "--thin", str(cfg["thin"])]


def chain_ops(spec, seed, inp, rdir):
    """(label, argv) of one round, in order. ``fit`` runs twice to check determinism."""
    common = ["--holidays", f"{inp}/holidays.csv", "--config", f"{inp}/config.txt",
              "--seed", str(seed)]
    data = [*common, "--data", f"{rdir}/data.csv"]
    draws = ["--draws", f"{inp}/draws.csv"]
    ops = [("simulate", ["simulate", *common, "--out-dir", f"{rdir}/sim",
                         "--start", spec["start"].isoformat(),
                         "--days", str(spec["days"] + spec["horizon"])])]
    if spec["hmc_fit"] is not None:
        hmc = f"{inp}/hmc"
        ops.append(("fit_hmc", ["fit", "--holidays", f"{hmc}/holidays.csv",
                                "--config", f"{hmc}/config.txt", "--seed", str(HMC_SEED),
                                "--data", f"{hmc}/data.csv", "--out-dir", f"{rdir}/fit_hmc",
                                *fit_flags(spec["hmc_fit"])]))
    for k in "ab":
        ops.append(("fit", ["fit", *data, "--out-dir", f"{rdir}/fit_{k}",
                            *fit_flags(spec["fit"]), "--backend", "adaptive-metropolis"]))
    ops += [
        ("smooth", ["smooth", *data, *draws, "--out-dir", f"{rdir}/smooth"]),
        ("ppc", ["ppc", *data, *draws, "--out-dir", f"{rdir}/ppc"]),
        ("forecast", ["forecast", *data, *draws, "--out-dir", f"{rdir}/forecast",
                      "--horizon", str(spec["horizon"]),
                      "--future-cwv", f"{rdir}/future_cwv.csv"]),
    ]
    return ops


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class SubprocessRunner:
    """Runs each command as ``python -m demandhmm.cli`` (through ``command.py``);
    records wall time, wall time at reference speed and the command's own peak RSS."""

    def __init__(self, deadline, probe):
        self.deadline = deadline
        self.probe = probe
        self.env = child_env()

    def __call__(self, argv, log_path):
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, os.path.join(HERE, "command.py"),
                                     f"{log_path}.hwm", *argv],
                                    cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                proc.wait()
            finally:
                timer.cancel()
            end = time.perf_counter()
        try:
            with open(f"{log_path}.hwm") as fh:
                rss_mb = int(fh.read()) / 1024.0
        except (OSError, ValueError):   # killed before it could write its peak
            rss_mb = None
        return {"rc": proc.returncode, "wall_s": end - start,
                "ref_s": self.probe.scaled(start, end), "rss_mb": rss_mb}


class InProcessRunner:
    """Calls ``cli.main`` in this process, inside a root span when tracing."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def __call__(self, argv, log_path):
        from demandhmm import cli

        start = time.perf_counter()
        try:
            if self.tracer is None:
                rc = cli.main(argv)
            else:
                with self.tracer.installed():
                    rc = self.tracer.span(f"cli.{argv[0]}", cli.main, (argv,))
        except Exception:  # escapes the CLI: the command would exit 1
            with open(log_path, "w") as fh:
                traceback.print_exc(file=fh)
            rc = 1
        return {"rc": rc, "wall_s": time.perf_counter() - start, "rss_mb": None}


def split_simulation(spec, rdir):
    """Data for the chain, plus the future CWV and held-out log demand of the horizon."""
    with open(f"{rdir}/sim/data.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    with open(f"{rdir}/data.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([header, *body[: spec["days"]]])
    with open(f"{rdir}/future_cwv.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["date", "w1", "w2"],
                                  *[[r[0], r[3], r[4]] for r in body[spec["days"]:]]])


def run_round(spec, seed, inp, variants):
    """Run the chain once per (directory, runner) variant, one command at a time.

    The variants of a command run back to back, in alternating order, so that
    they meet the same machine speed as nearly as possible.
    """
    results = [[] for _ in variants]
    ops = [chain_ops(spec, seed, inp, rdir) for rdir, _ in variants]
    for rdir, _ in variants:
        os.makedirs(rdir)
    for i in range(len(ops[0])):
        order = range(len(variants)) if i % 2 == 0 else reversed(range(len(variants)))
        for v in order:
            rdir, runner = variants[v]
            label, argv = ops[v][i]
            res = runner(argv, f"{rdir}/{i}_{label}.log")
            res.update(op=label, argv=argv)
            results[v].append(res)
            if label == "simulate" and res["rc"] == 0:
                split_simulation(spec, rdir)
    return results


def chain_metrics(results, key="ref_s"):
    """Per-round end-to-end figures; the failed default-backend fit is not among them."""
    wall = {}
    for r in results:
        if r["op"] in CHAIN:
            wall.setdefault(r["op"], []).append(r[key])
    out = {f"{op}_s": statistics.median(wall[op]) for op in CHAIN}
    out["pipeline_s"] = sum(out[f"{op}_s"] for op in CHAIN)
    rss = [r["rss_mb"] for r in results if r["op"] in CHAIN and r["rss_mb"] is not None]
    if rss:
        out["peak_rss_mb"] = max(rss)
    return out


# ---------------------------------------------------------------------------
# Checks: independent computations and properties the method must have


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Calendar:
    """The holiday dates the benchmark wrote, read back with the csv module."""

    def __init__(self, path):
        self.dates = {dt.date.fromisoformat(r["date"]) for r in read_rows(path)}
        self._ords = sorted(d.toordinal() for d in self.dates)

    def gap(self, day):
        """min(days to the next holiday, days since the previous one)."""
        o = day.toordinal()
        nxt = self._ords[bisect.bisect_left(self._ords, o)]
        prv = self._ords[bisect.bisect_right(self._ords, o) - 1]
        return min(nxt - o, o - prv)


def nominal_exceedance(m):
    """P(outside the central 95% band) of an exchangeable draw against m replicates.

    ``np.quantile``'s default interpolation puts q025 at order statistic
    0.025 (m - 1), and an exchangeable y falls below order statistic k with
    probability (k + 1) / (m + 1).
    """
    return 2.0 * (1.0 + 0.025 * (m - 1)) / (m + 1)


class Checker:
    def __init__(self, workload, spec, inp):
        self.workload = workload
        self.spec = spec
        self.inp = inp
        self.calendar = Calendar(f"{inp}/holidays.csv")
        start = spec["start"]
        self.dates = [start + dt.timedelta(days=i) for i in range(-1, spec["days"] + spec["horizon"])]
        self.problems = []
        self.observed = {}
        self.fit_hashes = {}

    def expect(self, ok, message):
        if not ok:
            self.problems.append(message)
        return ok

    def check_round(self, rdir, results):
        checks = {"simulate": self.check_simulate, "fit": self.check_fit,
                  "fit_hmc": self.check_fit, "smooth": self.check_smooth,
                  "ppc": self.check_ppc, "forecast": self.check_forecast}
        for r in results:
            if r["rc"] != 0:
                continue
            try:
                checks[r["op"]](rdir, r["argv"])
            except (OSError, KeyError, ValueError, IndexError) as exc:
                self.expect(False, f"{r['op']}: unreadable output ({exc!r})")

    def check_simulate(self, rdir, argv):
        states = read_rows(f"{rdir}/sim/states.csv")
        data = read_rows(f"{rdir}/sim/data.csv")
        n = self.spec["days"] + self.spec["horizon"]
        if not self.expect(len(states) == n + 1 and len(data) == n, "simulate: row counts"):
            return
        self.expect([dt.date.fromisoformat(r["date"]) for r in states] == self.dates,
                    "simulate: state dates")
        s = [int(r["state"]) for r in states]
        self.expect(all((x == 2) == (d in self.calendar.dates) for x, d in zip(s, self.dates)),
                    "simulate: state 2 is not exactly the holidays")
        self.expect(set(zip(s, s[1:])) <= ADMISSIBLE, "simulate: inadmissible transition")
        y = np.array([[float(r["y1"]), float(r["y2"])] for r in data])
        self.expect(bool(np.all(np.isfinite(y)) and np.all(y > 0)), "simulate: demand not positive")

    def check_fit(self, rdir, argv):
        flag = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}
        chains, iters, thin = int(flag["--chains"]), int(flag["--iters"]), int(flag["--thin"])
        path = f"{flag['--out-dir']}/draws.csv"
        rows = read_rows(path)
        expected = chains * len(range(int(iters * BURN_IN), iters, thin))
        self.expect(len(rows) == expected, f"fit: {len(rows)} draws, config implies {expected}")
        self.expect(all(math.isfinite(float(r["lp"])) for r in rows), "fit: non-finite lp")
        key = tuple(a for a in argv if a != flag["--out-dir"])
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        self.expect(self.fit_hashes.setdefault(key, digest) == digest,
                    "fit: draws.csv differs between runs of the same command")

    def check_smooth(self, rdir, argv):
        rows = read_rows(f"{rdir}/smooth/smoothed.csv")
        T = self.spec["days"]
        if not self.expect(len(rows) == T + 1, "smooth: row count"):
            return
        probs = np.array([[float(r[f"p_state{k}"]) for k in (1, 2, 3, 4)] for r in rows])
        self.expect(bool(np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)), "smooth: rows do not sum to 1")
        hol = np.array([d in self.calendar.dates for d in self.dates[: T + 1]])
        self.expect(bool(np.all(probs[hol, 1] > 1.0 - 1e-12) and np.all(probs[~hol, 1] < 1e-12)),
                    "smooth: P(state 2) is not 1 on holidays and 0 elsewhere")
        if self.workload != "posterior_1500d":
            return
        true = np.array([int(r["state"]) for r in read_rows(f"{rdir}/sim/states.csv")[: T + 1]])
        modal = np.argmax(probs, axis=1) + 1
        gap = np.array([self.calendar.gap(d) for d in self.dates[: T + 1]])
        near = np.isin(true, (1, 3)) & (gap == 1)
        far = (true == 4) & (gap > 5)
        acc_near = float((modal[near] == true[near]).mean())
        acc_far = float((modal[far] == true[far]).mean())
        self.observed.update(smooth_acc_near=acc_near, smooth_acc_far=acc_far)
        self.expect(acc_near >= NEAR_MIN_ACCURACY, f"smooth: proximity accuracy next to holidays {acc_near:.3f}")
        self.expect(acc_far >= FAR_MIN_ACCURACY, f"smooth: far-normal accuracy {acc_far:.4f}")

    def check_ppc(self, rdir, argv):
        with open(f"{rdir}/ppc/ppc.json") as fh:
            buckets = {b["gap"]: b for b in json.load(fh)["buckets"]}
        T = self.spec["days"]
        gaps = [self.calendar.gap(d) for d in self.dates[1: T + 1]]
        counts = {str(g): gaps.count(g) for g in (0, 1, 2, 3)}
        counts["10+"] = sum(g >= 10 for g in gaps)
        for label, n in counts.items():
            b = buckets.get(label)
            self.expect(b is not None and b["region_1"]["n_days"] == n == b["region_2"]["n_days"],
                        f"ppc: day count of bucket {label} differs from the calendar's {n}")
        days = read_rows(f"{rdir}/ppc/ppc_days.csv")
        self.expect(len(days) == 2 * T and all(
            float(r["pred_q025"]) <= float(r["pred_mean"]) <= float(r["pred_q975"]) for r in days),
            "ppc: q025 <= mean <= q975 fails")
        far = buckets.get("10+")
        if far is None:
            return
        n_out = far["region_1"]["n_outside"] + far["region_2"]["n_outside"]
        n_obs = far["region_1"]["n_days"] + far["region_2"]["n_days"]
        frac, nominal = n_out / n_obs, nominal_exceedance(self.spec["n_draws"])
        # serially correlated days: allow four binomial sd at a quarter of the sample
        tol = 4.0 * math.sqrt(nominal * (1.0 - nominal) / (n_obs / 4.0))
        self.observed.update(ppc_far_exceedance=frac, ppc_nominal=nominal, ppc_tolerance=tol)
        self.expect(abs(frac - nominal) <= tol,
                    f"ppc: 10+ exceedance {frac:.4f}, nominal {nominal:.4f} +/- {tol:.4f}")

    def check_forecast(self, rdir, argv):
        rows = read_rows(f"{rdir}/forecast/forecast.csv")
        T, h = self.spec["days"], self.spec["horizon"]
        future = self.dates[T + 1:]
        if not self.expect(len(rows) == 2 * h, "forecast: row count"):
            return
        self.expect([dt.date.fromisoformat(r["date"]) for r in rows[::2]] == future,
                    "forecast: dates do not follow the end of the data")
        held = np.log([[float(r["y1"]), float(r["y2"])] for r in read_rows(f"{rdir}/sim/data.csv")[T:]])
        lo, mean, hi = (np.array([float(r[k]) for r in rows]).reshape(h, 2)
                        for k in ("pred_q025", "pred_mean", "pred_q975"))
        self.expect(bool(np.all(lo <= mean) and np.all(mean <= hi)), "forecast: q025 <= mean <= q975 fails")
        self.expect(bool(np.all(np.abs(mean - held) < 1.0)), "forecast: not in log units")
        inside = float(((held >= lo) & (held <= hi)).mean())
        self.observed["forecast_coverage"] = inside
        self.expect(inside >= FORECAST_MIN_COVERAGE,
                    f"forecast: held-out inside the 95% band on {inside:.2f} of day-regions")

    def check_reference(self, rdir):
        """The program's filter and smoother against ``reference.py`` on draw 0."""
        import reference
        from demandhmm import dataio
        from demandhmm.emission import build_day_tables, build_design
        from demandhmm.filtering import backward_smooth, forward_filter
        from demandhmm.states import log_transition_tables

        ds = dataio.load_dataset(f"{rdir}/data.csv", f"{self.inp}/holidays.csv")
        emission, trans, _ = dataio.read_draws_csv(f"{self.inp}/draws.csv").params_at(0)
        tables = build_day_tables(emission, build_design(ds.cov, emission.k_annual,
                                                         emission.k_prec_annual))
        log_trans = log_transition_tables(trans, ds.cov.n[1:], ds.cov.p[1:])
        ref_ll, ref_probs = reference.forward_backward(
            ds.y, tables, log_trans, self.dates[0] in self.calendar.dates)
        ll, messages = forward_filter(ds.y, ds.cov, emission, trans)
        probs = backward_smooth(messages, ds.y, ds.cov, emission, trans).probs
        self.expect(abs(ll - ref_ll) <= 1e-12 * abs(ref_ll),
                    f"reference: log likelihood {ll!r} vs {ref_ll!r}")
        err = float(np.abs(probs - ref_probs).max())
        self.observed.update(reference_loglik_relerr=abs(ll - ref_ll) / abs(ref_ll),
                             reference_marginal_err=err)
        self.expect(err <= 1e-9, f"reference: smoothed marginals differ by {err:.3g}")


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced round


COUNTED = ("covariates.build_covariates", "emission.build_design", "emission.build_day_tables",
           "states.log_transition_tables", "states.transition_matrix", "priors.log_prior",
           "priors.sample_prior", "generative.simulate", "generative.continue_simulation")
RENAMED = {"paramspace.unpack": "paramspace.ParamSpace.unpack",
           "paramspace.log_jacobian": "paramspace.ParamSpace.log_jacobian"}
SELF_ONLY = ("dataio.load_dataset", "dataio.read_draws_csv", "dataio.write_draws_csv",
             "filtering.rao_blackwell_states", "ppc.posterior_predictive_replicates",
             "ppc.coverage_by_gap", "ppc.forecast")


def layer_metrics(tracer, spec, results):
    calls, self_s = tracer.calls, tracer.self_s
    m = {}
    for metric, span in [*((n, n) for n in COUNTED), *RENAMED.items()]:
        m[f"{metric}.calls"] = (calls[span], "count")
        m[f"{metric}.s"] = (self_s[span], "s")
    for name in ("filtering.forward_filter", "filtering.backward_smooth"):
        days = tracer.days[name]
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.s"] = (self_s[name], "s")
        m[f"{name}.day_steps"] = (days, "days")
        m[f"{name}.us_per_day"] = (1e6 * self_s[name] / days if days else 0.0, "us/day")
    for name in SELF_ONLY:
        m[f"{name}.s"] = (self_s[name], "s")
    m["diagnostics.compute.s"] = (self_s["sampler.compute_diagnostics"], "s")
    m["sampler.posterior_evals"] = (calls["sampler.NumpyPosterior.__call__"], "count")
    m["sampler.posterior.s"] = (self_s["sampler.NumpyPosterior.__call__"], "s")
    m["sampler.self_s"] = (self_s["sampler.run_mcmc"], "s")
    fits = [r for r in results if r["op"] == "fit" and r["rc"] == 0]
    rates = []
    for r in fits:
        with open(f"{r['argv'][r['argv'].index('--out-dir') + 1]}/diagnostics.json") as fh:
            rates.extend(json.load(fh)["accept_rate"])
    m["sampler.accept_rate"] = (statistics.fmean(rates) if rates else 0.0, "ratio")
    starts = spec["fit"]["chains"] * len(fits)
    m["sampler.init_draws_per_start"] = (calls["priors.sample_prior"] / starts if starts else 0.0,
                                         "draws/chain")
    out_dirs = [r["argv"][r["argv"].index("--out-dir") + 1] for r in results]
    m["dataio.output_bytes"] = (sum(os.path.getsize(os.path.join(d, f))
                                    for d in out_dirs if os.path.isdir(d)
                                    for f in os.listdir(d)), "bytes")
    return m


def time_import():
    code = "import time; t = time.perf_counter(); import demandhmm.cli; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip())


# ---------------------------------------------------------------------------
# Main


def time_setup(workload, seed, out, probe):
    """Median time of writing the inputs in a fresh process; the copies must agree."""
    times, digests = [], []
    for k in range(SETUP_REPEATS):
        dest = f"{out}/inputs_{k}"
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"), "--workload", workload,
                        "--seed", str(seed), "--out", dest],
                       cwd=ROOT, env=child_env(), check=True, timeout=60)
        times.append(probe.scaled(start, time.perf_counter()))
        h = hashlib.sha256()
        for base, _, files in sorted(os.walk(dest)):
            for f in sorted(files):
                with open(os.path.join(base, f), "rb") as fh:
                    h.update(f.encode() + fh.read())
        digests.append(h.hexdigest())
    return statistics.median(times), f"{out}/inputs_0", len(set(digests)) == 1


def environment():
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numba": importlib.util.find_spec("numba") is not None,
            "jax": importlib.util.find_spec("jax") is not None, "nproc": NPROC,
            "cpu": sorted(os.sched_getaffinity(0))}


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="demandhmm pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    started = time.monotonic()
    deadline = started + DEADLINE_S
    inputs.import_program()
    from tracing import Tracer

    spec = WORKLOADS[args.workload]
    out = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    # one CPU for the benchmark, its probe and its commands (see SpeedProbe)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    with SpeedProbe() as probe:
        setup_s, inp, inputs_agree = time_setup(args.workload, args.seed, out, probe)
        checker = Checker(args.workload, spec, inp)
        checker.expect(inputs_agree, "setup: inputs differ between runs of the same seed")

        rounds, per_round, tracers = [], [], []
        t0 = time.monotonic()
        while True:
            r = len(per_round)
            begun = time.monotonic()
            if args.trace:
                tracer = Tracer()
                bare, traced = run_round(spec, args.seed, inp,
                                         [(f"{out}/round{r}_bare", InProcessRunner()),
                                          (f"{out}/round{r}", InProcessRunner(tracer))])
                checker.check_round(f"{out}/round{r}_bare", bare)
                checker.check_round(f"{out}/round{r}", traced)
                layer = layer_metrics(tracer, spec, traced)
                figures = {k: v for k, (v, _) in layer.items()}
                units = {k: u for k, (_, u) in layer.items()}
                figures["trace.overhead_s"] = (chain_metrics(traced, "wall_s")["pipeline_s"]
                                               - chain_metrics(bare, "wall_s")["pipeline_s"])
                rounds += [bare, traced]
                tracers.append(tracer)
            else:
                [results] = run_round(spec, args.seed, inp,
                                      [(f"{out}/round{r}", SubprocessRunner(deadline, probe))])
                checker.check_round(f"{out}/round{r}", results)
                figures = chain_metrics(results)
                rounds.append(results)
            if r == 0 and rounds[0][0]["rc"] == 0:
                checker.check_reference(f"{out}/round0" + ("_bare" if args.trace else ""))
            per_round.append(figures)
            now = time.monotonic()
            if now - t0 + (now - begun) > args.seconds or deadline - now < 2 * (now - begun):
                break

    if args.trace:
        figures = {"cli.import_s": statistics.median(time_import() for _ in range(IMPORT_REPEATS))}
        for k in range(len(tracers)):
            tracers[k].write_jsonl(f"{out}/spans.jsonl", label=f"round{k}")
        units.update({"cli.import_s": "s", "trace.overhead_s": "s"})
    else:
        figures = {"setup_s": setup_s}
        units = {"setup_s": "s", "simulate_s": "s", "fit_s": "s", "smooth_s": "s", "ppc_s": "s",
                 "forecast_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}
    for name in per_round[0]:
        figures[name] = statistics.median(f[name] for f in per_round)

    declared = declared_metrics(args.trace)
    checker.expect(units == declared and set(figures) == set(declared),
                   "benchmark: printed metrics differ from BENCHMARK.json")
    ops = [r for rnd in rounds for r in rnd]
    result = {
        "correct": not checker.problems,
        "attempted": len(ops),
        "failed": sum(r["rc"] != 0 for r in ops),
        "metrics": {k: {"value": figures[k], "unit": units[k]} for k in sorted(figures)},
    }
    with open(f"{out}/result.json", "w") as fh:
        json.dump({"env": environment(), "rounds": rounds, "problems": checker.problems,
                   "observed": checker.observed,
                   "seconds_used": time.monotonic() - started, **result}, fh, indent=1)
    for problem in checker.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for k in sorted(figures):
        print(f"{k:44s} {figures[k]:14.6f} {units[k]}")
    print(f"rounds {len(per_round)}; attempted {result['attempted']}, failed {result['failed']}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
