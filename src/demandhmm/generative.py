"""Forward simulation of hidden states and log demand.

Inverts the model's generative story: draw the anchor state, walk the
non-homogeneous chain, start demand from its stationary law and roll the
VAR(1) recursion forward. ``simulate`` and ``continue_simulation`` (forecast
paths) share one path function, and each draws its uniforms ``u`` (T+1,)
first and its standard normals ``z`` (T, 2) second. Also provides
synthetic-input helpers (sinusoidal CWV, a UK-style observed-holiday
calendar) and a documented set of "truth" parameters with pronounced holiday
and proximity effects, used by the recovery and calibration studies and by
the CLI demo.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

# the functions perfbench traces are called through their module, where its tracer wraps them
from . import states as states_module
from .covariates import (
    HOLIDAY_TYPE_CHRISTMAS,
    HOLIDAY_TYPE_EASTER,
    HOLIDAY_TYPE_OTHER,
    CovariateSeries,
    HolidayCalendar,
)
from .emission import DayTables, EmissionParams, day_tables
from .priors import HyperLatents
from .states import TransitionParams, initial_distribution


@dataclass(frozen=True)
class SimulationOutput:
    """States for days 0..T, log demand for days 1..T, and the covariates used."""

    states: np.ndarray        # (T+1,) int64 in 1..4
    y: np.ndarray             # (T, 2) log demand
    cov: CovariateSeries


def simulate(
    emission: EmissionParams, trans: TransitionParams | None, cov: CovariateSeries, seed
) -> SimulationOutput:
    """Simulate one dataset, two-state if ``trans`` is None.

    ``seed`` is an int or a ``numpy`` SeedSequence/Generator.
    """
    rng = np.random.default_rng(seed)
    tables, cum = _path_tables(emission, trans, cov)
    l0 = initial_distribution(trans, int(cov.n[0]), int(cov.p[0]))
    u = rng.random(cov.T + 1)
    z = rng.standard_normal((cov.T, 2))
    states, y = _draw_path(tables, cum, l0, u, z)
    return SimulationOutput(states=states + 1, y=y, cov=cov)


def continue_simulation(
    emission: EmissionParams,
    trans: TransitionParams | None,
    future_cov: CovariateSeries,
    last_state: int,
    last_y: np.ndarray,
    last_mu: np.ndarray,
    rng: np.random.Generator,
):
    """Roll states and demand forward from a known end point (forecasting)."""
    tables, cum = _path_tables(emission, trans, future_cov)
    u = rng.random(future_cov.T + 1)
    z = rng.standard_normal((future_cov.T, 2))
    states, y = _draw_path(tables, cum, (last_state - 1, last_y, last_mu), u, z)
    return states[1:] + 1, y


def _path_tables(emission, trans, cov):
    """Day tables and cumulative transition probabilities (T, 4, 4) over ``cov``."""
    tables = day_tables(emission, cov)
    lam = np.exp(states_module.log_transition_tables(trans, cov.n[1:], cov.p[1:]))
    return tables, np.cumsum(lam, axis=2)


def _state_walk(cum: np.ndarray, s0: int, u: np.ndarray) -> np.ndarray:
    """0-based states of days 0..T from ``s0``, day t+1 drawn with ``u[t + 1]``.

    Each day moves to the first state whose cumulative probability exceeds
    its uniform, or to state 4 if none does. Day t's next-state map is
    ``walk[t, s]``; the doubling passes turn ``walk[t]`` into the composition
    of the maps of days 0..t, which is exact on integers.
    """
    walk = np.count_nonzero(cum[:, :, :3] <= u[1:, None, None], axis=2)
    d = 1
    while d < len(walk):
        walk[d:] = np.take_along_axis(walk[d:], walk[:-d], axis=1)
        d *= 2
    return np.concatenate(([s0], walk[:, s0]))


def _draw_path(tables: DayTables, cum: np.ndarray, start, u: np.ndarray, z: np.ndarray):
    """Draw 0-based states (T+1,) and log demand (T, 2) from uniforms and normals.

    ``start`` is either the anchor distribution (4,), in which case the
    anchor state comes from ``u[0]`` and day 1 from the stationary law
    (``v_chol``), or ``(state, y, mu)`` of the day before day 1, from which
    the recursion continues (``u[0]`` is then unused).
    """
    T = len(z)
    anchored = not isinstance(start, tuple)
    if anchored:
        s0 = int(np.count_nonzero(np.cumsum(start)[:3] <= u[0]))
    else:
        s0, y_prev, mu_prev = start
    states = _state_walk(cum, s0, u)
    days, s = np.arange(T), states[1:]
    m = tables.mu[days, s]
    e0 = z[:, 0] / np.sqrt(tables.tau1[days, s])
    e1 = tables.phi[days, s] * e0 + z[:, 1] / np.sqrt(tables.tau2[days, s])

    m0, m1, e0, e1 = m[:, 0].tolist(), m[:, 1].tolist(), e0.tolist(), e1.tolist()
    rows = []
    if anchored:
        v = tables.v_chol[s[0]].tolist()
        z0, z1 = z[0].tolist()
        rows.append((m0[0] + v[0][0] * z0, m1[0] + v[1][0] * z0 + v[1][1] * z1))
        y_prev, mu_prev = rows[0], (m0[0], m1[0])
    d0, d1 = float(y_prev[0] - mu_prev[0]), float(y_prev[1] - mu_prev[1])
    (p00, p01), (_, p11) = tables.psi.tolist()
    for t in range(len(rows), T):
        y0 = m0[t] + (p00 * d0 + p01 * d1) + e0[t]
        y1 = m1[t] + (p01 * d0 + p11 * d1) + e1[t]
        rows.append((y0, y1))
        d0, d1 = y0 - m0[t], y1 - m1[t]
    return states, np.array(rows)


# ---------------------------------------------------------------------------
# Synthetic inputs


def sinusoidal_cwv(dates, rng: np.random.Generator, noise_sd=1.3) -> np.ndarray:
    """Seasonal CWV scenario: annual cosine (coldest late January) plus noise."""
    doy = np.array([d.timetuple().tm_yday for d in dates], dtype=np.float64)
    out = np.empty((len(dates), 2))
    for j, (base, amplitude) in enumerate(((8.0, 5.5), (8.5, 5.0))):   # each region's mean and swing
        seasonal = base - amplitude * np.cos(2.0 * np.pi * (doy - 25.0) / 365.25)
        out[:, j] = seasonal + noise_sd * rng.standard_normal(len(dates))
    return out


def _easter_sunday(year: int) -> dt.date:
    """Gregorian computus (anonymous algorithm)."""
    a = year % 19
    b, c = divmod(year, 100)
    d, e = divmod(b, 4)
    f = (b + 8) // 25
    g = (b - f + 1) // 3
    h = (19 * a + b - d - g + 15) % 30
    i, k = divmod(c, 4)
    l = (32 + 2 * e + 2 * i - h - k) % 7
    m = (a + 11 * h + 22 * l) // 451
    month, day = divmod(h + l - 7 * m + 114, 31)
    return dt.date(year, month, day + 1)


def _next_weekday(date: dt.date, taken: set) -> dt.date:
    while date.weekday() >= 5 or date in taken:
        date += dt.timedelta(days=1)
    return date


def _last_monday(year: int, month: int) -> dt.date:
    if month == 12:
        d = dt.date(year, 12, 31)
    else:
        d = dt.date(year, month + 1, 1) - dt.timedelta(days=1)
    return d - dt.timedelta(days=(d.weekday() - 0) % 7)


def _first_monday(year: int, month: int) -> dt.date:
    d = dt.date(year, month, 1)
    return d + dt.timedelta(days=(0 - d.weekday()) % 7)


def uk_holiday_calendar(first_year: int, last_year: int) -> HolidayCalendar:
    """Observed UK-style bank holidays for a span of years.

    New Year's Day, Christmas Day and Boxing Day substitute to the next free
    weekday when they fall at a weekend; Easter pair from the computus; May
    Day, Spring and Summer bank holidays on their usual Mondays.
    """
    entries = []
    for year in range(first_year, last_year + 1):
        taken: set = set()
        ny = _next_weekday(dt.date(year, 1, 1), taken)
        taken.add(ny)
        entries.append((ny, HOLIDAY_TYPE_CHRISTMAS))
        easter = _easter_sunday(year)
        entries.append((easter - dt.timedelta(days=2), HOLIDAY_TYPE_EASTER))
        entries.append((easter + dt.timedelta(days=1), HOLIDAY_TYPE_EASTER))
        entries.append((_first_monday(year, 5), HOLIDAY_TYPE_OTHER))
        entries.append((_last_monday(year, 5), HOLIDAY_TYPE_OTHER))
        entries.append((_last_monday(year, 8), HOLIDAY_TYPE_OTHER))
        taken = set()
        xmas = _next_weekday(dt.date(year, 12, 25), taken)
        taken.add(xmas)
        boxing = _next_weekday(dt.date(year, 12, 26), taken)
        taken.add(boxing)
        entries.append((xmas, HOLIDAY_TYPE_CHRISTMAS))
        entries.append((boxing, HOLIDAY_TYPE_CHRISTMAS))
    entries.sort(key=lambda e: e[0])
    return HolidayCalendar(
        dates=tuple(e[0] for e in entries), types=tuple(e[1] for e in entries)
    )


def default_truth(k_annual: int = 6, k_prec_annual: int = 12):
    """Documented truth parameters with clear holiday and proximity effects.

    Holiday effects dip log demand by 0.18-0.45 depending on type, decaying on
    proximity days with factors around 0.6; residual standard deviations sit
    near 0.04 so the dips are several standard deviations wide. Fourier tails
    beyond the leading harmonics are small fixed values.
    """
    trans = TransitionParams(
        to_pre_const=0.5,
        to_pre_dist=-20.0,
        to_normal_const=0.5,
        to_normal_days=15.0,
        to_normal_eve=-1.0,
        to_post_const=0.5,
        to_post_gap2=1.0,
    )
    annual = np.zeros((2, 2, k_annual))
    lead = min(k_annual, 3)
    annual[0, 0, :lead] = (0.20, 0.05, 0.015)[:lead]
    annual[0, 1, :lead] = (0.10, -0.03, 0.01)[:lead]
    annual[1, 0, :lead] = (0.23, 0.04, 0.012)[:lead]
    annual[1, 1, :lead] = (0.08, -0.02, 0.008)[:lead]
    weekday = np.zeros((2, 2, 3))
    weekday[0, 0] = (0.050, 0.015, 0.008)
    weekday[0, 1] = (-0.080, 0.020, -0.006)
    weekday[1, 0] = (0.045, 0.018, 0.006)
    weekday[1, 1] = (-0.070, 0.015, -0.008)
    prec_annual = np.zeros((3, 2, k_prec_annual))
    kp = min(k_prec_annual, 2)
    prec_annual[0, 0, 0] = 0.15
    prec_annual[1, 0, :kp] = (0.30, 0.10)[:kp]
    prec_annual[1, 1, 0] = -0.15
    prec_annual[2, 0, :kp] = (0.25, 0.08)[:kp]
    prec_annual[2, 1, 0] = -0.10
    emission = EmissionParams(
        ar_eig01=np.array([0.775, 0.675]),
        level=np.array([3.20, 3.60]),
        holiday=np.array([[-0.30, -0.20, -0.45], [-0.28, -0.18, -0.42]]),
        annual=annual,
        weekday=weekday,
        weather=np.array([[-0.060, -0.0020], [-0.055, -0.0018]]),
        decay_mean=np.array([0.65, 0.70]),
        decay_prec=0.50,
        prec_base=np.array([0.30, 6.40, 6.70]),
        prec_holiday=np.array([0.80, -0.70, -0.70]),
        prec_annual=prec_annual,
    )
    latents = HyperLatents(
        mu_level=3.4,
        mu_weather=np.array([-0.0575, -0.0019]),
        mu_weekday=weekday.mean(axis=0),
        mu_annual=annual.mean(axis=0),
        mu_holiday=np.array([-0.29, -0.19, -0.435]),
        logit_decay_mean=0.5,
        mu_logit_decay=0.25,
    )
    return emission, trans, latents
