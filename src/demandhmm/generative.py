"""Forward simulation of hidden states and log demand.

Inverts the model's generative story: draw the anchor state, walk the
non-homogeneous chain, start demand from its stationary law and roll the
VAR(1) recursion forward. Also provides synthetic-input helpers (sinusoidal
CWV, a UK-style observed-holiday calendar) and a documented set of "truth"
parameters with pronounced holiday and proximity effects, used by the
recovery and calibration studies and by the CLI demo.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .covariates import (
    HOLIDAY_TYPE_CHRISTMAS,
    HOLIDAY_TYPE_EASTER,
    HOLIDAY_TYPE_OTHER,
    CovariateSeries,
    HolidayCalendar,
)
from .emission import EmissionParams, build_day_tables, build_design
from .priors import HyperLatents
from .states import ModelMode, TransitionParams, initial_distribution, log_transition_tables


@dataclass(frozen=True)
class SimulationOutput:
    """States for days 0..T, log demand for days 1..T, and the covariates used."""

    states: np.ndarray        # (T+1,) int64 in 1..4
    y: np.ndarray             # (T, 2) log demand
    cov: CovariateSeries


def simulate(
    emission: EmissionParams,
    trans: TransitionParams | None,
    cov: CovariateSeries,
    seed,
    mode: ModelMode = ModelMode.FOUR_STATE,
) -> SimulationOutput:
    """Simulate one dataset. ``seed`` is an int or a ``numpy`` SeedSequence/Generator."""
    rng = np.random.default_rng(seed)
    T = cov.T
    design = build_design(cov, emission.k_annual, emission.k_prec_annual)
    tables = build_day_tables(emission, design)

    lam = np.exp(log_transition_tables(trans, cov.n[1:], cov.p[1:], mode))
    l0 = initial_distribution(int(cov.n[0]), int(cov.p[0]), mode)

    u = rng.random(T + 1)
    z = rng.standard_normal((T, 2))
    states0 = np.empty(T + 1, dtype=np.int64)
    y = np.empty((T, 2))
    simulate_path(
        lam, l0, tables.mu, tables.phi, tables.tau1, tables.tau2, tables.psi,
        tables.v_chol, u, z, False, 0, np.zeros(2), np.zeros(2), states0, y,
    )
    return SimulationOutput(states=states0 + 1, y=y, cov=cov)


def continue_simulation(
    emission: EmissionParams,
    trans: TransitionParams | None,
    future_cov: CovariateSeries,
    last_state: int,
    last_y: np.ndarray,
    last_mu: np.ndarray,
    rng: np.random.Generator,
    mode: ModelMode = ModelMode.FOUR_STATE,
):
    """Roll states and demand forward from a known end point (forecasting)."""
    T = future_cov.T
    design = build_design(future_cov, emission.k_annual, emission.k_prec_annual)
    tables = build_day_tables(emission, design)
    lam = np.exp(log_transition_tables(trans, future_cov.n[1:], future_cov.p[1:], mode))
    l0 = initial_distribution(int(future_cov.n[0]), int(future_cov.p[0]), mode)
    u = rng.random(T + 1)
    z = rng.standard_normal((T, 2))
    states0 = np.empty(T + 1, dtype=np.int64)
    y = np.empty((T, 2))
    simulate_path(
        lam, l0, tables.mu, tables.phi, tables.tau1, tables.tau2, tables.psi,
        tables.v_chol, u, z, True, last_state - 1,
        np.asarray(last_y, dtype=np.float64), np.asarray(last_mu, dtype=np.float64),
        states0, y,
    )
    return states0[1:] + 1, y


def simulate_path(lam, l0, mu, phi, tau1, tau2, psi, v_chol,
                  u, z, has_init, init_state, init_y, init_mu,
                  states, y):
    """Draw a state path and demand series (0-based states) into ``states`` and ``y``.

    ``lam`` (T, 4, 4) and ``l0`` (4,) are transition and anchor probabilities;
    randomness comes from the caller's uniforms ``u`` (T+1,) and standard
    normals ``z`` (T, 2).

    With ``has_init`` false the path starts from the anchor distribution and
    the first observation from its stationary law; otherwise ``init_state``,
    ``init_y`` and ``init_mu`` describe the day before the first output day
    and the recursion continues from there (forecasting).
    """
    T = y.shape[0]
    p00, p01, p11 = psi[0, 0], psi[0, 1], psi[1, 1]

    if has_init:
        states[0] = init_state
    else:
        c = 0.0
        s0 = 3
        for k in range(4):
            c += l0[k]
            if u[0] < c:
                s0 = k
                break
        states[0] = s0

    for t in range(T):
        prev = states[t]
        c = 0.0
        st = 3
        for k in range(4):
            c += lam[t, prev, k]
            if u[t + 1] < c:
                st = k
                break
        states[t + 1] = st

        if t == 0 and not has_init:
            y[0, 0] = mu[0, st, 0] + v_chol[st, 0, 0] * z[0, 0]
            y[0, 1] = mu[0, st, 1] + v_chol[st, 1, 0] * z[0, 0] + v_chol[st, 1, 1] * z[0, 1]
            continue
        if t == 0:
            d0 = init_y[0] - init_mu[0]
            d1 = init_y[1] - init_mu[1]
        else:
            d0 = y[t - 1, 0] - mu[t - 1, states[t], 0]
            d1 = y[t - 1, 1] - mu[t - 1, states[t], 1]
        e0 = z[t, 0] / math.sqrt(tau1[t, st])
        e1 = phi[t, st] * e0 + z[t, 1] / math.sqrt(tau2[t, st])
        y[t, 0] = mu[t, st, 0] + (p00 * d0 + p01 * d1) + e0
        y[t, 1] = mu[t, st, 1] + (p01 * d0 + p11 * d1) + e1
    return 0


# ---------------------------------------------------------------------------
# Synthetic inputs


def sinusoidal_cwv(
    dates, rng: np.random.Generator, base=(8.0, 8.5), amplitude=(5.5, 5.0), noise_sd=1.3
) -> np.ndarray:
    """Seasonal CWV scenario: annual cosine (coldest late January) plus noise."""
    doy = np.array([d.timetuple().tm_yday for d in dates], dtype=np.float64)
    out = np.empty((len(dates), 2))
    for j in range(2):
        seasonal = base[j] - amplitude[j] * np.cos(2.0 * np.pi * (doy - 25.0) / 365.25)
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
