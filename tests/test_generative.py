import datetime as dt

import numpy as np
import pytest

from demandhmm.covariates import CovariateSeries
from demandhmm.emission import build_day_tables, build_design, stationary_variance, precision_matrix, PrecisionComponents
from demandhmm.generative import (
    _easter_sunday,
    continue_simulation,
    default_truth,
    simulate,
    simulate_path,
    sinusoidal_cwv,
    uk_holiday_calendar,
)
from demandhmm.states import ModelMode, transition_matrix

from helpers import make_cov, small_truth


def _flat_cov(T, n_val=40, p_val=40, rng=None):
    """Synthetic covariates with frozen holiday distances (test-only)."""
    rng = rng or np.random.default_rng(0)
    start = dt.date(2021, 1, 1)
    dates = tuple(start + dt.timedelta(days=i) for i in range(T))
    w = 8.0 + 0.5 * rng.standard_normal((T, 2))
    return CovariateSeries(
        dates=dates,
        day0=start - dt.timedelta(days=1),
        n=np.full(T + 1, n_val, dtype=np.int64),
        p=np.full(T + 1, p_val, dtype=np.int64),
        r=np.full(T + 1, 2, dtype=np.int64),
        w=w,
        w_tilde=w - 8.0,
        day_of_year=np.arange(T) % 365 + 1,
        t_index=np.arange(1, T + 1),
        epoch=start,
    )


class TestSimulate:
    def test_deterministic(self):
        emission, trans, _ = small_truth()
        cov = make_cov(dt.date(2021, 5, 1), 30, [(dt.date(2021, 5, 10), 2)],
                       rng=np.random.default_rng(1))
        a = simulate(emission, trans, cov, seed=77)
        b = simulate(emission, trans, cov, seed=77)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.y, b.y)
        c = simulate(emission, trans, cov, seed=78)
        assert not np.array_equal(a.y, c.y)

    def test_states_respect_holidays(self):
        emission, trans, _ = small_truth()
        cov = make_cov(
            dt.date(2021, 5, 1), 40,
            [(dt.date(2021, 5, 10), 2), (dt.date(2021, 5, 24), 2)],
            rng=np.random.default_rng(2),
        )
        sim = simulate(emission, trans, cov, seed=3)
        assert np.all((sim.states == 2) == cov.is_holiday)

    def test_suppressed_proximity_gives_plain_var(self):
        emission, trans, _ = small_truth()
        trans = type(trans)(**{**trans.__dict__, "to_pre_const": -30.0})
        cov = _flat_cov(300)
        sim = simulate(emission, trans, cov, seed=4)
        assert np.all(sim.states[1:] == 4) and sim.states[0] in (1, 3, 4)

    def test_two_state_deterministic_states(self):
        emission, _, _ = small_truth()
        cov = make_cov(dt.date(2021, 5, 1), 20, [(dt.date(2021, 5, 7), 2)],
                       rng=np.random.default_rng(5))
        sim = simulate(emission, None, cov, seed=6, mode=ModelMode.TWO_STATE)
        expected = np.where(cov.is_holiday, 2, 4)
        assert np.array_equal(sim.states, expected)

    def test_first_day_moments_match_stationary_variance(self):
        # state-independent emission so the initial law is a single normal
        emission, trans, _ = small_truth()
        emission = emission.replace(holiday=np.zeros((2, 3)), prec_holiday=np.zeros(3))
        cov = _flat_cov(1)
        design = build_design(cov, emission.k_annual, emission.k_prec_annual)
        tables = build_day_tables(emission, design)
        lam = np.stack([transition_matrix(trans, 40, 40)])
        l0 = np.array([1 / 3, 0.0, 1 / 3, 1 / 3])
        rng = np.random.default_rng(7)
        n_rep = 100_000
        ys = np.empty((n_rep, 2))
        states = np.empty(2, dtype=np.int64)
        y = np.empty((1, 2))
        for i in range(n_rep):
            u = rng.random(2)
            z = rng.standard_normal((1, 2))
            simulate_path(
                lam, l0, tables.mu, tables.phi, tables.tau1, tables.tau2, tables.psi,
                tables.v_chol, u, z, False, 0, np.zeros(2), np.zeros(2), states, y,
            )
            ys[i] = y[0]
        pc = PrecisionComponents(float(tables.phi[0, 3]), float(tables.tau1[0, 3]),
                                 float(tables.tau2[0, 3]))
        v = stationary_variance(emission.ar_matrix, precision_matrix(pc))
        sample_cov = np.cov(ys.T)
        assert np.allclose(ys.mean(axis=0), tables.mu[0, 3], atol=4 * np.sqrt(np.diag(v) / n_rep))
        assert np.abs(sample_cov - v).max() <= 0.02 * np.abs(v).max()

    def test_transition_frequencies(self):
        emission, trans, _ = small_truth()
        T = 1_000_000
        cov = _flat_cov(T, n_val=3, p_val=6)
        sim = simulate(emission, trans, cov, seed=8)
        lam = transition_matrix(trans, 3, 6)
        s = sim.states
        for prev in (2, 3, 4):
            # frozen covariates keep every day's transition matrix identical
            mask = s[:-1] == prev
            n_prev = mask.sum()
            if n_prev < 1000:
                continue
            for nxt in range(1, 5):
                p_hat = (s[1:][mask] == nxt).mean()
                p = lam[prev - 1, nxt - 1]
                se = np.sqrt(max(p * (1 - p), 1e-12) / n_prev)
                assert abs(p_hat - p) <= max(3 * se, 1e-12), (prev, nxt)

    def test_lag_one_autocovariance(self):
        emission, trans, _ = small_truth()
        emission = emission.replace(
            holiday=np.zeros((2, 3)), prec_holiday=np.zeros(3),
            annual=np.zeros_like(emission.annual), weekday=np.zeros_like(emission.weekday),
            weather=np.zeros_like(emission.weather),
            prec_annual=np.zeros_like(emission.prec_annual),
        )
        trans = type(trans)(**{**trans.__dict__, "to_pre_const": -30.0})
        T = 200_000
        cov = _flat_cov(T)
        sim = simulate(emission, trans, cov, seed=9)
        resid = sim.y - emission.level[None, :]
        psi = emission.ar_matrix
        pc = PrecisionComponents(float(emission.prec_base[0]),
                                 float(np.exp(emission.prec_base[1])),
                                 float(np.exp(emission.prec_base[2])))
        v = stationary_variance(psi, precision_matrix(pc))
        lag1 = (resid[1:].T @ resid[:-1]) / (T - 1)
        assert np.abs(lag1 - psi @ v).max() <= 0.02 * np.abs(psi @ v).max()

    def test_continue_simulation_rolls_forward(self):
        emission, trans, _ = small_truth()
        cov = make_cov(dt.date(2021, 5, 1), 30, [(dt.date(2021, 5, 10), 2)],
                       rng=np.random.default_rng(10))
        sim = simulate(emission, trans, cov, seed=11)
        future = make_cov(dt.date(2021, 5, 31), 7, [], rng=np.random.default_rng(12))
        design = build_design(cov, emission.k_annual, emission.k_prec_annual)
        tables = build_day_tables(emission, design)
        s_last = int(sim.states[-1])
        states, y = continue_simulation(
            emission, trans, future, s_last, sim.y[-1],
            tables.mu[-1, s_last - 1], np.random.default_rng(13),
        )
        assert states.shape == (7,) and y.shape == (7, 2)
        assert np.all(np.isfinite(y))


class TestSyntheticInputs:
    def test_sinusoidal_cwv_shape_and_season(self):
        dates = [dt.date(2021, 1, 1) + dt.timedelta(days=i) for i in range(365)]
        w = sinusoidal_cwv(dates, np.random.default_rng(0))
        assert w.shape == (365, 2)
        # colder (lower) in late January than in late July
        assert w[24].mean() < w[205].mean()

    def test_easter_dates(self):
        assert _easter_sunday(2019) == dt.date(2019, 4, 21)
        assert _easter_sunday(2020) == dt.date(2020, 4, 12)
        assert _easter_sunday(2024) == dt.date(2024, 3, 31)

    def test_uk_calendar_observed_substitutions(self):
        cal = uk_holiday_calendar(2021, 2022)
        dates = set(cal.dates)
        # Christmas 2021 fell on a Saturday: observed Mon 27 and Tue 28
        assert dt.date(2021, 12, 27) in dates and dt.date(2021, 12, 28) in dates
        assert dt.date(2021, 12, 25) not in dates
        # New Year 2022 fell on a Saturday: observed Mon 3 Jan
        assert dt.date(2022, 1, 3) in dates
        # Good Friday / Easter Monday 2021
        assert dt.date(2021, 4, 2) in dates and dt.date(2021, 4, 5) in dates
        # eight observed holidays a year, never on weekends for fixed-date ones
        assert len([d for d in cal.dates if d.year == 2021]) == 8
        for d, t in zip(cal.dates, cal.types):
            if t == 3:
                assert d.weekday() < 5

    def test_default_truth_valid(self):
        emission, trans, latents = default_truth()
        assert emission.k_annual == 6 and emission.k_prec_annual == 12
        assert np.all((emission.ar_eig01 > 0) & (emission.ar_eig01 < 1))
        assert np.all(emission.holiday < 0)  # demand dips on holidays
        emission2, _, _ = default_truth(2, 3)
        assert emission2.k_annual == 2 and emission2.k_prec_annual == 3
