import datetime as dt
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandhmm.covariates import CovariateSeries
from demandhmm.emission import EmissionParams, build_day_tables, build_design, stationary_variance
from demandhmm.generative import (
    _draw_path,
    _easter_sunday,
    _state_walk,
    continue_simulation,
    default_truth,
    path_noise,
    path_tables,
    simulate,
    sinusoidal_cwv,
    uk_holiday_calendar,
)
from demandhmm.states import (
    ModelMode,
    TransitionParams,
    initial_distribution,
    log_transition_tables,
    transition_matrix,
)

from helpers import PrecisionComponents, make_cov, precision_matrix, small_truth


def _reference_walk(cum, s0, u):
    """Day by day: the first state whose cumulative probability exceeds u, else 4."""
    states = [s0]
    for t in range(len(cum)):
        row = cum[t, states[-1]]
        states.append(next((k for k in range(4) if u[t + 1] < row[k]), 3))
    return states


def _reference_demand(tables, states, z, start=None):
    """The VAR(1) recursion day by day, in scalar arithmetic of the same order.

    ``states`` are 0-based for days 0..T; ``start`` is (y, mu) of the day
    before day 1, or None for day 1 from the stationary law.
    """
    (p00, p01), (_, p11) = tables.psi
    y = np.empty_like(z)
    for t in range(len(z)):
        s = states[t + 1]
        mu = tables.mu[t, s]
        if t == 0 and start is None:
            v = tables.v_chol[s]
            y[0] = mu[0] + v[0, 0] * z[0, 0], mu[1] + v[1, 0] * z[0, 0] + v[1, 1] * z[0, 1]
            continue
        d0, d1 = y[t - 1] - tables.mu[t - 1, states[t]] if t else start[0] - start[1]
        e0 = z[t, 0] / math.sqrt(tables.tau1[t, s])
        e1 = tables.phi[t, s] * e0 + z[t, 1] / math.sqrt(tables.tau2[t, s])
        y[t] = mu[0] + (p00 * d0 + p01 * d1) + e0, mu[1] + (p01 * d0 + p11 * d1) + e1
    return y


@st.composite
def _walk_problems(draw, T=None):
    """Cumulative tables with exact 0/1 entries, holiday days and empty rows; uniforms; a start."""
    T = draw(st.integers(1, 50)) if T is None else T
    weight = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
    lam = np.array(draw(st.lists(weight, min_size=16 * T, max_size=16 * T))).reshape(T, 4, 4)
    lam[np.array(draw(st.lists(st.booleans(), min_size=T, max_size=T)))] = [0.0, 1.0, 0.0, 0.0]
    total = lam.sum(axis=2, keepdims=True)
    cum = np.cumsum(np.divide(lam, total, out=lam.copy(), where=total > 0), axis=2)
    # uniforms that hit table entries exactly test the strict inequality
    uniform = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(np.unique(cum).tolist()))
    u = np.array(draw(st.lists(uniform, min_size=T + 1, max_size=T + 1)))
    return cum, draw(st.integers(0, 3)), u


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
        sim = simulate(emission, None, cov, seed=6)
        expected = np.where(cov.is_holiday, 2, 4)
        assert np.array_equal(sim.states, expected)

    def test_first_day_moments_match_stationary_variance(self):
        # state-independent emission so the initial law is a single normal
        emission, trans, _ = small_truth()
        emission = emission.replace(holiday=np.zeros((2, 3)), prec_holiday=np.zeros(3))
        cov = _flat_cov(1)
        design = build_design(cov, emission.k_annual, emission.k_prec_annual)
        tables = build_day_tables(emission, design)
        cum = np.cumsum(np.stack([transition_matrix(trans, 40, 40)]), axis=2)
        l0 = np.array([1 / 3, 0.0, 1 / 3, 1 / 3])
        rng = np.random.default_rng(7)
        n_rep = 100_000
        ys = np.empty((n_rep, 2))
        for i in range(n_rep):
            u = rng.random(2)
            z = rng.standard_normal((1, 2))
            _, y = _draw_path(tables, cum, l0, u, z)
            ys[i] = y[0]
        pc = PrecisionComponents(float(tables.phi[0, 3]), float(tables.tau1[0, 3]),
                                 float(tables.tau2[0, 3]))
        v = stationary_variance(emission.ar_matrix, precision_matrix(pc))
        sample_cov = np.cov(ys.T)
        assert np.allclose(ys.mean(axis=0), tables.mu[0, 3], atol=4 * np.sqrt(np.diag(v) / n_rep))
        assert np.abs(sample_cov - v).max() <= 0.02 * np.abs(v).max()

    @settings(max_examples=100, deadline=None)
    @given(_walk_problems())
    def test_composed_walk_matches_per_day_walk(self, problem):
        # every day has its own map, so a wrong composition order shows
        cum, s0, u = problem
        assert _state_walk(cum, s0, u).tolist() == _reference_walk(cum, s0, u)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda T: st.lists(_walk_problems(T), min_size=1, max_size=5)),
           st.booleans())
    def test_walk_over_rows_matches_each_row(self, problems, shared):
        cums, s0, u = (np.array(x) for x in zip(*problems))
        cum = cums[0] if shared else cums      # one table for every row, or one per row
        got = _state_walk(cum, s0, u)
        for r in range(len(problems)):
            assert got[r].tolist() == _state_walk(cum if shared else cums[r], s0[r], u[r]).tolist()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 25), st.integers(1, 30), st.integers(0, 2**32 - 1), st.booleans(),
           st.sampled_from(list(ModelMode)))
    def test_paths_over_rows_match_each_row(self, n, T, seed, anchored, mode):
        # from 20 rows on the recursion runs over arrays of rows, below it row by row
        rng = np.random.default_rng(seed)
        emission, trans, _ = small_truth()
        cov = make_cov(dt.date(2021, 5, 1), T, [(dt.date(2021, 5, 4), 2)], rng=rng)
        alone = [(emission.replace(level=emission.level + 0.01 * rng.standard_normal(2),
                                   ar_eig01=rng.uniform(0.2, 0.8, 2)),
                  None if mode is ModelMode.TWO_STATE else
                  TransitionParams.from_array(trans.as_array() + rng.standard_normal(7)))
                 for _ in range(n)]
        emissions, transitions = zip(*alone)
        rows = (
            EmissionParams(**{f.name: np.stack([np.asarray(getattr(e, f.name)) for e in emissions])
                              for f in fields(EmissionParams)}),
            None if mode is ModelMode.TWO_STATE
            else TransitionParams.from_array(np.stack([t.as_array() for t in transitions])),
        )
        u, z = rng.random((n, T + 1)), rng.standard_normal((n, T, 2))
        last = (rng.integers(0, 4, n), 3.4 + rng.standard_normal((n, 2)), 3.4 + rng.standard_normal((n, 2)))
        anchor = initial_distribution(rows[1], int(cov.n[0]), int(cov.p[0]))
        states, y = _draw_path(*path_tables(*rows, cov), anchor if anchored else last, u, z)
        for r, (e, t) in enumerate(alone):
            start = anchor if anchored else tuple(x[r] for x in last)
            states_r, y_r = _draw_path(*path_tables(e, t, cov), start, u[r], z[r])
            assert states[r].tolist() == states_r.tolist()
            assert y[r].tobytes() == y_r.tobytes()

    @pytest.mark.parametrize("mode", list(ModelMode))
    def test_paths_match_per_day_recursion(self, mode):
        emission, trans, _ = small_truth()
        trans = trans if mode is ModelMode.FOUR_STATE else None
        cov = make_cov(dt.date(2021, 5, 1), 60,
                       [(dt.date(2021, 5, 10), 2), (dt.date(2021, 5, 31), 3)],
                       rng=np.random.default_rng(14))
        tables = build_day_tables(emission, build_design(cov, emission.k_annual,
                                                         emission.k_prec_annual))
        cum = np.cumsum(np.exp(log_transition_tables(trans, cov.n[1:], cov.p[1:])), axis=2)
        last_y, last_mu = np.array([3.3, 3.7]), np.array([3.25, 3.72])
        for seed in range(5):
            rng = np.random.default_rng(seed)
            u, z = rng.random(61), rng.standard_normal((60, 2))
            sim = simulate(emission, trans, cov, seed)
            states = sim.states - 1
            l0 = np.cumsum(initial_distribution(trans, int(cov.n[0]), int(cov.p[0])))
            assert states[0] == next((k for k in range(4) if u[0] < l0[k]), 3)
            assert states.tolist() == _reference_walk(cum, states[0], u)
            assert np.array_equal(sim.y, _reference_demand(tables, states, z))

            for s0 in range(4):
                states, y = continue_simulation(tables, cum, s0 + 1, last_y, last_mu,
                                                *path_noise(np.random.default_rng(seed), 60))
                states = np.concatenate(([s0], states - 1))
                assert states.tolist() == _reference_walk(cum, s0, u)
                assert np.array_equal(y, _reference_demand(tables, states, z, (last_y, last_mu)))

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
            *path_tables(emission, trans, future), s_last, sim.y[-1],
            tables.mu[-1, s_last - 1], *path_noise(np.random.default_rng(13), 7),
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
