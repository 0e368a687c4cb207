import dataclasses
import datetime as dt
import math

import numpy as np
import pytest
from scipy import stats

from demandhmm.covariates import DayCovariates
from demandhmm.emission import (
    EmissionParams,
    build_day_tables,
    build_design,
    _first_day_law,
    _mean_rows,
    _precision_rows,
    _stationary_variance_rows,
    psi_from_xi,
    stationary_variance,
    update_day_tables,
)

from helpers import (
    PrecisionComponents,
    covariance_from_components,
    fourier_sum,
    log_emission_density,
    make_cov,
    mean_vector,
    precision_components,
    precision_matrix,
    small_truth,
    state_weight,
)


def _zero_params(k=2, kp=2, **kw):
    base = dict(
        ar_eig01=np.array([0.5, 0.5]),
        level=np.zeros(2),
        holiday=np.zeros((2, 3)),
        annual=np.zeros((2, 2, k)),
        weekday=np.zeros((2, 2, 3)),
        weather=np.zeros((2, 2)),
        decay_mean=np.array([0.5, 0.5]),
        decay_prec=0.5,
        prec_base=np.zeros(3),
        prec_holiday=np.zeros(3),
        prec_annual=np.zeros((3, 2, kp)),
    )
    base.update(kw)
    return EmissionParams(**base)


def _day(n=5, p=9, r=1, w=(8.0, 8.0), wt=(0.0, 0.0), t=17):
    return DayCovariates(n=n, p=p, r=r, w=np.asarray(w, dtype=float),
                         w_tilde=np.asarray(wt, dtype=float), t_index=t)


class TestArParameterisation:
    def test_midpoint_gives_zero_matrix(self):
        assert np.array_equal(psi_from_xi([0.5, 0.5]), np.zeros((2, 2)))

    def test_pure_offdiagonal(self):
        psi = psi_from_xi([0.75, 0.25])
        assert psi == pytest.approx(np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_eigenvalues_are_the_mapped_coordinates(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            xi = rng.uniform(1e-3, 1 - 1e-3, size=2)
            psi = psi_from_xi(xi)
            eig = np.sort(np.linalg.eigvalsh(psi))
            chi = np.sort(2.0 * xi - 1.0)
            assert np.allclose(eig, chi, atol=1e-14)
            assert np.all(np.abs(eig) < 1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            xi = rng.uniform(1e-6, 1 - 1e-6, size=2)
            psi = psi_from_xi(xi)     # diagonal (chi1 + chi2) / 2, off-diagonal (chi1 - chi2) / 2
            back = np.array([psi[0, 0] + psi[0, 1] + 1.0, psi[0, 0] - psi[0, 1] + 1.0]) / 2.0
            assert np.max(np.abs(back - xi)) <= 1e-15

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            psi_from_xi([0.0, 0.5])
        with pytest.raises(ValueError):
            psi_from_xi([0.5, 1.0])


class TestStateWeight:
    def test_normal_state_has_no_effect(self):
        assert state_weight(0.7, 4, 3, 5) == 0.0

    def test_holiday_state_full_effect(self):
        assert state_weight(0.7, 2, 0, 0) == 1.0

    def test_pre_holiday_decays_with_distance(self):
        assert state_weight(0.5, 1, 2, 30) == pytest.approx(0.25)

    def test_post_holiday_uses_nearest(self):
        assert state_weight(0.5, 3, 2, 6) == pytest.approx(0.25)
        assert state_weight(0.5, 3, 9, 3) == pytest.approx(0.125)

    def test_approaches_holiday_weight_continuously(self):
        # weight rises to the holiday value 1 as the distance shrinks to zero
        w = [state_weight(0.6, 1, n, 40) for n in range(20, -1, -1)]
        assert np.all(np.diff(w) > 0)
        assert w[-1] == 1.0


class TestMeanVector:
    def test_intercept_only(self):
        params = _zero_params(level=np.array([5.0, 6.0]))
        assert mean_vector(params, _day(), 4) == pytest.approx([5.0, 6.0])

    def test_normal_state_ignores_holiday_effect(self):
        params = _zero_params(holiday=np.full((2, 3), 9.0))
        assert mean_vector(params, _day(), 4) == pytest.approx([0.0, 0.0])

    def test_centered_cwv_zero_kills_weather_term(self):
        params = _zero_params(weather=np.array([[2.0, 3.0], [4.0, 5.0]]))
        assert mean_vector(params, _day(wt=(0.0, 0.0)), 4) == pytest.approx([0.0, 0.0])

    def test_state_holiday_consistency_enforced(self):
        with pytest.raises(ValueError):
            mean_vector(_zero_params(), _day(n=0, p=0), 4)
        with pytest.raises(ValueError):
            mean_vector(_zero_params(), _day(n=3, p=2), 2)

    def test_proximity_mean_interpolates(self):
        params = _zero_params(level=np.array([1.0, 1.0]), holiday=np.full((2, 3), -0.4),
                              decay_mean=np.array([0.6, 0.6]))
        mu4 = mean_vector(params, _day(n=30, p=40), 4)
        mu_far = mean_vector(params, _day(n=18, p=40), 1)
        mu_near = mean_vector(params, _day(n=1, p=40), 1)
        mu_hol = mean_vector(params, _day(n=0, p=0), 2)
        assert abs(mu_far[0] - mu4[0]) < 1e-3
        assert mu_hol[0] < mu_near[0] < mu4[0]


class TestFourier:
    def test_zero_coefficients(self):
        assert fourier_sum(np.zeros((2, 4)), 123, 365.25) == 0.0

    def test_weekly_block_sums_to_zero_over_any_week(self):
        rng = np.random.default_rng(2)
        coeffs = rng.standard_normal((2, 3))
        for start in rng.integers(0, 1000, size=20):
            total = sum(fourier_sum(coeffs, t, 7.0) for t in range(start, start + 7))
            assert abs(total) <= 1e-12

    def test_single_harmonic_matches_cosine(self):
        coeffs = np.zeros((2, 3))
        coeffs[0, 0] = 1.0
        for t in (1, 100, 3000):
            assert fourier_sum(coeffs, t, 365.25) == pytest.approx(
                math.cos(2 * math.pi * t / 365.25), abs=1e-14
            )

    def test_weekly_period_is_exact(self):
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal((2, 3))
        for t in (5, 40, 377):
            assert fourier_sum(coeffs, t, 7.0) == pytest.approx(
                fourier_sum(coeffs, t + 7, 7.0), abs=1e-12
            )


class TestPrecision:
    def test_identity_default(self):
        pc = precision_components(_zero_params(), _day(), 4)
        assert (pc.phi, pc.tau1, pc.tau2) == (0.0, 1.0, 1.0)
        assert np.array_equal(precision_matrix(pc), np.eye(2))

    def test_holiday_effect_full_on_state_two(self):
        params = _zero_params(prec_holiday=np.array([0.5, 0.0, 0.0]))
        pc = precision_components(params, _day(n=0, p=0), 2)
        assert pc.phi == pytest.approx(0.5)

    def test_normal_state_ignores_holiday_effect(self):
        params = _zero_params(prec_holiday=np.array([9.0, 9.0, 9.0]))
        pc = precision_components(params, _day(), 4)
        assert (pc.phi, pc.tau1, pc.tau2) == (0.0, 1.0, 1.0)

    def test_matrix_from_components(self):
        got = precision_matrix(PrecisionComponents(phi=0.5, tau1=1.0, tau2=2.0))
        assert got == pytest.approx(np.array([[1.5, -1.0], [-1.0, 2.0]]))

    def test_determinant_is_precision_product(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            pc = PrecisionComponents(
                phi=float(rng.uniform(-10, 10)),
                tau1=float(np.exp(rng.uniform(-13.8, 13.8))),
                tau2=float(np.exp(rng.uniform(-13.8, 13.8))),
            )
            om = precision_matrix(pc)
            assert om[0, 1] == om[1, 0]
            assert om[0, 0] > 0.0
            # det = tau1 * tau2 holds analytically; the numerical determinant
            # of the assembled matrix cancels, so allow for its conditioning
            cond = max(om[0, 0] * om[1, 1] / (pc.tau1 * pc.tau2), 1.0)
            assert np.linalg.det(om) == pytest.approx(pc.tau1 * pc.tau2, rel=1e-13 * cond)
            assert np.linalg.det(om) > 0.0  # second leading minor

    def test_inverse_closed_form(self):
        pc = PrecisionComponents(phi=-1.3, tau1=0.7, tau2=4.1)
        assert covariance_from_components(pc) == pytest.approx(
            np.linalg.inv(precision_matrix(pc))
        )

    def test_log_precisions_clamped(self):
        params = _zero_params(prec_base=np.array([0.0, 100.0, -100.0]))
        pc = precision_components(params, _day(), 4)
        assert pc.tau1 == pytest.approx(math.exp(30.0))
        assert pc.tau2 == pytest.approx(math.exp(-30.0))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            PrecisionComponents(phi=0.0, tau1=0.0, tau2=1.0)


class TestStationaryVariance:
    def test_zero_ar_returns_covariance(self):
        omega = np.array([[2.0, 0.3], [0.3, 1.0]])
        v = stationary_variance(np.zeros((2, 2)), omega)
        assert v == pytest.approx(np.linalg.inv(omega), abs=1e-14)

    def test_scalar_fixed_point(self):
        v = stationary_variance(0.5 * np.eye(2), np.eye(2))
        assert v == pytest.approx(4.0 / 3.0 * np.eye(2), abs=1e-13)

    def test_random_inputs_satisfy_equation(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            psi = psi_from_xi(rng.uniform(1e-3, 1 - 1e-3, size=2))
            a = rng.standard_normal((2, 2))
            omega = a @ a.T + 0.05 * np.eye(2)
            v = stationary_variance(psi, omega)
            resid = v - psi @ v @ psi.T - np.linalg.inv(omega)
            assert np.max(np.abs(resid)) <= 1e-12
            assert v[0, 1] == v[1, 0]
            assert np.all(np.linalg.eigvalsh(v) > 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_system_marks_its_row(self):
        # eigenvalue 1: the 3x3 Lyapunov system's determinant is exactly 0.0
        singular = np.array([[0.5, 0.5], [0.5, 0.5]])
        psi = np.stack([psi_from_xi([0.3, 0.8]), singular, psi_from_xi([0.9, 0.05])])
        a = np.random.default_rng(6).standard_normal((3, 4, 2, 2))
        omega = a @ a.swapaxes(-1, -2) + 0.05 * np.eye(2)
        v, omega_ok, v_ok = _stationary_variance_rows(psi, omega)
        assert omega_ok.tolist() == [True, True, True]
        assert v_ok.tolist() == [True, False, True]
        assert np.array_equal(v[1], np.broadcast_to(np.eye(2), (4, 2, 2)))
        for r in (0, 2):
            assert v[r].tobytes() == stationary_variance(psi[r], omega[r]).tobytes()
        with pytest.raises(np.linalg.LinAlgError, match="stationary variance is not positive definite"):
            stationary_variance(singular, omega[1])


class TestLogDensity:
    def test_peak_value(self):
        params = _zero_params()
        day = _day()
        mu = mean_vector(params, day, 4)
        got = log_emission_density(mu, mu, 4, 4, params, day, day)
        assert got == pytest.approx(-math.log(2 * math.pi), abs=1e-14)

    def test_first_day_equals_conditional_when_ar_zero(self):
        params = _zero_params(level=np.array([1.0, 2.0]), prec_base=np.array([0.4, 0.3, -0.2]))
        day = _day()
        y = np.array([1.4, 1.7])
        first = log_emission_density(y, None, 4, None, params, day, None)
        later = log_emission_density(
            y, mean_vector(params, day, 4), 4, 4, params, day, day
        )
        assert first == pytest.approx(later, abs=1e-13)

    def test_matches_dense_normal_oracle(self):
        rng = np.random.default_rng(6)
        emission, _, _ = small_truth()
        cov = make_cov(dt.date(2021, 3, 1), 12, [(dt.date(2021, 3, 5), 2)], rng=rng)
        for _ in range(40):
            t = int(rng.integers(2, 13))
            day, prev = cov.day(t), cov.day(t - 1)
            states = [2] if day.is_holiday else [1, 3, 4]
            prev_states = [2] if prev.is_holiday else [1, 3, 4]
            s_t = int(rng.choice(states))
            s_p = int(rng.choice(prev_states))
            y_t = rng.standard_normal(2) + 3.0
            y_p = rng.standard_normal(2) + 3.0
            mu_t = mean_vector(emission, day, s_t)
            mu_p = mean_vector(emission, prev, s_p)
            om = precision_matrix(precision_components(emission, day, s_t))
            mean = mu_t + emission.ar_matrix @ (y_p - mu_p)
            expected = stats.multivariate_normal.logpdf(y_t, mean, np.linalg.inv(om))
            got = log_emission_density(y_t, y_p, s_t, s_p, emission, day, prev)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_first_day_matches_dense_normal_oracle(self):
        rng = np.random.default_rng(7)
        emission, _, _ = small_truth()
        cov = make_cov(dt.date(2021, 3, 1), 6, [], rng=rng)
        day = cov.day(1)
        for s in (1, 3, 4):
            y = rng.standard_normal(2) + 3.0
            mu = mean_vector(emission, day, s)
            om = precision_matrix(precision_components(emission, day, s))
            v = stationary_variance(emission.ar_matrix, om)
            expected = stats.multivariate_normal.logpdf(y, mu, v)
            got = log_emission_density(y, None, s, None, emission, day, None)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_dimension_checks(self):
        params = _zero_params()
        with pytest.raises(ValueError):
            log_emission_density(np.zeros(3), None, 4, None, params, _day(), None)
        with pytest.raises(ValueError):
            log_emission_density(np.zeros(2), np.zeros(2), 4, None, params, _day(), None)


class TestDayTables:
    def test_tables_match_scalar_operations(self):
        rng = np.random.default_rng(8)
        emission, _, _ = small_truth()
        cov = make_cov(
            dt.date(2021, 4, 1), 20,
            [(dt.date(2021, 4, 2), 1), (dt.date(2021, 4, 5), 2), (dt.date(2021, 4, 14), 3)],
            rng=rng,
        )
        design = build_design(cov, emission.k_annual, emission.k_prec_annual)
        tables = build_day_tables(emission, design)
        for t in range(1, cov.T + 1):
            day = cov.day(t)
            states = [2] if day.is_holiday else [1, 2, 3, 4]
            for s in states:
                if (s == 2) != day.is_holiday:
                    continue
                mu = mean_vector(emission, day, s)
                assert tables.mu[t - 1, s - 1] == pytest.approx(mu, abs=1e-12)
                pc = precision_components(emission, day, s)
                assert tables.phi[t - 1, s - 1] == pytest.approx(pc.phi, abs=1e-12)
                assert tables.tau1[t - 1, s - 1] == pytest.approx(pc.tau1, rel=1e-12)
                assert tables.tau2[t - 1, s - 1] == pytest.approx(pc.tau2, rel=1e-12)

    def test_first_day_stationary_blocks(self):
        rng = np.random.default_rng(9)
        emission, _, _ = small_truth()
        cov = make_cov(dt.date(2021, 4, 1), 8, [], rng=rng)
        design = build_design(cov, emission.k_annual, emission.k_prec_annual)
        tables = build_day_tables(emission, design)
        for s in range(4):
            pc = PrecisionComponents(
                float(tables.phi[0, s]), float(tables.tau1[0, s]), float(tables.tau2[0, s])
            )
            v = stationary_variance(emission.ar_matrix, precision_matrix(pc))
            assert tables.v_inv[s] == pytest.approx(np.linalg.inv(v), rel=1e-10)
            assert tables.v_logdet[s] == pytest.approx(math.log(np.linalg.det(v)), abs=1e-10)
            assert tables.v_chol[s] @ tables.v_chol[s].T == pytest.approx(v, abs=1e-12)

    def test_design_kept_per_series_and_counts(self):
        cov = make_cov(dt.date(2021, 4, 1), 8, [], rng=np.random.default_rng(11))
        design = build_design(cov, 2, 2)
        assert build_design(cov, 2, 2) is design
        assert build_design(cov, 3, 2) is not design
        assert build_design(cov, 2, 3) is not design
        assert build_design(cov, 3, 2) is build_design(cov, 3, 2)
        copy = dataclasses.replace(cov)
        again = build_design(copy, 2, 2)
        assert again is not design
        assert np.array_equal(again.f_annual, design.f_annual)
        assert "_derived" not in repr(cov)

    def test_per_row_marks_a_failing_first_day_law(self):
        emission, _, _ = small_truth()
        cov = make_cov(dt.date(2021, 4, 1), 8, [], rng=np.random.default_rng(12))
        design = build_design(cov, emission.k_annual, emission.k_prec_annual)
        bad = emission.replace(prec_base=emission.prec_base + np.array([1e8, 0.0, 0.0]))
        with pytest.raises(np.linalg.LinAlgError, match="omega1 must be symmetric positive definite"):
            build_day_tables(bad, design)
        rows = [emission, bad, emission.replace(level=emission.level + 0.1)]
        block = EmissionParams(*(np.stack([getattr(e, f.name) for e in rows])
                                 for f in dataclasses.fields(EmissionParams)))
        with pytest.raises(np.linalg.LinAlgError):
            build_day_tables(block, design)
        tables = build_day_tables(block, design, per_row=True)
        assert tables.valid.tolist() == [True, False, True]
        assert np.array_equal(tables.v_inv[1], np.broadcast_to(np.eye(2), (4, 2, 2)))
        for r in (0, 2):
            alone = build_day_tables(rows[r], design)
            assert alone.valid
            for f in dataclasses.fields(alone):
                assert np.array_equal(getattr(tables, f.name)[r], getattr(alone, f.name)), f.name

    def test_design_harmonic_count_checked(self):
        rng = np.random.default_rng(10)
        emission, _, _ = small_truth()
        cov = make_cov(dt.date(2021, 4, 1), 8, [], rng=rng)
        design = build_design(cov, emission.k_annual + 1, emission.k_prec_annual)
        with pytest.raises(ValueError):
            build_day_tables(emission, design)


_STAGES = (_mean_rows, _precision_rows, _first_day_law)
_FIELDS = tuple(f.name for f in dataclasses.fields(EmissionParams))
_UNIT_FIELDS = ("ar_eig01", "decay_mean", "decay_prec")


def _moved(params, name):
    """``params`` with the field ``name`` moved: unit-interval fields shrink, the rest shift."""
    x = getattr(params, name)
    return params.replace(**{name: x * 0.9 if name in _UNIT_FIELDS else x + 0.05})


def _stage_output(stage, params, design):
    """What ``stage`` writes or returns at ``params``, as one tuple of arrays."""
    days = build_day_tables(params, design, per_row=True).days
    if stage is _first_day_law:
        return tuple(stage(params, days)[0].values())
    out = np.full(days.shape, np.nan)
    stage(params, design, out)
    return (out[~np.isnan(out)],)


class TestDayTableStages:
    @pytest.fixture(scope="class")
    def setup(self):
        emission, _, _ = small_truth()
        cov = make_cov(
            dt.date(2021, 4, 1), 30, [(dt.date(2021, 4, 2), 1), (dt.date(2021, 4, 14), 3)],
            rng=np.random.default_rng(13),
        )
        return emission, build_design(cov, emission.k_annual, emission.k_prec_annual)

    def test_every_field_feeds_a_stage(self):
        assert set().union(*(stage.fields for stage in _STAGES)) == set(_FIELDS)

    @pytest.mark.parametrize("stage", _STAGES, ids=lambda s: s.__name__)
    @pytest.mark.parametrize("name", _FIELDS)
    def test_a_stage_reads_exactly_its_declared_fields(self, setup, stage, name):
        # a field outside the declaration leaves the stage's rows bitwise as they were;
        # one inside it moves them
        emission, design = setup
        before = _stage_output(stage, emission, design)
        after = _stage_output(stage, _moved(emission, name), design)
        same = all(np.array_equal(a, b) for a, b in zip(before, after))
        assert same == (name not in stage.fields)

    @pytest.mark.parametrize("names", [[n] for n in _FIELDS] + [["level", "prec_base"], []])
    def test_update_equals_the_full_build(self, setup, names):
        emission, design = setup
        tables = build_day_tables(emission, design, per_row=True)
        moved = emission
        for name in names:
            moved = _moved(moved, name)
        updated = update_day_tables(moved, design, tables, frozenset(names))
        full = build_day_tables(moved, design, per_row=True)
        for f in dataclasses.fields(full):
            assert np.array_equal(getattr(updated, f.name), getattr(full, f.name)), f.name
        assert (updated is tables) == (not names)
        assert np.shares_memory(updated.mu, updated.days)

