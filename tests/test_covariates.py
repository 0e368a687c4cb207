import dataclasses
import datetime as dt

import numpy as np
import pytest

from demandhmm.covariates import (
    CovariateError,
    HolidayCalendar,
    SeasonalCwvBaseline,
    build_covariates,
    day_of_year_366,
    smooth_cwv_baseline,
)

from helpers import flat_baseline


def _cal(*entries):
    return HolidayCalendar(tuple(e[0] for e in entries), tuple(e[1] for e in entries))


def _range(start, n):
    return [start + dt.timedelta(days=i) for i in range(n)]


class TestHolidayCalendar:
    def test_rejects_unsorted_dates(self):
        with pytest.raises(CovariateError):
            _cal((dt.date(2020, 5, 8), 2), (dt.date(2020, 4, 10), 1))

    def test_rejects_duplicates(self):
        with pytest.raises(CovariateError):
            _cal((dt.date(2020, 5, 8), 2), (dt.date(2020, 5, 8), 1))

    def test_rejects_bad_type(self):
        with pytest.raises(CovariateError):
            _cal((dt.date(2020, 5, 8), 4))

    def test_csv_round_trip(self, tmp_path):
        cal = _cal((dt.date(2020, 4, 10), 1), (dt.date(2020, 12, 25), 3))
        path = tmp_path / "holidays.csv"
        cal.to_csv(path)
        back = HolidayCalendar.from_csv(path)
        assert back.dates == cal.dates and back.types == cal.types


class TestBuildCovariates:
    def test_holiday_day_has_zero_distances(self):
        hol = dt.date(2021, 5, 3)
        cov = build_covariates(
            _range(dt.date(2021, 5, 1), 7),
            _cal((dt.date(2021, 4, 5), 1), (hol, 2), (dt.date(2021, 8, 30), 2)),
            np.full((7, 2), 8.0),
            flat_baseline(),
        )
        i = cov.dates.index(hol) + 1  # +1 for the day-0 slot
        assert cov.n[i] == 0 and cov.p[i] == 0
        assert cov.is_holiday[i]

    def test_day_counting(self):
        # next holiday tomorrow, previous five days ago
        cov = build_covariates(
            _range(dt.date(2021, 5, 1), 10),
            _cal((dt.date(2021, 4, 30), 1), (dt.date(2021, 5, 6), 2), (dt.date(2021, 9, 1), 2)),
            np.full((10, 2), 8.0),
            flat_baseline(),
        )
        i = cov.dates.index(dt.date(2021, 5, 5)) + 1
        assert (cov.n[i], cov.p[i]) == (1, 5)

    def test_equidistant_uses_later_type(self):
        # Easter-type 3 days back, Other-type 3 days ahead
        cov = build_covariates(
            _range(dt.date(2021, 5, 3), 6),
            _cal((dt.date(2021, 4, 1), 2), (dt.date(2021, 5, 2), 1),
                 (dt.date(2021, 5, 8), 2), (dt.date(2021, 9, 1), 2)),
            np.full((6, 2), 8.0),
            flat_baseline(),
        )
        i = cov.dates.index(dt.date(2021, 5, 5)) + 1
        assert cov.n[i] == cov.p[i] == 3
        assert cov.r[i] == 2

    def test_nearest_type_constant_on_stretches(self):
        cov = build_covariates(
            _range(dt.date(2021, 5, 3), 9),
            _cal((dt.date(2021, 5, 2), 3), (dt.date(2021, 5, 12), 1)),
            np.full((9, 2), 8.0),
            flat_baseline(),
        )
        for i in range(1, len(cov.n)):
            expected = 3 if cov.p[i] < cov.n[i] else 1
            assert cov.r[i] == expected

    def test_walk_forward_invariants(self):
        rng = np.random.default_rng(3)
        start = dt.date(2019, 1, 10)
        hol_days = [-20] + sorted(rng.choice(np.arange(-5, 175), size=7, replace=False)) + [220]
        cal = _cal(*[(start + dt.timedelta(days=int(d)), int(rng.integers(1, 4))) for d in hol_days])
        cov = build_covariates(
            _range(start, 180), cal, np.full((180, 2), 8.0), flat_baseline()
        )
        hol = cov.is_holiday
        assert np.all((cov.n == 0) == (cov.p == 0))
        for i in range(1, len(cov.n)):
            if hol[i]:
                continue
            assert min(cov.n[i], cov.p[i]) >= 1
            # p increments by one per day after a holiday
            if not hol[i - 1]:
                assert cov.p[i] == cov.p[i - 1] + 1
                assert cov.n[i - 1] == cov.n[i] + 1
            else:
                assert cov.p[i] == 1

    def test_margin_violation(self):
        with pytest.raises(CovariateError, match="bracket"):
            build_covariates(
                _range(dt.date(2021, 5, 1), 10),
                _cal((dt.date(2021, 5, 3), 2)),
                np.full((10, 2), 8.0),
                flat_baseline(),
            )

    def test_non_contiguous_dates(self):
        dates = _range(dt.date(2021, 5, 1), 5)
        dates[3] = dates[3] + dt.timedelta(days=1)
        with pytest.raises(CovariateError, match="contiguous"):
            build_covariates(
                dates,
                _cal((dt.date(2021, 4, 5), 1), (dt.date(2021, 9, 1), 2)),
                np.full((5, 2), 8.0),
                flat_baseline(),
            )

    def test_missing_cwv_rejected(self):
        cwv = np.full((5, 2), 8.0)
        cwv[2, 1] = np.nan
        with pytest.raises(CovariateError, match="missing|finite"):
            build_covariates(
                _range(dt.date(2021, 5, 1), 5),
                _cal((dt.date(2021, 4, 5), 1), (dt.date(2021, 9, 1), 2)),
                cwv,
                flat_baseline(),
            )

    def test_epoch_default_and_override(self):
        dates = _range(dt.date(2021, 5, 1), 5)
        cal = _cal((dt.date(2021, 4, 5), 1), (dt.date(2021, 9, 1), 2))
        cov = build_covariates(dates, cal, np.full((5, 2), 8.0), flat_baseline())
        assert list(cov.t_index) == [1, 2, 3, 4, 5]
        cov2 = build_covariates(
            dates, cal, np.full((5, 2), 8.0), flat_baseline(), epoch=dt.date(2021, 4, 29)
        )
        assert list(cov2.t_index) == [3, 4, 5, 6, 7]

    def test_derived_is_built_once_per_key_and_series(self):
        cov = build_covariates(
            _range(dt.date(2021, 5, 1), 5), _cal((dt.date(2021, 4, 5), 1), (dt.date(2021, 9, 1), 2)),
            np.full((5, 2), 8.0), flat_baseline(),
        )
        built = []

        def build():
            built.append(1)
            return object()

        first = cov.derived(("a", 1), build)
        assert cov.derived(("a", 1), build) is first and len(built) == 1
        assert cov.derived(("a", 2), build) is not first and len(built) == 2
        assert dataclasses.replace(cov).derived(("a", 1), build) is not first   # a copy starts empty
        assert "_derived" not in repr(cov)


class TestDayOfYear:
    def test_leap_year_mapping(self):
        assert day_of_year_366(dt.date(2020, 2, 29)) == 60
        assert day_of_year_366(dt.date(2020, 3, 1)) == 61
        assert day_of_year_366(dt.date(2020, 12, 31)) == 366

    def test_non_leap_year_shifts(self):
        assert day_of_year_366(dt.date(2021, 2, 28)) == 59
        assert day_of_year_366(dt.date(2021, 3, 1)) == 61
        assert day_of_year_366(dt.date(2021, 12, 25)) == 360
        assert day_of_year_366(dt.date(2020, 12, 25)) == 360

    def test_range(self):
        days = [dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(366 + 365)]
        vals = [day_of_year_366(d) for d in days]
        assert min(vals) == 1 and max(vals) == 366


class TestBaseline:
    def test_constant_cwv(self):
        dates = _range(dt.date(2019, 1, 1), 2 * 366)
        baseline = smooth_cwv_baseline(dates, np.full((len(dates), 2), 8.0), 10)
        assert np.allclose(baseline.m, 8.0)
        cal = _cal((dt.date(2018, 12, 20), 3), (dt.date(2021, 6, 1), 2))
        cov = build_covariates(dates, cal, np.full((len(dates), 2), 8.0), baseline)
        assert np.all(cov.w_tilde == 0.0)

    def test_halfwidth_zero_gives_raw_means(self):
        rng = np.random.default_rng(11)
        dates = _range(dt.date(2019, 1, 1), 3 * 365)
        cwv = 8.0 + rng.standard_normal((len(dates), 2))
        baseline = smooth_cwv_baseline(dates, cwv, 0)
        sums = np.zeros((366, 2))
        counts = np.zeros(366)
        for d, w in zip(dates, cwv):
            sums[day_of_year_366(d) - 1] += w
            counts[day_of_year_366(d) - 1] += 1
        filled = counts > 0
        assert np.allclose(baseline.m[filled], sums[filled] / counts[filled, None])

    def test_sinusoid_matches_direct_summation(self):
        rng = np.random.default_rng(4)
        dates = _range(dt.date(2016, 1, 1), 4 * 366)
        doy = np.array([d.timetuple().tm_yday for d in dates])
        cwv = np.stack(
            [8 + 5 * np.sin(2 * np.pi * doy / 365.25), 7 + 4 * np.cos(2 * np.pi * doy / 365.25)],
            axis=1,
        ) + 0.3 * rng.standard_normal((len(dates), 2))
        h = 10
        baseline = smooth_cwv_baseline(dates, cwv, h)

        # independent direct-summation oracle
        slot_sum = np.zeros((366, 2))
        slot_n = np.zeros(366)
        for d, w in zip(dates, cwv):
            s = day_of_year_366(d) - 1
            slot_sum[s] += w
            slot_n[s] += 1
        raw = slot_sum / slot_n[:, None]
        oracle = np.zeros_like(raw)
        for s in range(366):
            acc = np.zeros(2)
            for k in range(-h, h + 1):
                acc += raw[(s + k) % 366]
            oracle[s] = acc / (2 * h + 1)
        assert np.max(np.abs(baseline.m - oracle)) <= 1e-12

    def test_feb29_borrows_neighbours(self):
        dates = _range(dt.date(2021, 1, 1), 365)  # non-leap year only
        rng = np.random.default_rng(5)
        cwv = 8.0 + rng.standard_normal((365, 2))
        baseline = smooth_cwv_baseline(dates, cwv, 0)
        sums = {}
        for d, w in zip(dates, cwv):
            sums.setdefault(day_of_year_366(d), []).append(w)
        m59 = np.mean(sums[59], axis=0)
        m61 = np.mean(sums[61], axis=0)
        assert np.allclose(baseline.m[59], 0.5 * (m59 + m61))

    def test_requires_full_year(self):
        dates = _range(dt.date(2021, 1, 1), 120)
        with pytest.raises(CovariateError, match="year"):
            smooth_cwv_baseline(dates, np.full((120, 2), 8.0), 10)

    def test_baseline_shape_validation(self):
        with pytest.raises(CovariateError):
            SeasonalCwvBaseline(m=np.zeros((365, 2)))
