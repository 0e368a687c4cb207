"""Calendar and weather covariates for the demand model.

Builds, from a date range, an observed-holiday calendar and raw composite
weather variable (CWV) series, the per-day covariates the model consumes:

* ``n``: whole days until the next public holiday (0 on a holiday),
* ``p``: whole days since the previous public holiday (0 on a holiday),
* ``r``: type of the nearest holiday, with ties broken towards the later one,
* centered CWV ``w_tilde = w - m[day_of_year]`` against a smoothed seasonal
  baseline ``m``,
* a day-of-year slot in 1..366 (slot 60 is Feb 29; in non-leap years dates
  from Mar 1 onwards shift up by one so a calendar date always lands in the
  same slot),
* an integer day index used as the Fourier clock (1 on the first data day by
  default).

Day 0 (the day before the first observation) carries calendar covariates only;
it anchors the initial state distribution and has no weather or demand.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass, field

import numpy as np

HOLIDAY_TYPE_EASTER = 1
HOLIDAY_TYPE_OTHER = 2
HOLIDAY_TYPE_CHRISTMAS = 3
_VALID_TYPES = (1, 2, 3)


class CovariateError(ValueError):
    """Raised for invalid calendars, non-contiguous dates or margin violations."""


def _is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def day_of_year_366(date: dt.date) -> int:
    """Day-of-year slot in 1..366, stable across leap and non-leap years.

    Feb 29 occupies slot 60; in non-leap years Mar 1 and later shift by one so
    that e.g. Dec 25 is always slot 360.
    """
    doy = date.timetuple().tm_yday
    if not _is_leap(date.year) and doy >= 60:
        return doy + 1
    return doy


@dataclass(frozen=True)
class HolidayCalendar:
    """Observed public-holiday dates with their type labels.

    The calendar lists dates as observed (weekend substitutions already
    applied by the data provider). Types: 1 Easter, 2 Other, 3 Christmas.
    """

    dates: tuple[dt.date, ...]
    types: tuple[int, ...]

    def __post_init__(self):
        if len(self.dates) != len(self.types):
            raise CovariateError("holiday dates and types differ in length")
        if len(self.dates) == 0:
            raise CovariateError("holiday calendar is empty")
        for a, b in zip(self.dates, self.dates[1:]):
            if b <= a:
                raise CovariateError(f"holiday dates not strictly increasing at {b}")
        for t in self.types:
            if t not in _VALID_TYPES:
                raise CovariateError(f"holiday type {t} not in {{1,2,3}}")

    @classmethod
    def from_csv(cls, path) -> "HolidayCalendar":
        """Read a calendar CSV with header columns ``date`` and ``type``."""
        dates, types = [], []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"date", "type"} <= set(reader.fieldnames):
                raise CovariateError(f"{path}: expected columns date,type")
            for i, row in enumerate(reader, start=2):
                try:
                    dates.append(dt.date.fromisoformat(row["date"].strip()))
                    types.append(int(row["type"]))
                except (ValueError, TypeError) as exc:  # a short row reads its type as None
                    raise CovariateError(f"{path}: bad row {i}: {exc}") from exc
        return cls(tuple(dates), tuple(types))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "type"])
            for d, t in zip(self.dates, self.types):
                writer.writerow([d.isoformat(), t])

    def ordinals(self) -> np.ndarray:
        return np.array([d.toordinal() for d in self.dates], dtype=np.int64)


@dataclass(frozen=True)
class SeasonalCwvBaseline:
    """Smoothed day-of-year CWV means, one 366-slot column per region."""

    m: np.ndarray  # (366, 2)

    def __post_init__(self):
        if self.m.shape != (366, 2):
            raise CovariateError(f"baseline must be (366, 2), got {self.m.shape}")
        if not np.all(np.isfinite(self.m)):
            raise CovariateError("baseline contains non-finite entries")

    def lookup(self, day_of_year: np.ndarray) -> np.ndarray:
        """Baseline values for an array of 1-based day-of-year slots, shape (T, 2)."""
        return self.m[np.asarray(day_of_year) - 1]


@dataclass(frozen=True)
class CovariateSeries:
    """Per-day covariates for observation days 1..T plus the anchor day 0.

    ``n``, ``p``, ``r`` and ``is_holiday`` have length T+1 and are indexed by
    day number (index 0 is day 0). Weather and clock arrays have length T and
    are indexed by observation (index t-1 is day t).
    """

    dates: tuple[dt.date, ...]          # observation days 1..T
    day0: dt.date                       # dates[0] - 1 day
    n: np.ndarray                       # (T+1,) int64
    p: np.ndarray                       # (T+1,) int64
    r: np.ndarray                       # (T+1,) int64 in {1,2,3}
    w: np.ndarray                       # (T, 2) raw CWV
    w_tilde: np.ndarray                 # (T, 2) centered CWV
    day_of_year: np.ndarray             # (T,) int64 in 1..366
    t_index: np.ndarray                 # (T,) int64 Fourier clock
    epoch: dt.date = field(repr=False, default=None)
    # what ``derived`` has built, by key; a copy starts empty
    _derived: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    @property
    def T(self) -> int:
        return len(self.dates)

    def derived(self, key, build):
        """``build()`` the first time ``key`` is asked for, then kept: data derived from the series alone."""
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build()
        return value

    @property
    def is_holiday(self) -> np.ndarray:
        """(T+1,) boolean, true where n = p = 0."""
        return (self.n == 0) & (self.p == 0)

    @property
    def gap(self) -> np.ndarray:
        """(T+1,) min(n, p), the distance to the nearest holiday."""
        return np.minimum(self.n, self.p)

    def day(self, t: int) -> "DayCovariates":
        """Covariates of observation day t (1-based)."""
        if not 1 <= t <= self.T:
            raise IndexError(f"day index {t} outside 1..{self.T}")
        return DayCovariates(
            n=int(self.n[t]),
            p=int(self.p[t]),
            r=int(self.r[t]),
            w=self.w[t - 1],
            w_tilde=self.w_tilde[t - 1],
            t_index=int(self.t_index[t - 1]),
        )


@dataclass(frozen=True)
class DayCovariates:
    """One observation day's covariates, as consumed by the emission model."""

    n: int
    p: int
    r: int
    w: np.ndarray
    w_tilde: np.ndarray
    t_index: int

    @property
    def is_holiday(self) -> bool:
        return self.n == 0 and self.p == 0


def _check_contiguous(dates) -> None:
    for a, b in zip(dates, dates[1:]):
        if (b - a).days != 1:
            raise CovariateError(f"dates not contiguous between {a} and {b}")


def holiday_distances(dates, calendar: HolidayCalendar):
    """(n, p, r) arrays for a sequence of dates.

    Requires the calendar to bracket the dates: at least one holiday on or
    before the first date and one on or after the last.
    """
    ords = np.array([d.toordinal() for d in dates], dtype=np.int64)
    hol = calendar.ordinals()
    types = np.asarray(calendar.types, dtype=np.int64)
    if hol[0] > ords[0] or hol[-1] < ords[-1]:
        raise CovariateError(
            "holiday calendar does not bracket the date range "
            f"({dates[0]}..{dates[-1]}); margin holidays are required"
        )
    # index of first holiday >= date, and last holiday <= date
    nxt = np.searchsorted(hol, ords, side="left")
    prv = np.searchsorted(hol, ords, side="right") - 1
    n = hol[nxt] - ords
    p = ords - hol[prv]
    # nearest holiday's type; equidistant resolves to the later (next) one
    r = np.where(n <= p, types[nxt], types[prv])
    return n, p, r


def build_covariates(
    dates,
    calendar: HolidayCalendar,
    cwv: np.ndarray,
    baseline: SeasonalCwvBaseline,
    epoch: dt.date | None = None,
) -> CovariateSeries:
    """Assemble the covariate series for contiguous observation days.

    ``dates`` are the observation days (day 1..T); day 0 is the preceding
    calendar day. ``cwv`` is the (T, 2) raw weather series aligned with
    ``dates``. ``epoch`` fixes the origin of the integer Fourier clock; the
    default makes the first observation day index 1.
    """
    dates = tuple(dates)
    if len(dates) == 0:
        raise CovariateError("empty date range")
    _check_contiguous(dates)
    cwv = np.asarray(cwv, dtype=np.float64)
    if cwv.shape != (len(dates), 2):
        raise CovariateError(f"cwv must have shape ({len(dates)}, 2), got {cwv.shape}")
    if not np.all(np.isfinite(cwv)):
        raise CovariateError("cwv contains missing or non-finite values")

    day0 = dates[0] - dt.timedelta(days=1)
    n, p, r = holiday_distances((day0,) + dates, calendar)

    doy = np.array([day_of_year_366(d) for d in dates], dtype=np.int64)
    if epoch is None:
        epoch = dates[0]
    t_index = np.array([(d - epoch).days + 1 for d in dates], dtype=np.int64)

    w_tilde = cwv - baseline.lookup(doy)
    return CovariateSeries(
        dates=dates,
        day0=day0,
        n=n,
        p=p,
        r=r,
        w=cwv,
        w_tilde=w_tilde,
        day_of_year=doy,
        t_index=t_index,
        epoch=epoch,
    )


def smooth_cwv_baseline(dates, cwv, window_halfwidth: int = 10) -> SeasonalCwvBaseline:
    """Smoothed per-day-of-year CWV means.

    Raw slot means are taken over every observation falling on each of the 366
    day-of-year slots, then averaged with a circular moving window of
    ``2 * window_halfwidth + 1`` slots. A never-observed Feb 29 slot borrows
    the mean of its neighbours before smoothing.
    """
    dates = tuple(dates)
    if len(dates) == 0:
        raise CovariateError("empty CWV history")
    if window_halfwidth < 0:
        raise CovariateError("window_halfwidth must be >= 0")
    cwv = np.asarray(cwv, dtype=np.float64)
    if cwv.shape != (len(dates), 2):
        raise CovariateError(f"cwv must have shape ({len(dates)}, 2), got {cwv.shape}")
    if (dates[-1] - dates[0]).days + 1 < 365:
        raise CovariateError("CWV history must span at least one full year")

    sums = np.zeros((366, 2))
    counts = np.zeros(366, dtype=np.int64)
    for i, d in enumerate(dates):
        slot = day_of_year_366(d) - 1
        sums[slot] += cwv[i]
        counts[slot] += 1

    raw = np.full((366, 2), np.nan)
    filled = counts > 0
    raw[filled] = sums[filled] / counts[filled, None]
    if not filled[59]:  # Feb 29 absent from non-leap histories
        raw[59] = 0.5 * (raw[58] + raw[60])
    if np.any(np.isnan(raw)):
        missing = np.flatnonzero(np.isnan(raw[:, 0])) + 1
        raise CovariateError(f"day-of-year slots with no data: {missing.tolist()}")

    h = window_halfwidth
    if h == 0:
        smooth = raw
    else:
        idx = (np.arange(366)[:, None] + np.arange(-h, h + 1)[None, :]) % 366
        smooth = raw[idx].mean(axis=1)
    return SeasonalCwvBaseline(m=smooth)
