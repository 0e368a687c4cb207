import dataclasses
import datetime as dt
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandhmm import emission as emission_module
from demandhmm import paramspace
from demandhmm.dataio import quantile
from demandhmm.emission import build_day_tables, build_design, day_tables
from demandhmm.filtering import rao_blackwell_states, smooth_states, terminal_log_distribution
from demandhmm.generative import continue_simulation, path_noise, path_tables, simulate
from demandhmm.paramspace import ParamSpace
from demandhmm.ppc import coverage_by_gap, forecast, posterior_predictive_replicates
from demandhmm.priors import default_hyperparameters, sample_prior
from demandhmm.sampler import PosteriorDraws
from demandhmm.states import ModelMode, transition_matrix

from helpers import make_cov, mean_vector, small_truth


def _make_draws(params_list, mode=ModelMode.FOUR_STATE, k=2, kp=2):
    space = ParamSpace(k, kp, mode)
    rows = [space.pack(e, t if mode is ModelMode.FOUR_STATE else None, l)
            for e, t, l in params_list]
    return PosteriorDraws(
        free_draws=np.asarray(rows),
        logpost=np.zeros(len(rows)),
        chain=np.zeros(len(rows), dtype=np.int64),
        iteration=np.arange(len(rows), dtype=np.int64),
        space=space,
        base_full=np.zeros(space.full_size),
    )


def _jittered_params(n, rng, psi_zero=False, **overrides):
    emission, trans, latents = small_truth()
    out = []
    for _ in range(n):
        e = emission.replace(
            level=emission.level + 0.002 * rng.standard_normal(2),
            holiday=emission.holiday + 0.005 * rng.standard_normal((2, 3)),
            **overrides,
        )
        if psi_zero:
            e = e.replace(ar_eig01=np.array([0.5, 0.5]))
        out.append((e, trans, latents))
    return out


def _digest(x: np.ndarray) -> str:
    x = np.ascontiguousarray(x)
    return hashlib.sha256(f"{x.shape}{x.dtype.str}".encode() + x.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def scene():
    cov = make_cov(
        dt.date(2021, 2, 1), 120,
        [(dt.date(2021, 2, 15), 2), (dt.date(2021, 3, 12), 1), (dt.date(2021, 4, 20), 3)],
        rng=np.random.default_rng(0),
    )
    emission, trans, _ = small_truth()
    y = simulate(emission, trans, cov, seed=42).y
    return cov, y


class TestReplicates:
    def test_shape_matches_data(self, scene):
        cov, y = scene
        draws = _make_draws(_jittered_params(45, np.random.default_rng(1)))
        reps = posterior_predictive_replicates(draws, y, cov, seed=3)
        assert reps.shape == (45, cov.T, 2)
        assert np.all(np.isfinite(reps))

    def test_deterministic_given_seed(self, scene):
        cov, y = scene
        draws = _make_draws(_jittered_params(45, np.random.default_rng(3)))
        a = posterior_predictive_replicates(draws, y, cov, seed=4)
        b = posterior_predictive_replicates(draws, y, cov, seed=4)
        assert np.array_equal(a, b)

    def test_tight_precision_concentrates_on_mean_path(self, scene):
        # deterministic states (two-state mode) so the only spread left is the
        # vanishing observation noise
        cov, y = scene
        params = [
            (e.replace(prec_base=np.array([0.0, 13.0, 13.0])), None, l)
            for e, _, l in _jittered_params(60, np.random.default_rng(4))
        ]
        draws = _make_draws(params, mode=ModelMode.TWO_STATE)
        reps = posterior_predictive_replicates(draws, y, cov, seed=5)
        assert reps.std(axis=0).max() <= 0.05

    def test_holiday_predictive_mean_matches_mixture(self, scene):
        # with a zero AR matrix each replicate's holiday mean is exactly the
        # draw's state-2 mean, so the predictive mean is their average
        cov, y = scene
        rng = np.random.default_rng(5)
        params = _jittered_params(400, rng, psi_zero=True)
        draws = _make_draws(params)
        reps = posterior_predictive_replicates(draws, y, cov, seed=6)
        hol_t = int(np.flatnonzero(cov.is_holiday[1:])[0]) + 1
        mus = np.stack([mean_vector(e, cov.day(hol_t), 2) for e, _, _ in params])
        resid_sd = np.exp(-np.array([6.4, 6.7]) / 2).max()
        tol = 5 * np.sqrt((mus.var(axis=0).max() + resid_sd**2) / len(params))
        assert reps[:, hol_t - 1, :].mean(axis=0) == pytest.approx(mus.mean(axis=0), abs=tol)

    @pytest.mark.parametrize("mode, digest", [
        (ModelMode.FOUR_STATE, "91b6018e7974c89e205c6e6799fb128fbabd5974160e7b637a3bab608d9d7e1c"),
        (ModelMode.TWO_STATE, "e3062ef0d71b2ce7c7b92542cd60f895f137e913ef9db40f398c364b5d673166"),
    ])
    def test_replicates_pinned(self, scene, mode, digest):
        # shape, dtype and every bit of five replicates from seed 8
        cov, y = scene
        params = _jittered_params(5, np.random.default_rng(40))
        if mode is ModelMode.TWO_STATE:
            params = [(e, None, l) for e, _, l in params]
        reps = posterior_predictive_replicates(_make_draws(params, mode=mode), y, cov, seed=8)
        assert _digest(reps) == digest


    def test_nonfinite_replicate_is_numerical_failure(self, scene):
        # a finite draw whose mean overflows replicates into inf/nan days,
        # which the coverage check would count as inside the band
        cov, y = scene
        params = _jittered_params(3, np.random.default_rng(42))
        e, t, l = params[1]
        annual = e.annual.copy()
        annual[0, 0, 0] = 1.7e308
        params[1] = (e.replace(level=np.array([1.7e308, e.level[1]]), annual=annual), t, l)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="^draw 1: replicate is not finite$"):
                posterior_predictive_replicates(_make_draws(params), y, cov, seed=8)


class TestCoverage:
    def test_requires_enough_replicates(self, scene):
        cov, y = scene
        reps = np.zeros((39, cov.T, 2))
        with pytest.raises(ValueError, match="40"):
            coverage_by_gap(reps, y, cov)

    def test_calibrated_replicates(self, scene):
        cov, y = scene
        emission, trans, latents = small_truth()
        draws = _make_draws([(emission, trans, latents)] * 300)
        reps = posterior_predictive_replicates(draws, y, cov, seed=7)
        summary = coverage_by_gap(reps, y, cov)
        frac = summary.bucket_outside.sum() / summary.bucket_count.sum()
        assert 0.0 <= frac <= 0.13  # about 5% for data drawn from the same law

    def test_gross_miscalibration_detected(self, scene):
        cov, y = scene
        emission, trans, latents = small_truth()
        draws = _make_draws([(emission, trans, latents)] * 60)
        reps = posterior_predictive_replicates(draws, y, cov, seed=8)
        summary = coverage_by_gap(reps, y + 10.0, cov)
        assert summary.outside.mean() >= 0.999

    def test_replicate_order_invariance(self, scene):
        cov, y = scene
        emission, trans, latents = small_truth()
        draws = _make_draws([(emission, trans, latents)] * 80)
        reps = posterior_predictive_replicates(draws, y, cov, seed=9)
        a = coverage_by_gap(reps, y, cov)
        b = coverage_by_gap(reps[::-1], y, cov)
        assert np.array_equal(a.bucket_outside, b.bucket_outside)
        assert np.array_equal(a.pred_q025, b.pred_q025)

    def test_buckets_partition_by_gap(self, scene):
        cov, y = scene
        emission, trans, latents = small_truth()
        draws = _make_draws([(emission, trans, latents)] * 50)
        reps = posterior_predictive_replicates(draws, y, cov, seed=10)
        summary = coverage_by_gap(reps, y, cov)
        gap = cov.gap[1:]
        for i, g in enumerate((0, 1, 2, 3)):
            assert summary.bucket_count[i, 0] == (gap == g).sum()
        assert summary.bucket_count[-1, 0] == (gap >= 10).sum()
        assert summary.to_dict()["buckets"][0]["gap"] == "0"

    def test_summary_json_fields(self, scene):
        cov, y = scene
        emission, trans, latents = small_truth()
        draws = _make_draws([(emission, trans, latents)] * 50)
        reps = posterior_predictive_replicates(draws, y, cov, seed=11)
        doc = coverage_by_gap(reps, y, cov).to_dict()
        assert {b["gap"] for b in doc["buckets"]} == {"0", "1", "2", "3", "10+"}
        for b in doc["buckets"]:
            assert 0.0 <= b["pooled_fraction_outside"] <= 1.0

    def test_empty_buckets_are_null(self):
        # March with no holiday within three days: the gap 0-3 buckets hold no days
        cov = make_cov(dt.date(2021, 3, 1), 30, [], rng=np.random.default_rng(1))
        y = simulate(*small_truth()[:2], cov, seed=5).y
        reps = posterior_predictive_replicates(_make_draws([small_truth()] * 40), y, cov, seed=12)
        doc = json.loads(json.dumps(coverage_by_gap(reps, y, cov).to_dict(), allow_nan=False))
        for b in doc["buckets"][:4]:
            assert b["region_1"]["n_days"] == 0
            assert b["region_1"]["fraction_outside"] is None is b["pooled_fraction_outside"]
        assert 0.0 <= doc["buckets"][-1]["pooled_fraction_outside"] <= 1.0


class TestForecast:
    def _future(self, cov, h, holidays=()):
        start = cov.dates[-1] + dt.timedelta(days=1)
        return make_cov(start, h, list(holidays), rng=np.random.default_rng(33))

    def test_misaligned_future_rejected(self, scene):
        cov, y = scene
        draws = _make_draws(_jittered_params(50, np.random.default_rng(12)))
        bad = make_cov(cov.dates[-1] + dt.timedelta(days=5), 7, [], rng=np.random.default_rng(13))
        with pytest.raises(ValueError, match="anchor"):
            forecast(draws, y, cov, bad, seed=1)

    def test_reproducible(self, scene):
        cov, y = scene
        draws = _make_draws(_jittered_params(50, np.random.default_rng(14)))
        future = self._future(cov, 7)
        a = forecast(draws, y, cov, future, seed=2)
        b = forecast(draws, y, cov, future, seed=2)
        assert np.array_equal(a, b)
        assert a.shape == (50, 7, 2)

    def test_one_step_mean_two_state(self, scene):
        # deterministic state path and zero AR: the one-step predictive mean
        # is the day T+1 normal-state mean, averaged over draws
        cov, y = scene
        rng = np.random.default_rng(15)
        params = [
            (e.replace(ar_eig01=np.array([0.5, 0.5])), None, l)
            for e, _, l in _jittered_params(400, rng)
        ]
        draws = _make_draws(params, mode=ModelMode.TWO_STATE)
        future = self._future(cov, 1)
        paths = forecast(draws, y, cov, future, seed=3)
        mus = np.stack([mean_vector(e, future.day(1), 4) for e, _, _ in params])
        resid_sd = np.exp(-np.array([6.4, 6.7]) / 2).max()
        tol = 5 * np.sqrt((mus.var(axis=0).max() + resid_sd**2) / len(params))
        assert paths[:, 0, :].mean(axis=0) == pytest.approx(mus.mean(axis=0), abs=tol)

    def test_one_step_mixture_oracle(self, scene):
        # four-state, zero AR: E[y_{T+1}] mixes the per-state means over the
        # smoothed terminal distribution pushed through one transition
        cov, y = scene
        rng = np.random.default_rng(16)
        emission, trans, latents = small_truth()
        emission = emission.replace(ar_eig01=np.array([0.5, 0.5]))
        params = [(emission, trans, latents)] * 300
        draws = _make_draws(params)
        future = self._future(cov, 1)
        paths = forecast(draws, y, cov, future, seed=4)

        _, smoothed = smooth_states(y, cov, emission, trans)
        last = smoothed.probs[-1]
        lam = transition_matrix(trans, int(future.n[1]), int(future.p[1]))
        probs_next = last @ lam
        mus = np.stack([
            mean_vector(emission, future.day(1), s + 1) if probs_next[s] > 0 else np.zeros(2)
            for s in range(4)
        ])
        expected = probs_next @ mus
        resid_sd = np.exp(-6.4 / 2)
        spread = mus.std(axis=0).max() + resid_sd
        tol = 6 * spread / np.sqrt(len(params))
        assert paths[:, 0, :].mean(axis=0) == pytest.approx(expected, abs=max(tol, 5e-3))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_likelihood_draw_raises_naming_draw_and_day(self, scene):
        cov, y = scene
        bad = y.copy()
        bad[5, 0] = 1e200
        draws = _make_draws(_jittered_params(3, np.random.default_rng(17)))
        with pytest.raises(FloatingPointError, match=r"^draw 0: .*day 6 \(2021-02-06\)"):
            forecast(draws, bad, cov, self._future(cov, 3), seed=6)

    @pytest.mark.parametrize("mode, digest", [
        (ModelMode.FOUR_STATE, "0b2afa527bee3806449fd7750ac250abb517326eb4f78000f8737b608388ad14"),
        (ModelMode.TWO_STATE, "2dc9948708ddfa7265f6ba89221bf7665cfe1b5ca46375efe3a5a03425136a1c"),
    ])
    def test_paths_pinned(self, scene, mode, digest):
        # shape, dtype and every bit of five 10-day paths from seed 9
        cov, y = scene
        params = _jittered_params(5, np.random.default_rng(41))
        if mode is ModelMode.TWO_STATE:
            params = [(e, None, l) for e, _, l in params]
        future = self._future(cov, 10, [(cov.dates[-1] + dt.timedelta(days=4), 2)])
        paths = forecast(_make_draws(params, mode=mode), y, cov, future, seed=9)
        assert _digest(paths) == digest

    def test_long_horizon_drift_to_seasonal_path(self, scene):
        cov, y = scene
        emission, trans, latents = small_truth()
        params = [(emission, trans, latents)] * 150
        draws = _make_draws(params)
        future = self._future(cov, 60)
        paths = forecast(draws, y, cov, future, seed=5)
        design = build_design(future, emission.k_annual, emission.k_prec_annual)
        tables = build_day_tables(emission, design)
        mu4 = tables.mu[:, 3, :]
        dev = paths.mean(axis=0) - mu4
        sd = np.exp(-6.4 / 2)
        # after 60 days the AR memory is gone; the mean sits on the mu path
        assert np.abs(dev[-1]).max() <= 6 * sd / np.sqrt(len(params)) + 1e-3


class TestDesignReuse:
    """Designs come from the series' cache: one build per series and harmonic counts,
    and one table build per block of draws."""

    @pytest.fixture
    def built(self, monkeypatch):
        designs, tables = [], []
        make_design, make_tables = emission_module.DesignMatrices, emission_module.build_day_tables

        def counted_design(**kw):
            designs.append(make_design(**kw))
            return designs[-1]

        def counted_tables(params, design, per_row=False):
            tables.append((design, params.level.shape[:-1]))
            return make_tables(params, design, per_row)

        monkeypatch.setattr(emission_module, "DesignMatrices", counted_design)
        monkeypatch.setattr(emission_module, "build_day_tables", counted_tables)
        monkeypatch.setattr(paramspace, "BLOCK_DRAW_DAYS", 16 * 120)   # blocks of 16 draws
        return designs, tables

    def test_replicates_build_one_design(self, scene, built):
        cov, y = scene
        cov = dataclasses.replace(cov)   # a copy starts with no designs
        draws = _make_draws(_jittered_params(40, np.random.default_rng(42)))
        posterior_predictive_replicates(draws, y, cov, seed=1)
        designs, tables = built
        assert len(designs) == 1
        assert [(id(d), rows) for d, rows in tables] == [(id(designs[0]), (n,)) for n in (16, 16, 8)]

    def test_forecast_builds_each_window_once(self, scene, built):
        cov, y = scene
        cov = dataclasses.replace(cov)
        future = TestForecast()._future(cov, 7)
        draws = _make_draws(_jittered_params(20, np.random.default_rng(43)))
        forecast(draws, y, cov, future, seed=1)
        designs, tables = built
        assert len(designs) == 2
        observed = build_design(cov, 2, 2)
        ahead = build_design(future, 2, 2)
        assert {id(d) for d in designs} == {id(observed), id(ahead)}
        # the observed window's tables per block, then the future's: one block of all 20 draws
        assert [(id(d), rows) for d, rows in tables] == [
            (id(observed), (16,)), (id(observed), (4,)), (id(ahead), (20,))
        ]


def _smooth_alone(draws, y, cov):
    """Rao-Blackwell average of draws smoothed one at a time, summed in draw order."""
    total = np.zeros((cov.T + 1, 4))
    for i in range(draws.n_draws):
        emission, trans, _ = draws.params_at(i)
        total += smooth_states(y, cov, emission, trans)[1].probs
    return total / draws.n_draws


def _replicates_alone(draws, cov, seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    return np.stack([simulate(*draws.params_at(i)[:2], cov, rng).y for i in range(draws.n_draws)])


def _forecast_alone(draws, y, cov, future, seed):
    """Each draw alone: terminal law, terminal state, then its path's noise, from one stream."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    paths = []
    for i in range(draws.n_draws):
        emission, trans, _ = draws.params_at(i)
        tables = day_tables(emission, cov)
        probs = np.exp(terminal_log_distribution(y, cov, tables, trans))
        state = int(rng.choice(4, p=probs / probs.sum()))
        _, path = continue_simulation(*path_tables(emission, trans, future), state + 1, y[-1],
                                      tables.mu[-1, state], *path_noise(rng, future.T))
        paths.append(path)
    return np.stack(paths)


class TestDrawBlocks:
    """Draws valued in blocks of rows give, bit for bit, what each draw gives alone."""

    @pytest.fixture(params=[ModelMode.FOUR_STATE, ModelMode.TWO_STATE], ids=["four", "two"])
    def mode(self, request):
        return request.param

    @pytest.fixture
    def blocks_of_3(self, scene, monkeypatch):
        monkeypatch.setattr(paramspace, "BLOCK_DRAW_DAYS", 3 * scene[0].T)

    def _draws(self, mode, n, seed=60):
        params = _jittered_params(n, np.random.default_rng(seed))
        if mode is ModelMode.TWO_STATE:
            params = [(e, None, l) for e, _, l in params]
        return _make_draws(params, mode=mode)

    @pytest.mark.parametrize("n", [1, 7, 24])
    def test_smooth(self, scene, mode, n, blocks_of_3):
        cov, y = scene
        draws = self._draws(mode, n)
        got = rao_blackwell_states(draws, y, cov).probs
        assert got.tobytes() == _smooth_alone(draws, y, cov).tobytes()

    @pytest.mark.parametrize("n", [1, 7, 24])
    def test_replicates(self, scene, mode, n, blocks_of_3):
        cov, y = scene
        draws = self._draws(mode, n)
        got = posterior_predictive_replicates(draws, y, cov, seed=21)
        assert got.tobytes() == _replicates_alone(draws, cov, 21).tobytes()

    @pytest.mark.parametrize("n", [1, 7, 24])
    @pytest.mark.parametrize("h", [10, 130])   # 36 paths a block, rolled as arrays from 20; or 2
    def test_forecast(self, scene, mode, n, h, blocks_of_3):
        cov, y = scene
        draws = self._draws(mode, n)
        future = TestForecast()._future(cov, h, [(cov.dates[-1] + dt.timedelta(days=4), 2)])
        got = forecast(draws, y, cov, future, seed=22)
        assert got.tobytes() == _forecast_alone(draws, y, cov, future, 22).tobytes()

    def test_default_blocks_share_one_size(self):
        draws = self._draws(ModelMode.FOUR_STATE, 9)
        assert [(r.start, r.stop) for r, _ in draws.blocks(380)] == [(0, 4), (4, 8), (8, 9)]
        assert [(r.start, r.stop) for r, _ in draws.blocks(5000)] == [(i, i + 1) for i in range(9)]


class TestErrorsInBlocks:
    """The first draw that cannot be valued, in draw order, names the error, wherever it sits
    in its block; here draw 3, the second row of the second block of two."""

    @pytest.fixture
    def problem(self, scene, monkeypatch):
        monkeypatch.setattr(paramspace, "BLOCK_DRAW_DAYS", 2 * scene[0].T)
        cov, y = scene
        emission, trans, latents = small_truth()
        future = TestForecast()._future(cov, 5)
        annual = emission.annual.copy()
        annual[0, 0, 0] = 1.7e308
        bad = {
            "zero": emission.replace(level=np.array([1e200, emission.level[1]])),
            "nan": emission.replace(level=np.array([1.7e308, emission.level[1]]), annual=annual),
            "law": emission.replace(prec_base=np.array([1e8, *emission.prec_base[1:]])),
        }

        def draws(**at):
            params = [(emission, trans, latents)] * 5
            for i, kind in at.items():
                params[int(i[1:])] = (bad[kind], trans, latents)
            return _make_draws(params)

        return cov, y, future, draws

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_likelihood_names_draw_and_day(self, problem):
        cov, y, future, draws = problem
        message = r"^draw 3: zero likelihood: the filter increment is -inf on day 1 \(2021-02-01\)$"
        with pytest.raises(FloatingPointError, match=message):
            rao_blackwell_states(draws(d3="zero"), y, cov)
        with pytest.raises(FloatingPointError, match=message):
            forecast(draws(d3="zero"), y, cov, future, seed=1)

    def test_nan_likelihood_and_replicate(self, problem):
        cov, y, future, draws = problem
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="^draw 3: log likelihood is NaN$"):
                rao_blackwell_states(draws(d3="nan"), y, cov)
            with pytest.raises(FloatingPointError, match="^draw 3: log likelihood is NaN$"):
                forecast(draws(d3="nan"), y, cov, future, seed=1)
            with pytest.raises(FloatingPointError, match="^draw 3: replicate is not finite$"):
                posterior_predictive_replicates(draws(d3="nan"), y, cov, seed=1)

    def test_first_day_law(self, problem):
        cov, y, future, draws = problem
        message = "^omega1 must be symmetric positive definite$"
        with pytest.raises(np.linalg.LinAlgError, match=message):
            rao_blackwell_states(draws(d3="law"), y, cov)
        with pytest.raises(np.linalg.LinAlgError, match=message):
            forecast(draws(d3="law"), y, cov, future, seed=1)
        with pytest.raises(np.linalg.LinAlgError, match=message):
            posterior_predictive_replicates(draws(d3="law"), y, cov, seed=1)

    def test_first_failure_in_draw_order_wins(self, problem):
        cov, y, future, draws = problem
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(np.linalg.LinAlgError):
                rao_blackwell_states(draws(d2="law", d3="nan"), y, cov)
            with pytest.raises(FloatingPointError, match="^draw 2: "):
                forecast(draws(d2="nan", d3="law"), y, cov, future, seed=1)
            with pytest.raises(FloatingPointError, match="^draw 2: replicate is not finite$"):
                posterior_predictive_replicates(draws(d2="nan", d3="law"), y, cov, seed=1)


_ORDERED = st.floats(-5.0, 5.0).map(lambda x: round(x, 1))   # rounded, so ties are common
_ENTRIES = st.one_of(_ORDERED, st.sampled_from([np.inf, -np.inf, np.nan]))


class TestQuantile:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 60).flatmap(lambda m: st.lists(_ENTRIES, min_size=2 * m, max_size=2 * m)),
        st.sampled_from([0.0, 0.025, 0.25, 0.5, 0.75, 0.975, 1.0]),
    )
    def test_matches_numpy_bit_for_bit(self, values, q):
        a = np.array(values).reshape(-1, 2)
        with np.errstate(invalid="ignore"):
            want = np.quantile(a, q, axis=0)
            assert quantile(a, q).tobytes() == want.tobytes()
            for col in a.T:      # one column: a numpy float, as np.quantile gives
                got, want = quantile(col, q), np.quantile(col, q)
                assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_leaves_its_input_alone(self):
        a = np.array([[3.0], [1.0], [2.0]])
        quantile(a, 0.5)
        assert a[:, 0].tolist() == [3.0, 1.0, 2.0]
