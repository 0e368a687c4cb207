import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from demandhmm.emission import build_day_tables, build_design, log_emission_density
from demandhmm.filtering import (
    backward_smooth,
    forward_filter,
    rao_blackwell_states,
    smooth_states,
)
from demandhmm.generative import simulate
from demandhmm.paramspace import ParamSpace
from demandhmm.priors import default_hyperparameters, sample_prior
from demandhmm.sampler import PosteriorDraws
from demandhmm.states import (
    AUGMENTED_PAIRS,
    ModelMode,
    log_initial_distribution,
    log_transition_tables,
)

from helpers import enumeration_oracle, make_cov, small_truth


@pytest.fixture(scope="module")
def setup():
    emission, trans, _ = small_truth()
    cov = make_cov(
        dt.date(2021, 3, 2), 8,
        [(dt.date(2021, 3, 5), 2), (dt.date(2021, 3, 6), 2)],
        rng=np.random.default_rng(1),
    )
    y = simulate(emission, trans, cov, seed=5).y
    return emission, trans, cov, y


class TestFilterVsEnumeration:
    @pytest.mark.parametrize("holidays", [
        [],
        [(dt.date(2021, 3, 4), 1)],
        [(dt.date(2021, 3, 2), 3)],
        [(dt.date(2021, 3, 3), 2), (dt.date(2021, 3, 4), 3)],
        [(dt.date(2021, 3, 2), 1), (dt.date(2021, 3, 6), 2)],
    ])
    def test_small_instances(self, holidays):
        emission, trans, _ = small_truth()
        cov = make_cov(dt.date(2021, 3, 2), 5, holidays, rng=np.random.default_rng(2))
        y = simulate(emission, trans, cov, seed=9).y
        loglik, _ = forward_filter(y, cov, emission, trans)
        oracle_ll, oracle_post = enumeration_oracle(y, cov, emission, trans)
        assert abs(loglik - oracle_ll) <= 1e-10 * abs(oracle_ll)
        _, smoothed = smooth_states(y, cov, emission, trans)
        assert np.max(np.abs(smoothed.probs - oracle_post)) <= 1e-10

    def test_two_state_mode(self):
        emission, _, _ = small_truth()
        cov = make_cov(
            dt.date(2021, 3, 2), 6, [(dt.date(2021, 3, 4), 2)], rng=np.random.default_rng(3)
        )
        y = simulate(emission, None, cov, seed=10, mode=ModelMode.TWO_STATE).y
        loglik, _ = forward_filter(y, cov, emission, None, ModelMode.TWO_STATE)
        oracle_ll, oracle_post = enumeration_oracle(y, cov, emission, None, ModelMode.TWO_STATE)
        assert abs(loglik - oracle_ll) <= 1e-10 * abs(oracle_ll)
        _, smoothed = smooth_states(y, cov, emission, None, ModelMode.TWO_STATE)
        assert np.max(np.abs(smoothed.probs - oracle_post)) <= 1e-12


class TestDegenerateChains:
    def test_all_days_holidays(self):
        emission, trans, _ = small_truth()
        start = dt.date(2021, 3, 2)
        holidays = [(start + dt.timedelta(days=i), 3) for i in range(-1, 6)]
        cov = make_cov(start, 5, holidays, rng=np.random.default_rng(4))
        assert np.all(cov.is_holiday)
        y = simulate(emission, trans, cov, seed=11).y
        loglik, _ = forward_filter(y, cov, emission, trans)
        expected = log_emission_density(y[0], None, 2, None, emission, cov.day(1), None)
        for t in range(2, 6):
            expected += log_emission_density(
                y[t - 1], y[t - 2], 2, 2, emission, cov.day(t), cov.day(t - 1)
            )
        assert loglik == pytest.approx(expected, rel=1e-12)

    def test_holiday_smoothed_exact(self, setup):
        emission, trans, cov, y = setup
        _, smoothed = smooth_states(y, cov, emission, trans)
        for i in np.flatnonzero(cov.is_holiday):
            assert np.array_equal(smoothed.probs[i], [0.0, 1.0, 0.0, 0.0])

    def test_structural_zeros_in_smoothed(self, setup):
        emission, trans, cov, y = setup
        _, smoothed = smooth_states(y, cov, emission, trans)
        hol = cov.is_holiday
        assert np.all(smoothed.probs[~hol, 1] == 0.0)
        day_after = (~hol) & (cov.p == 1)
        assert np.all(smoothed.probs[day_after, 0] == 0.0)


class TestMessages:
    def test_messages_normalised(self, setup):
        emission, trans, cov, y = setup
        loglik, msgs = forward_filter(y, cov, emission, trans)
        tot = np.exp(msgs.log_messages).sum(axis=1)
        assert tot == pytest.approx(np.ones(cov.T), abs=1e-12)
        assert loglik == pytest.approx(msgs.lognorm.sum(), rel=1e-13)

    def test_terminal_smoothed_equals_filtered(self, setup):
        emission, trans, cov, y = setup
        _, msgs = forward_filter(y, cov, emission, trans)
        smoothed = backward_smooth(msgs, y, cov, emission, trans)
        filtered = np.zeros(4)
        for i, (_, b) in enumerate(AUGMENTED_PAIRS):
            filtered[b - 1] += math.exp(msgs.log_messages[-1, i])
        assert smoothed.probs[-1] == pytest.approx(filtered, abs=1e-12)

    def test_information_bound(self, setup):
        # each day's log-likelihood increment cannot exceed that day's best
        # emission density over admissible pairs
        emission, trans, cov, y = setup
        _, msgs = forward_filter(y, cov, emission, trans)
        for t in range(2, cov.T + 1):
            best = -np.inf
            for b in (1, 2, 3, 4):
                for c in (1, 2, 3, 4):
                    try:
                        best = max(best, log_emission_density(
                            y[t - 1], y[t - 2], c, b, emission, cov.day(t), cov.day(t - 1)
                        ))
                    except ValueError:
                        pass
            assert msgs.lognorm[t - 1] <= best + 1e-9

    def test_rejects_nan_input(self, setup):
        emission, trans, cov, y = setup
        bad = y.copy()
        bad[2, 0] = np.nan
        with pytest.raises(ValueError):
            forward_filter(bad, cov, emission, trans)

    def test_rejects_misaligned_input(self, setup):
        emission, trans, cov, y = setup
        with pytest.raises(ValueError):
            forward_filter(y[:-1], cov, emission, trans)


class TestPairOrderInvariance:
    def test_permuted_reference_filter_agrees(self, setup):
        emission, trans, cov, y = setup
        loglik, _ = forward_filter(y, cov, emission, trans)
        design = build_design(cov, emission.k_annual, emission.k_prec_annual)
        tables = build_day_tables(emission, design)
        loglam = log_transition_tables(trans, cov.n[1:], cov.p[1:])
        logl0 = log_initial_distribution(int(cov.n[0]), int(cov.p[0]))
        rng = np.random.default_rng(6)
        for _ in range(4):
            perm = rng.permutation(11)
            got = _reference_filter(
                y, loglam, logl0, tables, [AUGMENTED_PAIRS[i] for i in perm]
            )
            assert got == pytest.approx(loglik, rel=1e-12)


def _reference_filter(y, loglam, logl0, tables, pairs):
    """Order-agnostic reimplementation of the forward recursion."""
    def emis(t, b, c):
        if t == 0:
            e = y[0] - tables.mu[0, c]
            quad = e @ tables.v_inv[c] @ e
            return -math.log(2 * math.pi) - 0.5 * tables.v_logdet[c] - 0.5 * quad
        d = y[t - 1] - tables.mu[t - 1, b]
        e = y[t] - tables.mu[t, c] - tables.psi @ d
        u2 = e[1] - tables.phi[t, c] * e[0]
        return (-math.log(2 * math.pi) + 0.5 * (tables.ltau1[t, c] + tables.ltau2[t, c])
                - 0.5 * (tables.tau1[t, c] * e[0] ** 2 + tables.tau2[t, c] * u2 ** 2))

    msg = {}
    for (a, b) in pairs:
        v = logl0[a - 1] + loglam[0, a - 1, b - 1]
        msg[(a, b)] = v + emis(0, a - 1, b - 1) if v > -np.inf else -np.inf
    if y.shape[0] == 1:
        mx = max(msg.values())
        return mx + math.log(sum(math.exp(v - mx) for v in msg.values() if v > -np.inf))
    total = 0.0
    for t in range(1, y.shape[0]):
        new = {}
        for (b, c) in pairs:
            acc = -np.inf
            for (a2, b2) in pairs:
                if b2 != b or msg[(a2, b2)] == -np.inf:
                    continue
                acc = np.logaddexp(acc, msg[(a2, b2)])
            lam = loglam[t, b - 1, c - 1]
            if acc == -np.inf or lam == -np.inf:
                new[(b, c)] = -np.inf
            else:
                new[(b, c)] = acc + lam + emis(t, b - 1, c - 1)
        mx = max(new.values())
        step = mx + math.log(sum(math.exp(v - mx) for v in new.values() if v > -np.inf))
        total += step
        msg = {k: v - step for k, v in new.items()}
    return total


_START = dt.date(2021, 3, 2)


@st.composite
def _problems(draw):
    """A short calendar, a series simulated at truth, and the truth or a prior draw."""
    n_days = draw(st.integers(1, 10))
    offsets = draw(st.sets(st.integers(-1, n_days - 1), max_size=4))
    holidays = [(_START + dt.timedelta(days=o), draw(st.integers(1, 3))) for o in sorted(offsets)]
    mode = draw(st.sampled_from(list(ModelMode)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    cov = make_cov(_START, n_days, holidays, rng=rng)
    emission, trans, _ = small_truth()
    if mode is ModelMode.TWO_STATE:
        trans = None
    y = simulate(emission, trans, cov, rng, mode).y
    if draw(st.booleans()):
        emission, prior_trans, _ = sample_prior(default_hyperparameters("paper-like", 2, 2), rng)
        trans = None if mode is ModelMode.TWO_STATE else prior_trans
    return y, cov, emission, trans, mode


class TestFilterProperties:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_problems())
    def test_matches_reference_filter(self, problem):
        y, cov, emission, trans, mode = problem
        loglik, _ = forward_filter(y, cov, emission, trans, mode)
        assume(np.isfinite(loglik))
        tables = build_day_tables(emission, build_design(cov, 2, 2))
        loglam = log_transition_tables(trans, cov.n[1:], cov.p[1:], mode)
        logl0 = log_initial_distribution(int(cov.n[0]), int(cov.p[0]), mode)
        expected = _reference_filter(y, loglam, logl0, tables, AUGMENTED_PAIRS)
        assert loglik == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_problems())
    def test_smoothed_rows_normalised_and_exact_on_holidays(self, problem):
        y, cov, emission, trans, mode = problem
        loglik, smoothed = smooth_states(y, cov, emission, trans, mode)
        assume(np.isfinite(loglik))
        probs = smoothed.probs
        assert probs.sum(axis=1) == pytest.approx(np.ones(cov.T + 1), abs=1e-12)
        assert np.all(probs >= 0.0)
        for i in np.flatnonzero(cov.is_holiday):
            assert np.array_equal(probs[i], [0.0, 1.0, 0.0, 0.0])
        assert np.all(probs[~cov.is_holiday, 1] == 0.0)


class TestRaoBlackwell:
    def _draws_from_params(self, params_list, k=2, kp=2):
        space = ParamSpace(k, kp)
        rows = [space.pack(e, t, l) for e, t, l in params_list]
        return PosteriorDraws(
            free_draws=np.asarray(rows),
            logpost=np.zeros(len(rows)),
            chain=np.zeros(len(rows), dtype=np.int64),
            iteration=np.arange(len(rows), dtype=np.int64),
            space=space,
            base_full=np.zeros(space.full_size),
        )

    def test_single_draw_equals_smoother(self, setup):
        emission, trans, cov, y = setup
        hyper = default_hyperparameters("paper-like", 2, 2)
        latents = sample_prior(hyper, np.random.default_rng(0))[2]
        draws = self._draws_from_params([(emission, trans, latents)])
        avg = rao_blackwell_states(draws, y, cov)
        _, single = smooth_states(y, cov, emission, trans)
        assert np.max(np.abs(avg.probs - single.probs)) <= 1e-12

    def test_duplicate_draws_idempotent(self, setup):
        emission, trans, cov, y = setup
        hyper = default_hyperparameters("paper-like", 2, 2)
        latents = sample_prior(hyper, np.random.default_rng(0))[2]
        draws = self._draws_from_params([(emission, trans, latents)] * 3)
        avg = rao_blackwell_states(draws, y, cov)
        _, single = smooth_states(y, cov, emission, trans)
        assert np.max(np.abs(avg.probs - single.probs)) <= 1e-12

    def test_rows_sum_to_one(self, setup):
        emission, trans, cov, y = setup
        hyper = default_hyperparameters("paper-like", 2, 2)
        rng = np.random.default_rng(13)
        params = [sample_prior(hyper, rng) for _ in range(10)]
        draws = self._draws_from_params(params)
        avg = rao_blackwell_states(draws, y, cov)
        assert avg.probs.sum(axis=1) == pytest.approx(np.ones(cov.T + 1), abs=1e-9)
        assert np.all(avg.probs >= 0.0)
