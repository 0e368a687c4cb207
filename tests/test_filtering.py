import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from demandhmm.emission import build_day_tables, build_design, day_tables
from demandhmm.filtering import (
    ForwardMessages,
    _kernel_terms,
    backward_smooth,
    forward_filter,
    log_likelihood,
    log_likelihood_adjoint,
    log_likelihood_tape,
    rao_blackwell_states,
    smooth_states,
    state_slots,
    terminal_log_distribution,
    transition_terms,
)
from demandhmm.generative import simulate
from demandhmm.priors import default_hyperparameters, sample_prior
from demandhmm.states import ModelMode, log_initial_distribution, log_transition_tables

from helpers import (
    AUGMENTED_PAIRS,
    draws_from_params,
    enumeration_oracle,
    log_emission_density,
    log_kernels,
    make_cov,
    sequential_reference,
    small_truth,
)


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
        y = simulate(emission, None, cov, seed=10).y
        loglik, _ = forward_filter(y, cov, emission, None)
        oracle_ll, oracle_post = enumeration_oracle(y, cov, emission, None)
        assert abs(loglik - oracle_ll) <= 1e-10 * abs(oracle_ll)
        _, smoothed = smooth_states(y, cov, emission, None)
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


_CHRISTMAS = dt.date(2021, 12, 20)


def _allowed_states(cov, trans):
    """(T+1, 4) mask of the states each day can take."""
    allowed = np.zeros((cov.T + 1, 4), dtype=bool)
    allowed[cov.is_holiday, 1] = True
    allowed[~cov.is_holiday] = [trans is not None, False, trans is not None, True]
    return allowed


def _off_slot_pairs(cov, trans):
    """(T, 4, 4) mask of the transitions from or into a state its day cannot take."""
    allowed = _allowed_states(cov, trans)
    return ~(allowed[:-1, :, None] & allowed[1:, None, :])


class TestStateSlots:
    """The slots of holidays at the edges of a series agree with the sequential
    four-state reference of ``helpers``."""

    CALENDARS = {
        "anchor_day_holiday": [(_CHRISTMAS - dt.timedelta(days=1), 2)],
        "day_1_holiday": [(_CHRISTMAS, 2)],
        "last_day_holiday": [(_CHRISTMAS + dt.timedelta(days=11), 2)],
        "christmas_and_boxing_day": [(dt.date(2021, 12, 25), 3), (dt.date(2021, 12, 26), 3)],
        "no_holiday_after_day_0": [],
    }

    @pytest.fixture(params=list(CALENDARS), ids=list(CALENDARS))
    def calendar(self, request):
        return request.param

    @pytest.fixture(params=list(ModelMode), ids=[m.value for m in ModelMode])
    def problem(self, request, calendar):
        emission, trans, _ = small_truth()
        if request.param is ModelMode.TWO_STATE:
            trans = None
        cov = make_cov(_CHRISTMAS, 12, self.CALENDARS[calendar], rng=np.random.default_rng(6))
        y = simulate(emission, trans, cov, seed=17).y
        return y, cov, emission, trans

    def test_calendar_has_its_edge(self, calendar):
        cov = make_cov(_CHRISTMAS, 12, self.CALENDARS[calendar], rng=np.random.default_rng(6))
        hol = np.flatnonzero(cov.is_holiday)
        expected = {
            "anchor_day_holiday": [0], "day_1_holiday": [1], "last_day_holiday": [12],
            "christmas_and_boxing_day": [6, 7], "no_holiday_after_day_0": [],
        }[calendar]
        assert hol.tolist() == expected

    def test_tree_agrees_with_sequential_reference(self, problem):
        y, cov, emission, trans = problem
        ref = sequential_reference(y, cov, emission, trans)
        loglik = ref.loglik
        assert np.isfinite(loglik)
        assert log_likelihood(y, cov, emission, trans) == pytest.approx(loglik, rel=1e-12)
        tables = day_tables(emission, cov)
        _, tape = log_likelihood_tape(y, tables, transition_terms(cov, trans))
        _, pairs = log_likelihood_adjoint(tape, tables)
        tol = max(1e-9, 1e-15 * abs(loglik))
        assert pairs.shape == (cov.T, 4, 4)
        assert np.max(np.abs(pairs - ref.pairs)) <= tol
        tree_loglik, smoothed = smooth_states(y, cov, emission, trans)
        assert tree_loglik == pytest.approx(loglik, rel=1e-12)
        assert np.max(np.abs(smoothed.probs - ref.probs)) <= tol
        # the last day's filtered law: the last row's pair messages summed over the earlier state
        last = np.zeros(4)
        np.add.at(last, [c - 1 for _, c in AUGMENTED_PAIRS], np.exp(ref.log_messages[-1]))
        terminal = np.exp(terminal_log_distribution(y, cov, tables, trans))
        assert np.max(np.abs(terminal - last)) <= 1e-12

    def test_forward_filter_and_backward_smooth_answer_from_the_tree(self, problem):
        y, cov, emission, trans = problem
        loglik, messages = forward_filter(y, cov, emission, trans)
        assert loglik == log_likelihood(y, cov, emission, trans)
        probs = backward_smooth(messages, y, cov, emission, trans).probs
        assert np.array_equal(probs, smooth_states(y, cov, emission, trans)[1].probs)

    def test_slot_kernels_drop_only_states_of_zero_mass(self, problem):
        y, cov, emission, trans = problem
        tables = day_tables(emission, cov)
        logk = log_kernels(y, cov, tables, trans)      # the four states' kernels
        allowed = _allowed_states(cov, trans)
        off = _off_slot_pairs(cov, trans)
        # no transition enters a state its day cannot take, and no path reaches one
        assert np.all(logk[~allowed[1:, None, :].repeat(4, axis=1)] == -np.inf)
        assert np.all(sequential_reference(y, cov, emission, trans).pairs[off] == 0.0)
        assert np.all(np.isfinite(logk).any(axis=(1, 2)))
        # at the slots, the slot kernels are the four states' kernels
        slot_logk, (slots, *_) = _kernel_terms(y, tables, transition_terms(cov, trans))
        assert np.allclose(slot_logk, slots.gather_pairs(logk), rtol=1e-13, atol=0.0)

    def test_slots_kept_per_series_and_model(self, problem):
        _, cov, _, trans = problem
        slots = state_slots(cov, trans is not None)
        assert state_slots(cov, trans is not None) is slots
        assert state_slots(cov, trans is None) is not slots
        assert "_derived" not in repr(cov)


class TestMessages:
    def test_messages_normalised(self, setup):
        emission, trans, cov, y = setup
        loglik, msgs = forward_filter(y, cov, emission, trans)
        tot = np.exp(msgs.log_filtered).sum(axis=1)
        assert tot == pytest.approx(np.ones(cov.T), abs=1e-12)
        assert loglik == pytest.approx(msgs.lognorm.sum(), rel=1e-13)
        assert np.all(msgs.log_filtered[~cov.is_holiday[1:], 1] == -np.inf)
        # the reference's pair messages summed over the earlier state
        ref = sequential_reference(y, cov, emission, trans)
        filtered = np.zeros((cov.T, 4))
        for i, (_, c) in enumerate(AUGMENTED_PAIRS):
            filtered[:, c - 1] += np.exp(ref.log_messages[:, i])
        assert np.exp(msgs.log_filtered) == pytest.approx(filtered, abs=1e-12)

    def test_terminal_smoothed_equals_filtered(self, setup):
        emission, trans, cov, y = setup
        _, msgs = forward_filter(y, cov, emission, trans)
        smoothed = backward_smooth(msgs, y, cov, emission, trans)
        filtered = np.exp(msgs.log_filtered[-1])
        assert smoothed.probs[-1] == pytest.approx(filtered, abs=1e-12)
        terminal = np.exp(terminal_log_distribution(y, cov, day_tables(emission, cov), trans))
        assert terminal == pytest.approx(filtered, abs=1e-12)

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

    def test_backward_smooth_checks_its_messages(self, setup):
        emission, trans, cov, y = setup
        _, msgs = forward_filter(y, cov, emission, trans)
        short = ForwardMessages(msgs.log_filtered[:-1], msgs.lognorm[:-1])
        with pytest.raises(ValueError, match="series length"):
            backward_smooth(short, y, cov, emission, trans)
        y = y.copy()
        y[3, 0] = 1e200          # beyond every state's emission law
        _, msgs = forward_filter(y, cov, emission, trans)
        with pytest.raises(FloatingPointError, match=rf"day 4 \({cov.dates[3]}\)"):
            backward_smooth(msgs, y, cov, emission, trans)


class TestPairOrderInvariance:
    def test_permuted_reference_filter_agrees(self, setup):
        emission, trans, cov, y = setup
        loglik, _ = forward_filter(y, cov, emission, trans)
        design = build_design(cov, emission.k_annual, emission.k_prec_annual)
        tables = build_day_tables(emission, design)
        loglam = log_transition_tables(trans, cov.n[1:], cov.p[1:])
        logl0 = log_initial_distribution(trans, int(cov.n[0]), int(cov.p[0]))
        rng = np.random.default_rng(6)
        for _ in range(4):
            perm = rng.permutation(11)
            got = _reference_filter(
                y, loglam, logl0, tables, [AUGMENTED_PAIRS[i] for i in perm]
            )
            assert got == pytest.approx(loglik, rel=1e-12)
            assert got == pytest.approx(log_likelihood(y, cov, emission, trans), rel=1e-12)


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
        return (-math.log(2 * math.pi) + 0.5 * (tables.days[3, c, t] + tables.days[4, c, t])
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
    y = simulate(emission, trans, cov, rng).y
    if draw(st.booleans()):
        emission, prior_trans, _ = sample_prior(default_hyperparameters("paper-like", 2, 2), rng)
        trans = None if mode is ModelMode.TWO_STATE else prior_trans
    return y, cov, emission, trans


class TestFilterProperties:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_problems())
    def test_matches_reference_filter(self, problem):
        y, cov, emission, trans = problem
        loglik, _ = forward_filter(y, cov, emission, trans)
        assume(np.isfinite(loglik))
        tables = build_day_tables(emission, build_design(cov, 2, 2))
        loglam = log_transition_tables(trans, cov.n[1:], cov.p[1:])
        logl0 = log_initial_distribution(trans, int(cov.n[0]), int(cov.p[0]))
        expected = _reference_filter(y, loglam, logl0, tables, AUGMENTED_PAIRS)
        assert loglik == pytest.approx(expected, rel=1e-12)
        assert log_likelihood(y, cov, emission, trans) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_problems())
    def test_smoothed_rows_normalised_and_exact_on_holidays(self, problem):
        y, cov, emission, trans = problem
        loglik, smoothed = smooth_states(y, cov, emission, trans)
        assume(np.isfinite(loglik))
        probs = smoothed.probs
        assert probs.sum(axis=1) == pytest.approx(np.ones(cov.T + 1), abs=1e-12)
        assert np.all(probs >= 0.0)
        for i in np.flatnonzero(cov.is_holiday):
            assert np.array_equal(probs[i], [0.0, 1.0, 0.0, 0.0])
        assert np.all(probs[~cov.is_holiday, 1] == 0.0)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_problems())
    def test_smooth_states_matches_sequential_smoother(self, problem):
        y, cov, emission, trans = problem
        ref = sequential_reference(y, cov, emission, trans)
        assume(np.isfinite(ref.loglik))
        tree_loglik, smoothed = smooth_states(y, cov, emission, trans)
        assert tree_loglik == pytest.approx(ref.loglik, rel=1e-12)
        # both recursions round exponents of the size of log L
        tol = max(1e-9, 1e-15 * abs(ref.loglik))
        assert np.max(np.abs(smoothed.probs - ref.probs)) <= tol

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_problems())
    def test_tree_adjoint_is_smoothed_pair_probability(self, problem):
        # Fisher's identity: d log L / d log K_t(b, c) is the smoothed pair probability
        y, cov, emission, trans = problem
        ref = sequential_reference(y, cov, emission, trans)
        assume(np.isfinite(ref.loglik))
        tables = build_day_tables(emission, build_design(cov, 2, 2))
        _, tape = log_likelihood_tape(y, tables, transition_terms(cov, trans))
        _, xi = log_likelihood_adjoint(tape, tables)
        logk = log_kernels(y, cov, tables, trans)
        # both recursions round exponents of the size of log L
        tol = max(1e-9, 1e-15 * abs(ref.loglik))
        assert np.max(np.abs(xi - ref.pairs)) <= tol
        assert np.all(xi[logk == -np.inf] == 0.0)
        assert np.all(xi[_off_slot_pairs(cov, trans)] == 0.0)


class TestZeroLikelihood:
    """One observation far beyond every state's emission law: the likelihood is zero."""

    @pytest.fixture(scope="class")
    def zero(self):
        emission, trans, latents = small_truth()
        cov = make_cov(dt.date(2021, 3, 2), 40, [], rng=np.random.default_rng(1))
        y = simulate(emission, trans, cov, seed=3).y
        y[5, 0] = 1e200
        return emission, trans, latents, cov, y

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_likelihood_is_exactly_minus_inf(self, zero):
        emission, trans, _, cov, y = zero
        assert log_likelihood(y, cov, emission, trans) == -np.inf
        loglik, msgs = forward_filter(y, cov, emission, trans)
        assert loglik == -np.inf
        assert np.all(np.isfinite(msgs.lognorm[:5])) and msgs.lognorm[5] == -np.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_smoothing_raises_naming_the_day(self, zero):
        emission, trans, latents, cov, y = zero
        with pytest.raises(FloatingPointError, match=r"day 6 \(2021-03-07\)"):
            smooth_states(y, cov, emission, trans)
        draws = draws_from_params([(emission, trans, latents)])
        with pytest.raises(FloatingPointError, match=r"^draw 0: .*day 6 \(2021-03-07\)"):
            rao_blackwell_states(draws, y, cov)


class TestNanLikelihood:
    """A finite draw whose mean overflows gives a NaN log likelihood: a numerical failure."""

    @pytest.fixture(scope="class")
    def huge(self):
        emission, trans, latents = small_truth()
        annual = emission.annual.copy()
        annual[0, 0, 0] = 1.7e308
        return emission.replace(level=np.array([1.7e308, emission.level[1]]), annual=annual)

    def test_smoothing_and_terminal_state_raise(self, setup, huge):
        emission, trans, cov, y = setup
        latents = small_truth()[2]
        draws = draws_from_params([(emission, trans, latents), (huge, trans, latents)])
        # the overflow is the point of the test; the filter turns its NaN into the error
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="log likelihood is NaN"):
                smooth_states(y, cov, huge, trans)
            with pytest.raises(FloatingPointError, match="log likelihood is NaN"):
                log_likelihood(y, cov, huge, trans)
            with pytest.raises(FloatingPointError, match="log likelihood is NaN"):
                forward_filter(y, cov, huge, trans)
            with pytest.raises(FloatingPointError, match="log likelihood is NaN"):
                terminal_log_distribution(y, cov, day_tables(huge, cov), trans)
            with pytest.raises(FloatingPointError, match="^draw 1: log likelihood is NaN"):
                rao_blackwell_states(draws, y, cov)


class TestRaoBlackwell:
    def test_single_draw_equals_smoother(self, setup):
        emission, trans, cov, y = setup
        hyper = default_hyperparameters("paper-like", 2, 2)
        latents = sample_prior(hyper, np.random.default_rng(0))[2]
        draws = draws_from_params([(emission, trans, latents)])
        avg = rao_blackwell_states(draws, y, cov)
        _, single = smooth_states(y, cov, emission, trans)
        assert np.max(np.abs(avg.probs - single.probs)) <= 1e-12

    def test_duplicate_draws_idempotent(self, setup):
        emission, trans, cov, y = setup
        hyper = default_hyperparameters("paper-like", 2, 2)
        latents = sample_prior(hyper, np.random.default_rng(0))[2]
        draws = draws_from_params([(emission, trans, latents)] * 3)
        avg = rao_blackwell_states(draws, y, cov)
        _, single = smooth_states(y, cov, emission, trans)
        assert np.max(np.abs(avg.probs - single.probs)) <= 1e-12

    def test_rows_sum_to_one(self, setup):
        emission, trans, cov, y = setup
        hyper = default_hyperparameters("paper-like", 2, 2)
        rng = np.random.default_rng(13)
        params = [sample_prior(hyper, rng) for _ in range(10)]
        draws = draws_from_params(params)
        avg = rao_blackwell_states(draws, y, cov)
        assert avg.probs.sum(axis=1) == pytest.approx(np.ones(cov.T + 1), abs=1e-9)
        assert np.all(avg.probs >= 0.0)
