import math

import numpy as np
import pytest

from demandhmm.states import (
    LOGIT_CLAMP,
    TransitionParams,
    initial_distribution,
    log_initial_distribution,
    log_sigmoid_pair,
    log_transition_tables,
    sigmoid,
    transition_matrix,
)

from helpers import (
    AUGMENTED_PAIRS,
    augmented_transition_matrix,
    logit_post_entry,
    logit_post_exit,
    logit_pre_entry,
)


def _trans(**kw):
    base = dict(
        to_pre_const=0.0, to_pre_dist=0.0, to_normal_const=0.0, to_normal_days=0.0,
        to_normal_eve=0.0, to_post_const=0.0, to_post_gap2=0.0,
    )
    base.update(kw)
    return TransitionParams(**base)


def _random_trans(rng):
    return TransitionParams.from_array(rng.uniform(-10, 10, size=7))


class TestLogits:
    def test_pre_entry_offset_cancels_at_one_day(self):
        t = _trans(to_pre_const=-2.0, to_pre_dist=-3.0)
        assert logit_pre_entry(t, 1) == -2.0

    def test_pre_entry_direct_value(self):
        t = _trans(to_pre_const=-2.0, to_pre_dist=-3.0)
        logit = logit_pre_entry(t, 5)
        assert logit == pytest.approx(-2.0 - 3.0 * 2.0 / 10.0, abs=1e-15)
        assert float(sigmoid(logit)) == pytest.approx(1.0 / (1.0 + math.exp(2.6)), rel=1e-12)

    def test_pre_entry_constant_when_slope_zero(self):
        t = _trans(to_pre_const=-1.2)
        assert logit_pre_entry(t, 2) == logit_pre_entry(t, 40) == -1.2

    def test_pre_entry_rejects_holiday(self):
        with pytest.raises(ValueError):
            logit_pre_entry(_trans(), 0)

    def test_post_exit_offset_cancels_at_two_days(self):
        t = _trans(to_normal_const=1.0)
        assert logit_post_exit(t, 5, 2) == 1.0

    def test_post_exit_direct_value(self):
        t = _trans(to_normal_const=1.0, to_normal_days=2.0, to_normal_eve=-0.5)
        assert logit_post_exit(t, 1, 6) == pytest.approx(1.0 + 2.0 * 2.0 / 10.0 - 0.5, abs=1e-15)

    def test_post_exit_certain_for_long_stays(self):
        t = _trans(to_normal_days=30.0)
        assert float(sigmoid(logit_post_exit(t, 9, 500))) == pytest.approx(1.0, abs=1e-12)

    def test_post_exit_rejects_small_p(self):
        with pytest.raises(ValueError):
            logit_post_exit(_trans(), 3, 1)

    def test_post_entry_values(self):
        assert float(sigmoid(logit_post_entry(_trans(), 5))) == 0.5
        t = _trans(to_post_const=-1.0, to_post_gap2=2.0)
        assert float(sigmoid(logit_post_entry(t, 2))) == pytest.approx(
            1.0 / (1.0 + math.exp(-1.0)), rel=1e-12
        )
        assert logit_post_entry(t, 3) == -1.0

    def test_sigmoid_overflow_safe(self):
        # logits are clamped at +/-35, costing less than 1e-15 in probability
        assert float(sigmoid(1e3)) == pytest.approx(1.0, abs=1e-15)
        assert 0.0 <= float(sigmoid(-1e3)) <= 1e-15
        assert np.isfinite(sigmoid(np.array([-1e3, -35.0, 0.0, 35.0, 1e3]))).all()

    def test_log_sigmoid_pair_has_the_bits_of_two_one_sided_calls(self):
        def one_sided(x):   # log(sigmoid(x)) as two branches, one call per sign
            x = np.clip(x, -LOGIT_CLAMP, LOGIT_CLAMP)
            return np.where(x >= 0, -np.log1p(np.exp(-x)), x - np.log1p(np.exp(x)))

        rng = np.random.default_rng(12)
        edges = [0.0, -0.0, 5e-324, -5e-324, 700.0, -700.0, 35.0, -35.0,
                 np.nextafter(35.0, 0.0), np.nextafter(35.0, 36.0), 1e-300, -1e-300]
        x = np.concatenate([
            edges,
            rng.uniform(-40.0, 40.0, 500_000),
            rng.standard_normal(250_000) * 1e-3,
            rng.uniform(-800.0, 800.0, 250_000 - len(edges)),
        ])
        up, down = log_sigmoid_pair(x)
        assert up.tobytes() == one_sided(x).tobytes()
        assert down.tobytes() == one_sided(-x).tobytes()


class TestTransitionMatrix:
    def test_holiday_forces_state_two(self):
        mat = transition_matrix(_random_trans(np.random.default_rng(0)), 0, 0)
        assert np.array_equal(mat, np.tile([0.0, 1.0, 0.0, 0.0], (4, 1)))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = _random_trans(rng)
            n, p = int(rng.integers(0, 40)), int(rng.integers(0, 40))
            if (n == 0) != (p == 0):
                n = max(n, 1)
                p = max(p, 1)
            mat = transition_matrix(t, n, p)
            assert np.all(np.abs(mat.sum(axis=1) - 1.0) <= 1e-15)
            assert np.all(mat >= 0.0) and np.all(mat <= 1.0)

    def test_structural_zeros(self):
        mat = transition_matrix(_random_trans(np.random.default_rng(2)), 4, 9)
        for i, j in ((0, 2), (0, 3), (1, 0), (2, 0), (3, 2)):
            assert mat[i, j] == 0.0
        assert np.all(mat[:, 1] == 0.0)  # state 2 unreachable off-holiday

    def test_pre_holiday_state_absorbing(self):
        mat = transition_matrix(_random_trans(np.random.default_rng(3)), 7, 3)
        assert mat[0, 0] == 1.0

    def test_suppressed_entry_limit(self):
        mat = transition_matrix(_trans(to_pre_const=-34.0), 5, 5)
        assert mat[3, 0] < 1e-14
        assert mat[3, 3] > 1.0 - 1e-14

    def test_two_state_collapse(self):
        mat = transition_matrix(None, 4, 9)
        assert np.array_equal(mat, np.tile([0.0, 0.0, 0.0, 1.0], (4, 1)))
        hol = transition_matrix(None, 0, 0)
        assert np.array_equal(hol, np.tile([0.0, 1.0, 0.0, 0.0], (4, 1)))

    def test_small_p_rows_are_safe(self):
        # row 3 carries zero mass at p < 2 but must stay finite and stochastic
        for n, p in ((0, 5), (5, 0), (3, 1), (1, 1)):
            mat = transition_matrix(_random_trans(np.random.default_rng(6)), n, p)
            assert np.all(np.isfinite(mat))
            assert np.all(np.abs(mat.sum(axis=1) - 1.0) <= 1e-15)


class TestInitialDistribution:
    def test_holiday(self):
        assert np.array_equal(initial_distribution(_trans(), 0, 0), [0.0, 1.0, 0.0, 0.0])

    def test_non_holiday_uniform_over_hidden(self):
        got = initial_distribution(_trans(), 4, 2)
        assert np.allclose(got, [1 / 3, 0.0, 1 / 3, 1 / 3])

    def test_sums_to_one(self):
        for n, p in ((0, 0), (1, 8), (30, 2)):
            for trans in (_trans(), None):
                assert initial_distribution(trans, n, p).sum() == pytest.approx(1.0, abs=1e-15)

    def test_two_state_point_mass(self):
        assert np.array_equal(
            initial_distribution(None, 4, 2), [0.0, 0.0, 0.0, 1.0]
        )


class TestAugmented:
    def test_pair_count_and_order(self):
        assert len(AUGMENTED_PAIRS) == 11
        assert AUGMENTED_PAIRS == (
            (1, 1), (1, 2), (2, 2), (2, 3), (2, 4),
            (3, 2), (3, 3), (3, 4), (4, 1), (4, 2), (4, 4),
        )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        for n, p in ((0, 0), (1, 3), (6, 2), (2, 9)):
            aug = augmented_transition_matrix(_random_trans(rng), n, p)
            assert np.all(np.abs(aug.sum(axis=1) - 1.0) <= 1e-14)

    def test_entries_follow_base_chain(self):
        rng = np.random.default_rng(8)
        t = _random_trans(rng)
        lam = transition_matrix(t, 5, 4)
        aug = augmented_transition_matrix(t, 5, 4)
        for i, (_, b) in enumerate(AUGMENTED_PAIRS):
            for j, (b2, c) in enumerate(AUGMENTED_PAIRS):
                expected = lam[b - 1, c - 1] if b == b2 else 0.0
                assert aug[i, j] == expected

    def test_marginalisation_recovers_base_chain(self):
        rng = np.random.default_rng(9)
        t = _random_trans(rng)
        for n, p in ((4, 7), (0, 0), (1, 2)):
            aug = augmented_transition_matrix(t, n, p)
            lam = transition_matrix(t, n, p)
            dist = rng.random(11)
            dist /= dist.sum()
            marg = np.zeros(4)
            for i, (_, b) in enumerate(AUGMENTED_PAIRS):
                marg[b - 1] += dist[i]
            via_aug = np.zeros(4)
            stepped = dist @ aug
            for j, (_, c) in enumerate(AUGMENTED_PAIRS):
                via_aug[c - 1] += stepped[j]
            assert np.allclose(via_aug, marg @ lam, atol=1e-14)

    def test_pair_from_pre_holiday(self):
        t = _random_trans(np.random.default_rng(10))
        i = AUGMENTED_PAIRS.index((4, 1))
        # non-holiday day: the pre-holiday state is absorbing
        aug = augmented_transition_matrix(t, 1, 5)
        assert aug[i, AUGMENTED_PAIRS.index((1, 1))] == 1.0
        # holiday day: forced into state 2
        aug_hol = augmented_transition_matrix(t, 0, 0)
        assert aug_hol[i, AUGMENTED_PAIRS.index((1, 2))] == 1.0


class TestLogTables:
    def test_matches_scalar_matrices(self):
        rng = np.random.default_rng(11)
        t = _random_trans(rng)
        n = np.array([3, 2, 1, 0, 5, 4])
        p = np.array([4, 5, 6, 0, 1, 2])
        for trans in (t, None):
            tables = log_transition_tables(trans, n, p)
            for i in range(len(n)):
                mat = transition_matrix(trans, int(n[i]), int(p[i]))
                with np.errstate(divide="ignore"):
                    expected = np.log(mat)
                assert np.allclose(tables[i], expected, atol=1e-12, equal_nan=False)

    def test_log_initial(self):
        got = log_initial_distribution(_trans(), 3, 9)
        assert got[1] == -np.inf
        assert np.allclose(np.exp(got[[0, 2, 3]]), 1 / 3)
