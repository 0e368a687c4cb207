import numpy as np
import pytest

from demandhmm.paramspace import ParamSpace
from demandhmm.priors import default_hyperparameters, sample_prior
from demandhmm.states import ModelMode, logit, sigmoid


# The draws.csv header of a ParamSpace(1, 1), written out in full.
NAMES_1_1_TWO_STATE = (
    "ar_eig01_1", "ar_eig01_2", "level_1", "level_2",
    "holiday_1_1", "holiday_1_2", "holiday_1_3", "holiday_2_1", "holiday_2_2", "holiday_2_3",
    "annual_1_cos_1", "annual_1_sin_1", "annual_2_cos_1", "annual_2_sin_1",
    "weekday_1_cos_1", "weekday_1_cos_2", "weekday_1_cos_3",
    "weekday_1_sin_1", "weekday_1_sin_2", "weekday_1_sin_3",
    "weekday_2_cos_1", "weekday_2_cos_2", "weekday_2_cos_3",
    "weekday_2_sin_1", "weekday_2_sin_2", "weekday_2_sin_3",
    "weather_1_1", "weather_1_2", "weather_2_1", "weather_2_2",
    "prec_base_1", "prec_base_2", "prec_base_3",
    "prec_holiday_1", "prec_holiday_2", "prec_holiday_3",
    "prec_annual_1_cos_1", "prec_annual_1_sin_1", "prec_annual_2_cos_1",
    "prec_annual_2_sin_1", "prec_annual_3_cos_1", "prec_annual_3_sin_1",
    "mu_level", "mu_weather_1", "mu_weather_2",
    "mu_weekday_cos_1", "mu_weekday_cos_2", "mu_weekday_cos_3",
    "mu_weekday_sin_1", "mu_weekday_sin_2", "mu_weekday_sin_3",
    "mu_annual_cos_1", "mu_annual_sin_1", "mu_holiday_1", "mu_holiday_2", "mu_holiday_3",
)
NAMES_1_1_FOUR_STATE = (
    "to_pre_const", "to_pre_dist", "to_normal_const", "to_normal_days", "to_normal_eve",
    "to_post_const", "to_post_gap2",
    *NAMES_1_1_TWO_STATE[:30],
    "decay_mean_1", "decay_mean_2", "decay_prec",
    *NAMES_1_1_TWO_STATE[30:],
    "logit_decay_mean", "mu_logit_decay",
)


def _logit_idx(space):
    return [i for f in space.families if f.logit for i in range(f.slice.start, f.slice.stop)]


@pytest.fixture(scope="module")
def hyper():
    return default_hyperparameters("paper-like", k_annual=3, k_prec_annual=4)


@pytest.fixture(scope="module")
def space():
    return ParamSpace(3, 4)


class TestLayout:
    def test_names_unique_and_sized(self, space):
        assert len(space.names) == space.full_size == len(set(space.names))
        # 7 + 2 + 2 + 6 + 12 + 12 + 4 + 3 + 3 + 3 + 24 params
        # + 1 + 2 + 6 + 6 + 3 + 2 latents
        assert space.full_size == 98

    def test_two_state_drops_transition_blocks(self):
        sp = ParamSpace(3, 4, ModelMode.TWO_STATE)
        missing = {"to_pre_const", "decay_mean_1", "decay_prec", "logit_decay_mean",
                   "mu_logit_decay"}
        assert not missing & set(sp.names)
        assert sp.full_size == 98 - 12

    @pytest.mark.parametrize(
        "mode, names",
        [(ModelMode.FOUR_STATE, NAMES_1_1_FOUR_STATE), (ModelMode.TWO_STATE, NAMES_1_1_TWO_STATE)],
    )
    def test_names_pinned(self, mode, names):
        assert ParamSpace(1, 1, mode).names == names

    def test_unknown_free_family(self):
        with pytest.raises(ValueError, match="unknown free"):
            ParamSpace(3, 4, free=["levels"])


class TestPackUnpack:
    def test_round_trip(self, hyper, space):
        rng = np.random.default_rng(0)
        emission, trans, latents = sample_prior(hyper, rng)
        u = space.pack(emission, trans, latents)
        e2, t2, l2 = space.unpack(u)
        assert np.array_equal(e2.level, emission.level)
        assert np.array_equal(e2.annual, emission.annual)
        assert np.array_equal(e2.prec_annual, emission.prec_annual)
        assert t2 == trans
        assert np.array_equal(l2.mu_annual, latents.mu_annual)
        # logit-transformed entries round-trip to floating tolerance
        assert e2.ar_eig01 == pytest.approx(emission.ar_eig01, abs=1e-12)
        assert e2.decay_mean == pytest.approx(emission.decay_mean, abs=1e-12)
        assert e2.decay_prec == pytest.approx(emission.decay_prec, abs=1e-12)
        # and the vector itself round-trips exactly through unpack/pack
        assert space.pack(e2, t2, l2) == pytest.approx(u, abs=1e-12)

    @pytest.mark.parametrize("mode", list(ModelMode))
    @pytest.mark.parametrize("kg, kp", [(1, 1), (2, 5), (3, 4), (6, 12)])
    def test_pack_unpack_pack(self, mode, kg, kp):
        sp = ParamSpace(kg, kp, mode)
        hyper = default_hyperparameters("paper-like", kg, kp)
        rng = np.random.default_rng(kg * 100 + kp)
        on_logit = np.isin(np.arange(sp.full_size), _logit_idx(sp))
        for _ in range(5):
            u = sp.pack(*sample_prior(hyper, rng, mode))
            back = sp.pack(*sp.unpack(u))
            # identity coordinates are exact; logit(sigmoid(x)) == x to rounding
            assert np.array_equal(back[~on_logit], u[~on_logit])
            assert back[on_logit] == pytest.approx(u[on_logit], rel=0, abs=1e-11)

    def test_two_state_pins_are_fresh(self, hyper):
        sp = ParamSpace(3, 4, ModelMode.TWO_STATE)
        u = np.zeros(sp.full_size)
        results = [sp.unpack(u), sp.unpack(u), sample_prior(hyper, np.random.default_rng(0), sp.mode),
                   sample_prior(hyper, np.random.default_rng(1), sp.mode)]
        for emission, trans, latents in results:
            assert trans is None
            assert np.array_equal(emission.decay_mean, [0.5, 0.5])
            assert emission.decay_prec == 0.5
            assert latents.logit_decay_mean == 0.0 and latents.mu_logit_decay == 0.0
            emission.decay_mean[:] = 0.9
        assert np.array_equal(sp.unpack(u)[0].decay_mean, [0.5, 0.5])
        assert np.array_equal(sample_prior(hyper, np.random.default_rng(2), sp.mode)[0].decay_mean,
                              [0.5, 0.5])

    def test_free_rows_match_full_vectors(self, hyper):
        sp = ParamSpace(3, 4, free=["ar_eig01", "level", "decay_prec"])
        rng = np.random.default_rng(5)
        full = np.stack([sp.pack(*sample_prior(hyper, rng)) for _ in range(4)])
        rows = full[:, sp.free_idx]
        natural = sp.free_constrained(rows)
        assert np.array_equal(natural, np.stack([sp.constrained_values(u)[sp.free_idx] for u in full]))
        assert sp.free_unconstrained(natural) == pytest.approx(rows, abs=1e-9)

    def test_midpoint_maps_to_origin(self, hyper, space):
        emission, trans, latents = sample_prior(hyper, np.random.default_rng(1))
        emission = emission.replace(ar_eig01=np.array([0.5, 0.5]))
        u = space.pack(emission, trans, latents)
        assert np.all(u[space.slice("ar_eig01")] == 0.0)

    def test_constrained_values_roundtrip(self, hyper, space):
        emission, trans, latents = sample_prior(hyper, np.random.default_rng(2))
        u = space.pack(emission, trans, latents)
        values = space.constrained_values(u)
        back = space.free_unconstrained(values)      # every coordinate of this space is free
        assert back == pytest.approx(u, abs=1e-9)
        k = space.names.index("decay_prec")
        assert values[k] == pytest.approx(emission.decay_prec, abs=1e-12)


class TestJacobian:
    def test_matches_finite_differences(self, hyper, space):
        rng = np.random.default_rng(3)
        emission, trans, latents = sample_prior(hyper, rng)
        u = space.pack(emission, trans, latents)
        analytic = space.log_jacobian(u)
        h = 1e-6
        fd = 0.0
        assert len(_logit_idx(space)) == 5
        for k in _logit_idx(space):
            fd += np.log((sigmoid(u[k] + h) - sigmoid(u[k] - h)) / (2 * h))
        assert analytic == pytest.approx(float(fd), abs=1e-6)

    def test_identity_coordinates_contribute_nothing(self, space):
        u = np.zeros(space.full_size)
        base = space.log_jacobian(u)
        u2 = u.copy()
        u2[space.slice("level")] = 7.0
        assert space.log_jacobian(u2) == base


class TestFreeSubset:
    def test_extract_insert(self, hyper):
        sp = ParamSpace(3, 4, free=["level", "mu_level"])
        assert sp.free_names == ("level_1", "level_2", "mu_level")
        emission, trans, latents = sample_prior(hyper, np.random.default_rng(4))
        base = sp.pack(emission, trans, latents)
        u_free = sp.extract_free(base)
        moved = sp.insert_free(base, u_free + 1.0)
        assert np.all(moved[sp.free_idx] == u_free + 1.0)
        untouched = np.ones(sp.full_size, dtype=bool)
        untouched[sp.free_idx] = False
        assert np.array_equal(moved[untouched], base[untouched])

    def test_default_free_is_everything(self, space):
        assert space.size == space.full_size
        assert space.free_names == space.names


def test_expit_logit_inverse():
    # beyond |x| ~ 15 the (0,1) representation itself loses precision
    x = np.linspace(-15, 15, 101)
    assert logit(sigmoid(x)) == pytest.approx(x, rel=1e-8, abs=1e-8)
