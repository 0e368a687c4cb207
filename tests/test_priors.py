import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from demandhmm.paramspace import ParamSpace
from demandhmm.priors import (
    ConfigError,
    Hyperparameters,
    assemble_params,
    config_keys,
    default_hyperparameters,
    hyperparameters_from_config,
    load_hyperparameters,
    log_prior,
    log_prior_grad,
    parse_config,
    sample_prior,
    sample_prior_batch,
)
from demandhmm.states import ModelMode


@pytest.fixture(scope="module")
def hyper():
    return default_hyperparameters("paper-like", k_annual=3, k_prec_annual=4)


class TestHyperparameters:
    def test_presets_valid(self):
        for mode in ("weak", "paper-like"):
            h = default_hyperparameters(mode)
            assert h.v_trans.max() <= 1.0
            assert np.all(np.diff(h.v_annual) <= 0.0)

    def test_weak_preset_at_unimodality_bound(self):
        h = default_hyperparameters("weak")
        assert np.all(h.v_trans == 1.0)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            default_hyperparameters("vague")

    def test_transition_variance_guard(self):
        h = default_hyperparameters("weak")
        kw = {f.name: getattr(h, f.name) for f in h.__dataclass_fields__.values()}
        kw["v_trans"] = np.full(7, 1.5)
        with pytest.raises(ConfigError, match="bimodal"):
            Hyperparameters(**kw)

    def test_annual_variances_must_decay(self):
        h = default_hyperparameters("weak")
        kw = {f.name: getattr(h, f.name) for f in h.__dataclass_fields__.values()}
        kw["v_annual"] = np.array([0.1, 0.5, 0.2, 0.1, 0.05, 0.02])
        with pytest.raises(ConfigError, match="non-increasing"):
            Hyperparameters(**kw)

    def test_correlations_in_unit_interval(self):
        h = default_hyperparameters("weak")
        kw = {f.name: getattr(h, f.name) for f in h.__dataclass_fields__.values()}
        kw["r_level"] = 1.0
        with pytest.raises(ConfigError):
            Hyperparameters(**kw)

    def test_holiday_cov_compound_symmetric(self):
        h = default_hyperparameters("weak")
        v = h.holiday_cov()
        assert np.allclose(np.diag(v), h.v_holiday)
        off = v[~np.eye(3, dtype=bool)]
        assert np.allclose(off, h.v_holiday * h.c_holiday)
        assert np.all(np.linalg.eigvalsh(v) > 0)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text(
            "# comment line\n"
            "preset = weak\n"
            "k_annual = 3\n"
            "k_prec_annual = 4\n"
            "m_level = 3.4\n"
            "v_annual = 0.5, 0.25, 0.125\n"
            "r_decay_1 = 0.6\n"
        )
        h = load_hyperparameters(path)
        assert h.k_annual == 3 and h.k_prec_annual == 4
        assert h.m_level == 3.4
        assert np.allclose(h.v_annual, [0.5, 0.25, 0.125])
        assert h.r_decay_1 == 0.6
        # untouched keys fall back to the preset
        assert h.r_level == default_hyperparameters("weak").r_level

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("nu_variance = 1.0\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("m_level = 1\nm_level = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_bad_number_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("m_level = three\n")
        with pytest.raises(ConfigError, match="bad number"):
            parse_config(path)

    def test_comma_list_only_for_harmonic_keys(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("k_annual = 2\nv_annual = 0.5, 0.25\nm_level = 1, 2\n")
        with pytest.raises(ConfigError, match="3: bad number for 'm_level'"):
            parse_config(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("m_level 3\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(path)

    def test_config_keys_pinned(self):
        assert config_keys() == (
            "preset", "k_annual", "k_prec_annual",
            "m_to_pre_const", "m_to_pre_dist", "m_to_normal_const", "m_to_normal_days",
            "m_to_normal_eve", "m_to_post_const", "m_to_post_gap2",
            "v_to_pre_const", "v_to_pre_dist", "v_to_normal_const", "v_to_normal_days",
            "v_to_normal_eve", "v_to_post_const", "v_to_post_gap2",
            "a_ar_1", "a_ar_2", "b_ar_1", "b_ar_2",
            "m_level", "v_level", "r_level",
            "m_weather_1", "m_weather_2", "v_weather_1", "v_weather_2",
            "r_weather_1", "r_weather_2",
            "v_weekday", "r_weekday", "v_annual", "r_annual",
            "v_holiday", "c_holiday", "r_holiday",
            "m_decay", "v_decay", "r_decay_1", "r_decay_2",
            "m_prec_base_1", "m_prec_base_2", "m_prec_base_3",
            "v_prec_base_1", "v_prec_base_2", "v_prec_base_3",
            "v_prec_holiday_1", "v_prec_holiday_2", "v_prec_holiday_3",
            "v_prec_annual_1", "v_prec_annual_2", "v_prec_annual_3",
        )

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Configuration file", 1)[1].split("```")[1]
        assert tuple(block.replace(",", " ").split()) == config_keys()

    def test_overrides_land_in_their_fields(self):
        h = hyperparameters_from_config({
            "preset": "weak", "k_annual": 2, "k_prec_annual": 3,
            "v_to_normal_eve": 0.25, "b_ar_2": 3.0, "r_weather_1": 0.75, "r_decay_2": 0.125,
            "v_prec_holiday_3": 4.0, "v_annual": (0.5, 0.25), "v_prec_annual_2": (3.0, 2.0, 1.0),
        })
        base = default_hyperparameters("weak", 2, 3)
        assert h.v_trans[4] == 0.25 and h.b_ar.tolist() == [base.b_ar[0], 3.0]
        assert h.r_weather.tolist() == [0.75, base.r_weather[1]] and h.r_decay_2 == 0.125
        assert h.v_prec_holiday.tolist() == [1.0, 1.0, 4.0]
        assert h.v_annual.tolist() == [0.5, 0.25]
        assert h.v_prec_annual[1].tolist() == [3.0, 2.0, 1.0]
        assert np.array_equal(h.v_prec_annual[[0, 2]], base.v_prec_annual[[0, 2]])
        assert h.m_trans.tolist() == base.m_trans.tolist()

    @pytest.mark.parametrize(
        "key, value",
        [("k_annual", 2.7), ("k_prec_annual", 0), ("k_annual", -1.0), ("k_prec_annual", (2.0, 3.0)),
         ("k_annual", float("nan"))],
    )
    def test_harmonic_counts_must_be_whole_and_positive(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be a whole number >= 1"):
            hyperparameters_from_config({key: value})

    @pytest.mark.parametrize("line, name", [
        ("v_level = nan", "v_level"), ("m_level = inf", "m_level"),
        ("r_holiday = nan", "r_holiday"), ("m_prec_base_2 = -inf", "m_prec_base"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, line, name):
        path = tmp_path / "config.txt"
        path.write_text(f"preset = paper-like\n{line}\n")
        with pytest.raises(ConfigError, match=f"^{name} must be finite"):
            load_hyperparameters(path)

    def test_whole_float_harmonic_count_accepted(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("k_annual = 2.0\nk_prec_annual = 1\n")
        h = load_hyperparameters(path)
        assert (h.k_annual, h.k_prec_annual) == (2, 1)
        assert type(h.k_annual) is int and h.v_prec_annual.shape == (3, 1)

    def test_every_documented_key_parses(self, tmp_path):
        h = default_hyperparameters("paper-like")
        lines = []
        for key in config_keys():
            if key == "preset":
                lines.append("preset = paper-like")
            elif key == "k_annual":
                lines.append("k_annual = 6")
            elif key == "k_prec_annual":
                lines.append("k_prec_annual = 12")
            elif key == "v_annual":
                lines.append("v_annual = " + ",".join(str(v) for v in h.v_annual))
            elif key.startswith("v_prec_annual_"):
                i = int(key[-1]) - 1
                lines.append(f"{key} = " + ",".join(str(v) for v in h.v_prec_annual[i]))
            elif key.startswith("m_to_") or key.startswith("v_to_"):
                lines.append(f"{key} = 0.5")
            else:
                lines.append(f"{key} = 0.5")
        path = tmp_path / "config.txt"
        path.write_text("\n".join(lines))
        hyperparameters_from_config(parse_config(path))


def _oracle_log_prior(emission, trans, latents, hyper):
    """Independent recomputation of the joint prior density with scipy."""
    lp = 0.0
    lp += stats.norm.logpdf(trans.as_array(), hyper.m_trans, np.sqrt(hyper.v_trans)).sum()
    lp += stats.beta.logpdf(emission.ar_eig01, hyper.a_ar, hyper.b_ar).sum()
    lp += stats.norm.logpdf(
        latents.mu_level, hyper.m_level, math.sqrt(hyper.r_level * hyper.v_level)
    )
    lp += stats.norm.logpdf(
        emission.level, latents.mu_level, math.sqrt((1 - hyper.r_level) * hyper.v_level)
    ).sum()
    for i in range(2):
        lp += stats.norm.logpdf(
            latents.mu_weather[i], hyper.m_weather[i],
            math.sqrt(hyper.r_weather[i] * hyper.v_weather[i]),
        )
        lp += stats.norm.logpdf(
            emission.weather[:, i], latents.mu_weather[i],
            math.sqrt((1 - hyper.r_weather[i]) * hyper.v_weather[i]),
        ).sum()
    lp += stats.norm.logpdf(
        latents.mu_weekday, 0.0, math.sqrt(hyper.r_weekday * hyper.v_weekday)
    ).sum()
    lp += stats.norm.logpdf(
        emission.weekday, latents.mu_weekday[None], math.sqrt((1 - hyper.r_weekday) * hyper.v_weekday)
    ).sum()
    for k in range(hyper.k_annual):
        lp += stats.norm.logpdf(
            latents.mu_annual[:, k], 0.0, math.sqrt(hyper.r_annual * hyper.v_annual[k])
        ).sum()
        lp += stats.norm.logpdf(
            emission.annual[:, :, k], latents.mu_annual[None, :, k],
            math.sqrt((1 - hyper.r_annual) * hyper.v_annual[k]),
        ).sum()
    v_beta = hyper.holiday_cov()
    lp += stats.multivariate_normal.logpdf(
        latents.mu_holiday, np.zeros(3), hyper.r_holiday * v_beta
    )
    for j in range(2):
        lp += stats.multivariate_normal.logpdf(
            emission.holiday[j], latents.mu_holiday, (1 - hyper.r_holiday) * v_beta
        )
    v, r1, r2 = hyper.v_decay, hyper.r_decay_1, hyper.r_decay_2
    lrho = np.log(emission.decay_mean) - np.log1p(-emission.decay_mean)
    lrho_p = math.log(emission.decay_prec) - math.log1p(-emission.decay_prec)
    lp += stats.norm.logpdf(latents.mu_logit_decay, hyper.m_decay, math.sqrt(r1 * r2 * v))
    lp += stats.norm.logpdf(
        latents.logit_decay_mean, latents.mu_logit_decay, math.sqrt((1 - r2) * r1 * v)
    )
    lp += stats.norm.logpdf(lrho_p, latents.mu_logit_decay, math.sqrt((1 - r2) * r1 * v))
    lp += stats.norm.logpdf(lrho, latents.logit_decay_mean, math.sqrt((1 - r1) * v)).sum()
    # density with respect to the decay values themselves
    for x in (*emission.decay_mean, emission.decay_prec):
        lp += -math.log(x) - math.log1p(-x)
    lp += stats.norm.logpdf(emission.prec_base, hyper.m_prec_base, np.sqrt(hyper.v_prec_base)).sum()
    lp += stats.norm.logpdf(emission.prec_holiday, 0.0, np.sqrt(hyper.v_prec_holiday)).sum()
    lp += stats.norm.logpdf(
        emission.prec_annual, 0.0, np.sqrt(hyper.v_prec_annual)[:, None, :]
    ).sum()
    return float(lp)


class TestLogPrior:
    def test_matches_independent_oracle(self, hyper):
        rng = np.random.default_rng(0)
        for _ in range(20):
            emission, trans, latents = sample_prior(hyper, rng)
            got = log_prior(emission, trans, latents, hyper)
            expected = _oracle_log_prior(emission, trans, latents, hyper)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_boundary_gives_minus_inf(self, hyper):
        rng = np.random.default_rng(1)
        emission, trans, latents = sample_prior(hyper, rng)
        bad = emission.replace(ar_eig01=np.array([0.0, 0.5]))
        assert log_prior(bad, trans, latents, hyper) == -np.inf
        bad = emission.replace(ar_eig01=np.array([0.5, 1.0]))
        assert log_prior(bad, trans, latents, hyper) == -np.inf
        bad = emission.replace(decay_prec=1.0)
        assert log_prior(bad, trans, latents, hyper) == -np.inf

    def test_finite_and_continuous_on_interior(self, hyper):
        rng = np.random.default_rng(2)
        emission, trans, latents = sample_prior(hyper, rng)
        base = log_prior(emission, trans, latents, hyper)
        assert np.isfinite(base)
        nudged = emission.replace(level=emission.level + 1e-9)
        assert log_prior(nudged, trans, latents, hyper) == pytest.approx(base, abs=1e-6)

    @pytest.mark.parametrize("preset", ["weak", "paper-like"])
    @pytest.mark.parametrize("mode", list(ModelMode))
    def test_gradient_matches_finite_differences(self, preset, mode):
        hyper = default_hyperparameters(preset, k_annual=3, k_prec_annual=4)
        draw = sample_prior_batch(hyper, np.random.default_rng(12), 1, mode)
        values = {name: np.array(x[0]) for name, x in draw.items()}
        grad = log_prior_grad(*assemble_params(values, mode), hyper)
        assert set(grad) == set(values) - {"logit_decay"}
        h = 1e-6
        for name, g in grad.items():
            fd = np.empty(values[name].shape)
            for i in np.ndindex(fd.shape):
                lp = []
                for step in (h, -h):
                    moved = values[name].copy()
                    moved[i] += step
                    lp.append(log_prior(*assemble_params({**values, name: moved}, mode), hyper))
                fd[i] = (lp[0] - lp[1]) / (2 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-6, err_msg=name)

    def test_two_state_mode_skips_transition_blocks(self, hyper):
        rng = np.random.default_rng(3)
        emission, trans, latents = sample_prior(hyper, rng, ModelMode.TWO_STATE)
        assert trans is None
        lp = log_prior(emission, None, latents, hyper)
        assert np.isfinite(lp)


class TestSamplePrior:
    def test_deterministic_given_seed(self, hyper):
        a = sample_prior(hyper, np.random.default_rng(42))
        b = sample_prior(hyper, np.random.default_rng(42))
        assert np.array_equal(a[0].annual, b[0].annual)
        assert a[1] == b[1]
        assert np.array_equal(a[2].mu_holiday, b[2].mu_holiday)

    @pytest.mark.parametrize("mode, digest", [
        (ModelMode.FOUR_STATE, "c53b40a376284876df1bcd686af7506d714989ff312116d072aa4706277f019e"),
        (ModelMode.TWO_STATE, "d801fdab9fa2c81d4f0209ce21306bf861f1fca2cf8571eb8d8924c79ade6c8d"),
    ])
    def test_draw_stream_pinned(self, hyper, mode, digest):
        # every key, shape, dtype and bit of three draws from seed 0
        d = sample_prior_batch(hyper, np.random.default_rng(0), 3, mode)
        h = hashlib.sha256()
        for name in sorted(d):
            x = np.ascontiguousarray(d[name])
            h.update(f"{name}{x.shape}{x.dtype.str}".encode())
            h.update(x.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("k", [(1, 1), (6, 12)], ids=["k1_1", "k6_12"])
    @pytest.mark.parametrize("mode", list(ModelMode), ids=lambda m: m.value)
    def test_draws_exactly_the_layout_families(self, mode, k):
        # a layout family without a prior factor would be silently flat
        hyper = default_hyperparameters("paper-like", *k)
        d = sample_prior_batch(hyper, np.random.default_rng(1), 2, mode)
        expected = {f.name: (2,) + f.shape for f in ParamSpace(*k, mode).families}
        if mode is ModelMode.FOUR_STATE:
            expected["logit_decay"] = (2, 3)
        assert {name: x.shape for name, x in d.items()} == expected

    def test_supports(self, hyper):
        rng = np.random.default_rng(5)
        for _ in range(50):
            emission, _, _ = sample_prior(hyper, rng)
            assert np.all((emission.ar_eig01 > 0) & (emission.ar_eig01 < 1))
            assert np.all((emission.decay_mean > 0) & (emission.decay_mean < 1))
            assert 0 < emission.decay_prec < 1

    def test_batch_matches_marginal_moments(self, hyper):
        d = sample_prior_batch(hyper, np.random.default_rng(6), 200_000)
        # intercepts: marginal variance v_level, cross-region correlation r_level
        lv = d["level"]
        assert lv.var() == pytest.approx(hyper.v_level, rel=0.03)
        assert np.corrcoef(lv[:, 0], lv[:, 1])[0, 1] == pytest.approx(hyper.r_level, abs=0.02)

    def test_importance_weights_all_equal(self, hyper):
        # density evaluation and exact sampling agree: log weights are constant
        rng = np.random.default_rng(7)
        logw = []
        for _ in range(50):
            emission, trans, latents = sample_prior(hyper, rng)
            logw.append(
                log_prior(emission, trans, latents, hyper)
                - _oracle_log_prior(emission, trans, latents, hyper)
            )
        assert np.max(np.abs(np.asarray(logw))) <= 1e-10

    def test_decay_hierarchy_moments(self, hyper):
        d = sample_prior_batch(hyper, np.random.default_rng(8), 200_000)
        lg = d["logit_decay"]
        v, r1, r2 = hyper.v_decay, hyper.r_decay_1, hyper.r_decay_2
        assert lg[:, 0].var() == pytest.approx(v, rel=0.03)
        assert lg[:, 2].var() == pytest.approx(r1 * v, rel=0.03)
        assert np.corrcoef(lg[:, 0], lg[:, 1])[0, 1] == pytest.approx(r1, abs=0.02)
        assert np.corrcoef(lg[:, 0], lg[:, 2])[0, 1] == pytest.approx(
            math.sqrt(r1) * r2, abs=0.02
        )

    def test_annual_amplitude_rayleigh(self, hyper):
        d = sample_prior_batch(hyper, np.random.default_rng(9), 50_000)
        k = 1
        amp = np.hypot(d["annual"][:, 0, 0, k], d["annual"][:, 0, 1, k])
        res = stats.kstest(amp, "rayleigh", args=(0.0, math.sqrt(hyper.v_annual[k])))
        assert res.pvalue > 0.001
