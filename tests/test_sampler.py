import datetime as dt
import hashlib
import json

import numpy as np
import pytest

from demandhmm import emission as emission_module
from demandhmm.diagnostics import _average_ranks, rank_diagnostics
from demandhmm.emission import day_tables
from demandhmm.filtering import log_likelihood
from demandhmm.generative import simulate
from demandhmm.paramspace import ParamSpace
from demandhmm.priors import default_hyperparameters, log_prior, sample_prior
from demandhmm.sampler import (
    Diagnostics,
    NumpyPosterior,
    SamplerConfig,
    compute_diagnostics,
    run_mcmc,
)
from demandhmm.states import ModelMode

from helpers import make_cov, small_truth


@pytest.fixture(scope="module")
def problem():
    emission, trans, latents = small_truth()
    cov = make_cov(
        dt.date(2021, 2, 1), 40,
        [(dt.date(2021, 2, 8), 1), (dt.date(2021, 2, 20), 2)],
        rng=np.random.default_rng(0),
    )
    y = simulate(emission, trans, cov, seed=21).y
    hyper = default_hyperparameters("paper-like", 2, 2)
    space = ParamSpace(2, 2)
    return emission, trans, latents, cov, y, hyper, space


def _digest(x: np.ndarray) -> str:
    x = np.ascontiguousarray(x)
    return hashlib.sha256(f"{x.shape}{x.dtype.str}".encode() + x.tobytes()).hexdigest()


class TestLogPosterior:
    def test_composition(self, problem):
        emission, trans, latents, cov, y, hyper, space = problem
        post = NumpyPosterior(y, cov, hyper, space)
        u = space.pack(emission, trans, latents)
        expected = (
            log_likelihood(y, cov, emission, trans)
            + log_prior(emission, trans, latents, hyper)
            + space.log_jacobian(u)
        )
        assert post(u) == pytest.approx(expected, rel=1e-13)

    def test_purity(self, problem):
        *_, cov, y, hyper, space = problem
        emission, trans, latents = sample_prior(hyper, np.random.default_rng(3))
        post = NumpyPosterior(y, cov, hyper, space)
        u = space.pack(emission, trans, latents)
        assert post(u) == post(u)  # bitwise identical

    def test_batch_value_equals_call(self, problem):
        *_, cov, y, hyper, space = problem
        post = NumpyPosterior(y, cov, hyper, space)
        rng = np.random.default_rng(4)
        u = np.stack([space.pack(*sample_prior(hyper, rng)) for _ in range(20)])
        for batch in u.reshape(5, 4, -1):
            values, _ = post.logpost_and_grad_batch(batch)
            assert np.array_equal(values, [post(q) for q in batch])

    @pytest.mark.parametrize(
        "mode, free",
        [
            (ModelMode.FOUR_STATE, None),
            (ModelMode.TWO_STATE, None),
            (ModelMode.FOUR_STATE, ["level", "holiday", "trans"]),
        ],
        ids=["four_state", "two_state", "free_subset"],
    )
    def test_gradient_matches_finite_differences(self, problem, mode, free):
        *_, cov, y, hyper, _ = problem
        space = ParamSpace(2, 2, mode, free=free)
        rng = np.random.default_rng(5)
        base = space.pack(*sample_prior(hyper, rng, mode))
        post = NumpyPosterior(y, cov, hyper, space, base)
        u0 = space.extract_free(space.pack(*sample_prior(hyper, rng, mode)))
        checked = 0
        for _ in range(20):
            u = u0 + 0.01 * rng.standard_normal(space.size)
            _, g = post.logpost_and_grad_batch(u[None])
            k = int(rng.integers(space.size))
            h = 1e-4 * max(1.0, abs(u[k]))
            e = np.zeros(space.size)
            e[k] = h
            fd = (post(u + e) - post(u - e)) / (2 * h)
            assert abs(g[0, k] - fd) <= 1e-5 * max(abs(g[0, k]), abs(fd), 1.0)
            checked += 1
        assert checked == 20

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gradient_is_zero_where_value_is_minus_inf(self, problem):
        *_, cov, y, hyper, space = problem
        post = NumpyPosterior(y, cov, hyper, space)
        u = space.pack(*sample_prior(hyper, np.random.default_rng(8)))
        bad = u.copy()
        bad[0] = np.nan
        values, grads = post.logpost_and_grad_batch(np.stack([u, bad]))
        assert np.isfinite(values[0]) and np.all(np.isfinite(grads[0]))
        assert values[1] == -np.inf and np.array_equal(grads[1], np.zeros(space.size))
        # a series of zero likelihood
        y_zero = y.copy()
        y_zero[5, 0] = 1e200
        values, grads = NumpyPosterior(y_zero, cov, hyper, space).logpost_and_grad_batch(u[None])
        assert values[0] == -np.inf and np.array_equal(grads[0], np.zeros(space.size))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mixed_block_rows_equal_their_lone_evaluation(self, problem):
        emission, trans, latents, cov, y, hyper, space = problem
        post = NumpyPosterior(y, cov, hyper, space)
        u = space.pack(emission, trans, latents)
        near = u + 0.01 * np.random.default_rng(9).standard_normal(space.size)
        nan_row = u.copy()
        nan_row[0] = np.nan
        far_row = u.copy()                       # the prior's squares overflow: -inf
        far_row[space.slice("level")] = 1e200
        singular = u.copy()                      # first-day precision cancels to det <= 0
        singular[space.slice("prec_base").start] = 1e8
        with pytest.raises(np.linalg.LinAlgError):
            day_tables(space.unpack(singular)[0], cov)
        block = np.stack([u, nan_row, far_row, near, singular])
        values, grads = post.logpost_and_grad_batch(block)
        for row, value, grad in zip(block, values, grads):
            alone_value, alone_grad = post.logpost_and_grad_batch(row[None])
            assert _digest(value) == _digest(alone_value[0]) and value == post(row)
            assert _digest(grad) == _digest(alone_grad[0])
        assert np.all(np.isfinite(values[[0, 3]]))
        assert np.all(values[[1, 2, 4]] == -np.inf)
        assert not np.any(grads[[1, 2, 4]])
        # the finite rows are what they are in a block of their own
        clean_values, clean_grads = post.logpost_and_grad_batch(block[[0, 3]])
        assert _digest(clean_values) == _digest(values[[0, 3]])
        assert _digest(clean_grads) == _digest(grads[[0, 3]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failing_first_day_law_drops_its_row_in_one_pass(self, problem, monkeypatch):
        emission, trans, latents, cov, y, hyper, space = problem
        post = NumpyPosterior(y, cov, hyper, space)
        u = space.pack(emission, trans, latents)
        near = u + 0.01 * np.random.default_rng(10).standard_normal(space.size)
        singular = u.copy()                      # first-day precision cancels to det <= 0
        singular[space.slice("prec_base").start] = 1e8
        block = np.stack([u, singular, near])
        alone = [post.logpost_and_grad_batch(row[None]) for row in block]
        built, build = [], emission_module.build_day_tables

        def counted(params, design, per_row=False):
            built.append(per_row)
            return build(params, design, per_row=per_row)

        monkeypatch.setattr(emission_module, "build_day_tables", counted)
        values, grads = post.logpost_and_grad_batch(block)
        assert built == [True]
        assert values[1] == -np.inf and not np.any(grads[1])
        for r in (0, 2):
            assert _digest(values[r]) == _digest(alone[r][0][0])
            assert _digest(grads[r]) == _digest(alone[r][1][0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_first_day_system_drops_its_row_in_one_pass(self, problem, monkeypatch):
        emission, trans, latents, cov, y, hyper, space = problem
        post = NumpyPosterior(y, cov, hyper, space)
        u = space.pack(emission, trans, latents)
        block = u + 0.01 * np.random.default_rng(11).standard_normal((3, space.size))
        alone = [post.logpost_and_grad_batch(row[None]) for row in block]
        marked = space.unpack(block[1])[0].ar_matrix[0, 0]
        lyapunov, build, built = emission_module._lyapunov_matrix, emission_module.build_day_tables, []

        def singular_on_marked_row(a, b):
            return np.where(np.asarray(a == marked)[..., None, None], 0.0, lyapunov(a, b))

        def counted(params, design, per_row=False):
            built.append(per_row)
            return build(params, design, per_row=per_row)

        monkeypatch.setattr(emission_module, "_lyapunov_matrix", singular_on_marked_row)
        monkeypatch.setattr(emission_module, "build_day_tables", counted)
        values, grads = post.logpost_and_grad_batch(block)
        assert built == [True]
        assert values[1] == -np.inf and not np.any(grads[1])
        for r in (0, 2):
            assert _digest(values[r]) == _digest(alone[r][0][0])
            assert _digest(grads[r]) == _digest(alone[r][1][0])

    def test_an_error_in_the_day_tables_reaches_the_caller(self, problem, monkeypatch):
        emission, trans, latents, cov, y, hyper, space = problem
        post = NumpyPosterior(y, cov, hyper, space)
        u = space.pack(emission, trans, latents)
        block = u + 0.01 * np.random.default_rng(12).standard_normal((3, space.size))
        error = np.linalg.LinAlgError("the day tables failed")

        def failing(params, design, per_row=False):
            raise error

        monkeypatch.setattr(emission_module, "build_day_tables", failing)
        with pytest.raises(np.linalg.LinAlgError) as raised:
            post.logpost_and_grad_batch(block)
        assert raised.value is error

    def test_design_is_built_once_per_posterior(self, problem, monkeypatch):
        emission, trans, latents, cov, y, hyper, space = problem
        built, build = [], emission_module.build_design

        def counted(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(emission_module, "build_design", counted)
        post = NumpyPosterior(y, cov, hyper, space)
        u = space.pack(emission, trans, latents)
        post(u)
        post.logpost_and_grad_batch(np.stack([u, u]))
        post.logpost_and_grad_batch(u[None])
        assert len(built) == 1

    def test_sensitivity_localised_to_post_holiday_transitions(self):
        # without any holiday inside or at the anchor day, the holiday-exit
        # coefficients cannot affect the likelihood
        emission, trans, _ = small_truth()
        cov_free = make_cov(dt.date(2021, 2, 1), 30, [], rng=np.random.default_rng(6))
        y_free = simulate(emission, trans, cov_free, seed=22).y
        cov_hol = make_cov(
            dt.date(2021, 2, 1), 30, [(dt.date(2021, 2, 10), 2)], rng=np.random.default_rng(6)
        )
        y_hol = simulate(emission, trans, cov_hol, seed=22).y
        h = 1e-4
        for field in ("to_post_const", "to_post_gap2"):
            up = type(trans)(**{**trans.__dict__, field: getattr(trans, field) + h})
            dn = type(trans)(**{**trans.__dict__, field: getattr(trans, field) - h})
            fd_free = log_likelihood(y_free, cov_free, emission, up) - log_likelihood(
                y_free, cov_free, emission, dn
            )
            assert fd_free == 0.0
        up = type(trans)(**{**trans.__dict__, "to_post_const": trans.to_post_const + h})
        dn = type(trans)(**{**trans.__dict__, "to_post_const": trans.to_post_const - h})
        fd_hol = log_likelihood(y_hol, cov_hol, emission, up) - log_likelihood(
            y_hol, cov_hol, emission, dn
        )
        assert fd_hol != 0.0

    def test_clamped_transform_keeps_posterior_finite(self, problem):
        # extreme unconstrained coordinates stay strictly inside the support
        *_, cov, y, hyper, space = problem
        post = NumpyPosterior(y, cov, hyper, space)
        emission, trans, latents = sample_prior(hyper, np.random.default_rng(7))
        u = space.pack(emission, trans, latents)
        u[space.slice("ar_eig01")] = 60.0
        assert np.isfinite(post(u))

    def test_invalid_vector_returns_minus_inf(self, problem):
        *_, cov, y, hyper, space = problem
        post = NumpyPosterior(y, cov, hyper, space)
        emission, trans, latents = sample_prior(hyper, np.random.default_rng(7))
        u = space.pack(emission, trans, latents)
        u[0] = np.nan
        assert post(u) == -np.inf


class TestRunMcmc:
    def test_rwm_deterministic(self, problem):
        *_, cov, y, hyper, space = problem
        cfg = SamplerConfig(
            n_chains=2, n_iterations=60, burn_in=0.5, thin=2,
            algorithm="adaptive-metropolis", seed=5,
        )
        d1, g1 = run_mcmc(y, cov, hyper, cfg)
        d2, g2 = run_mcmc(y, cov, hyper, cfg)
        assert np.array_equal(d1.free_draws, d2.free_draws)
        assert np.array_equal(d1.logpost, d2.logpost)
        assert np.array_equal(g1.accept_rate, g2.accept_rate)

    def test_rwm_chain_does_not_depend_on_other_chains(self, problem):
        # the block-major step values all chains in one call; chain 0 must not notice
        *_, cov, y, hyper, space = problem
        kept = {}
        for n_chains in (1, 3):
            cfg = SamplerConfig(
                n_chains=n_chains, n_iterations=60, burn_in=0.5, thin=2,
                algorithm="adaptive-metropolis", seed=15,
            )
            draws, _ = run_mcmc(y, cov, hyper, cfg)
            first = draws.chain == 0
            kept[n_chains] = (draws.free_draws[first], draws.logpost[first])
        assert _digest(kept[1][0]) == _digest(kept[3][0])
        assert _digest(kept[1][1]) == _digest(kept[3][1])

    def test_hmc_deterministic(self, problem):
        *_, cov, y, hyper, space = problem
        cfg = SamplerConfig(
            n_chains=2, n_iterations=40, burn_in=0.5, thin=2, algorithm="hmc",
            seed=6, n_leapfrog=5,
        )
        d1, _ = run_mcmc(y, cov, hyper, cfg)
        d2, _ = run_mcmc(y, cov, hyper, cfg)
        assert np.array_equal(d1.free_draws, d2.free_draws)

    def test_retained_draw_count_and_provenance(self, problem):
        *_, cov, y, hyper, space = problem
        cfg = SamplerConfig(
            n_chains=2, n_iterations=80, burn_in=0.5, thin=4,
            algorithm="adaptive-metropolis", seed=7,
        )
        draws, _ = run_mcmc(y, cov, hyper, cfg)
        assert draws.n_draws == 2 * 10
        assert set(np.unique(draws.chain)) == {0, 1}
        assert np.all(draws.iteration >= 40)

    def test_every_retained_draw_has_finite_likelihood(self, problem):
        *_, cov, y, hyper, space = problem
        cfg = SamplerConfig(
            n_chains=2, n_iterations=60, burn_in=0.5, thin=3,
            algorithm="adaptive-metropolis", seed=8,
        )
        draws, _ = run_mcmc(y, cov, hyper, cfg)
        for i in range(draws.n_draws):
            emission, trans, _ = draws.params_at(i)
            assert np.isfinite(log_likelihood(y, cov, emission, trans))

    def test_free_subset_requires_base(self, problem):
        *_, cov, y, hyper, space = problem
        cfg = SamplerConfig(n_chains=1, n_iterations=20, free=["level"],
                            algorithm="adaptive-metropolis", seed=9)
        with pytest.raises(ValueError, match="base_params"):
            run_mcmc(y, cov, hyper, cfg)

    @pytest.mark.parametrize("iters", [0, -3])
    def test_config_rejects_no_iterations(self, iters):
        with pytest.raises(ValueError, match="n_iterations must be >= 1"):
            SamplerConfig(n_iterations=iters)

    @pytest.mark.parametrize("case, digest", [
        ("hmc_four_state", "ff05535a64bcc95b545d256bbae35adb34762bcd7960502c72314f9ff4e5d004"),
        ("hmc_two_state", "055ccd4506c3b668edd2ef6fd005ac17f5f15af4a84d5b97f659304786efae0a"),
        ("rwm_four_state", "b415040f5ae04d2701e6ff5c00088c7d5c0cca0139abd3fb2b1fb099eaf4d2c1"),
        ("rwm_free_subset", "141b1475931a01a86d9a2e30f6be39f535db23f6d921a59bc68b0f23fd01274a"),
    ])
    def test_draws_pinned(self, problem, case, digest):
        # every bit of the retained draws, their provenance and diagnostics
        emission, trans, latents, cov, y, hyper, _ = problem
        mode, base_params = ModelMode.FOUR_STATE, None
        if case == "hmc_four_state":
            cfg = SamplerConfig(n_chains=2, n_iterations=100, thin=3, algorithm="hmc",
                                seed=31, n_leapfrog=5)
        elif case == "hmc_two_state":
            cfg = SamplerConfig(n_chains=2, n_iterations=60, thin=2, algorithm="hmc",
                                seed=32, n_leapfrog=3)
            mode = ModelMode.TWO_STATE
        elif case == "rwm_four_state":
            cfg = SamplerConfig(n_chains=2, n_iterations=70, thin=4,
                                algorithm="adaptive-metropolis", seed=33)
        else:
            cfg = SamplerConfig(n_chains=3, n_iterations=50, thin=3,
                                algorithm="adaptive-metropolis", seed=34,
                                free=["level", "trans"])
            base_params = (emission, trans, latents)
        draws, dg = run_mcmc(y, cov, hyper, cfg, mode, base_params)
        h = hashlib.sha256()
        for x in (draws.free_draws, draws.logpost, draws.chain, draws.iteration):
            h.update(_digest(x).encode())
        h.update(json.dumps(dg.to_dict(), sort_keys=True).encode())
        assert h.hexdigest() == digest

    def test_two_state_mode_runs(self, problem):
        *_, cov, y, hyper, space = problem
        cfg = SamplerConfig(
            n_chains=2, n_iterations=40, burn_in=0.5, thin=2,
            algorithm="adaptive-metropolis", seed=10,
        )
        draws, _ = run_mcmc(y, cov, hyper, cfg, ModelMode.TWO_STATE)
        assert draws.mode is ModelMode.TWO_STATE
        assert "to_pre_const" not in draws.names


class TestDiagnostics:
    def test_iid_normal(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 2000))
        rhat, ess = rank_diagnostics(x)
        assert 0.99 <= rhat <= 1.01
        assert ess >= 0.8 * x.size

    def test_constant_chains(self):
        x = np.tile(np.array([[1.0], [2.0], [3.0], [4.0]]), (1, 50))
        rhat, ess = rank_diagnostics(x)
        assert rhat == np.inf
        assert ess <= 8.0
        same = np.ones((4, 50))
        assert rank_diagnostics(same)[0] == 1.0

    def test_chain_label_permutation_invariant(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 500)) + np.array([[0.0], [0.1], [0.0], [0.2]])
        perm = x[[2, 0, 3, 1]]
        assert rank_diagnostics(x) == pytest.approx(rank_diagnostics(perm), rel=1e-12)

    def test_average_ranks_equal_the_tie_loop(self):
        def loop_ranks(x):       # each run of ties shares the mean of its 1-based ranks
            flat = x.ravel()
            order = np.argsort(flat, kind="mergesort")
            ranks, i = np.empty(flat.size), 0
            while i < flat.size:
                j = i
                while j + 1 < flat.size and flat[order[j + 1]] == flat[order[i]]:
                    j += 1
                ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
                i = j + 1
            return ranks.reshape(x.shape)

        rng = np.random.default_rng(14)
        for x in (rng.integers(0, 7, (4, 50)).astype(float), rng.standard_normal((3, 41)),
                  np.array([[0.0, -0.0, 1.0], [1.0, 1.0, -2.0]]), np.ones((2, 5)), np.array([[3.0]])):
            assert _digest(_average_ranks(x)) == _digest(loop_ranks(x))

    def test_separated_chains_flagged(self):
        rng = np.random.default_rng(13)
        x = 0.1 * rng.standard_normal((4, 500))
        x[0] += 5.0
        assert rank_diagnostics(x)[0] > 1.5

    def test_max_rhat_keeps_infinite_and_skips_undefined(self):
        dg = Diagnostics(rhat={"a": 1.0, "b": np.inf, "c": np.nan}, ess={"a": 10.0},
                         accept_rate=np.zeros(2), divergences=0, n_retained=8)
        assert dg.max_rhat == np.inf
        assert dg.to_dict()["max_rhat"] is None

    def test_compute_diagnostics_names(self, problem):
        *_, cov, y, hyper, space = problem
        cfg = SamplerConfig(
            n_chains=2, n_iterations=60, burn_in=0.5, thin=2,
            algorithm="adaptive-metropolis", seed=14,
        )
        draws, diag = run_mcmc(y, cov, hyper, cfg)
        assert set(diag.rhat) == set(draws.names)
        assert set(diag.ess) == set(draws.names)
        assert diag.n_retained == draws.n_draws
        payload = diag.to_dict()
        assert "max_rhat" in payload and "accept_rate" in payload
