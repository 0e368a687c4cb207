"""End-to-end acceptance gate.

Each test prints one PASS line with its measured quantities. The heavy
desk-scale fixtures (a four-year synthetic dataset with documented truth
values, one full four-state fit and one restricted two-state fit) are shared
across the recovery, state-accuracy and calibration criteria.
"""

import datetime as dt
import hashlib
import itertools
import math
import time

import numpy as np
import pytest
from scipy import stats

from demandhmm.cli import main as cli_main
from demandhmm.covariates import build_covariates, smooth_cwv_baseline
from demandhmm.emission import build_day_tables, build_design, psi_from_xi, stationary_variance
from demandhmm.filtering import forward_filter, log_likelihood, rao_blackwell_states, smooth_states
from demandhmm.generative import default_truth, simulate, sinusoidal_cwv, uk_holiday_calendar
from demandhmm.paramspace import ParamSpace
from demandhmm.ppc import coverage_by_gap, posterior_predictive_replicates
from demandhmm.priors import default_hyperparameters, sample_prior, sample_prior_batch
from demandhmm.sampler import SamplerConfig, run_mcmc
from demandhmm.states import ModelMode, TransitionParams, transition_matrix

from helpers import (
    PrecisionComponents,
    covariance_from_components,
    draws_from_params,
    enumeration_oracle,
    fourier_sum,
    make_cov,
    sequential_reference,
    small_truth,
)

DESIGNATED_PARAMETERS = (
    "level_1", "level_2",
    "holiday_1_1", "holiday_1_2", "holiday_1_3",
    "holiday_2_1", "holiday_2_2", "holiday_2_3",
    "weather_1_1", "weather_2_1",
    "decay_mean_1", "decay_mean_2", "decay_prec",
    "prec_base_2", "prec_base_3", "prec_holiday_1",
    "to_pre_const", "to_pre_dist", "to_normal_const", "to_post_const",
)


@pytest.fixture(scope="module")
def desk():
    """Four-year synthetic dataset with pronounced proximity effects."""
    rng = np.random.default_rng(2024)
    T = 1500
    dates = [dt.date(2019, 1, 2) + dt.timedelta(days=i) for i in range(T)]
    cal = uk_holiday_calendar(2018, 2026)
    cwv = sinusoidal_cwv(dates, rng)
    cov = build_covariates(dates, cal, cwv, smooth_cwv_baseline(dates, cwv, 10))
    emission, trans, latents = default_truth()
    sim = simulate(emission, trans, cov, seed=99)
    hyper = default_hyperparameters("paper-like")
    return {
        "cov": cov, "sim": sim, "truth": (emission, trans, latents), "hyper": hyper,
    }


@pytest.fixture(scope="module")
def four_fit(desk):
    cfg = SamplerConfig(n_chains=4, n_iterations=4000, burn_in=0.5, thin=10,
                        algorithm="hmc", seed=31)
    t0 = time.time()
    draws, diag = run_mcmc(desk["sim"].y, desk["cov"], desk["hyper"], cfg)
    return draws, diag, time.time() - t0


@pytest.fixture(scope="module")
def two_fit(desk):
    cfg = SamplerConfig(n_chains=4, n_iterations=2000, burn_in=0.5, thin=10,
                        algorithm="hmc", seed=47)
    draws, diag = run_mcmc(desk["sim"].y, desk["cov"], desk["hyper"], cfg,
                           ModelMode.TWO_STATE)
    return draws, diag


def test_criterion_01_filter_matches_enumeration():
    """Exhaustive-path oracle equivalence for every 0-2 holiday placement, T=6."""
    emission, trans, _ = small_truth()
    start = dt.date(2021, 3, 2)
    positions = list(range(-1, 6))  # day 0 through day 6 of the window
    placements = [()]
    placements += [(a,) for a in positions]
    placements += list(itertools.combinations(positions, 2))
    assert len(placements) == 1 + 7 + 21

    t0 = time.time()
    worst_ll, worst_post = 0.0, 0.0
    rng = np.random.default_rng(8)
    for i, placement in enumerate(placements):
        holidays = [
            (start + dt.timedelta(days=d), 1 + (j + i) % 3)
            for j, d in enumerate(placement)
        ]
        cov = make_cov(start, 6, holidays, rng=rng)
        y = simulate(emission, trans, cov, seed=1000 + i).y
        loglik, _ = forward_filter(y, cov, emission, trans)
        _, smoothed = smooth_states(y, cov, emission, trans)
        oracle_ll, oracle_post = enumeration_oracle(y, cov, emission, trans)
        worst_ll = max(worst_ll, abs(loglik - oracle_ll) / abs(oracle_ll))
        worst_post = max(worst_post, float(np.max(np.abs(smoothed.probs - oracle_post))))
    elapsed = time.time() - t0
    assert worst_ll <= 1e-10
    assert worst_post <= 1e-10
    assert elapsed < 5.0
    print(f"\nCRITERION 1: PASS (29 placements, rel err {worst_ll:.2e}, "
          f"smoothed err {worst_post:.2e}, {elapsed:.2f}s)")


def test_tree_log_likelihood_matches_filter_on_desk_data(desk):
    """The tree product agrees with the sequential filter over 1500 days."""
    cov, y = desk["cov"], desk["sim"].y
    rng = np.random.default_rng(5)
    params = [desk["truth"][:2]] + [sample_prior(desk["hyper"], rng)[:2] for _ in range(5)]
    worst = 0.0
    for emission, trans in params:
        expected = sequential_reference(y, cov, emission, trans).loglik
        got = log_likelihood(y, cov, emission, trans)
        worst = max(worst, abs(got - expected) / abs(expected))
    assert worst <= 1e-13
    print(f"\nTREE LOG LIKELIHOOD: PASS (truth + 5 prior draws, rel err {worst:.2e})")


def test_tree_smoothing_matches_sequential_smoother_on_desk_data(desk):
    """Rao-Blackwell state marginals from the tree's reverse pass agree with the
    average of the sequential forward-backward marginals over 1500 days."""
    cov, y = desk["cov"], desk["sim"].y
    rng = np.random.default_rng(5)
    params = [desk["truth"]] + [sample_prior(desk["hyper"], rng) for _ in range(5)]
    expected = np.zeros((cov.T + 1, 4))
    tol = 1e-9
    for emission, trans, _ in params:
        ref = sequential_reference(y, cov, emission, trans)
        expected += ref.probs
        # both recursions round exponents of the size of log L
        tol = max(tol, 1e-15 * abs(ref.loglik))
    expected /= len(params)
    got = rao_blackwell_states(draws_from_params(params, 6, 12), y, cov).probs
    err = float(np.max(np.abs(got - expected)))
    assert err <= tol
    print(f"\nTREE SMOOTHING: PASS (truth + 5 prior draws, max err {err:.2e}, bound {tol:.2e})")


def test_criterion_02_lyapunov_solver():
    rng = np.random.default_rng(7)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        psi = psi_from_xi(rng.uniform(1e-4, 1 - 1e-4, size=2))
        a = rng.standard_normal((2, 2))
        omega = a @ a.T + 0.05 * np.eye(2)
        v = stationary_variance(psi, omega)
        resid = np.max(np.abs(v - psi @ v @ psi.T - np.linalg.inv(omega)))
        worst = max(worst, resid)
        assert v[0, 1] == v[1, 0]
        assert np.all(np.linalg.eigvalsh(v) > 0.0)
    elapsed = time.time() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"\nCRITERION 2: PASS (1000 solves, max residual {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_03_transition_rows_stochastic():
    rng = np.random.default_rng(6)
    coefs = rng.uniform(-10.0, 10.0, size=(60, 7))
    coefs[0] = -10.0
    coefs[1] = 10.0
    worst = 0.0
    for row in coefs:
        trans = TransitionParams.from_array(row)
        hol = transition_matrix(trans, 0, 0)
        assert np.all(hol[:, 1] == 1.0)
        for n in range(0, 61):
            for p in range(0, 61):
                mat = transition_matrix(trans, n, p)
                worst = max(worst, float(np.max(np.abs(mat.sum(axis=1) - 1.0))))
    assert worst <= 1e-15
    print(f"\nCRITERION 3: PASS (60 coefficient draws x 61x61 grid, "
          f"max |row sum - 1| = {worst:.2e})")


def test_criterion_04_weekly_zero_sum():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        coeffs = rng.standard_normal((2, 3)) * rng.uniform(0.1, 3.0)
        start = int(rng.integers(0, 100_000))
        total = sum(fourier_sum(coeffs, t, 7.0) for t in range(start, start + 7))
        worst = max(worst, abs(total))
    assert worst <= 1e-12
    print(f"\nCRITERION 4: PASS (200 random weekly blocks, max |sum| = {worst:.2e})")


def test_criterion_05_prior_moment_recovery():
    hyper = default_hyperparameters("paper-like")
    rng = np.random.default_rng(4)
    n_total, chunk = 1_000_000, 100_000
    s = np.zeros(3)
    ss = np.zeros(3)
    cross = np.zeros(3)  # products for (b1,b2), (b1,th), (b2,th)
    amp_samples = []
    for start in range(0, n_total, chunk):
        d = sample_prior_batch(hyper, rng, chunk)
        lg = d["logit_decay"]
        s += lg.sum(axis=0)
        ss += (lg**2).sum(axis=0)
        cross += np.array([
            (lg[:, 0] * lg[:, 1]).sum(),
            (lg[:, 0] * lg[:, 2]).sum(),
            (lg[:, 1] * lg[:, 2]).sum(),
        ])
        if len(amp_samples) * chunk < 100_000:
            amp_samples.append(np.hypot(d["annual"][:, 0, 0, 1], d["annual"][:, 0, 1, 1]))
    mean = s / n_total
    var = ss / n_total - mean**2
    cov_b1b2 = cross[0] / n_total - mean[0] * mean[1]
    cov_b1th = cross[1] / n_total - mean[0] * mean[2]
    cor_b1b2 = cov_b1b2 / math.sqrt(var[0] * var[1])
    cor_b1th = cov_b1th / math.sqrt(var[0] * var[2])

    v, r1, r2 = hyper.v_decay, hyper.r_decay_1, hyper.r_decay_2
    assert abs(var[0] - v) <= 0.01
    assert abs(var[1] - v) <= 0.01
    assert abs(cor_b1b2 - r1) <= 0.01
    assert abs(cor_b1th - math.sqrt(r1) * r2) <= 0.01

    amp = np.concatenate(amp_samples)[:100_000]
    ks = stats.kstest(amp, "rayleigh", args=(0.0, math.sqrt(hyper.v_annual[1])))
    assert ks.pvalue > 0.001
    print(f"\nCRITERION 5: PASS (1e6 draws: Var {var[0]:.4f} vs {v}, "
          f"Cor {cor_b1b2:.4f} vs {r1}, cross {cor_b1th:.4f} vs "
          f"{math.sqrt(r1) * r2:.4f}, KS p {ks.pvalue:.2g})")


def test_criterion_06_conjugate_oracle():
    rng = np.random.default_rng(5)
    T = 250
    cov = make_cov(dt.date(2021, 3, 1), T, [], rng=rng)
    emission, trans, latents = default_truth()
    emission = emission.replace(holiday=np.zeros((2, 3)), prec_holiday=np.zeros(3))
    trans = TransitionParams(**{**trans.__dict__, "to_pre_const": -30.0})
    sim = simulate(emission, trans, cov, seed=11)
    hyper = default_hyperparameters("paper-like")

    # closed-form normal posterior for the intercepts, all else known
    design = build_design(cov, emission.k_annual, emission.k_prec_annual)
    tables = build_day_tables(emission, design)
    psi = emission.ar_matrix
    s4 = 3
    g = tables.mu[:, s4, :] - emission.level[None, :]
    prior_var = (1.0 - hyper.r_level) * hyper.v_level
    prec = np.eye(2) / prior_var
    b = np.full(2, latents.mu_level) / prior_var
    prec += tables.v_inv[s4]
    b += tables.v_inv[s4] @ (sim.y[0] - g[0])
    m_mat = np.eye(2) - psi
    for t in range(1, T):
        pc = PrecisionComponents(tables.phi[t, s4], tables.tau1[t, s4], tables.tau2[t, s4])
        om = np.linalg.inv(covariance_from_components(pc))
        z = (sim.y[t] - g[t]) - psi @ (sim.y[t - 1] - g[t - 1])
        prec += m_mat.T @ om @ m_mat
        b += m_mat.T @ om @ z
    post_cov = np.linalg.inv(prec)
    post_mean = post_cov @ b

    cfg = SamplerConfig(n_chains=4, n_iterations=3000, burn_in=0.5, thin=5,
                        algorithm="adaptive-metropolis", seed=123, free=["level"])
    t0 = time.time()
    draws, diag = run_mcmc(sim.y, cov, hyper, cfg, base_params=(emission, trans, latents))
    elapsed = time.time() - t0
    con = draws.constrained()
    zs = []
    for k, name in enumerate(draws.names):
        ess = max(diag.ess[name], 2.0)
        mean_mcse = con[:, k].std(ddof=1) / math.sqrt(ess)
        z_mean = (con[:, k].mean() - post_mean[k]) / mean_mcse
        assert abs(z_mean) <= 3.0, f"{name}: posterior mean off by {z_mean:.2f} mcse"
        var_hat = con[:, k].var(ddof=1)
        var_mcse = var_hat * math.sqrt(2.0 / ess)
        z_var = (var_hat - post_cov[k, k]) / var_mcse
        assert abs(z_var) <= 3.0, f"{name}: posterior variance off by {z_var:.2f} mcse"
        zs.append((z_mean, z_var))
    assert elapsed < 120.0
    print(f"\nCRITERION 6: PASS (mean z = {[f'{a:.2f}' for a, _ in zs]}, "
          f"var z = {[f'{b:.2f}' for _, b in zs]}, {elapsed:.0f}s)")


def test_criterion_07_parameter_recovery(desk, four_fit):
    draws, diag, elapsed = four_fit
    emission, trans, latents = desk["truth"]
    assert diag.max_rhat < 1.05, f"max R-hat {diag.max_rhat:.4f}"

    space = draws.space
    truth_con = space.constrained_values(space.pack(emission, trans, latents))
    con = draws.constrained()
    hits = 0
    misses = []
    for name in DESIGNATED_PARAMETERS:
        k = draws.names.index(name)
        lo, hi = np.quantile(con[:, k], [0.05, 0.95])
        tv = truth_con[space.names.index(name)]
        if lo <= tv <= hi:
            hits += 1
        else:
            misses.append(name)
    assert hits >= 16, f"coverage {hits}/20, missed {misses}"
    assert elapsed <= 1800.0, f"fit took {elapsed / 60:.1f} min"
    print(f"\nCRITERION 7: PASS (max R-hat {diag.max_rhat:.4f}, min ESS "
          f"{diag.min_ess:.0f}, coverage {hits}/20, fit {elapsed / 60:.1f} min)")


def test_criterion_08_state_recovery(desk, four_fit):
    draws, _, _ = four_fit
    cov, sim = desk["cov"], desk["sim"]
    smoothed = rao_blackwell_states(draws, sim.y, cov)
    modal = np.argmax(smoothed.probs, axis=1) + 1
    true = sim.states
    prox = np.isin(true, (1, 3))
    far = (true == 4) & (cov.gap > 5)
    acc_prox = float((modal[prox] == true[prox]).mean())
    acc_far = float((modal[far] == true[far]).mean())
    assert acc_prox >= 0.90, f"proximity-state accuracy {acc_prox:.3f}"
    assert acc_far >= 0.99, f"far-normal accuracy {acc_far:.4f}"
    print(f"\nCRITERION 8: PASS (proximity {acc_prox:.3f} on {prox.sum()} days, "
          f"far-normal {acc_far:.4f} on {far.sum()} days)")


def test_criterion_09_ppc_contrast(desk, four_fit, two_fit):
    cov, sim = desk["cov"], desk["sim"]
    draws4, _, _ = four_fit
    draws2, diag2 = two_fit
    assert diag2.max_rhat < 1.05
    reps4 = posterior_predictive_replicates(draws4, sim.y, cov, seed=555)
    reps2 = posterior_predictive_replicates(draws2, sim.y, cov, seed=555)
    cov4 = coverage_by_gap(reps4, sim.y, cov)
    cov2 = coverage_by_gap(reps2, sim.y, cov)
    g1_four = cov4.fraction_for("1")
    g1_two = cov2.fraction_for("1")
    assert g1_two > g1_four, f"two-state {g1_two:.3f} not above four-state {g1_four:.3f}"
    assert 0.01 <= g1_four <= 0.09, f"four-state gap-1 exceedance {g1_four:.4f}"
    # the restricted model cannot dip near holidays: it overestimates demand
    gap1 = cov.gap[1:] == 1
    bias_two = float((reps2.mean(axis=0) - sim.y)[gap1].mean())
    bias_four = float((reps4.mean(axis=0) - sim.y)[gap1].mean())
    assert bias_two > 0.0
    assert bias_two > bias_four
    print(f"\nCRITERION 9: PASS (gap-1 exceedance four {g1_four:.4f} vs two "
          f"{g1_two:.4f}; gap-1 bias four {bias_four:+.4f} vs two {bias_two:+.4f})")


def test_criterion_10_fit_determinism(tmp_path):
    from demandhmm.generative import uk_holiday_calendar

    uk_holiday_calendar(2020, 2023).to_csv(tmp_path / "holidays.csv")
    (tmp_path / "config.txt").write_text("preset = paper-like\nk_annual = 2\nk_prec_annual = 2\n")
    rc = cli_main([
        "simulate", "--holidays", str(tmp_path / "holidays.csv"),
        "--config", str(tmp_path / "config.txt"), "--seed", "200",
        "--out-dir", str(tmp_path / "sim"), "--start", "2021-01-02", "--days", "380",
    ])
    assert rc == 0
    hashes = []
    for run in ("a", "b"):
        rc = cli_main([
            "fit", "--data", str(tmp_path / "sim" / "data.csv"),
            "--holidays", str(tmp_path / "holidays.csv"),
            "--config", str(tmp_path / "config.txt"), "--seed", "17",
            "--out-dir", str(tmp_path / f"fit_{run}"), "--chains", "2",
            "--iters", "300", "--thin", "5", "--backend", "adaptive-metropolis",
        ])
        assert rc == 0
        hashes.append(hashlib.sha256((tmp_path / f"fit_{run}" / "draws.csv").read_bytes()).hexdigest())
    assert hashes[0] == hashes[1]
    print(f"\nCRITERION 10: PASS (draws CSV sha256 {hashes[0][:16]}... identical)")
