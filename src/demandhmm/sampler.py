"""Posterior sampling over the joint parameter vector.

Two interchangeable backends work on the unconstrained parameter vector:

* ``hmc``: fixed-trajectory Hamiltonian Monte Carlo with jittered leapfrog
  count, dual-averaging step-size adaptation and a diagonal mass matrix
  estimated during warmup. Gradients come from the jax mirror of the
  posterior; the four chains advance in one batched call.
* ``adaptive-metropolis``: blockwise Gaussian random-walk with per-block
  empirical proposal covariances and acceptance-targeted scales, adapted
  during warmup only.

Both use numpy RNG streams spawned deterministically from the master seed
(stream ``[seed, 1000 + c]`` drives chain ``c``, ``[seed, 999]`` the shared
trajectory-length jitter), so runs are reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics as diag
from .covariates import CovariateSeries
from .emission import build_design
from .filtering import forward_filter
from .paramspace import ParamSpace
from .priors import Hyperparameters, log_prior, sample_prior
from .states import ModelMode


class SamplingError(RuntimeError):
    """Raised when sampling cannot start or breaks down numerically."""


@dataclass
class SamplerConfig:
    n_chains: int = 4
    n_iterations: int = 10000
    burn_in: float = 0.5
    thin: int = 10
    algorithm: str = "hmc"              # or "adaptive-metropolis"
    seed: int = 0
    n_leapfrog: int = 16
    leapfrog_jitter: float = 0.2
    target_accept: float = 0.8
    init_step_size: float = 0.05
    rwm_target_accept: float = 0.234
    max_init_retries: int = 100
    free: list | None = None

    def __post_init__(self):
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")
        if not 0.0 < self.burn_in < 1.0:
            raise ValueError("burn_in fraction must lie in (0, 1)")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.algorithm not in ("hmc", "adaptive-metropolis"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


@dataclass
class PosteriorDraws:
    """Retained draws in unconstrained free coordinates plus provenance."""

    free_draws: np.ndarray              # (M, d)
    logpost: np.ndarray                 # (M,)
    chain: np.ndarray                   # (M,)
    iteration: np.ndarray               # (M,)
    space: ParamSpace
    base_full: np.ndarray               # pinned values for non-free entries

    @property
    def n_draws(self) -> int:
        return self.free_draws.shape[0]

    @property
    def mode(self) -> ModelMode:
        return self.space.mode

    @property
    def names(self) -> tuple:
        return self.space.free_names

    def full_vector(self, i: int) -> np.ndarray:
        return self.space.insert_free(self.base_full, self.free_draws[i])

    def params_at(self, i: int):
        return self.space.unpack(self.full_vector(i))

    def constrained(self) -> np.ndarray:
        """(M, d) natural-space values of the free coordinates."""
        out = np.empty_like(self.free_draws)
        for i in range(self.n_draws):
            out[i] = self.space.constrained_values(self.full_vector(i))[self.space.free_idx]
        return out

    def by_chain(self) -> np.ndarray:
        """(n_chains, n_per_chain, d) view; requires balanced chains."""
        chains = np.unique(self.chain)
        per = [self.free_draws[self.chain == c] for c in chains]
        n = min(p.shape[0] for p in per)
        return np.stack([p[:n] for p in per])


@dataclass
class Diagnostics:
    rhat: dict
    ess: dict
    accept_rate: np.ndarray             # per chain
    divergences: int
    n_retained: int
    notes: dict = field(default_factory=dict)

    @property
    def max_rhat(self) -> float:
        vals = [v for v in self.rhat.values() if np.isfinite(v)]
        return max(vals) if vals else np.nan

    @property
    def min_ess(self) -> float:
        vals = [v for v in self.ess.values() if np.isfinite(v)]
        return min(vals) if vals else np.nan

    def to_dict(self) -> dict:
        return {
            "rhat": {k: diag.json_number(v) for k, v in self.rhat.items()},
            "ess": {k: diag.json_number(v) for k, v in self.ess.items()},
            "max_rhat": diag.json_number(self.max_rhat),
            "min_ess": diag.json_number(self.min_ess),
            "accept_rate": [float(a) for a in self.accept_rate],
            "divergences": int(self.divergences),
            "n_retained": int(self.n_retained),
            "notes": self.notes,
        }


class NumpyPosterior:
    """Reference log posterior on the unconstrained free vector."""

    def __init__(
        self,
        y: np.ndarray,
        cov: CovariateSeries,
        hyper: Hyperparameters,
        space: ParamSpace,
        base_full: np.ndarray | None = None,
    ):
        self.y = np.asarray(y, dtype=np.float64)
        self.cov = cov
        self.hyper = hyper
        self.space = space
        self.base_full = (
            np.zeros(space.full_size) if base_full is None else np.asarray(base_full, dtype=np.float64)
        )
        self.design = build_design(cov, space.k_annual, space.k_prec_annual)

    def __call__(self, u_free: np.ndarray) -> float:
        full = self.space.insert_free(self.base_full, u_free)
        emission, trans, latents = self.space.unpack(full)
        lp = log_prior(emission, trans, latents, self.hyper, self.space.mode)
        if not np.isfinite(lp):
            return -np.inf
        try:
            loglik, _ = forward_filter(
                self.y, self.cov, emission, trans, self.space.mode, self.design
            )
        except (ValueError, FloatingPointError):
            return -np.inf
        if not np.isfinite(loglik):
            return -np.inf
        return loglik + lp + self.space.log_jacobian(full)


def log_posterior(u_free, y, cov, hyper, space, base_full=None) -> float:
    """Convenience single-shot evaluation; see ``NumpyPosterior``."""
    return NumpyPosterior(y, cov, hyper, space, base_full)(np.asarray(u_free, dtype=np.float64))


def _chain_rng(seed: int, chain: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, 1000 + chain]))


def _moment_overrides(u_full, space, y, cov, rng):
    """Data-driven starting values for the location/scale blocks.

    Raw prior draws put the intercepts and log precisions hundreds of
    posterior standard deviations out, where both backends can strand in a
    unit-root ridge; the structural holiday/transition/decay blocks keep
    their prior draws so chains stay overdispersed where the hidden-state
    inference happens.
    """
    u = u_full.copy()
    ybar = y.mean(axis=0)

    def have(name):
        return space.free is None or name in space.free

    if have("level"):
        u[space.slice("level")] = ybar + 0.05 * rng.standard_normal(2)
    if have("mu_level"):
        u[space.slice("mu_level")] = ybar.mean() + 0.1 * rng.standard_normal()
    if have("prec_base"):
        resid_var = np.maximum(np.var(np.diff(y, axis=0), axis=0) / 2.0, 1e-10)
        u[space.slice("prec_base")] = np.array(
            [0.0, -math.log(resid_var[0]), -math.log(resid_var[1])]
        ) + 0.3 * rng.standard_normal(3)
    if have("weather"):
        w = np.empty(4)
        for j in range(2):
            wt = cov.w_tilde[:, j]
            denom = float(wt @ wt)
            slope = float(wt @ (y[:, j] - ybar[j])) / denom if denom > 0 else 0.0
            w[2 * j] = slope + 0.01 * rng.standard_normal()
            w[2 * j + 1] = 0.001 * rng.standard_normal()
        u[space.slice("weather")] = w
    if have("mu_weather"):
        u[space.slice("mu_weather")] = 0.02 * rng.standard_normal(2)
    for fam in ("annual", "weekday", "prec_annual", "mu_annual", "mu_weekday"):
        if have(fam):
            s = space.slice(fam)
            u[s] = 0.02 * rng.standard_normal(s.stop - s.start)
    return u


def _initial_points(posterior, hyper, space, config, logpost_fn, rngs, y=None, cov=None):
    """Overdispersed chain starts, retried until the posterior is finite.

    Structural parameters start at prior draws; when the data is supplied the
    location/scale blocks are overridden with moment-matched values.
    """
    points, values = [], []
    for c in range(config.n_chains):
        rng = rngs[c]
        ok = False
        for _ in range(config.max_init_retries):
            emission, trans, latents = sample_prior(hyper, rng, space.mode)
            u_full = space.pack(emission, trans, latents)
            if y is not None:
                u_full = _moment_overrides(u_full, space, y, cov, rng)
            u_full = space.insert_free(posterior.base_full, space.extract_free(u_full))
            u_free = space.extract_free(u_full)
            lp = logpost_fn(u_free)
            if np.isfinite(lp):
                points.append(u_free)
                values.append(lp)
                ok = True
                break
        if not ok:
            raise SamplingError(
                f"no finite log posterior found for chain {c} after "
                f"{config.max_init_retries} prior draws"
            )
    return np.asarray(points), np.asarray(values)


# ---------------------------------------------------------------------------
# Hamiltonian backend


class _DualAveraging:
    """Nesterov dual averaging of the log step size (Stan's schedule)."""

    def __init__(self, eps0: float, target: float):
        self.mu = math.log(10.0 * eps0)
        self.target = target
        self.log_eps = math.log(eps0)
        self.log_eps_bar = 0.0
        self.h_bar = 0.0
        self.count = 0
        self.gamma, self.t0, self.kappa = 0.05, 10.0, 0.75

    def update(self, alpha: float) -> float:
        self.count += 1
        m = self.count
        self.h_bar = (1.0 - 1.0 / (m + self.t0)) * self.h_bar + (self.target - alpha) / (m + self.t0)
        self.log_eps = self.mu - math.sqrt(m) / self.gamma * self.h_bar
        eta = m ** (-self.kappa)
        self.log_eps_bar = eta * self.log_eps + (1.0 - eta) * self.log_eps_bar
        return math.exp(self.log_eps)

    def restart(self, eps: float):
        self.mu = math.log(10.0 * eps)
        self.log_eps = math.log(eps)
        self.log_eps_bar = 0.0
        self.h_bar = 0.0
        self.count = 0

    @property
    def adapted(self) -> float:
        return math.exp(self.log_eps_bar)


# Parameters held at their initial draws during the first ascent stage.
# Released too early, the holiday/decay/transition blocks can absorb a wrong
# intercept by relabelling the whole state path, and the AR eigenvalues can
# race to the unit-root boundary where the level is unidentified, stranding
# chains in minor modes.
_ASCENT_STAGE2_FAMILIES = (
    "trans", "holiday", "mu_holiday", "prec_holiday", "ar_eig01",
    "decay_mean", "decay_prec", "logit_decay_mean", "mu_logit_decay",
)


def _ascend(posterior, q, space):
    """Adam ascent moving each start into the typical set before warmup.

    Handles the posterior's widely varying per-coordinate curvature, which a
    plain gradient step cannot. Runs in two stages: the bulk regression
    parameters first, then everything. Warmup-only preprocessing; the Markov
    kernel used for retained draws is untouched.
    """
    stage2 = set(_ASCENT_STAGE2_FAMILIES)
    mask = np.array([n not in stage2 for n in _family_of_free(space)], dtype=np.float64)
    q, _, _ = _adam_phase(posterior, q, 800, 0.1, mask)
    q, _, _ = _adam_phase(posterior, q, 400, 0.05, np.ones_like(mask))
    q, lp, grad = _adam_phase(posterior, q, 600, 0.01, np.ones_like(mask))
    return q, lp, grad


def _family_of_free(space: ParamSpace):
    """Family name of each free coordinate, in free-vector order."""
    fam_by_name = {}
    for f in space.families:
        for n in f.scalar_names:
            fam_by_name[n] = f.name
    return [fam_by_name[n] for n in space.free_names]


def _adam_phase(posterior, q, n_steps: int, lr: float, mask: np.ndarray):
    """One Adam stage over all chains; keeps the best point seen per chain."""
    q = q.copy()
    lp, grad = posterior.logpost_and_grad_batch(q)
    best_q, best_lp, best_grad = q.copy(), lp.copy(), grad.copy()
    m = np.zeros_like(q)
    v = np.zeros_like(q)
    b1, b2, eps = 0.9, 0.999, 1e-8
    stall = np.zeros(q.shape[0])
    for step in range(1, n_steps + 1):
        g = np.where(np.isfinite(grad), grad, 0.0) * mask[None, :]
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        mh = m / (1.0 - b1**step)
        vh = v / (1.0 - b2**step)
        q = q + lr * mh / (np.sqrt(vh) + eps)
        lp, grad = posterior.logpost_and_grad_batch(q)
        improved = np.isfinite(lp) & (lp > best_lp)
        best_q[improved] = q[improved]
        best_grad[improved] = grad[improved]
        stall = np.where(improved & (lp > best_lp + 0.5), 0, stall + 1)
        best_lp = np.where(improved, lp, best_lp)
        if np.all(stall > 50):
            break
    return best_q, best_lp, best_grad


def _run_hmc(y, cov, hyper, space, base_full, config):
    from . import jaxmodel

    posterior = jaxmodel.JaxPosterior(y, cov, hyper, space, base_full)
    np_posterior = NumpyPosterior(y, cov, hyper, space, base_full)
    step_fn = jaxmodel.make_hmc_step(posterior)

    chain_rngs = [_chain_rng(config.seed, c) for c in range(config.n_chains)]
    jitter_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 999]))
    q, _ = _initial_points(
        np_posterior, hyper, space, config, posterior.logpost, chain_rngs, y, cov
    )
    C, D = q.shape
    q, lp, grad = _ascend(posterior, q, space)

    warmup = int(config.n_iterations * config.burn_in)
    # expanding variance-estimation windows between step-size-only buffers,
    # so slow coordinates get progressively better mass estimates
    buffer = max(min(int(0.1 * warmup), 100), 10)
    window_ends = []
    start, width = buffer, 25
    while start + width < warmup - buffer:
        window_ends.append(start + width)
        start += width
        width *= 2
    if window_ends:
        window_ends[-1] = warmup - buffer
    else:
        window_ends = [max(warmup - buffer, buffer + 1)]
    window_ends_set = set(window_ends)
    win_lo = buffer
    eps = np.full(C, config.init_step_size)
    inv_mass = np.ones((C, D))
    das = [_DualAveraging(config.init_step_size, config.target_accept) for _ in range(C)]
    window: list = []

    l_lo = max(1, int(round(config.n_leapfrog * (1.0 - config.leapfrog_jitter))))
    l_hi = max(l_lo, int(round(config.n_leapfrog * (1.0 + config.leapfrog_jitter))))

    draws, lps, chains, iters = [], [], [], []
    accepts = np.zeros(C)
    n_kept_iters = 0
    divergences = 0

    for it in range(config.n_iterations):
        n_leap = int(jitter_rng.integers(l_lo, l_hi + 1))
        mom = np.stack([chain_rngs[c].standard_normal(D) for c in range(C)])
        mom /= np.sqrt(inv_mass)
        log_u = np.log(np.stack([chain_rngs[c].random() for c in range(C)]))
        qj, lpj, gj, alpha, accepted, divergent = step_fn(
            q, lp, grad, mom, log_u, eps, inv_mass, n_leap
        )
        q = np.asarray(qj)
        lp = np.asarray(lpj)
        grad = np.asarray(gj)
        alpha = np.asarray(alpha)
        if it >= warmup:
            divergences += int(np.asarray(divergent).sum())

        if it < warmup:
            for c in range(C):
                eps[c] = das[c].update(float(alpha[c]))
            if it >= win_lo:
                window.append(q.copy())
            if (it + 1) in window_ends_set and len(window) >= 5:
                w = np.stack(window)  # (n, C, D)
                n_w = w.shape[0]
                var = w.var(axis=0, ddof=1)
                inv_mass = var * (n_w / (n_w + 5.0)) + 1e-5 * (5.0 / (n_w + 5.0))
                for c in range(C):
                    das[c].restart(float(eps[c]))
                window.clear()
            if it == warmup - 1:
                eps = np.array([da.adapted for da in das])
        else:
            accepts += np.asarray(accepted, dtype=np.float64)
            n_kept_iters += 1
            if (it - warmup) % config.thin == 0:
                for c in range(C):
                    draws.append(q[c].copy())
                    lps.append(lp[c])
                    chains.append(c)
                    iters.append(it)

    return (
        np.asarray(draws),
        np.asarray(lps),
        np.asarray(chains),
        np.asarray(iters),
        accepts / max(n_kept_iters, 1),
        divergences,
    )


# ---------------------------------------------------------------------------
# Adaptive random-walk backend


_BLOCK_GROUPS = (
    ("trans",),
    ("ar_eig01",),
    ("level", "mu_level"),
    ("holiday", "mu_holiday"),
    ("annual", "mu_annual"),
    ("weekday", "mu_weekday"),
    ("weather", "mu_weather"),
    ("decay_mean", "decay_prec", "logit_decay_mean", "mu_logit_decay"),
    ("prec_base",),
    ("prec_holiday",),
    ("prec_annual",),
)


def _free_blocks(space: ParamSpace):
    name_pos = {n: i for i, n in enumerate(space.free_names)}
    present = set()
    for f in space.families:
        if space.free is None or f.name in space.free:
            present.add(f.name)
    blocks = []
    for group in _BLOCK_GROUPS:
        idx = []
        for fam in group:
            if fam in present:
                for f in space.families:
                    if f.name == fam:
                        idx.extend(name_pos[n] for n in f.scalar_names)
        if idx:
            blocks.append(np.array(sorted(idx), dtype=np.int64))
    return blocks


class _BlockAdapter:
    """Welford moments plus an acceptance-targeted log scale for one block."""

    def __init__(self, dim: int, target: float):
        self.dim = dim
        self.target = target if dim > 2 else 0.44
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros((dim, dim))
        self.log_scale = 0.0
        self.updates = 0
        self._chol = np.eye(dim) * 0.1 / math.sqrt(dim)
        self._stale = True

    def observe(self, x: np.ndarray):
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += np.outer(delta, x - self.mean)
        if self.count % 50 == 0:
            self._stale = True

    def tune(self, alpha: float):
        self.updates += 1
        self.log_scale += (alpha - self.target) / self.updates**0.6

    def chol(self) -> np.ndarray:
        if self._stale and self.count > 2 * self.dim + 10:
            cov = self.m2 / (self.count - 1)
            cov = 2.38**2 / self.dim * cov + 1e-10 * np.eye(self.dim)
            try:
                self._chol = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                pass
            self._stale = False
        return self._chol * math.exp(self.log_scale)


def _climb(posterior, q, lp, blocks, rngs, n_iter):
    """Greedy stochastic ascent carrying remote starts into the typical set.

    Runs before any Metropolis adaptation and is discarded with the rest of
    warmup, so the retained kernel is unaffected. The step scale grows on
    improvement and shrinks otherwise.
    """
    C = q.shape[0]
    scales = np.full((C, len(blocks)), 0.1)
    for _ in range(n_iter):
        for c in range(C):
            rng = rngs[c]
            for b, idx in enumerate(blocks):
                prop = q[c].copy()
                prop[idx] = prop[idx] + scales[c, b] * rng.standard_normal(len(idx)) / math.sqrt(len(idx))
                lp_prop = posterior(prop)
                if lp_prop > lp[c]:
                    q[c] = prop
                    lp[c] = lp_prop
                    scales[c, b] *= 1.3
                else:
                    scales[c, b] *= 0.92
    return q, lp


def _run_rwm(y, cov, hyper, space, base_full, config):
    posterior = NumpyPosterior(y, cov, hyper, space, base_full)
    chain_rngs = [_chain_rng(config.seed, c) for c in range(config.n_chains)]
    q, lp = _initial_points(posterior, hyper, space, config, posterior, chain_rngs, y, cov)
    C, D = q.shape
    blocks = _free_blocks(space)
    adapters = [[_BlockAdapter(len(b), config.rwm_target_accept) for b in blocks] for _ in range(C)]

    warmup = int(config.n_iterations * config.burn_in)
    climb = max(0, min(300, warmup // 3))
    q, lp = _climb(posterior, q, lp, blocks, chain_rngs, climb)

    draws, lps, chains, iters = [], [], [], []
    accepts = np.zeros(C)
    proposals = np.zeros(C)

    for it in range(climb, config.n_iterations):
        for c in range(C):
            rng = chain_rngs[c]
            for b, idx in enumerate(blocks):
                ad = adapters[c][b]
                prop = q[c].copy()
                prop[idx] = prop[idx] + ad.chol() @ rng.standard_normal(len(idx))
                lp_prop = posterior(prop)
                ratio = lp_prop - lp[c]
                alpha = 1.0 if ratio >= 0 else math.exp(max(ratio, -700.0))
                if rng.random() < alpha:
                    q[c] = prop
                    lp[c] = lp_prop
                    if it >= warmup:
                        accepts[c] += 1
                if it >= warmup:
                    proposals[c] += 1
                if it < warmup:
                    ad.tune(alpha)
                    ad.observe(q[c][idx].copy())
        if it >= warmup and (it - warmup) % config.thin == 0:
            for c in range(C):
                draws.append(q[c].copy())
                lps.append(lp[c])
                chains.append(c)
                iters.append(it)

    rate = np.divide(accepts, np.maximum(proposals, 1))
    return (
        np.asarray(draws),
        np.asarray(lps),
        np.asarray(chains),
        np.asarray(iters),
        rate,
        0,
    )


# ---------------------------------------------------------------------------
# Driver


def run_mcmc(
    y: np.ndarray,
    cov: CovariateSeries,
    hyper: Hyperparameters,
    config: SamplerConfig,
    mode: ModelMode = ModelMode.FOUR_STATE,
    base_params=None,
):
    """Sample the posterior; returns ``(PosteriorDraws, Diagnostics)``.

    ``base_params`` (an ``(emission, trans, latents)`` triple) supplies pinned
    values when ``config.free`` restricts the sampled families.
    """
    space = ParamSpace(hyper.k_annual, hyper.k_prec_annual, mode, free=config.free)
    if config.free is not None:
        if base_params is None:
            raise ValueError("free-family sampling requires base_params for the pinned values")
        base_full = space.pack(*base_params)
    else:
        base_full = np.zeros(space.full_size)

    if config.algorithm == "hmc":
        out = _run_hmc(y, cov, hyper, space, base_full, config)
    else:
        out = _run_rwm(y, cov, hyper, space, base_full, config)
    free_draws, lps, chains, iters, accept_rate, divergences = out

    draws = PosteriorDraws(
        free_draws=free_draws,
        logpost=lps,
        chain=chains,
        iteration=iters,
        space=space,
        base_full=base_full,
    )
    dg = compute_diagnostics(draws, accept_rate, divergences)
    return draws, dg


def compute_diagnostics(
    draws: PosteriorDraws, accept_rate=None, divergences: int = 0
) -> Diagnostics:
    """Split R-hat and bulk ESS per scalar; R-hat needs at least two chains."""
    by_chain = draws.by_chain()  # (C, n, d)
    n_chains = by_chain.shape[0]
    rhat, ess = {}, {}
    for k, name in enumerate(draws.names):
        x = by_chain[:, :, k]
        ess[name] = diag.ess_bulk(x)
        rhat[name] = diag.split_rhat(x) if n_chains >= 2 else np.nan
    if accept_rate is None:
        accept_rate = np.full(n_chains, np.nan)
    return Diagnostics(
        rhat=rhat,
        ess=ess,
        accept_rate=np.asarray(accept_rate, dtype=np.float64),
        divergences=divergences,
        n_retained=draws.n_draws,
    )
