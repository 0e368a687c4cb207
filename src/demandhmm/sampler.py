"""Posterior sampling over the joint parameter vector.

``run_mcmc`` runs every sampler: it builds the posterior and the chain RNGs,
draws the chain starts, runs the chosen backend's iterations, counts
acceptance and divergences after warmup and keeps every ``thin``-th state.
Each backend in ``BACKENDS`` runs its own pre-phase and then only steps,
handing ``run_mcmc`` its chains' states after every iteration:

* ``hmc``: an Adam ascent into the typical set, then fixed-trajectory
  Hamiltonian Monte Carlo with jittered leapfrog count, dual-averaging
  step-size adaptation and a diagonal mass matrix estimated during warmup.
  Gradients are exact reverse mode in numpy
  (``NumpyPosterior.logpost_and_grad_batch``), checked against finite
  differences in the tests; the chains advance together, one batched call
  per leapfrog step.
* ``adaptive-metropolis``: a greedy stochastic climb, then blockwise
  Gaussian random-walk with per-block empirical proposal covariances and
  acceptance-targeted scales, adapted during warmup only. It steps block by
  block across the chains: each chain draws its proposal from its own
  stream, one call values every chain's proposal, and each chain accepts or
  rejects from its own stream.

All chains are valued in one batched pass: ``NumpyPosterior`` runs its
forward and reverse passes once over a (C, D) block, and each row's value
and gradient are bit for bit what that row gives alone, so a chain's draws
do not depend on how many chains run beside it. A row that cannot be valued
is marked, not retried: it reads -inf, with a zero gradient, in that pass.

Both use numpy RNG streams spawned deterministically from the master seed
(stream ``[seed, 1000 + c]`` drives chain ``c``, ``[seed, 999]`` the shared
trajectory-length jitter), so runs are reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics as diag
# the functions perfbench traces are called through their module, where its tracer wraps them
from . import emission as emission_module
from . import priors
from .covariates import CovariateSeries
from .emission import day_tables_adjoint
from .filtering import log_likelihood_adjoint, log_likelihood_tape, validate_series
from .paramspace import ParamSpace, PosteriorDraws
from .priors import Hyperparameters, log_prior_grad
from .states import ModelMode, log_transition_tables_adjoint


# Fixed tuning: the leapfrog count varies by this fraction either side of
# ``n_leapfrog``, HMC starts at this step size and adapts it to this acceptance
# rate, random-walk blocks of more than two coordinates target this acceptance
# rate, and each chain start tries this many prior draws for a finite log posterior.
_LEAPFROG_JITTER = 0.2
_INIT_STEP_SIZE = 0.05
_HMC_TARGET_ACCEPT = 0.8
_RWM_TARGET_ACCEPT = 0.234
_MAX_INIT_RETRIES = 100


class SamplingError(ArithmeticError):
    """Raised when sampling cannot start or breaks down numerically."""


@dataclass
class SamplerConfig:
    n_chains: int = 4
    n_iterations: int = 10000
    burn_in: float = 0.5
    thin: int = 10
    algorithm: str = "hmc"              # a key of BACKENDS
    seed: int = 0
    n_leapfrog: int = 16
    free: list | None = None

    def __post_init__(self):
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        if not 0.0 < self.burn_in < 1.0:
            raise ValueError("burn_in fraction must lie in (0, 1)")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.algorithm not in BACKENDS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


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
        """The largest R-hat, infinite ones included; NaN (undefined) ones are skipped."""
        vals = [v for v in self.rhat.values() if not np.isnan(v)]
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
    """Log posterior on the unconstrained free vector, and its gradient.

    ``__call__`` and ``logpost_and_grad_batch`` share one forward pass
    (unpack, prior, day tables, kernels, tree product, log-Jacobian) that
    values all the rows of a (C, D) block at once, every array carrying a
    leading row axis, over the design built once in ``__init__``; one row
    (D,) is the block of one. The gradient runs its adjoints in reverse over
    the intermediates that pass keeps, over the same axis. Each row's value
    and gradient are bit for bit what that row gives alone: numpy's stacked
    products, solves and last-axis reductions treat each row as it would
    treat it alone.
    """

    def __init__(
        self,
        y: np.ndarray,
        cov: CovariateSeries,
        hyper: Hyperparameters,
        space: ParamSpace,
        base_full: np.ndarray | None = None,
    ):
        self.y = validate_series(y, cov)
        self.cov = cov
        self.design = emission_module.build_design(cov, space.k_annual, space.k_prec_annual)
        self.hyper = hyper
        self.space = space
        self.base_full = (
            np.zeros(space.full_size) if base_full is None else np.asarray(base_full, dtype=np.float64)
        )

    def _forward(self, q: np.ndarray):
        """``(values, rows, state)`` at the (C, D) rows of ``q``.

        A row whose prior is not finite is left out of the likelihood, and
        so is one whose likelihood is not. A row whose first-day law cannot
        be valued (``DayTables.valid`` is False: not positive definite, or a
        singular Lyapunov system) reads -inf but stays in the pass, so the
        block's day tables are built once. ``state`` is what the gradient
        needs at the rows ``rows``, and None if there are none.
        """
        values = np.full(q.shape[0], -np.inf)
        rows = np.arange(q.shape[0])
        while rows.size:
            full = self.space.insert_free(self.base_full, q[rows])
            emission, trans, latents = self.space.unpack(full)
            lp = priors.log_prior(emission, trans, latents, self.hyper)
            keep = np.isfinite(lp)
            if keep.all():
                tables = emission_module.build_day_tables(emission, self.design, per_row=True)
                loglik, tape = log_likelihood_tape(self.y, self.cov, tables, trans)
                keep = np.isfinite(loglik)
                if keep.all():
                    value = loglik + lp + self.space.log_jacobian(full)
                    values[rows] = np.where(tables.valid, value, -np.inf)
                    return values, rows, (full, emission, trans, latents, tables, tape)
            rows = rows[keep]
        return values, rows, None

    def __call__(self, u_free: np.ndarray):
        """Log posterior of one row (D,), a float, or of each row of a (C, D) block."""
        u_free = np.asarray(u_free, dtype=np.float64)
        values = self._forward(u_free.reshape(-1, u_free.shape[-1]))[0]
        return float(values[0]) if u_free.ndim == 1 else values

    def _gradient(self, full, emission, trans, latents, tables, tape) -> np.ndarray:
        g_tables, g_loglam = log_likelihood_adjoint(tape, tables)
        grads = log_prior_grad(emission, trans, latents, self.hyper)
        for name, g in day_tables_adjoint(emission, self.design, tables, *g_tables).items():
            grads[name] = grads.get(name, 0.0) + g
        if trans is not None:
            n, p = self.cov.n[1:], self.cov.p[1:]
            grads["trans"] = grads["trans"] + log_transition_tables_adjoint(trans, n, p, g_loglam)
        return self.space.log_jacobian_chain(full, grads)[..., self.space.free_idx]

    def logpost_and_grad_batch(self, q: np.ndarray):
        """Values (C,) and gradients (C, D) at the rows of ``q``, in one pass.

        Each value and gradient equals that of the row alone exactly, and
        each value equals ``self(q[c])``; where it is -inf the gradient is 0.
        """
        values, rows, state = self._forward(np.asarray(q, dtype=np.float64))
        grads = np.zeros(np.shape(q))
        if state is not None:
            grads[rows] = self._gradient(*state)
            grads[values == -np.inf] = 0.0
        return values, grads


def _moment_overrides(u_full, posterior, rng):
    """Data-driven starting values for the location/scale blocks.

    Raw prior draws put the intercepts and log precisions hundreds of
    posterior standard deviations out, where both backends can strand in a
    unit-root ridge; the structural holiday/transition/decay blocks keep
    their prior draws so chains stay overdispersed where the hidden-state
    inference happens.
    """
    y, space = posterior.y, posterior.space
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
            wt = posterior.cov.w_tilde[:, j]
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


def _initial_points(posterior, rngs):
    """Overdispersed starts ``(q, lp)``, one per chain RNG, retried until the posterior is finite.

    Structural parameters start at prior draws; the location/scale blocks are
    overridden with values moment-matched to the data.
    """
    space = posterior.space
    points, values = [], []
    for c, rng in enumerate(rngs):
        for _ in range(_MAX_INIT_RETRIES):
            u_full = space.pack(*priors.sample_prior(posterior.hyper, rng, space.mode))
            u_free = space.extract_free(_moment_overrides(u_full, posterior, rng))
            lp = posterior(u_free)
            if np.isfinite(lp):
                points.append(u_free)
                values.append(lp)
                break
        else:
            raise SamplingError(
                f"no finite log posterior found for chain {c} after "
                f"{_MAX_INIT_RETRIES} prior draws"
            )
    return np.asarray(points), np.asarray(values)


# ---------------------------------------------------------------------------
# Hamiltonian backend


class _DualAveraging:
    """Nesterov dual averaging of the log step size (Stan's schedule)."""

    def __init__(self, eps0: float, target: float):
        self.target = target
        self.gamma, self.t0, self.kappa = 0.05, 10.0, 0.75
        self.restart(eps0)

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


def _ascend(posterior, q):
    """Adam ascent moving each start into the typical set before warmup.

    Handles the posterior's widely varying per-coordinate curvature, which a
    plain gradient step cannot. Runs in two stages: the bulk regression
    parameters first, then everything. Warmup-only preprocessing; the Markov
    kernel used for retained draws is untouched.
    """
    stage2 = set(_ASCENT_STAGE2_FAMILIES)
    mask = np.array([n not in stage2 for n in _family_of_free(posterior.space)], dtype=np.float64)
    q, _, _ = _adam_phase(posterior, q, 800, 0.1, mask)
    q, _, _ = _adam_phase(posterior, q, 400, 0.05, np.ones_like(mask))
    q, lp, grad = _adam_phase(posterior, q, 600, 0.01, np.ones_like(mask))
    return q, lp, grad


def _family_of_free(space: ParamSpace):
    """Family name of each free coordinate, in free-vector order."""
    family = [f.name for f in space.families for _ in f.scalar_names]
    return [family[i] for i in space.free_idx]


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


def _hmc_step(posterior, q0, lp0, g0, p0, log_u, eps, inv_mass, n_leap):
    """One leapfrog trajectory and accept step for every chain (leading axis).

    ``inv_mass`` is the diagonal of the inverse mass matrix (the posterior
    variance estimate); momenta are drawn with per-coordinate standard
    deviation ``1 / sqrt(inv_mass)``. Returns ``(q, lp, grad, accept_prob,
    accepted, divergent)``; an energy error that is not finite or above 1000
    counts as divergent and is rejected.
    """
    e = eps[:, None]
    q, p, g, lp = q0, p0, g0, lp0
    # a diverging trajectory overflows its momenta to an infinite energy: divergent
    with np.errstate(over="ignore"):
        for _ in range(n_leap):
            p = p + 0.5 * e * g
            q = q + e * inv_mass * p
            lp, g = posterior.logpost_and_grad_batch(q)
            p = p + 0.5 * e * g
        k0 = 0.5 * np.sum(inv_mass * p0 * p0, axis=1)
        k1 = 0.5 * np.sum(inv_mass * p * p, axis=1)
        d_h = (k1 - lp) - (k0 - lp0)
    finite = np.isfinite(d_h)
    alpha = np.where(finite, np.minimum(1.0, np.exp(-np.maximum(d_h, -50.0))), 0.0)
    divergent = ~finite | (d_h > 1000.0)
    accept = (log_u < -d_h) & ~divergent
    keep = accept[:, None]
    return (
        np.where(keep, q, q0),
        np.where(accept, lp, lp0),
        np.where(keep, g, g0),
        alpha,
        accept,
        divergent,
    )


def _hmc(posterior, q, lp, rngs, warmup, config):
    """HMC after an Adam ascent from ``q``; yields each iteration's hand-off.

    Warmup adapts the step size by dual averaging and the diagonal mass matrix
    over expanding windows; ``lp`` is recomputed by the ascent.
    """
    jitter_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 999]))
    C, D = q.shape
    q, lp, grad = _ascend(posterior, q)

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
    eps = np.full(C, _INIT_STEP_SIZE)
    inv_mass = np.ones((C, D))
    das = [_DualAveraging(_INIT_STEP_SIZE, _HMC_TARGET_ACCEPT) for _ in range(C)]
    window: list = []

    l_lo = max(1, int(round(config.n_leapfrog * (1.0 - _LEAPFROG_JITTER))))
    l_hi = max(l_lo, int(round(config.n_leapfrog * (1.0 + _LEAPFROG_JITTER))))

    for it in range(config.n_iterations):
        n_leap = int(jitter_rng.integers(l_lo, l_hi + 1))
        mom = np.stack([rng.standard_normal(D) for rng in rngs])
        mom /= np.sqrt(inv_mass)
        log_u = np.log(np.stack([rng.random() for rng in rngs]))
        q, lp, grad, alpha, accepted, divergent = _hmc_step(
            posterior, q, lp, grad, mom, log_u, eps, inv_mass, n_leap
        )
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
        yield it, q, lp, accepted, 1, divergent


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
    """Free-vector indices of each ``_BLOCK_GROUPS`` group that has free coordinates."""
    family = np.array(_family_of_free(space), dtype=object)
    blocks = [np.flatnonzero(np.isin(family, group)) for group in _BLOCK_GROUPS]
    return [b for b in blocks if b.size]


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
    improvement and shrinks otherwise. Block-major like ``_rwm``: each chain
    draws from its own stream, one call values every chain's proposal.
    """
    C = q.shape[0]
    scales = np.full((C, len(blocks)), 0.1)
    for _ in range(n_iter):
        for b, idx in enumerate(blocks):
            prop = q.copy()
            for c, rng in enumerate(rngs):
                prop[c, idx] = q[c, idx] + scales[c, b] * rng.standard_normal(len(idx)) / math.sqrt(len(idx))
            lp_prop = posterior(prop)
            up = lp_prop > lp
            q[up] = prop[up]
            lp[up] = lp_prop[up]
            scales[:, b] *= np.where(up, 1.3, 0.92)
    return q, lp


def _rwm(posterior, q, lp, rngs, warmup, config):
    """Blockwise adaptive Metropolis after a greedy climb; yields each iteration's hand-off.

    The climb takes the first iterations of warmup; the block adapters learn
    from the rest of it. Each iteration steps block by block across the
    chains: every chain draws its proposal from its own stream, one call
    values all the proposals, and each chain accepts or rejects from its own
    stream, so a chain's draws do not depend on the other chains.
    """
    C = q.shape[0]
    blocks = _free_blocks(posterior.space)
    adapters = [[_BlockAdapter(len(b), _RWM_TARGET_ACCEPT) for b in blocks] for _ in range(C)]
    climb = min(300, warmup // 3)
    q, lp = _climb(posterior, q, lp, blocks, rngs, climb)

    for it in range(climb, config.n_iterations):
        accepted = np.zeros(C)
        for b, idx in enumerate(blocks):
            prop = q.copy()
            for c, rng in enumerate(rngs):
                prop[c, idx] = q[c, idx] + adapters[c][b].chol() @ rng.standard_normal(len(idx))
            lp_prop = posterior(prop)
            for c, rng in enumerate(rngs):
                ratio = lp_prop[c] - lp[c]
                alpha = 1.0 if ratio >= 0 else math.exp(max(ratio, -700.0))
                if rng.random() < alpha:
                    q[c] = prop[c]
                    lp[c] = lp_prop[c]
                    accepted[c] += 1
                if it < warmup:
                    adapters[c][b].tune(alpha)
                    adapters[c][b].observe(q[c, idx].copy())
        yield it, q, lp, accepted, len(blocks), 0


# ---------------------------------------------------------------------------
# Driver


# Each backend runs its own pre-phase from the chain starts, then yields
# ``(it, q, lp, accepted, proposed, divergent)`` after every iteration ``it``:
# the (C, d) states and (C,) log posteriors, the moves accepted and proposed
# per chain and the divergent trajectories.
BACKENDS = {"hmc": _hmc, "adaptive-metropolis": _rwm}


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
    values when ``config.free`` restricts the sampled families. Acceptance
    and divergences count after warmup only; every ``thin``-th post-warmup
    iteration is kept, rows iteration-major and chain-minor.
    """
    space = ParamSpace(hyper.k_annual, hyper.k_prec_annual, mode, free=config.free)
    if config.free is not None:
        if base_params is None:
            raise ValueError("free-family sampling requires base_params for the pinned values")
        base_full = space.pack(*base_params)
    else:
        base_full = np.zeros(space.full_size)
    posterior = NumpyPosterior(y, cov, hyper, space, base_full)
    rngs = [
        np.random.default_rng(np.random.SeedSequence([config.seed, 1000 + c]))
        for c in range(config.n_chains)
    ]
    q, lp = _initial_points(posterior, rngs)
    warmup = int(config.n_iterations * config.burn_in)

    accepts = np.zeros(config.n_chains)
    proposals = np.zeros(config.n_chains)
    divergences = 0
    kept_q, kept_lp, kept_it = [], [], []
    steps = BACKENDS[config.algorithm](posterior, q, lp, rngs, warmup, config)
    for it, q, lp, accepted, proposed, divergent in steps:
        if it < warmup:
            continue
        accepts += accepted
        proposals += proposed
        divergences += int(np.sum(divergent))
        if (it - warmup) % config.thin == 0:
            kept_q.append(q.copy())
            kept_lp.append(lp.copy())
            kept_it.append(it)

    draws = PosteriorDraws(
        free_draws=np.concatenate(kept_q),
        logpost=np.concatenate(kept_lp),
        chain=np.tile(np.arange(config.n_chains, dtype=np.int64), len(kept_it)),
        iteration=np.repeat(np.asarray(kept_it, dtype=np.int64), config.n_chains),
        space=space,
        base_full=base_full,
    )
    return draws, compute_diagnostics(draws, accepts / np.maximum(proposals, 1), divergences)


def compute_diagnostics(draws: PosteriorDraws, accept_rate, divergences: int) -> Diagnostics:
    """Split R-hat and bulk ESS per scalar, from one rank-normalised pass each;
    R-hat needs at least two chains."""
    by_chain = draws.by_chain()  # (C, n, d)
    n_chains = by_chain.shape[0]
    rhat, ess = {}, {}
    for k, name in enumerate(draws.names):
        r, ess[name] = diag.rank_diagnostics(by_chain[:, :, k])
        rhat[name] = r if n_chains >= 2 else np.nan
    return Diagnostics(
        rhat=rhat,
        ess=ess,
        accept_rate=np.asarray(accept_rate, dtype=np.float64),
        divergences=divergences,
        n_retained=draws.n_draws,
    )
