"""JAX mirror of the log posterior, used for gradient-based sampling.

The numpy path (``filtering`` + ``priors``) is the reference
implementation; this module re-expresses the identical arithmetic in jax so
the posterior is differentiable. The outputs of the two paths are checked
against one another in the test suite. Gradients back-propagate through the
forward filter via ``lax.scan``.

Structural zeros are carried as the large negative constant ``NEG`` rather
than -inf so that reverse-mode differentiation stays NaN-free; contributions
of ``exp(NEG - anything)`` underflow to exactly zero, so values agree with
the -inf convention of the reference path.
"""

from __future__ import annotations

import math

import numpy as np

try:
    import jax
    import jax.numpy as jnp
    from jax.scipy.special import logsumexp

    jax.config.update("jax_enable_x64", True)
    HAVE_JAX = True
except ImportError:  # pragma: no cover - exercised only without the hmc extra
    HAVE_JAX = False

from .covariates import CovariateSeries
from .emission import LOG_2PI, OMEGA_CLAMP
from .paramspace import ParamSpace
from .priors import ConfigError, Hyperparameters
from .states import LOGIT_CLAMP, ModelMode, initial_distribution

NEG = -1.0e30


def _require_jax():
    if not HAVE_JAX:
        raise ConfigError(
            "the hmc sampler backend needs jax; install 'demandhmm[hmc]' or "
            "use the adaptive-metropolis backend"
        )


def _log_sigmoid(x):
    x = jnp.clip(x, -LOGIT_CLAMP, LOGIT_CLAMP)
    return jnp.where(x >= 0, -jnp.log1p(jnp.exp(-x)), x - jnp.log1p(jnp.exp(x)))


def _expit(x):
    x = jnp.clip(x, -LOGIT_CLAMP, LOGIT_CLAMP)
    return jnp.where(x >= 0, 1.0 / (1.0 + jnp.exp(-x)), jnp.exp(x) / (1.0 + jnp.exp(x)))


def _norm_lpdf(x, m, v):
    return jnp.sum(-0.5 * (LOG_2PI + jnp.log(v)) - 0.5 * (x - m) ** 2 / v)


class JaxPosterior:
    """Differentiable log posterior for one dataset, mode and free-family set."""

    def __init__(
        self,
        y: np.ndarray,
        cov: CovariateSeries,
        hyper: Hyperparameters,
        space: ParamSpace,
        base_full: np.ndarray | None = None,
    ):
        _require_jax()
        self.space = space
        self.hyper = hyper
        mode = space.mode
        kg, kp = space.k_annual, space.k_prec_annual
        T = cov.T

        t_idx = cov.t_index.astype(np.float64)
        ks_g = np.arange(1, kg + 1)
        ks_p = np.arange(1, kp + 1)
        ang_g = 2.0 * np.pi * np.outer(np.fmod(t_idx, 365.25), ks_g) / 365.25
        ang_p = 2.0 * np.pi * np.outer(np.fmod(t_idx, 365.25), ks_p) / 365.25
        ang_w = 2.0 * np.pi * np.outer(np.fmod(t_idx, 7.0), np.arange(1, 4)) / 7.0

        self._d = {
            "y": jnp.asarray(y, dtype=jnp.float64),
            "f_annual": jnp.asarray(np.concatenate([np.cos(ang_g), np.sin(ang_g)], axis=1)),
            "f_prec": jnp.asarray(np.concatenate([np.cos(ang_p), np.sin(ang_p)], axis=1)),
            "f_week": jnp.asarray(np.concatenate([np.cos(ang_w), np.sin(ang_w)], axis=1)),
            "r_onehot": jnp.asarray(np.eye(3)[cov.r[1:] - 1]),
            "n": jnp.asarray(cov.n[1:].astype(np.float64)),
            "gap": jnp.asarray(cov.gap[1:].astype(np.float64)),
            "w": jnp.asarray(cov.w),
            "wt": jnp.asarray(cov.w_tilde),
            "hol": jnp.asarray(cov.is_holiday[1:]),
            "eve": jnp.asarray((cov.n[1:] == 1).astype(np.float64)),
            "gap2": jnp.asarray((cov.n[1:] == 2).astype(np.float64)),
            "sq_n": jnp.asarray(np.sqrt(np.maximum(cov.n[1:] - 1.0, 0.0)) / 10.0),
            "sq_p": jnp.asarray(np.sqrt(np.maximum(cov.p[1:] - 2.0, 0.0)) / 10.0),
        }
        l0 = initial_distribution(int(cov.n[0]), int(cov.p[0]), mode)
        self._d["logl0"] = jnp.asarray(np.where(l0 > 0.0, np.log(np.maximum(l0, 1e-300)), NEG))

        pairs_a = np.array([0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3])
        pairs_b = np.array([0, 1, 1, 2, 3, 1, 2, 3, 0, 1, 3])
        self._A = jnp.asarray(pairs_a)
        self._B = jnp.asarray(pairs_b)
        # group-by-second-coordinate selector, (4, 11)
        self._SEL = jnp.asarray((pairs_b[None, :] == np.arange(4)[:, None]))

        if base_full is None:
            base_full = np.zeros(space.full_size)
        self._base = jnp.asarray(np.asarray(base_full, dtype=np.float64))
        self._free_idx = jnp.asarray(space.free_idx)

        self._value_and_grad = jax.jit(jax.value_and_grad(self._logpost_free))
        self._value = jax.jit(self._logpost_free)
        self._value_and_grad_batch = jax.jit(jax.vmap(jax.value_and_grad(self._logpost_free)))

    # -- public ------------------------------------------------------------

    def logpost(self, u_free: np.ndarray) -> float:
        return float(self._value(jnp.asarray(u_free)))

    def logpost_and_grad(self, u_free: np.ndarray):
        v, g = self._value_and_grad(jnp.asarray(u_free))
        return float(v), np.asarray(g)

    def logpost_and_grad_batch(self, u_batch: np.ndarray):
        v, g = self._value_and_grad_batch(jnp.asarray(u_batch))
        return np.asarray(v), np.asarray(g)

    # -- traced internals ----------------------------------------------------

    def _logpost_free(self, u_free):
        u = self._base.at[self._free_idx].set(u_free)
        return self._logpost_full(u)

    def _unpack(self, u):
        sp = self.space
        four = sp.mode is ModelMode.FOUR_STATE
        kg, kp = sp.k_annual, sp.k_prec_annual
        p = {
            "ar_logit": u[sp.slice("ar_eig01")],
            "level": u[sp.slice("level")],
            "holiday": u[sp.slice("holiday")].reshape(2, 3),
            "annual": u[sp.slice("annual")].reshape(2, 2 * kg),
            "weekday": u[sp.slice("weekday")].reshape(2, 6),
            "weather": u[sp.slice("weather")].reshape(2, 2),
            "prec_base": u[sp.slice("prec_base")],
            "prec_holiday": u[sp.slice("prec_holiday")],
            "prec_annual": u[sp.slice("prec_annual")].reshape(3, 2 * kp),
            "mu_level": u[sp.slice("mu_level")][0],
            "mu_weather": u[sp.slice("mu_weather")],
            "mu_weekday": u[sp.slice("mu_weekday")],
            "mu_annual": u[sp.slice("mu_annual")].reshape(2, kg),
            "mu_holiday": u[sp.slice("mu_holiday")],
        }
        p["ar"] = _expit(p["ar_logit"])
        if four:
            p["trans"] = u[sp.slice("trans")]
            p["decay_mean_logit"] = u[sp.slice("decay_mean")]
            p["decay_prec_logit"] = u[sp.slice("decay_prec")][0]
            p["decay_mean"] = _expit(p["decay_mean_logit"])
            p["decay_prec"] = _expit(p["decay_prec_logit"])
            p["logit_decay_mean"] = u[sp.slice("logit_decay_mean")][0]
            p["mu_logit_decay"] = u[sp.slice("mu_logit_decay")][0]
        return p

    def _log_prior_and_jacobian(self, p):
        """Prior density over natural parameters plus transform log-Jacobian.

        The decay factors' logit-normal terms and their Jacobians cancel, so
        they are written directly on the logit scale; the AR coordinates keep
        the beta density plus an explicit Jacobian.
        """
        h = self.hyper
        four = self.space.mode is ModelMode.FOUR_STATE
        lp = 0.0
        if four:
            lp += _norm_lpdf(p["trans"], jnp.asarray(h.m_trans), jnp.asarray(h.v_trans))

        a, b = jnp.asarray(h.a_ar), jnp.asarray(h.b_ar)
        log_ar = _log_sigmoid(p["ar_logit"])
        log_1m = _log_sigmoid(-p["ar_logit"])
        lgab = jnp.asarray(
            [
                math.lgamma(float(h.a_ar[i])) + math.lgamma(float(h.b_ar[i]))
                - math.lgamma(float(h.a_ar[i] + h.b_ar[i]))
                for i in range(2)
            ]
        )
        # beta density in xi plus d(xi)/d(logit xi) = xi (1 - xi)
        lp += jnp.sum((a - 1.0) * log_ar + (b - 1.0) * log_1m - lgab)
        lp += jnp.sum(log_ar + log_1m)

        lp += _norm_lpdf(p["level"], p["mu_level"], (1.0 - h.r_level) * h.v_level)
        lp += _norm_lpdf(p["mu_level"], h.m_level, h.r_level * h.v_level)

        vw = jnp.asarray(h.v_weather)
        rw = jnp.asarray(h.r_weather)
        lp += _norm_lpdf(p["weather"], p["mu_weather"][None, :], ((1.0 - rw) * vw)[None, :])
        lp += _norm_lpdf(p["mu_weather"], jnp.asarray(h.m_weather), rw * vw)

        lp += _norm_lpdf(p["weekday"], p["mu_weekday"][None, :], (1.0 - h.r_weekday) * h.v_weekday)
        lp += _norm_lpdf(p["mu_weekday"], 0.0, h.r_weekday * h.v_weekday)

        v_ann = jnp.concatenate([jnp.asarray(h.v_annual)] * 2)
        mu_ann_flat = p["mu_annual"].reshape(-1)
        lp += _norm_lpdf(p["annual"], mu_ann_flat[None, :], ((1.0 - h.r_annual) * v_ann)[None, :])
        lp += _norm_lpdf(mu_ann_flat, 0.0, h.r_annual * v_ann)

        v_beta = h.holiday_cov()
        prec_cond = np.linalg.inv((1.0 - h.r_holiday) * v_beta)
        logdet_cond = np.linalg.slogdet((1.0 - h.r_holiday) * v_beta)[1]
        prec_hyp = np.linalg.inv(h.r_holiday * v_beta)
        logdet_hyp = np.linalg.slogdet(h.r_holiday * v_beta)[1]
        d = p["holiday"] - p["mu_holiday"][None, :]
        lp += jnp.sum(
            -1.5 * LOG_2PI - 0.5 * logdet_cond
            - 0.5 * jnp.einsum("ji,ik,jk->j", d, jnp.asarray(prec_cond), d)
        )
        m = p["mu_holiday"]
        lp += -1.5 * LOG_2PI - 0.5 * logdet_hyp - 0.5 * m @ jnp.asarray(prec_hyp) @ m

        if four:
            v, r1, r2 = h.v_decay, h.r_decay_1, h.r_decay_2
            lp += _norm_lpdf(p["decay_mean_logit"], p["logit_decay_mean"], (1.0 - r1) * v)
            lp += _norm_lpdf(p["logit_decay_mean"], p["mu_logit_decay"], (1.0 - r2) * r1 * v)
            lp += _norm_lpdf(p["decay_prec_logit"], p["mu_logit_decay"], (1.0 - r2) * r1 * v)
            lp += _norm_lpdf(p["mu_logit_decay"], h.m_decay, r1 * r2 * v)

        lp += _norm_lpdf(p["prec_base"], jnp.asarray(h.m_prec_base), jnp.asarray(h.v_prec_base))
        lp += _norm_lpdf(p["prec_holiday"], 0.0, jnp.asarray(h.v_prec_holiday))
        v_pa = jnp.concatenate([jnp.asarray(h.v_prec_annual)] * 2, axis=1).reshape(3, -1)
        lp += _norm_lpdf(p["prec_annual"], 0.0, v_pa)
        return lp

    def _tables(self, p):
        d = self._d
        base = (
            p["level"][None, :]
            + d["f_annual"] @ p["annual"].T
            + d["f_week"] @ p["weekday"].T
            + (p["weather"][None, :, 0] + p["weather"][None, :, 1] * d["w"]) * d["wt"]
        )  # (T, 2)
        hol_eff = d["r_onehot"] @ p["holiday"].T  # (T, 2)

        if self.space.mode is ModelMode.FOUR_STATE:
            log_rho = jnp.log(p["decay_mean"])  # (2,)
            b1 = jnp.exp(d["n"][:, None] * log_rho[None, :])
            b3 = jnp.exp(d["gap"][:, None] * log_rho[None, :])
            log_rho_p = jnp.log(p["decay_prec"])
            t1w = jnp.exp(d["n"] * log_rho_p)
            t3w = jnp.exp(d["gap"] * log_rho_p)
        else:
            b1 = jnp.zeros_like(d["wt"])
            b3 = jnp.zeros_like(d["wt"])
            t1w = jnp.zeros_like(d["n"])
            t3w = jnp.zeros_like(d["n"])
        ones = jnp.ones_like(d["n"])
        zeros = jnp.zeros_like(d["n"])
        bw = jnp.stack([b1, jnp.ones_like(b1), b3, jnp.zeros_like(b1)], axis=1)  # (T, 4, 2)
        tw = jnp.stack([t1w, ones, t3w, zeros], axis=1)  # (T, 4)

        mu = base[:, None, :] + bw * hol_eff[:, None, :]
        seasonal = d["f_prec"] @ p["prec_annual"].T  # (T, 3)
        omega = (
            p["prec_base"][None, None, :]
            + tw[:, :, None] * p["prec_holiday"][None, None, :]
            + seasonal[:, None, :]
        )
        phi = omega[:, :, 0]
        ltau1 = jnp.clip(omega[:, :, 1], -OMEGA_CLAMP, OMEGA_CLAMP)
        ltau2 = jnp.clip(omega[:, :, 2], -OMEGA_CLAMP, OMEGA_CLAMP)
        return mu, phi, ltau1, ltau2

    def _loglam(self, p):
        d = self._d
        T = d["n"].shape[0]
        neg = jnp.full((T,), NEG)
        zero = jnp.zeros(T)
        if self.space.mode is ModelMode.FOUR_STATE:
            tr = p["trans"]
            l_pre = tr[0] + tr[1] * d["sq_n"]
            l_exit = tr[2] + tr[3] * d["sq_p"] + tr[4] * d["eve"]
            l_post = tr[5] + tr[6] * d["gap2"]
            rows = [
                [zero, neg, neg, neg],
                [neg, neg, _log_sigmoid(l_post), _log_sigmoid(-l_post)],
                [neg, neg, _log_sigmoid(-l_exit), _log_sigmoid(l_exit)],
                [_log_sigmoid(l_pre), neg, neg, _log_sigmoid(-l_pre)],
            ]
        else:
            rows = [
                [neg, neg, neg, zero],
                [neg, neg, neg, zero],
                [neg, neg, neg, zero],
                [neg, neg, neg, zero],
            ]
        lam = jnp.stack([jnp.stack(r, axis=-1) for r in rows], axis=-2)  # (T, 4, 4)
        hol = d["hol"][:, None, None]
        hol_lam = jnp.where(jnp.arange(4)[None, None, :] == 1, 0.0, NEG)
        return jnp.where(hol, hol_lam, lam)

    def _loglik(self, p):
        d = self._d
        y = d["y"]
        mu, phi, ltau1, ltau2 = self._tables(p)
        loglam = self._loglam(p)
        A, B = self._A, self._B

        chi = 2.0 * p["ar"] - 1.0
        a_on = 0.5 * (chi[0] + chi[1])
        a_off = 0.5 * (chi[0] - chi[1])
        psi = jnp.array([[a_on, a_off], [a_off, a_on]])

        # per-state stationary first-day law
        phi0 = phi[0]
        tau10 = jnp.exp(ltau1[0])
        tau20 = jnp.exp(ltau2[0])
        s11 = 1.0 / tau10
        s12 = phi0 / tau10
        s22 = 1.0 / tau20 + phi0**2 / tau10
        coef = jnp.array(
            [
                [1.0 - a_on * a_on, -2.0 * a_on * a_off, -a_off * a_off],
                [-a_on * a_off, 1.0 - a_on * a_on - a_off * a_off, -a_on * a_off],
                [-a_off * a_off, -2.0 * a_on * a_off, 1.0 - a_on * a_on],
            ]
        )
        rhs = jnp.stack([s11, s12, s22], axis=0)  # (3, 4)
        v = jnp.linalg.solve(coef, rhs)  # (3, 4) rows v11, v12, v22
        v11, v12, v22 = v[0], v[1], v[2]
        vdet = v11 * v22 - v12 * v12

        e0 = y[0, 0] - mu[0, :, 0]
        e1 = y[0, 1] - mu[0, :, 1]
        quad0 = (v22 * e0 * e0 - 2.0 * v12 * e0 * e1 + v11 * e1 * e1) / vdet
        ll_day1 = -LOG_2PI - 0.5 * jnp.log(vdet) - 0.5 * quad0  # (4,)

        msg0 = d["logl0"][A] + loglam[0, A, B] + ll_day1[B]
        step0 = logsumexp(msg0)
        msg0 = msg0 - step0

        # emission log densities for every day >= 2 and pair, (T-1, 11)
        dprev = y[:-1, None, :] - mu[:-1, A, :]
        pred = dprev @ psi  # symmetric psi
        r = (y[1:, None, :] - mu[1:, B, :]) - pred
        r0 = r[:, :, 0]
        u2 = r[:, :, 1] - phi[1:, B] * r0
        ll = (
            -LOG_2PI
            + 0.5 * (ltau1[1:, B] + ltau2[1:, B])
            - 0.5 * (jnp.exp(ltau1[1:, B]) * r0 * r0 + jnp.exp(ltau2[1:, B]) * u2 * u2)
        )
        lam_pairs = loglam[1:, A, B]  # (T-1, 11)

        SEL = self._SEL

        def step(carry, x):
            msg, total = carry
            ll_t, lam_t = x
            grouped = jnp.where(SEL, msg[None, :], NEG)
            inmass = logsumexp(grouped, axis=1)  # (4,)
            nxt = inmass[A] + lam_t + ll_t
            step_t = logsumexp(nxt)
            return (nxt - step_t, total + step_t), None

        (final_msg, total), _ = jax.lax.scan(step, (msg0, step0), (ll, lam_pairs))
        return total

    def _logpost_full(self, u):
        p = self._unpack(u)
        return self._loglik(p) + self._log_prior_and_jacobian(p)


def make_hmc_step(posterior: JaxPosterior):
    """One jitted leapfrog/accept transition, batched over chains.

    Call signature (leading axis = chain, except ``n_leap``):
    ``(q, lp, grad, momentum, log_u, step_size, inv_mass, n_leap) ->
    (q, lp, grad, accept_prob, accepted, divergent)``.

    ``inv_mass`` is the diagonal of the inverse mass matrix (the posterior
    variance estimate); momenta are expected to be drawn with per-coordinate
    standard deviation ``1 / sqrt(inv_mass)``.
    """
    _require_jax()
    vgrad = jax.value_and_grad(posterior._logpost_free)

    def one_chain(q0, lp0, g0, p0, log_u, eps, inv_mass, n_leap):
        k0 = 0.5 * jnp.sum(inv_mass * p0 * p0)

        def body(_, carry):
            q, p, g, lp = carry
            p = p + 0.5 * eps * g
            q = q + eps * inv_mass * p
            lp, g = vgrad(q)
            p = p + 0.5 * eps * g
            return (q, p, g, lp)

        q, p, g, lp1 = jax.lax.fori_loop(0, n_leap, body, (q0, p0, g0, lp0))
        k1 = 0.5 * jnp.sum(inv_mass * p * p)
        d_h = (k1 - lp1) - (k0 - lp0)
        finite = jnp.isfinite(d_h)
        alpha = jnp.where(finite, jnp.minimum(1.0, jnp.exp(-jnp.maximum(d_h, -50.0))), 0.0)
        divergent = (~finite) | (d_h > 1000.0)
        accept = (log_u < -d_h) & (~divergent)
        qf = jnp.where(accept, q, q0)
        lpf = jnp.where(accept, lp1, lp0)
        gf = jnp.where(accept, g, g0)
        return qf, lpf, gf, alpha, accept, divergent

    batched = jax.vmap(one_chain, in_axes=(0, 0, 0, 0, 0, 0, 0, None))
    return jax.jit(batched)
