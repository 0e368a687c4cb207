"""Reference forward-backward recursion, written from the model definition.

The hidden chain is carried as the joint of the (previous, current) state
pair over all 16 combinations, with impossible pairs at log probability
-inf. Day t's observation given the pair (b, c) is bivariate normal: on the
first observation day, the stationary law N(mu[0, c], V_c); afterwards, the
residual (y_t - mu[t, c]) - Psi (y_{t-1} - mu[t-1, b]) is N(0, Omega_t(c)^-1)
with precision Omega = T' D^-1 T, T unit lower triangular with entry -phi
and D = diag(1 / tau1, 1 / tau2). The anchor day is in state 2 when it is a
holiday, and otherwise uniform over states 1, 3 and 4.

It takes the program's per-day tables (``emission.DayTables``) and log
transition tables (``states.log_transition_tables``) as inputs, but none of
its filtering code: the recursion is dense numpy over 4x4 pair matrices, the
quadratic forms use explicit precision matrices and the log determinants come
from ``numpy.linalg.slogdet``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

LOG_2PI = np.log(2.0 * np.pi)


def log_emissions(y: np.ndarray, tables) -> np.ndarray:
    """(T, 4, 4) log density of day t's observation given (s_{t-1}, s_t) = (b, c)."""
    T = y.shape[0]
    out = np.empty((T, 4, 4))
    e0 = y[0][None, :] - tables.mu[0]                                   # (c, 2)
    logdet_v = -np.linalg.slogdet(tables.v_inv)[1]
    quad0 = np.einsum("ci,cij,cj->c", e0, tables.v_inv, e0)
    out[0] = (-LOG_2PI - 0.5 * logdet_v - 0.5 * quad0)[None, :]

    dev = y[:, None, :] - tables.mu                                     # (T, 4, 2)
    carried = np.einsum("ij,tbj->tbi", tables.psi, dev[:-1])            # (T-1, b, 2)
    resid = dev[1:, None, :, :] - carried[:, :, None, :]                # (T-1, b, c, 2)
    phi, t1, t2 = tables.phi[1:], tables.tau1[1:], tables.tau2[1:]      # (T-1, c)
    omega = np.empty((T - 1, 4, 2, 2))
    omega[..., 0, 0] = t1 + phi * phi * t2
    omega[..., 0, 1] = omega[..., 1, 0] = -phi * t2
    omega[..., 1, 1] = t2
    _, logdet = np.linalg.slogdet(omega)                                # (T-1, c)
    quad = np.einsum("tbci,tcij,tbcj->tbc", resid, omega, resid)
    out[1:] = -LOG_2PI + 0.5 * logdet[:, None, :] - 0.5 * quad
    return out


def forward_backward(y, tables, log_trans, anchor_is_holiday: bool):
    """Log likelihood and (T+1, 4) smoothed state marginals for days 0..T."""
    y = np.asarray(y, dtype=np.float64)
    T = y.shape[0]
    le = log_emissions(y, tables)
    with np.errstate(divide="ignore"):
        log_anchor = np.log(
            np.array([0.0, 1.0, 0.0, 0.0]) if anchor_is_holiday else np.array([1.0, 0.0, 1.0, 1.0]) / 3.0
        )
    # alpha[t, b, c] = log p(y_1..t, s_{t-1} = b, s_t = c)
    alpha = np.empty((T, 4, 4))
    alpha[0] = log_anchor[:, None] + log_trans[0] + le[0]
    for t in range(1, T):
        alpha[t] = logsumexp(alpha[t - 1], axis=0)[:, None] + log_trans[t] + le[t]
    loglik = float(logsumexp(alpha[-1]))

    probs = np.empty((T + 1, 4))
    beta = np.zeros(4)  # log p(y_{t+1..T} | s_t = c, y_1..t)
    for t in range(T - 1, -1, -1):
        pair = np.exp(alpha[t] + beta[None, :] - loglik)
        probs[t + 1] = pair.sum(axis=0)
        if t == 0:
            probs[0] = pair.sum(axis=1)
        beta = logsumexp(log_trans[t] + le[t] + beta[None, :], axis=1)
    return loglik, probs
