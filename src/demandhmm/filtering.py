"""Exact conditional-on-parameters state inference.

The future depends on a (previous, current) state pair only through the
current state, so the forward filter over the 11 admissible pairs is a
product of per-day 4x4 kernels ``K_t[b, c] = lambda_t(b, c) f_t(y_t | b, c)``.
``log_kernels`` builds all of them in one vectorised pass, and a pairwise
tree reduction in log space multiplies them in O(log T) vectorised steps
(Hassan, Sarkka & Garcia-Fernandez, "Temporal parallelization of inference in
hidden Markov models", IEEE TSP 69, 2021). Every caller outside the tests
uses the tree:

* the sampler's posterior (``log_likelihood``, ``log_likelihood_tape``) and
  forecast's terminal state (``terminal_log_distribution``) need only the
  product of all the kernels;
* the tree's reverse pass gives d log L / d log K_t(b, c), which is the
  smoothed pair marginal of every day (Fisher's identity; Cappe, Moulines &
  Ryden, "Inference in Hidden Markov Models", 2005, ch. 10).
  ``log_likelihood_adjoint`` carries it back to the day tables for the
  sampler's gradient, and ``smooth_states`` sums it into the smoothed state
  marginals.

``forward_filter`` and ``backward_smooth`` are the sequential reference: a
logsumexp over one state per day, returning the per-day messages. Tests and
the benchmark's reference check compare the tree against them, and the
filter's recursion names the first day of zero likelihood. Functions given
``EmissionParams`` build their ``DayTables`` with ``emission.day_tables``.

Rao-Blackwell averaging of the per-draw smoothed marginals over posterior
draws yields the reported state probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariates import CovariateSeries
from .emission import LOG_2PI, DayTables, EmissionParams, day_tables, reverse_trailing
from .states import (
    PAIR_CUR,
    PAIR_PREV,
    TransitionParams,
    log_initial_distribution,
    log_transition_tables,
    row_dot,
)

_PAIR_A = PAIR_PREV - 1
_PAIR_B = PAIR_CUR - 1
_logsumexp = np.logaddexp.reduce
# Terms of a logsumexp this far below its largest term count as exactly 0:
# next to the largest term's 1 they are below rounding, and numpy's exp of
# -inf or of an argument below about -708 takes a path ten or more times slower.
_EXP_FLOOR = -700.0


@dataclass(frozen=True)
class ForwardMessages:
    """Per-day normalised log messages over the 11 pairs plus log increments.

    ``logsumexp(log_messages[t]) = 0`` by construction and
    ``lognorm[: t + 1].sum()`` is the log likelihood of the first t+1 days.
    """

    log_messages: np.ndarray   # (T, 11)
    lognorm: np.ndarray        # (T,)
    log_likelihood: float


@dataclass(frozen=True)
class SmoothedStates:
    """Smoothed four-state marginals for days 0..T, rows summing to one."""

    probs: np.ndarray          # (T+1, 4)


def _validate(y: np.ndarray, cov: CovariateSeries) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != 2:
        raise ValueError(f"log-demand must be (T, 2), got {y.shape}")
    if y.shape[0] != cov.T:
        raise ValueError(f"series length {y.shape[0]} does not match covariates ({cov.T})")
    if not np.all(np.isfinite(y)):
        raise ValueError("log-demand series contains NaN or infinite values")
    return y


def _sum4(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum over the length-4 axis ``axis`` (counted from the end, so negative)
    as three adds; numpy's reduction over so short an axis is several times slower."""
    rest = (slice(None),) * (-axis - 1)
    return (a[(..., 0) + rest] + a[(..., 1) + rest]) + (a[(..., 2) + rest] + a[(..., 3) + rest])


def _psi_entries(psi: np.ndarray):
    """The four entries of (..., 2, 2) AR matrices, shaped to broadcast over (..., 4, T) arrays."""
    p = psi[..., None, None]
    return p[..., 0, 0, :, :], p[..., 0, 1, :, :], p[..., 1, 0, :, :], p[..., 1, 1, :, :]


def _kernel_terms(y, cov, tables, trans):
    """(..., 4, 4, T) log kernels, day last, and the terms their adjoint needs.

    Day is the last axis of every array here, so numpy's loops run over days
    rather than over 4 states; ``log_kernels`` transposes the kernels back.
    Tables with a leading axis of rows give kernels with that axis, each row
    as that row alone would give it.
    """
    mu = reverse_trailing(tables.mu, 3)
    phi, tau1, tau2 = (reverse_trailing(x, 2) for x in (tables.phi, tables.tau1, tables.tau2))
    d0, d1 = y[:, 0] - mu[..., 0, :, :], y[:, 1] - mu[..., 1, :, :]   # (..., 4, T)
    p00, p01, p10, p11 = _psi_entries(tables.psi)
    # VAR(1) innovation given (b, c): (y_t - mu_t(c)) - Psi (y_{t-1} - mu_{t-1}(b)),
    # one (..., b, c, T-1) array per region
    e0 = d0[..., None, :, 1:] - (p00 * d0[..., :-1] + p01 * d1[..., :-1])[..., :, None, :]
    e1 = d1[..., None, :, 1:] - (p10 * d0[..., :-1] + p11 * d1[..., :-1])[..., :, None, :]
    u2 = e1 - phi[..., None, :, 1:] * e0
    out = np.empty(d0.shape[:-2] + (4, 4, y.shape[0]))
    # a zero-likelihood observation overflows the squares to inf: its kernel is -inf
    with np.errstate(over="ignore"):
        out[..., 1:] = (
            -LOG_2PI
            + 0.5 * reverse_trailing(tables.ltau1 + tables.ltau2, 2)[..., None, :, 1:]
            - 0.5 * (tau1[..., None, :, 1:] * (e0 * e0) + tau2[..., None, :, 1:] * (u2 * u2))
        )
        dev0 = np.stack([d0[..., 0], d1[..., 0]], axis=-1)            # (..., 4, 2)
        quad0 = np.einsum("...ci,...cij,...cj->...c", dev0, tables.v_inv, dev0)
    logl0 = log_initial_distribution(trans, int(cov.n[0]), int(cov.p[0]))
    out[..., 0] = logl0[:, None] + (-LOG_2PI - 0.5 * tables.v_logdet - 0.5 * quad0)[..., None, :]
    loglam = log_transition_tables(trans, cov.n[1:], cov.p[1:])       # (..., T, 4, 4)
    out += loglam.transpose(*range(loglam.ndim - 3), -2, -1, -3)
    return out, (d0, d1, e0, u2, phi, tau1, tau2)


def log_kernels(
    y: np.ndarray, cov: CovariateSeries, tables: DayTables, trans: TransitionParams | None
) -> np.ndarray:
    """(T, 4, 4) log kernels ``log lambda_t(b, c) + log f_t(y_t | b, c)``.

    Row t holds observation day t+1 with b the state on day t and c the state
    on day t+1. Day 1's observation follows the stationary law of state c;
    row 0 also carries the anchor-day log distribution over b. Structurally
    impossible transitions are -inf.
    """
    return np.ascontiguousarray(_kernel_terms(y, cov, tables, trans)[0].transpose(2, 0, 1))


def _log_kernels_adjoint(g, tables, d0, d1, e0, u2, phi, tau1, tau2):
    """Adjoint of ``_kernel_terms`` from ``g = d/d log K`` (..., 4, 4, T) to the day tables.

    Returns the gradients with respect to ``mu``, ``phi``, ``ltau1``, ``ltau2``
    (day last, like the terms), ``psi``, ``v_inv`` and ``v_logdet``; the
    transition tables' gradient is ``g`` itself. Entries of ``g`` on -inf
    kernels must be 0.
    """
    shape = g.shape[:-3] + (4, g.shape[-1])             # (..., 4, T)
    gt = g[..., 1:]                                     # (..., b, c, T-1)
    p00, p01, p10, p11 = _psi_entries(tables.psi)
    g_ltau1 = np.zeros(shape)
    g_ltau2 = np.zeros(shape)
    g_phi = np.zeros(shape)
    tau1_c, tau2_c, phi_c = (x[..., None, :, 1:] for x in (tau1, tau2, phi))   # over (b, c)
    gc = _sum4(gt, -3)                                  # (..., c, T-1)
    g_ltau1[..., 1:] = 0.5 * gc - 0.5 * tau1[..., 1:] * _sum4(gt * e0 * e0, -3)
    g_ltau2[..., 1:] = 0.5 * gc - 0.5 * tau2[..., 1:] * _sum4(gt * u2 * u2, -3)
    g_e1 = gt * tau2_c * u2                             # minus d/d e1
    g_phi[..., 1:] = _sum4(g_e1 * e0, -3)
    g_e0 = g_e1 * phi_c - gt * tau1_c * e0
    g_d0 = np.zeros(shape)
    g_d1 = np.zeros(shape)
    g_d0[..., 1:] = _sum4(g_e0, -3)
    g_d1[..., 1:] = -_sum4(g_e1, -3)
    g_eb0, g_eb1 = _sum4(g_e0, -2), -_sum4(g_e1, -2)    # (..., b, T-1)
    g_d0[..., :-1] -= p00 * g_eb0 + p10 * g_eb1
    g_d1[..., :-1] -= p01 * g_eb0 + p11 * g_eb1
    flat = shape[:-2] + (-1,)
    p0, p1 = d0[..., :-1].reshape(flat), d1[..., :-1].reshape(flat)
    g_eb0, g_eb1 = g_eb0.reshape(flat), g_eb1.reshape(flat)
    g_psi = -np.stack(
        [
            np.stack([row_dot(g_eb0, p0), row_dot(g_eb0, p1)], axis=-1),
            np.stack([row_dot(g_eb1, p0), row_dot(g_eb1, p1)], axis=-1),
        ],
        axis=-2,
    )
    # day 1: -0.5 log det V_c - 0.5 dev' V_c^{-1} dev
    g0 = _sum4(g[..., 0], -2)                           # (..., c)
    dev0 = np.stack([d0[..., 0], d1[..., 0]], axis=-1)  # (..., c, 2)
    vd = g0[..., None] * np.einsum("...cij,...cj->...ci", tables.v_inv, dev0)
    g_d0[..., 0] -= vd[..., 0]
    g_d1[..., 0] -= vd[..., 1]
    g_v_inv = -0.5 * g0[..., None, None] * dev0[..., :, None] * dev0[..., None, :]
    return -np.stack([g_d0, g_d1], axis=-3), g_phi, g_ltau1, g_ltau2, g_psi, g_v_inv, -0.5 * g0


def _filter_recursion(logk: np.ndarray):
    """Normalised log filtered distributions (T+1, 4) of the states on days 0..T
    and log increments (T,) of the (T, 4, 4) log kernels; from the first day
    of zero likelihood on, the increments are -inf and the recursion stops."""
    T = logk.shape[0]
    filt = np.zeros((T + 1, 4))   # row 0 of the kernels holds the anchor distribution
    lognorm = np.full(T, -np.inf)
    logk_cb = logk.transpose(0, 2, 1)
    f = filt[0]
    for t in range(T):
        joint = _logsumexp(f + logk_cb[t], axis=1)
        step = _logsumexp(joint)
        if step == -np.inf:
            break
        f = joint - step
        filt[t + 1] = f
        lognorm[t] = step
    return filt, lognorm


def forward_filter(
    y: np.ndarray, cov: CovariateSeries, emission: EmissionParams, trans: TransitionParams | None
):
    """Run the filter; returns ``(log_likelihood, ForwardMessages)``.

    A series of zero likelihood gives ``-inf`` and all-(-inf) messages.
    """
    y = _validate(y, cov)
    logk = log_kernels(y, cov, day_tables(emission, cov), trans)
    T = y.shape[0]
    filt, lognorm = _filter_recursion(logk)
    if lognorm[-1] == -np.inf:   # the recursion stopped at a day of zero likelihood
        return -np.inf, ForwardMessages(np.full((T, 11), -np.inf), lognorm, -np.inf)
    loglik = float(lognorm.sum())
    alpha = filt[:-1, :, None] + logk - lognorm[:, None, None]
    return loglik, ForwardMessages(alpha[:, _PAIR_A, _PAIR_B], lognorm, loglik)


def _tree_levels(m: np.ndarray):
    """Ordered log product of the (..., 4, 4, T) kernels ``m`` and the levels that made it.

    Neighbouring matrices are multiplied pairwise in log space, level by
    level; an odd last matrix is carried to the next level. For
    ``x[i, k, j, p] = m_{2p}[i, k] + m_{2p+1}[k, j]`` the pair product is
    ``c + log s`` with ``c = max_k x`` and ``s = sum_k exp(x - c)``; each level
    keeps ``exp(x - c)``, exactly 0 for -inf terms, and ``s`` for the reverse
    pass. Day is the last axis throughout; leading axes are rows, each
    reduced as it would be alone.
    """
    levels = []
    while m.shape[-1] > 1:
        even = m.shape[-1] - m.shape[-1] % 2
        n = even // 2
        w = m[..., :, :, None, 0:even:2] + m[..., None, :, :, 1:even:2]   # (..., i, k, j, n)
        c = np.maximum(
            np.maximum(w[..., 0, :, :], w[..., 1, :, :]), np.maximum(w[..., 2, :, :], w[..., 3, :, :])
        )
        c[c == -np.inf] = 0.0
        w -= c[..., :, None, :, :]
        low = w <= _EXP_FLOOR
        np.maximum(w, _EXP_FLOOR, out=w)
        np.exp(w, out=w)
        np.copyto(w, 0.0, where=low)
        s = _sum4(w, -3)
        levels.append((w, s))
        nxt = np.empty(m.shape[:-1] + (n + m.shape[-1] - even,))
        with np.errstate(divide="ignore"):
            np.log(s, out=nxt[..., :n])
        nxt[..., :n] += c
        nxt[..., n:] = m[..., even:]
        m = nxt
    return m[..., 0], levels


def _tree_adjoint(levels, g_top: np.ndarray) -> np.ndarray:
    """Reverse pass of ``_tree_levels``: ``d/d m`` (..., 4, 4, T) from ``d/d product`` (..., 4, 4).

    At each level the upstream adjoint of a pair product is spread over its
    terms with weights ``exp(x - c) / s`` and summed over j for the left
    factor and over i for the right one; a -inf term has weight 0. For the
    log likelihood, ``g_top = exp(P - log L)`` and the result is the smoothed
    pair marginal of every day (Fisher's identity). Overwrites the levels.
    """
    g = g_top[..., None]
    for w, s in reversed(levels):
        n = w.shape[-1]
        s[s == 0.0] = 1.0
        w *= (g[..., :n] / s)[..., :, None, :, :]
        out = np.empty(g.shape[:-1] + (n + g.shape[-1],))
        out[..., 0 : 2 * n : 2] = _sum4(w, -2)
        out[..., 1 : 2 * n : 2] = _sum4(w, -4)
        out[..., 2 * n :] = g[..., n:]
        g = out
    return g


def log_likelihood_tape(y, cov, tables, trans):
    """Tree log likelihood of validated ``y`` and what its adjoint needs.

    Returns ``(loglik, tape)``; the tape holds the log likelihood, the (4, 4)
    log product ``P`` of all kernels (entry [b, c]: all state paths from
    anchor state b to final state c), the tree levels and the kernel terms.
    It stays in log space: a probability-space product with per-level
    rescaling returned NaN on extreme prior draws. Tables with a leading axis
    of rows give one log likelihood (an array) and one product per row.
    """
    logk, terms = _kernel_terms(y, cov, tables, trans)
    top, levels = _tree_levels(logk)
    loglik = _logsumexp(top.reshape(top.shape[:-2] + (16,)), axis=-1)
    if loglik.ndim == 0:
        loglik = float(loglik)
    return loglik, (loglik, top, levels, terms)


def log_likelihood_adjoint(tape, tables):
    """Gradient of a finite tree log likelihood with respect to its inputs.

    Returns ``(g_tables, g_loglam)``: ``g_tables`` is the tuple of
    ``_log_kernels_adjoint`` and ``g_loglam`` (..., T, 4, 4) the gradient with
    respect to ``log_transition_tables``, which is the smoothed pair marginal.
    """
    loglik, top, levels, terms = tape
    xi = _tree_adjoint(levels, np.exp(top - np.asarray(loglik)[..., None, None]))
    return _log_kernels_adjoint(xi, tables, *terms), xi.transpose(*range(xi.ndim - 3), -1, -3, -2)


def _zero_likelihood(lognorm: np.ndarray, cov: CovariateSeries) -> FloatingPointError:
    t = int(np.argmax(lognorm == -np.inf))
    return FloatingPointError(
        f"zero likelihood: the filter increment is -inf on day {t + 1} ({cov.dates[t]})"
    )


def _nonzero_likelihood_tape(y, cov, tables, trans):
    """``log_likelihood_tape`` of validated ``y``; raises ``FloatingPointError``
    on a NaN log likelihood, and on zero likelihood naming the first such day,
    found by the sequential filter."""
    loglik, tape = log_likelihood_tape(y, cov, tables, trans)
    if np.isnan(loglik):
        raise FloatingPointError("log likelihood is NaN")
    if loglik == -np.inf:
        _, lognorm = _filter_recursion(log_kernels(y, cov, tables, trans))
        raise _zero_likelihood(lognorm, cov)
    return tape


def log_likelihood(y, cov, emission, trans) -> float:
    """Observed-data log likelihood by the tree product; ``-inf`` if it is zero.

    Raises ``FloatingPointError`` when it is NaN.
    """
    loglik = log_likelihood_tape(_validate(y, cov), cov, day_tables(emission, cov), trans)[0]
    if np.isnan(loglik):
        raise FloatingPointError("log likelihood is NaN")
    return loglik


def terminal_log_distribution(
    y: np.ndarray, cov: CovariateSeries, tables: DayTables, trans: TransitionParams | None
) -> np.ndarray:
    """Normalised log filtered distribution (4,) of the state on the last day.

    Raises ``FloatingPointError`` on a NaN log likelihood, and naming the
    first day of zero likelihood when the series has none.
    """
    loglik, product, _, _ = _nonzero_likelihood_tape(_validate(y, cov), cov, tables, trans)
    return _logsumexp(product, axis=0) - loglik


def _smoothed_pairs(messages: ForwardMessages, logk: np.ndarray) -> np.ndarray:
    """(T, 4, 4) smoothed probability of the (b, c) state pair of each kernel row.

    The backward message is a 4-vector over the current state, scaled by the
    forward increments so it stays of order one.
    """
    T = logk.shape[0]
    scaled = logk - messages.lognorm[:, None, None]
    beta = np.zeros((T, 4))   # row t: scaled log p(y after day t+1 | state on day t+1)
    for t in range(T - 1, 0, -1):
        beta[t - 1] = _logsumexp(scaled[t] + beta[t], axis=1)
    alpha = np.full((T, 4, 4), -np.inf)
    alpha[:, _PAIR_A, _PAIR_B] = messages.log_messages
    return np.exp(alpha + beta[:, None, :])


def backward_smooth(
    messages: ForwardMessages, y: np.ndarray, cov: CovariateSeries,
    emission: EmissionParams, trans: TransitionParams | None,
) -> SmoothedStates:
    """Smoothed state marginals for days 0..T from stored forward messages.

    Raises ``FloatingPointError`` naming the first day of zero likelihood
    when the series has none.
    """
    y = _validate(y, cov)
    T = y.shape[0]
    if messages.log_messages.shape != (T, 11):
        raise ValueError("forward messages do not match the series length")
    if messages.log_likelihood == -np.inf:
        raise _zero_likelihood(messages.lognorm, cov)
    logk = log_kernels(y, cov, day_tables(emission, cov), trans)
    pair = _smoothed_pairs(messages, logk)
    probs = np.empty((T + 1, 4))
    probs[0] = pair[0].sum(axis=1)
    probs[1:] = pair.sum(axis=1)
    probs /= probs.sum(axis=1, keepdims=True)
    return SmoothedStates(probs=probs)


def smooth_states(y, cov, emission, trans):
    """Smoothed state marginals from the tree's reverse pass; returns
    ``(loglik, SmoothedStates)``.

    Day 0's marginal sums the first pair marginal over the next state, day
    t >= 1's sums pair t-1 over the previous state. Raises
    ``FloatingPointError`` on a NaN log likelihood, and naming the first day
    of zero likelihood when the series has none.
    """
    y = _validate(y, cov)
    tables = day_tables(emission, cov)
    loglik, top, levels, _ = _nonzero_likelihood_tape(y, cov, tables, trans)
    xi = _tree_adjoint(levels, np.exp(top - loglik))   # (b, c, T) pair marginals
    probs = np.empty((y.shape[0] + 1, 4))
    probs[0] = _sum4(xi[:, :, 0], -1)
    probs[1:] = _sum4(xi, -3).T
    probs /= probs.sum(axis=1, keepdims=True)
    return loglik, SmoothedStates(probs=probs)


def rao_blackwell_states(draws, y, cov) -> SmoothedStates:
    """Average per-draw smoothed marginals over retained posterior draws.

    ``draws`` is a ``sampler.PosteriorDraws``; each draw's ``trans`` names its model.
    """
    if draws.n_draws < 1:
        raise ValueError("at least one posterior draw is required")
    y = _validate(y, cov)
    total = np.zeros((y.shape[0] + 1, 4))
    for i in range(draws.n_draws):
        emission, trans, _ = draws.params_at(i)
        try:
            _, smoothed = smooth_states(y, cov, emission, trans)
        except FloatingPointError as exc:
            raise FloatingPointError(f"draw {i}: {exc}") from exc
        total += smoothed.probs
    total /= draws.n_draws
    return SmoothedStates(probs=total)
