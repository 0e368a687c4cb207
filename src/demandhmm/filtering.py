"""Exact conditional-on-parameters state inference.

The future depends on a (previous, current) state pair only through the
current state, so the forward filter over the 11 admissible pairs is a
product of per-day 4x4 kernels ``K_t[b, c] = lambda_t(b, c) f_t(y_t | b, c)``.
``log_kernels`` builds all of them in one vectorised pass. Two paths consume
them, chosen by what the caller needs:

* callers that need only the log likelihood or the terminal filtered
  distribution (the sampler's posterior, ``log_likelihood``, and forecast's
  terminal state, ``terminal_log_distribution``) multiply the kernels by a
  pairwise tree reduction in log space, O(log T) vectorised steps (Hassan,
  Sarkka & Garcia-Fernandez, "Temporal parallelization of inference in
  hidden Markov models", IEEE TSP 69, 2021);
* callers that need per-day messages or smoothed marginals use the
  sequential recursions ``forward_filter`` and ``backward_smooth``, which
  take logsumexp over one state per day, because the tree yields only the
  whole product.

Rao-Blackwell averaging of the per-draw smoothed marginals over posterior
draws yields the reported state probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariates import CovariateSeries
from .emission import (
    LOG_2PI,
    DayTables,
    DesignMatrices,
    EmissionParams,
    build_day_tables,
    build_design,
)
from .states import (
    PAIR_CUR,
    PAIR_PREV,
    ModelMode,
    TransitionParams,
    log_initial_distribution,
    log_transition_tables,
)

_PAIR_A = PAIR_PREV - 1
_PAIR_B = PAIR_CUR - 1
_logsumexp = np.logaddexp.reduce


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


def log_kernels(
    y: np.ndarray,
    cov: CovariateSeries,
    tables: DayTables,
    trans: TransitionParams | None,
    mode: ModelMode = ModelMode.FOUR_STATE,
) -> np.ndarray:
    """(T, 4, 4) log kernels ``log lambda_t(b, c) + log f_t(y_t | b, c)``.

    Row t holds observation day t+1 with b the state on day t and c the state
    on day t+1. Day 1's observation follows the stationary law of state c;
    row 0 also carries the anchor-day log distribution over b. Structurally
    impossible transitions are -inf.
    """
    dev = y[:, None, :] - tables.mu                                    # (T, 4, 2)
    # VAR(1) innovation given (b, c): (y_t - mu_t(c)) - Psi (y_{t-1} - mu_{t-1}(b))
    e = dev[1:, None, :, :] - (dev[:-1] @ tables.psi.T)[:, :, None, :]  # (T-1, b, c, 2)
    u2 = e[..., 1] - tables.phi[1:, None, :] * e[..., 0]
    out = np.empty((y.shape[0], 4, 4))
    out[1:] = (
        -LOG_2PI
        + 0.5 * (tables.ltau1[1:, None, :] + tables.ltau2[1:, None, :])
        - 0.5 * (tables.tau1[1:, None, :] * e[..., 0] ** 2 + tables.tau2[1:, None, :] * u2 ** 2)
    )
    quad0 = np.einsum("ci,cij,cj->c", dev[0], tables.v_inv, dev[0])
    logl0 = log_initial_distribution(int(cov.n[0]), int(cov.p[0]), mode)
    out[0] = logl0[:, None] + (-LOG_2PI - 0.5 * tables.v_logdet - 0.5 * quad0)[None, :]
    return out + log_transition_tables(trans, cov.n[1:], cov.p[1:], mode)


def _tables_for(cov, emission, design, tables):
    if tables is None:
        if design is None:
            design = build_design(cov, emission.k_annual, emission.k_prec_annual)
        tables = build_day_tables(emission, design)
    return tables


def forward_filter(
    y: np.ndarray,
    cov: CovariateSeries,
    emission: EmissionParams,
    trans: TransitionParams | None,
    mode: ModelMode = ModelMode.FOUR_STATE,
    design: DesignMatrices | None = None,
    tables: DayTables | None = None,
):
    """Run the filter; returns ``(log_likelihood, ForwardMessages)``.

    A series of zero likelihood gives ``-inf`` and all-(-inf) messages.
    """
    y = _validate(y, cov)
    logk = log_kernels(y, cov, _tables_for(cov, emission, design, tables), trans, mode)
    T = y.shape[0]
    # filt[t] is the normalised log filtered distribution of the state on day t
    filt = np.zeros((T + 1, 4))   # row 0 of the kernels holds the anchor distribution
    lognorm = np.full(T, -np.inf)
    logk_cb = logk.transpose(0, 2, 1)
    f = filt[0]
    for t in range(T):
        joint = _logsumexp(f + logk_cb[t], axis=1)
        step = _logsumexp(joint)
        if step == -np.inf:
            return -np.inf, ForwardMessages(np.full((T, 11), -np.inf), lognorm, -np.inf)
        f = joint - step
        filt[t + 1] = f
        lognorm[t] = step
    loglik = float(lognorm.sum())
    alpha = filt[:-1, :, None] + logk - lognorm[:, None, None]
    return loglik, ForwardMessages(alpha[:, _PAIR_A, _PAIR_B], lognorm, loglik)


def _log_product(y, cov, emission, trans, mode, design, tables) -> np.ndarray:
    """(4, 4) log of the ordered product ``K_0 K_1 ... K_{T-1}`` of the day kernels.

    Neighbouring matrices are multiplied pairwise with logsumexp, level by
    level; an odd last matrix is carried to the next level. Entry [b, c] is
    the log total weight of all state paths from anchor state b to final
    state c. It stays in log space: a probability-space product with
    per-level rescaling returned NaN on extreme prior draws.
    """
    y = _validate(y, cov)
    m = log_kernels(y, cov, _tables_for(cov, emission, design, tables), trans, mode)
    while m.shape[0] > 1:
        even = m.shape[0] - m.shape[0] % 2
        paired = _logsumexp(m[0:even:2, :, :, None] + m[1:even:2, None, :, :], axis=2)
        m = np.concatenate([paired, m[even:]])
    return m[0]


def _zero_likelihood(lognorm: np.ndarray, cov: CovariateSeries) -> FloatingPointError:
    t = int(np.argmax(lognorm == -np.inf))
    return FloatingPointError(
        f"zero likelihood: the filter increment is -inf on day {t + 1} ({cov.dates[t]})"
    )


def log_likelihood(
    y, cov, emission, trans, mode=ModelMode.FOUR_STATE, design=None
) -> float:
    """Observed-data log likelihood by the tree product; ``-inf`` if it is zero."""
    return float(_logsumexp(_log_product(y, cov, emission, trans, mode, design, None).ravel()))


def terminal_log_distribution(
    y: np.ndarray,
    cov: CovariateSeries,
    emission: EmissionParams,
    trans: TransitionParams | None,
    mode: ModelMode = ModelMode.FOUR_STATE,
    design: DesignMatrices | None = None,
    tables: DayTables | None = None,
) -> np.ndarray:
    """Normalised log filtered distribution (4,) of the state on the last day.

    Raises ``FloatingPointError`` naming the first day of zero likelihood
    when the series has none.
    """
    product = _log_product(y, cov, emission, trans, mode, design, tables)
    loglik = _logsumexp(product.ravel())
    if loglik == -np.inf:
        _, messages = forward_filter(y, cov, emission, trans, mode, design, tables)
        raise _zero_likelihood(messages.lognorm, cov)
    return _logsumexp(product, axis=0) - loglik


def backward_smooth(
    messages: ForwardMessages,
    y: np.ndarray,
    cov: CovariateSeries,
    emission: EmissionParams,
    trans: TransitionParams | None,
    mode: ModelMode = ModelMode.FOUR_STATE,
    design: DesignMatrices | None = None,
    tables: DayTables | None = None,
) -> SmoothedStates:
    """Smoothed state marginals for days 0..T from stored forward messages.

    The backward message is a 4-vector over the current state, scaled by the
    forward increments so it stays of order one. Raises ``FloatingPointError``
    naming the first day of zero likelihood when the series has none.
    """
    y = _validate(y, cov)
    T = y.shape[0]
    if messages.log_messages.shape != (T, 11):
        raise ValueError("forward messages do not match the series length")
    if messages.log_likelihood == -np.inf:
        raise _zero_likelihood(messages.lognorm, cov)
    logk = log_kernels(y, cov, _tables_for(cov, emission, design, tables), trans, mode)
    scaled = logk - messages.lognorm[:, None, None]
    beta = np.zeros((T, 4))   # row t: scaled log p(y after day t+1 | state on day t+1)
    for t in range(T - 1, 0, -1):
        beta[t - 1] = _logsumexp(scaled[t] + beta[t], axis=1)
    alpha = np.full((T, 4, 4), -np.inf)
    alpha[:, _PAIR_A, _PAIR_B] = messages.log_messages
    pair = np.exp(alpha + beta[:, None, :])     # smoothed pair probabilities per row
    probs = np.empty((T + 1, 4))
    probs[0] = pair[0].sum(axis=1)
    probs[1:] = pair.sum(axis=1)
    probs /= probs.sum(axis=1, keepdims=True)
    return SmoothedStates(probs=probs)


def smooth_states(
    y, cov, emission, trans, mode=ModelMode.FOUR_STATE, design=None
):
    """Filter and smooth in one call; returns ``(loglik, SmoothedStates)``."""
    if design is None:
        design = build_design(cov, emission.k_annual, emission.k_prec_annual)
    tables = build_day_tables(emission, design)
    loglik, messages = forward_filter(y, cov, emission, trans, mode, design, tables)
    smoothed = backward_smooth(messages, y, cov, emission, trans, mode, design, tables)
    return loglik, smoothed


def rao_blackwell_states(draws, y, cov, design=None) -> SmoothedStates:
    """Average per-draw smoothed marginals over retained posterior draws.

    ``draws`` is a ``sampler.PosteriorDraws``; the model mode travels with it.
    """
    if draws.n_draws < 1:
        raise ValueError("at least one posterior draw is required")
    y = _validate(y, cov)
    if design is None:
        space = draws.space
        design = build_design(cov, space.k_annual, space.k_prec_annual)
    total = np.zeros((y.shape[0] + 1, 4))
    for i in range(draws.n_draws):
        emission, trans, _ = draws.params_at(i)
        try:
            _, smoothed = smooth_states(y, cov, emission, trans, draws.mode, design)
        except FloatingPointError as exc:
            raise FloatingPointError(f"draw {i}: {exc}") from exc
        total += smoothed.probs
    total /= draws.n_draws
    return SmoothedStates(probs=total)
