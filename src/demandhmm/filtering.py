"""Exact conditional-on-parameters state inference.

The future depends on a (previous, current) state pair only through the
current state, so the likelihood is a product of per-day kernels
``K_t[b, c] = lambda_t(b, c) f_t(y_t | b, c)``, b the state on day t and c
the state on day t+1.

The holiday classification is observed: a holiday admits state 2 only and
any other day {1, 3, 4}, or {4} in the two-state model. So each day has K
state slots (``StateSlots``; K = 3, or 1 in the two-state model) and the
kernels are (K, K): slot i of day t against slot j of day t+1. A state its
day cannot take only ever contributes exact zeros to four-state sums, and the
slot sums group the other terms as those sums did, so every result has the
bits of a 4x4 computation with 27 (i, k, j) terms per tree pair instead of
64, or 1 in the two-state model. ``_kernel_terms`` builds all the kernels in
one vectorised pass from the day tables and the transition part
(``transition_terms``, which a caller whose coefficients did not move
keeps), and a pairwise tree reduction in log space multiplies them in
O(log T) vectorised steps (Hassan, Sarkka & Garcia-Fernandez,
"Temporal parallelization of inference in hidden Markov models", IEEE TSP
69, 2021). The gradients go back to the four states' layout of the day
tables and the transition tables. The tree is the one filter here:

* ``log_likelihood``, the sampler's posterior (``log_likelihood_tape``) and
  forecast's terminal state (``terminal_log_distribution``) need only the
  product of all the kernels;
* the tree's reverse pass gives d log L / d log K_t(b, c), which is the
  smoothed pair marginal of every day (Fisher's identity; Cappe, Moulines &
  Ryden, "Inference in Hidden Markov Models", 2005, ch. 10).
  ``log_likelihood_adjoint`` carries it back to the day tables for the
  sampler's gradient, and ``smooth_states`` sums it into the smoothed state
  marginals.

``forward_filter`` gives the tree's log likelihood together with per-day
filtered laws and log increments. Those come from ``_filter_recursion``, a
logsumexp over one day's slots at a time over the same kernels, which also
names the first day of zero likelihood. ``backward_smooth`` gives
``smooth_states``' marginals. Functions given ``EmissionParams`` build their
``DayTables`` with ``emission.day_tables``.

Rao-Blackwell averaging of the per-draw smoothed marginals over posterior
draws yields the reported state probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the functions perfbench traces are called through their module, where its tracer wraps them
from . import states as states_module
from .covariates import CovariateSeries
from .emission import LOG_2PI, DayTables, EmissionParams, day_tables
from .states import (
    STATE_HOLIDAY,
    STATE_PRE,
    TransitionParams,
    log_initial_distribution,
    row_dot,
)

_logsumexp = np.logaddexp.reduce
# Terms of a logsumexp this far below its largest term count as exactly 0:
# next to the largest term's 1 they are below rounding, and numpy's exp of
# -inf or of an argument below about -708 takes a path ten or more times slower.
_EXP_FLOOR = -700.0


@dataclass(frozen=True)
class ForwardMessages:
    """The filter's normalised log filtered laws of days 1..T and its log increments.

    ``log_filtered[t]`` is the log law of the state on day t+1 given the
    observations of days 1..t+1, -inf at the states that day cannot take;
    ``lognorm[: t + 1].sum()`` is the log likelihood of the first t+1 days.
    From the first day of zero likelihood on, both are -inf.
    """

    log_filtered: np.ndarray   # (T, 4)
    lognorm: np.ndarray        # (T,)


@dataclass(frozen=True)
class SmoothedStates:
    """Smoothed four-state marginals for days 0..T, rows summing to one."""

    probs: np.ndarray          # (T+1, 4)


def validate_series(y: np.ndarray, cov: CovariateSeries) -> np.ndarray:
    """``y`` as a float (T, 2) array; raises ``ValueError`` unless it is finite and matches ``cov``."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != 2:
        raise ValueError(f"log-demand must be (T, 2), got {y.shape}")
    if y.shape[0] != cov.T:
        raise ValueError(f"series length {y.shape[0]} does not match covariates ({cov.T})")
    if not np.all(np.isfinite(y)):
        raise ValueError("log-demand series contains NaN or infinite values")
    return y


def _over_slots(op, a: np.ndarray, axis: int) -> np.ndarray:
    """Reduce the slot axis ``axis`` (counted from the end, so negative) with the
    ufunc ``op`` as ``a0 op (a1 op a2)``, or copy its one slot.

    Over the four states, states 1-4 reduced as ``(a1 op a2) op (a3 op a4)``,
    where the terms of the states a day cannot take are exact zeros (-inf for
    a maximum). On a day that is not a holiday that is ``a1 op (a3 op a4)``
    over its slots, on a holiday ``a2`` with two zero pads: the same bits.
    numpy's reduction over so short an axis is several times slower.
    """
    rest = (slice(None),) * (-axis - 1)
    if a.shape[axis] == 1:
        return a[(..., 0) + rest].copy()
    return op(a[(..., 0) + rest], op(a[(..., 1) + rest], a[(..., 2) + rest]))


@dataclass(frozen=True)
class StateSlots:
    """The states each day of a series can take, as K slots a day.

    A holiday admits state 2 only and any other day {1, 3, 4}, or {4} in the
    two-state model, so K is 3 or 1. A day's admitted states fill its first
    slots in ascending order; a holiday's other two slots are pads holding
    states 1 and 3, whose kernels are -inf. ``state_slots`` builds them once
    per series and model. The methods move day-last arrays between the four
    states and the slots. Every day but the holidays has the slots
    ``normal``, so ``gather`` and ``scatter`` move whole rows and then mend
    the holidays; ``gather_pairs`` and ``scatter_pairs`` go through ``pair``.
    """

    states: np.ndarray      # (T+1, K) 0-based state of each slot of days 0..T
    normal: np.ndarray      # (K,) the states of a day that is not a holiday
    holiday: np.ndarray     # (K, 1) the states of a holiday
    holidays: np.ndarray    # (H,) observation indices t (day t+1) of the holidays
    pair: np.ndarray        # (K, K, T) flat index of each slot pair into a (T, 4, 4) table

    def gather(self, x: np.ndarray) -> np.ndarray:
        """(..., 4, n) over observation days 1..n to (..., K, n)."""
        out = x[..., self.normal, :]
        out[..., self.holidays] = x[..., self.holiday, self.holidays]
        return out

    def scatter(self, x: np.ndarray) -> np.ndarray:
        """(..., K, n) over observation days 1..n to (..., 4, n), 0 at the other states."""
        n = x.shape[-1]
        hol = self.holidays[: np.searchsorted(self.holidays, n)]
        out = np.zeros(x.shape[:-2] + (4, n))
        out[..., self.normal, :] = x
        out[..., hol] = 0.0
        out[..., self.holiday, hol] = x[..., hol]
        return out

    def gather_pairs(self, table: np.ndarray) -> np.ndarray:
        """(..., T, 4, 4) to (..., K, K, T); a pair with a pad reads the
        (holiday, pre-holiday) entry, which is -inf on every day of both models."""
        return np.take(table.reshape(table.shape[:-3] + (-1,)), self.pair, axis=-1)

    def scatter_pairs(self, x: np.ndarray) -> np.ndarray:
        """(..., K, K, T) to (..., T, 4, 4), 0 at the other pairs: each slot pair
        goes back where ``gather_pairs`` read it. The pads all land on the
        (holiday, pre-holiday) entry, so that entry holds no pair's value."""
        out = np.zeros(x.shape[:-3] + (16 * x.shape[-1],))
        out[..., self.pair] = x
        return out.reshape(x.shape[:-3] + (x.shape[-1], 4, 4))


# 0-based states of the slots of a day that is not a holiday, and of a holiday
_SLOT_STATES = {True: ((0, 2, 3), (1, 0, 2)), False: ((3,), (1,))}
# the (holiday, pre-holiday) entry of a day's 4x4 transition table, where pads read theirs
_NEVER = (STATE_HOLIDAY - 1) * 4 + STATE_PRE - 1


def state_slots(cov: CovariateSeries, four_state: bool) -> StateSlots:
    """The slots of ``cov``'s days in the four- or two-state model, built once and kept on the series."""
    def build():
        normal, holiday = (np.array(x) for x in _SLOT_STATES[four_state])
        hol = cov.is_holiday
        states = np.where(hol[:, None], holiday, normal)               # (T+1, K)
        real = ~hol[:, None] | (np.arange(normal.size) == 0)
        prev, cur = states[:-1].T[:, None, :], states[1:].T[None, :, :]
        pad = ~(real[:-1].T[:, None, :] & real[1:].T[None, :, :])
        return StateSlots(
            states=states,
            normal=normal,
            holiday=holiday[:, None],
            holidays=np.flatnonzero(hol[1:]),
            pair=16 * np.arange(cov.T) + np.where(pad, _NEVER, 4 * prev + cur),
        )

    return cov.derived(("slots", four_state), build)


def _psi_entries(psi: np.ndarray):
    """The four entries of (..., 2, 2) AR matrices, shaped to broadcast over (..., K, T) arrays."""
    p = psi[..., None, None]
    return p[..., 0, 0, :, :], p[..., 0, 1, :, :], p[..., 1, 0, :, :], p[..., 1, 1, :, :]


@dataclass(frozen=True)
class TransitionTerms:
    """The kernels' transition part, which depends on the transition coefficients alone.

    ``anchor`` (K,) is the anchor day's log law over its slots and
    ``log_tables`` (..., K, K, T) the log transition tables gathered to the
    slot pairs, with the coefficients' leading axis of rows if they have one
    (the two-state model has no coefficients and none).
    """

    slots: StateSlots
    anchor: np.ndarray
    log_tables: np.ndarray


def transition_terms(cov: CovariateSeries, trans: TransitionParams | None) -> TransitionTerms:
    """The transition part of ``cov``'s kernels under ``trans``."""
    slots = state_slots(cov, trans is not None)
    return TransitionTerms(
        slots=slots,
        anchor=log_initial_distribution(trans, int(cov.n[0]), int(cov.p[0]))[slots.states[0]],
        log_tables=slots.gather_pairs(states_module.log_transition_tables(trans, cov.n[1:], cov.p[1:])),
    )


def _kernel_terms(y, tables, transition: TransitionTerms):
    """(..., K, K, T) log kernels over the day slots, day last, and the terms their adjoint needs.

    Entry [i, j, t] is ``log lambda_t(b, c) + log f_t(y_t | b, c)`` for
    observation day t+1, with b the state of slot i on day t and c that of
    slot j on day t+1; -inf where either is a pad or the transition is
    structurally impossible. Day 1's observation follows the stationary law
    of c, and row 0 also carries the anchor day's log distribution over b.
    The transition part comes in built (``transition_terms``), so a caller
    whose coefficients did not move can keep it. Day is the last axis of
    every array here, so numpy's loops run over days rather than over
    states. Tables with a leading axis of rows give kernels with that axis,
    each row as that row alone would give it.
    """
    slots = transition.slots
    days = slots.gather(tables.days)                                  # (..., 7, K, T)
    d0, d1 = y[:, 0] - days[..., 0, :, :], y[:, 1] - days[..., 1, :, :]
    phi, tau1, tau2 = days[..., 2, :, :], days[..., 5, :, :], days[..., 6, :, :]
    p00, p01, p10, p11 = _psi_entries(tables.psi)
    # VAR(1) innovation given (b, c): (y_t - mu_t(c)) - Psi (y_{t-1} - mu_{t-1}(b)),
    # one (..., i, j, T-1) array per region; day t's slots are those of observation t-1
    e0 = d0[..., None, :, 1:] - (p00 * d0[..., :-1] + p01 * d1[..., :-1])[..., :, None, :]
    e1 = d1[..., None, :, 1:] - (p10 * d0[..., :-1] + p11 * d1[..., :-1])[..., :, None, :]
    u2 = e1 - phi[..., None, :, 1:] * e0
    out = np.empty(d0.shape[:-1] + d0.shape[-2:])
    # a zero-likelihood observation overflows the squares to inf: its kernel is -inf
    with np.errstate(over="ignore"):
        out[..., 1:] = (
            -LOG_2PI
            + 0.5 * (days[..., 3, :, :] + days[..., 4, :, :])[..., None, :, 1:]
            - 0.5 * (tau1[..., None, :, 1:] * (e0 * e0) + tau2[..., None, :, 1:] * (u2 * u2))
        )
        dev0 = y[0] - tables.mu[..., 0, :, :]                         # (..., 4, 2)
        quad0 = np.einsum("...ci,...cij,...cj->...c", dev0, tables.v_inv, dev0)
    first = (-LOG_2PI - 0.5 * tables.v_logdet - 0.5 * quad0)[..., slots.states[1]]
    out[..., 0] = transition.anchor[:, None] + first[..., None, :]
    out += transition.log_tables
    return out, (slots, y, dev0, d0, d1, e0, u2, phi, tau1, tau2)


def _log_kernels_adjoint(g, tables, slots, y, dev0, d0, d1, e0, u2, phi, tau1, tau2):
    """Adjoint of ``_kernel_terms`` from ``g = d/d log K`` (..., K, K, T) to the day tables.

    Returns the gradients with respect to the first five rows of
    ``tables.days`` (mu's two regions, phi, log tau1, log tau2) in its
    (..., 5, 4, T) layout, then ``psi``, ``v_inv`` and ``v_logdet``; 0 at the
    states a day cannot take. The transition tables' gradient is ``g``
    itself. Entries of ``g`` on -inf kernels must be 0.
    """
    lead = g.shape[:-3]
    gs = np.zeros(lead + (5,) + g.shape[-2:])           # (..., 5, K, T): d0, d1, phi, ltau1, ltau2
    g_d0, g_d1, g_phi, g_ltau1, g_ltau2 = (gs[..., k, :, :] for k in range(5))
    gt = g[..., 1:]                                     # (..., i, j, T-1)
    p00, p01, p10, p11 = _psi_entries(tables.psi)
    tau1_c, tau2_c, phi_c = (x[..., None, :, 1:] for x in (tau1, tau2, phi))   # over (i, j)
    gc = _over_slots(np.add, gt, -3)                    # (..., j, T-1)
    g_ltau1[..., 1:] = 0.5 * gc - 0.5 * tau1[..., 1:] * _over_slots(np.add, gt * e0 * e0, -3)
    g_ltau2[..., 1:] = 0.5 * gc - 0.5 * tau2[..., 1:] * _over_slots(np.add, gt * u2 * u2, -3)
    g_e1 = gt * tau2_c * u2                             # minus d/d e1
    g_phi[..., 1:] = _over_slots(np.add, g_e1 * e0, -3)
    g_e0 = g_e1 * phi_c - gt * tau1_c * e0
    g_d0[..., 1:] = _over_slots(np.add, g_e0, -3)
    g_d1[..., 1:] = -_over_slots(np.add, g_e1, -3)
    g_eb = np.stack([_over_slots(np.add, g_e0, -2), -_over_slots(np.add, g_e1, -2)], axis=-3)
    g_d0[..., :-1] -= p00 * g_eb[..., 0, :, :] + p10 * g_eb[..., 1, :, :]
    g_d1[..., :-1] -= p01 * g_eb[..., 0, :, :] + p11 * g_eb[..., 1, :, :]
    # the AR matrix's dot products run over all four states' (..., 4 * (T-1)) deviations
    flat = lead + (-1,)
    dev = y.T[:, None, :-1] - tables.days[..., 0:2, :, :-1]        # (..., 2, 4, T-1)
    p0, p1 = dev[..., 0, :, :].reshape(flat), dev[..., 1, :, :].reshape(flat)
    g_eb = slots.scatter(g_eb)
    g_eb0, g_eb1 = g_eb[..., 0, :, :].reshape(flat), g_eb[..., 1, :, :].reshape(flat)
    g_psi = -np.stack(
        [
            np.stack([row_dot(g_eb0, p0), row_dot(g_eb0, p1)], axis=-1),
            np.stack([row_dot(g_eb1, p0), row_dot(g_eb1, p1)], axis=-1),
        ],
        axis=-2,
    )
    g4 = slots.scatter(gs)                              # (..., 5, 4, T)
    # day 1: -0.5 log det V_c - 0.5 dev' V_c^{-1} dev
    g0 = np.zeros(lead + (4,))
    g0[..., slots.states[1]] = _over_slots(np.add, g[..., 0], -2)   # (..., c)
    vd = g0[..., None] * np.einsum("...cij,...cj->...ci", tables.v_inv, dev0)
    g4[..., 0, :, 0] -= vd[..., 0]
    g4[..., 1, :, 0] -= vd[..., 1]
    g_v_inv = -0.5 * g0[..., None, None] * dev0[..., :, None] * dev0[..., None, :]
    np.negative(g4[..., 0:2, :, :], out=g4[..., 0:2, :, :])   # d0, d1 to mu
    return g4, g_psi, g_v_inv, -0.5 * g0


def _filter_recursion(logk: np.ndarray):
    """Sequential filter over one series' (K, K, T) slot kernels.

    Returns the log filtered laws (T+1, K) over the slots of days 0..T and
    the log increments (T,). Row 0 is a neutral start of zeros, since kernel
    row 0 already carries the anchor day's law; row t >= 1 is normalised,
    -inf at the pads. From the first day of zero likelihood on, the rows and
    increments are -inf and the recursion stops.
    """
    K, _, T = logk.shape
    filt = np.full((T + 1, K), -np.inf)
    filt[0] = 0.0
    lognorm = np.full(T, -np.inf)
    for t in range(T):
        joint = _logsumexp(filt[t, :, None] + logk[..., t], axis=0)
        step = _logsumexp(joint)
        if step == -np.inf:
            break
        filt[t + 1] = joint - step
        lognorm[t] = step
    return filt, lognorm


def forward_filter(
    y: np.ndarray, cov: CovariateSeries, emission: EmissionParams, trans: TransitionParams | None
):
    """``log_likelihood``'s value and the filter's per-day messages; returns
    ``(log_likelihood, ForwardMessages)``.

    A series of zero likelihood gives ``-inf``; raises ``FloatingPointError``
    when the log likelihood is NaN.
    """
    y = validate_series(y, cov)
    logk, (slots, *_) = _kernel_terms(y, day_tables(emission, cov), transition_terms(cov, trans))
    loglik = _not_nan(_product_loglik(_tree_levels(logk)[0]))
    filt, lognorm = _filter_recursion(logk)
    log_filtered = np.full((y.shape[0] + 1, 4), -np.inf)
    np.put_along_axis(log_filtered, slots.states, filt, axis=1)
    return loglik, ForwardMessages(log_filtered[1:], lognorm)


def _tree_levels(m: np.ndarray):
    """Ordered log product of the (..., K, K, T) slot kernels ``m`` and the levels that made it.

    Neighbouring matrices are multiplied pairwise in log space, level by
    level; an odd last matrix is carried to the next level. For
    ``x[i, k, j, p] = m_{2p}[i, k] + m_{2p+1}[k, j]`` the pair product is
    ``c + log s`` with ``c = max_k x`` and ``s = sum_k exp(x - c)``; each level
    keeps ``exp(x - c)``, exactly 0 for -inf terms, and ``s`` for the reverse
    pass. The slots of a day are those of its state in every product, so
    ``k`` runs over the slots of the day the two factors share. Day is the
    last axis throughout; leading axes are rows, each reduced as it would be
    alone.
    """
    levels = []
    while m.shape[-1] > 1:
        even = m.shape[-1] - m.shape[-1] % 2
        n = even // 2
        w = m[..., :, :, None, 0:even:2] + m[..., None, :, :, 1:even:2]   # (..., i, k, j, n)
        c = _over_slots(np.maximum, w, -3)
        c[c == -np.inf] = 0.0
        w -= c[..., :, None, :, :]
        low = w <= _EXP_FLOOR
        np.maximum(w, _EXP_FLOOR, out=w)
        np.exp(w, out=w)
        np.copyto(w, 0.0, where=low)
        s = _over_slots(np.add, w, -3)
        levels.append((w, s))
        nxt = np.empty(m.shape[:-1] + (n + m.shape[-1] - even,))
        with np.errstate(divide="ignore"):
            np.log(s, out=nxt[..., :n])
        nxt[..., :n] += c
        nxt[..., n:] = m[..., even:]
        m = nxt
    return m[..., 0], levels


def _tree_adjoint(levels, g_top: np.ndarray) -> np.ndarray:
    """Reverse pass of ``_tree_levels``: ``d/d m`` (..., K, K, T) from ``d/d product`` (..., K, K).

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
        out[..., 0 : 2 * n : 2] = _over_slots(np.add, w, -2)
        out[..., 1 : 2 * n : 2] = _over_slots(np.add, w, -4)
        out[..., 2 * n :] = g[..., n:]
        g = out
    return g


def _product_loglik(top: np.ndarray):
    """Log likelihood from the (..., K, K) log product of all the slot kernels:
    a logsumexp over its entries, which meets the finite ones in state order
    as the one over the 4x4 product did. A float, or an array over rows."""
    loglik = _logsumexp(top.reshape(top.shape[:-2] + (-1,)), axis=-1)
    return float(loglik) if loglik.ndim == 0 else loglik


def _not_nan(loglik: float) -> float:
    if np.isnan(loglik):
        raise FloatingPointError("log likelihood is NaN")
    return loglik


def log_likelihood_tape(y, tables, transition: TransitionTerms):
    """Tree log likelihood of validated ``y`` and what its adjoint needs.

    ``transition`` is the kernels' transition part, ``transition_terms``.
    Returns ``(loglik, tape)``; the tape holds the log likelihood, the (K, K)
    log product ``P`` of all slot kernels (entry [i, j]: all state paths from
    the anchor day's slot i to the last day's slot j), the tree levels and
    the kernel terms, the day slots first.
    It stays in log space: a probability-space product with per-level
    rescaling returned NaN on extreme prior draws. Tables with a leading axis
    of rows give one log likelihood (an array) and one product per row.
    """
    logk, terms = _kernel_terms(y, tables, transition)
    top, levels = _tree_levels(logk)
    loglik = _product_loglik(top)
    return loglik, (loglik, top, levels, terms)


def log_likelihood_adjoint(tape, tables):
    """Gradient of a finite tree log likelihood with respect to its inputs.

    Returns ``(g_tables, g_loglam)``: ``g_tables`` is the tuple of
    ``_log_kernels_adjoint``, the arguments ``emission.day_tables_adjoint``
    takes after the tables, and ``g_loglam`` (..., T, 4, 4) the gradient with
    respect to ``log_transition_tables``, which is the smoothed pair marginal.
    """
    loglik, top, levels, terms = tape
    xi = _tree_adjoint(levels, np.exp(top - np.asarray(loglik)[..., None, None]))
    return _log_kernels_adjoint(xi, tables, *terms), terms[0].scatter_pairs(xi)


def _zero_likelihood(lognorm: np.ndarray, cov: CovariateSeries) -> FloatingPointError:
    t = int(np.argmax(lognorm == -np.inf))
    return FloatingPointError(
        f"zero likelihood: the filter increment is -inf on day {t + 1} ({cov.dates[t]})"
    )


def _nonzero_likelihood_tape(y, cov, tables, trans):
    """``log_likelihood_tape`` of validated ``y``; raises ``FloatingPointError``
    on a NaN log likelihood, and on zero likelihood naming the first such day,
    found by the filter recursion over kernels rebuilt for the purpose."""
    transition = transition_terms(cov, trans)
    loglik, tape = log_likelihood_tape(y, tables, transition)
    if _not_nan(loglik) == -np.inf:
        _, lognorm = _filter_recursion(_kernel_terms(y, tables, transition)[0])
        raise _zero_likelihood(lognorm, cov)
    return tape


def log_likelihood(y, cov, emission, trans) -> float:
    """Observed-data log likelihood by the tree product; ``-inf`` if it is zero.

    Raises ``FloatingPointError`` when it is NaN.
    """
    y = validate_series(y, cov)
    return _not_nan(log_likelihood_tape(y, day_tables(emission, cov), transition_terms(cov, trans))[0])


def terminal_log_distribution(
    y: np.ndarray, cov: CovariateSeries, tables: DayTables, trans: TransitionParams | None,
    per_row: bool = False,
) -> np.ndarray:
    """Normalised log filtered distribution (..., 4) of the state on the last day.

    Tables with a leading axis of rows give one distribution per row, each
    as that row alone would give it. Raises ``FloatingPointError`` on a NaN
    log likelihood, and naming the first day of zero likelihood when the
    series has none. With ``per_row`` (tables built with it too), a row whose
    first-day law failed (``DayTables.valid``) or whose log likelihood is NaN
    or zero reads NaN instead.
    """
    y = validate_series(y, cov)
    if per_row:
        loglik, tape = log_likelihood_tape(y, tables, transition_terms(cov, trans))
    else:
        tape = _nonzero_likelihood_tape(y, cov, tables, trans)
    loglik, product, _, (slots, *_) = tape
    out = np.full(product.shape[:-2] + (4,), -np.inf)
    # a row of zero likelihood reads -inf - -inf: NaN, as it should
    with np.errstate(invalid="ignore"):
        out[..., slots.states[-1]] = _logsumexp(product, axis=-2) - np.asarray(loglik)[..., None]
    if per_row:
        out[_unvalued(tables, loglik)] = np.nan
    return out


def _unvalued(tables: DayTables, loglik) -> np.ndarray:
    """Which rows cannot be valued: their first-day law failed (``DayTables.valid``),
    or their log likelihood is NaN or zero."""
    return ~(tables.valid & (np.asarray(loglik) > -np.inf))


def backward_smooth(
    messages: ForwardMessages, y: np.ndarray, cov: CovariateSeries,
    emission: EmissionParams, trans: TransitionParams | None,
) -> SmoothedStates:
    """``smooth_states``' marginals for days 0..T, given ``forward_filter``'s
    messages of the same series.

    Raises ``ValueError`` when the messages are of another length, and, as
    ``smooth_states`` does, ``FloatingPointError`` naming the first day of
    zero likelihood.
    """
    y = validate_series(y, cov)
    if messages.log_filtered.shape != (y.shape[0], 4):
        raise ValueError("forward messages do not match the series length")
    return smooth_states(y, cov, emission, trans)[1]


def smooth_states(y, cov, emission, trans):
    """Smoothed state marginals from the tree's reverse pass; returns
    ``(loglik, SmoothedStates)``.

    Raises ``FloatingPointError`` on a NaN log likelihood, and naming the
    first day of zero likelihood when the series has none.
    """
    y = validate_series(y, cov)
    tape = _nonzero_likelihood_tape(y, cov, day_tables(emission, cov), trans)
    return tape[0], SmoothedStates(probs=_smoothed_probs(tape))


def _smoothed_probs(tape) -> np.ndarray:
    """Smoothed state marginals (..., T+1, 4) of days 0..T from a tape of finite log likelihoods.

    Day 0's marginal sums the first pair marginal over the next state, day
    t >= 1's sums pair t-1 over the previous state.
    """
    loglik, top, levels, (slots, *_) = tape
    xi = _tree_adjoint(levels, np.exp(top - np.asarray(loglik)[..., None, None]))   # (..., i, j, T)
    probs = np.zeros(xi.shape[:-3] + (xi.shape[-1] + 1, 4))
    probs[..., 0, slots.states[0]] = _over_slots(np.add, xi[..., 0], -1)
    probs[..., 1:, :] = slots.scatter(_over_slots(np.add, xi, -3)).swapaxes(-1, -2)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def rao_blackwell_states(draws, y, cov) -> SmoothedStates:
    """Average per-draw smoothed marginals over retained posterior draws.

    ``draws`` is a ``paramspace.PosteriorDraws``; each draw's ``trans`` names
    its model. The draws are smoothed in blocks of rows
    (``PosteriorDraws.blocks``), each row as it would be alone, and summed in
    draw order. Raises the error of the first draw that cannot be smoothed:
    ``LinAlgError`` for a failed first-day law, or a ``FloatingPointError``
    naming the draw.
    """
    if draws.n_draws < 1:
        raise ValueError("at least one posterior draw is required")
    y = validate_series(y, cov)
    total = np.zeros((y.shape[0] + 1, 4))
    for rows, (emission, trans, _) in draws.blocks(cov.T):
        tables = day_tables(emission, cov, per_row=True)
        loglik, tape = log_likelihood_tape(y, tables, transition_terms(cov, trans))
        failed = _unvalued(tables, loglik)
        if failed.any():
            draws.raise_for(rows.start + int(np.argmax(failed)), lambda e, t: smooth_states(y, cov, e, t))
        for probs in _smoothed_probs(tape):
            total += probs
        del tables, tape   # a block's arrays go before the next block's are built
    total /= draws.n_draws
    return SmoothedStates(probs=total)
