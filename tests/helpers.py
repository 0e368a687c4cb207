"""Shared test utilities: small fixtures and independent oracles.

The scalar per-day references of the emission model and the transition
logits (``mean_vector``, ``precision_components``, ``log_emission_density``,
``logit_*``, ...) live here: the program computes the same quantities for
all days at once, and the tests check it against these. So does the
sequential forward-backward recursion over the four states' (T, 4, 4)
kernels and the 11 admissible state pairs (``sequential_reference``), which
the tests hold the program's slot tree against.
"""

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from demandhmm.covariates import (
    CovariateSeries,
    DayCovariates,
    HolidayCalendar,
    SeasonalCwvBaseline,
    build_covariates,
)
from demandhmm.emission import LOG_2PI, OMEGA_CLAMP, EmissionParams, day_tables, stationary_variance
from demandhmm.generative import default_truth
from demandhmm.paramspace import ParamSpace
from demandhmm.sampler import PosteriorDraws
from demandhmm.states import (
    STATE_HOLIDAY,
    STATE_NORMAL,
    STATE_POST,
    STATE_PRE,
    TransitionParams,
    initial_distribution,
    log_initial_distribution,
    log_transition_tables,
    transition_matrix,
)

# The program modules that ``import demandhmm.cli`` loads; every other module
# loads when a command first runs it.
CLI_MODULES = frozenset({"cli", "covariates", "dataio", "emission", "paramspace", "priors", "states"})

# Pairs (previous state, current state) with nonzero probability for some
# (n, p); 5 of the 16 conceivable pairs are structurally impossible. The order
# is fixed: the reference's pair messages index into it.
AUGMENTED_PAIRS = (
    (1, 1), (1, 2),
    (2, 2), (2, 3), (2, 4),
    (3, 2), (3, 3), (3, 4),
    (4, 1), (4, 2), (4, 4),
)
_PAIR_PREV = np.array([a - 1 for a, _ in AUGMENTED_PAIRS])
_PAIR_CUR = np.array([b - 1 for _, b in AUGMENTED_PAIRS])


def flat_baseline(value: float = 8.0) -> SeasonalCwvBaseline:
    return SeasonalCwvBaseline(m=np.full((366, 2), value))


def make_cov(start, n_days, holidays, cwv=None, rng=None):
    """Covariates for ``n_days`` from ``start`` with an explicit holiday list.

    ``holidays`` is a list of (date, type). Margin holidays far outside the
    range are appended automatically when missing.
    """
    dates = [start + dt.timedelta(days=i) for i in range(n_days)]
    day0 = dates[0] - dt.timedelta(days=1)
    entries = sorted(holidays, key=lambda e: e[0])
    if not entries or entries[0][0] > day0:
        entries.insert(0, (day0 - dt.timedelta(days=45), 2))
    if entries[-1][0] < dates[-1]:
        entries.append((dates[-1] + dt.timedelta(days=60), 1))
    cal = HolidayCalendar(tuple(e[0] for e in entries), tuple(e[1] for e in entries))
    if cwv is None:
        rng = rng or np.random.default_rng(0)
        cwv = 8.0 + rng.standard_normal((n_days, 2))
    return build_covariates(dates, cal, cwv, flat_baseline())


def small_truth(k_annual=2, k_prec_annual=2):
    return default_truth(k_annual=k_annual, k_prec_annual=k_prec_annual)


def draws_from_params(params_list, k=2, kp=2):
    """``PosteriorDraws`` holding the given ``(emission, trans, latents)`` triples."""
    space = ParamSpace(k, kp)
    rows = [space.pack(e, t, l) for e, t, l in params_list]
    return PosteriorDraws(
        free_draws=np.asarray(rows),
        logpost=np.zeros(len(rows)),
        chain=np.zeros(len(rows), dtype=np.int64),
        iteration=np.arange(len(rows), dtype=np.int64),
        space=space,
        base_full=np.zeros(space.full_size),
    )


def enumeration_oracle(y, cov, emission, trans):
    """Log likelihood and smoothed marginals by explicit path enumeration.

    Walks every positive-probability state sequence s_{0..T} (depth-first over
    the transition support) and combines path log-weights exactly.
    """
    T = cov.T
    l0 = initial_distribution(trans, int(cov.n[0]), int(cov.p[0]))
    lams = [
        transition_matrix(trans, int(cov.n[t]), int(cov.p[t]))
        for t in range(1, T + 1)
    ]

    le1 = np.full(4, -np.inf)
    for k in range(4):
        try:
            le1[k] = log_emission_density(y[0], None, k + 1, None, emission, cov.day(1), None)
        except ValueError:
            pass
    le = np.full((T + 1, 4, 4), -np.inf)  # le[t, prev, cur] for t >= 2
    for t in range(2, T + 1):
        for b in range(4):
            for c in range(4):
                if lams[t - 1][b, c] <= 0.0:
                    continue
                try:
                    le[t, b, c] = log_emission_density(
                        y[t - 1], y[t - 2], c + 1, b + 1, emission, cov.day(t), cov.day(t - 1)
                    )
                except ValueError:
                    pass

    terms = []  # (log weight, sequence)

    def walk(t, seq, logw):
        if t == T:
            terms.append((logw, tuple(seq)))
            return
        prev = seq[-1]
        for c in range(4):
            p = lams[t][prev, c]
            if p <= 0.0:
                continue
            step = math.log(p) + (le1[c] if t == 0 else le[t + 1, prev, c])
            if step == -np.inf:
                continue
            seq.append(c)
            walk(t + 1, seq, logw + step)
            seq.pop()

    for s0 in range(4):
        if l0[s0] > 0.0:
            walk(0, [s0], math.log(l0[s0]))

    logws = np.array([t[0] for t in terms])
    mx = logws.max()
    w = np.exp(logws - mx)
    total = w.sum()
    loglik = mx + math.log(total)
    post = np.zeros((T + 1, 4))
    for wi, (_, seq) in zip(w, terms):
        for t, s in enumerate(seq):
            post[t, s] += wi
    return loglik, post / total


# ---------------------------------------------------------------------------
# Scalar per-day references


def state_weight(decay: float, state: int, n: int, p: int) -> float:
    """Holiday-effect weight for a day in the given state.

    1 on holidays, 0 on normal days, and a power of the decay factor on
    proximity days: decay**n before a holiday, decay**min(n, p) after.
    """
    if state == STATE_HOLIDAY:
        return 1.0
    if state == STATE_NORMAL:
        return 0.0
    if state == STATE_PRE:
        return float(decay**n)
    if state == STATE_POST:
        return float(decay ** min(n, p))
    raise ValueError(f"unknown state {state}")


def fourier_sum(coeffs, t_index: float, period: float) -> float:
    """Sum of K harmonics; ``coeffs`` is (2, K) with cosine and sine rows.

    The clock is reduced modulo the period before the trigonometric calls so
    precision does not degrade with large day indices.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    k = np.arange(1, coeffs.shape[1] + 1)
    ang = 2.0 * math.pi * k * math.fmod(t_index, period) / period
    return float(coeffs[0] @ np.cos(ang) + coeffs[1] @ np.sin(ang))


def mean_vector(params: EmissionParams, day: DayCovariates, state: int) -> np.ndarray:
    """Conditional mean of log demand, one entry per region."""
    if (state == STATE_HOLIDAY) != day.is_holiday:
        raise ValueError("state 2 applies exactly on holidays")
    mu = np.empty(2)
    for j in range(2):
        b = state_weight(float(params.decay_mean[j]), state, day.n, day.p)
        mu[j] = (
            params.level[j]
            + b * params.holiday[j, day.r - 1]
            + fourier_sum(params.annual[j], day.t_index, 365.25)
            + fourier_sum(params.weekday[j], day.t_index, 7.0)
            + (params.weather[j, 0] + params.weather[j, 1] * day.w[j]) * day.w_tilde[j]
        )
    return mu


@dataclass(frozen=True)
class PrecisionComponents:
    """Cross-region regression coefficient and the two precisions."""

    phi: float
    tau1: float
    tau2: float

    def __post_init__(self):
        if self.tau1 <= 0.0 or self.tau2 <= 0.0:
            raise ValueError("precisions must be positive")


def precision_components(
    params: EmissionParams, day: DayCovariates, state: int
) -> PrecisionComponents:
    """Per-day precision parameters (phi, tau1, tau2) for the given state."""
    if (state == STATE_HOLIDAY) != day.is_holiday:
        raise ValueError("state 2 applies exactly on holidays")
    w = state_weight(float(params.decay_prec), state, day.n, day.p)
    omega = np.empty(3)
    for i in range(3):
        omega[i] = (
            params.prec_base[i]
            + w * params.prec_holiday[i]
            + fourier_sum(params.prec_annual[i], day.t_index, 365.25)
        )
    ltau = np.clip(omega[1:], -OMEGA_CLAMP, OMEGA_CLAMP)
    return PrecisionComponents(phi=float(omega[0]), tau1=math.exp(ltau[0]), tau2=math.exp(ltau[1]))


def precision_matrix(pc: PrecisionComponents) -> np.ndarray:
    """Precision matrix T' D^{-1} T with unit-triangular T and D = diag(1/tau).

    The (2, 1) entry of T is -phi, so log det = log tau1 + log tau2 for any phi.
    """
    phi, t1, t2 = pc.phi, pc.tau1, pc.tau2
    return np.array(
        [
            [t1 + phi * phi * t2, -phi * t2],
            [-phi * t2, t2],
        ]
    )


def covariance_from_components(pc: PrecisionComponents) -> np.ndarray:
    """Inverse of :func:`precision_matrix`, in closed form."""
    phi, t1, t2 = pc.phi, pc.tau1, pc.tau2
    return np.array(
        [
            [1.0 / t1, phi / t1],
            [phi / t1, 1.0 / t2 + phi * phi / t1],
        ]
    )


def _dense_normal_logpdf(e: np.ndarray, cov: np.ndarray) -> float:
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    quad = (
        cov[1, 1] * e[0] * e[0] - 2.0 * cov[0, 1] * e[0] * e[1] + cov[0, 0] * e[1] * e[1]
    ) / det
    return -LOG_2PI - 0.5 * math.log(det) - 0.5 * quad


def log_emission_density(
    y_t,
    y_prev,
    state_t: int,
    state_prev: int | None,
    params: EmissionParams,
    day_t: DayCovariates,
    day_prev: DayCovariates | None,
) -> float:
    """Log density of one day's observation given its (pair of) states.

    For the first observation pass ``y_prev = day_prev = state_prev = None``;
    the density is then the stationary normal with variance V(A, Omega_1).
    """
    y_t = np.asarray(y_t, dtype=np.float64)
    if y_t.shape != (2,):
        raise ValueError(f"y_t must be a 2-vector, got shape {y_t.shape}")
    mu_t = mean_vector(params, day_t, state_t)
    pc = precision_components(params, day_t, state_t)
    if y_prev is None:
        if state_prev is not None or day_prev is not None:
            raise ValueError("first-day density takes no previous state or day")
        v = stationary_variance(params.ar_matrix, precision_matrix(pc))
        return _dense_normal_logpdf(y_t - mu_t, v)
    y_prev = np.asarray(y_prev, dtype=np.float64)
    if y_prev.shape != (2,):
        raise ValueError(f"y_prev must be a 2-vector, got shape {y_prev.shape}")
    if state_prev is None or day_prev is None:
        raise ValueError("later-day density needs the previous state and day")
    mu_prev = mean_vector(params, day_prev, state_prev)
    e = (y_t - mu_t) - params.ar_matrix @ (y_prev - mu_prev)
    u2 = e[1] - pc.phi * e[0]
    return (
        -LOG_2PI
        + 0.5 * (math.log(pc.tau1) + math.log(pc.tau2))
        - 0.5 * (pc.tau1 * e[0] * e[0] + pc.tau2 * u2 * u2)
    )


def logit_pre_entry(trans: TransitionParams, n: int) -> float:
    """Logit of the normal -> pre-holiday probability, n >= 1 days to the holiday."""
    if n < 1:
        raise ValueError("pre-holiday entry is undefined on a holiday (n = 0)")
    return trans.to_pre_const + trans.to_pre_dist * math.sqrt(n - 1.0) / 10.0


def logit_post_exit(trans: TransitionParams, n: int, p: int) -> float:
    """Logit of the post-holiday -> normal probability, first evaluated at p = 2."""
    if p < 2:
        raise ValueError("post-holiday exit is first evaluated at p = 2")
    return (
        trans.to_normal_const
        + trans.to_normal_days * math.sqrt(p - 2.0) / 10.0
        + (trans.to_normal_eve if n == 1 else 0.0)
    )


def logit_post_entry(trans: TransitionParams, n: int) -> float:
    """Logit of the holiday -> post-holiday probability."""
    if n < 1:
        raise ValueError("holiday -> post-holiday applies on a non-holiday day (n >= 1)")
    return trans.to_post_const + (trans.to_post_gap2 if n == 2 else 0.0)


def augmented_transition_matrix(trans: TransitionParams | None, n: int, p: int) -> np.ndarray:
    """11x11 row-stochastic matrix over consecutive-state pairs.

    Entry ((a, b), (b', c)) equals the single-day transition probability from
    b to c at (n, p) when b = b', else zero.
    """
    lam = transition_matrix(trans, n, p)
    out = np.zeros((11, 11))
    for i, (_, b) in enumerate(AUGMENTED_PAIRS):
        for j, (b2, c) in enumerate(AUGMENTED_PAIRS):
            if b == b2:
                out[i, j] = lam[b - 1, c - 1]
    return out


# ---------------------------------------------------------------------------
# Sequential forward-backward reference over the four states


def log_kernels(y, cov, tables, trans) -> np.ndarray:
    """(T, 4, 4) log kernels ``log lambda_t(b, c) + log f_t(y_t | b, c)`` over all four states.

    Row t holds observation day t+1 with b the state on day t and c the state
    on day t+1. Day 1's observation follows the stationary law of state c;
    row 0 also carries the anchor-day log distribution over b. Structurally
    impossible transitions are -inf, so is every entry whose c its day cannot
    take; an entry whose b its day cannot take may be finite, but no path of
    positive probability reaches it.
    """
    d = y[:, None, :] - tables.mu                                   # (T, c, 2)
    e = d[1:, None] - (d[:-1] @ tables.psi.T)[:, :, None]           # (T-1, b, c, 2)
    u2 = e[..., 1] - tables.phi[1:, None] * e[..., 0]
    out = np.empty((y.shape[0], 4, 4))
    # a zero-likelihood observation overflows the squares to inf: its kernel is -inf
    with np.errstate(over="ignore"):
        out[1:] = (
            -LOG_2PI
            + 0.5 * (tables.days[3] + tables.days[4]).T[1:, None]    # log tau1 + log tau2
            - 0.5 * (tables.tau1[1:, None] * e[..., 0] ** 2 + tables.tau2[1:, None] * u2**2)
        )
        quad0 = np.einsum("ci,cij,cj->c", d[0], tables.v_inv, d[0])
    logl0 = log_initial_distribution(trans, int(cov.n[0]), int(cov.p[0]))
    out[0] = logl0[:, None] + (-LOG_2PI - 0.5 * tables.v_logdet - 0.5 * quad0)
    return out + log_transition_tables(trans, cov.n[1:], cov.p[1:])


@dataclass(frozen=True)
class SequentialReference:
    """Forward-backward results of one series, or ``loglik = -inf`` and no arrays."""

    loglik: float
    log_messages: np.ndarray | None   # (T, 11) normalised log pair messages, AUGMENTED_PAIRS order
    pairs: np.ndarray | None          # (T, 4, 4) smoothed probability of each kernel row's (b, c)
    probs: np.ndarray | None          # (T+1, 4) smoothed state marginals of days 0..T


def sequential_reference(y, cov, emission, trans) -> SequentialReference:
    """Day-by-day forward filter over the 11 state pairs and backward smoother.

    The forward message is a log law over the (previous, current) pairs,
    normalised each day; the backward message is a 4-vector over the current
    state, scaled by the forward increments so it stays of order one.
    """
    logk = log_kernels(y, cov, day_tables(emission, cov), trans)
    T = logk.shape[0]
    f = np.zeros(4)        # row 0 of the kernels holds the anchor distribution
    alpha = np.empty((T, 4, 4))
    lognorm = np.empty(T)
    for t in range(T):
        joint = f[:, None] + logk[t]
        lognorm[t] = np.logaddexp.reduce(joint.ravel())
        if lognorm[t] == -np.inf:
            return SequentialReference(-np.inf, None, None, None)
        alpha[t] = joint - lognorm[t]
        f = np.logaddexp.reduce(alpha[t], axis=0)
    log_messages = alpha[:, _PAIR_PREV, _PAIR_CUR]
    scaled = logk - lognorm[:, None, None]
    beta = np.zeros((T, 4))   # row t: scaled log p(y after day t+1 | state on day t+1)
    for t in range(T - 1, 0, -1):
        beta[t - 1] = np.logaddexp.reduce(scaled[t] + beta[t], axis=1)
    pair_alpha = np.full((T, 4, 4), -np.inf)
    pair_alpha[:, _PAIR_PREV, _PAIR_CUR] = log_messages
    pairs = np.exp(pair_alpha + beta[:, None, :])
    probs = np.empty((T + 1, 4))
    probs[0] = pairs[0].sum(axis=1)
    probs[1:] = pairs.sum(axis=1)
    probs /= probs.sum(axis=1, keepdims=True)
    return SequentialReference(float(lognorm.sum()), log_messages, pairs, probs)
