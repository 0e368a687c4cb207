"""Conditionally stationary bivariate VAR(1) model for log demand.

Given the day's regime state, log demand in the two regions has mean

    mu[t, j] = level[j] + B(state, n, p) * holiday[j, r] + annual Fourier
               + weekday Fourier + (weather[j, 0] + weather[j, 1] * w) * w_tilde

and the deviation from the mean follows y_t - mu_t = A (y_{t-1} - mu_{t-1}) + e_t
with a symmetric autoregression matrix A and per-day precision matrix built
from a square-root-free Cholesky parameterisation: a cross-region regression
coefficient phi and two log precisions, each with its own intercept, holiday
effect and annual Fourier component.

The symmetric A has eigenvalues a_on +/- a_off; mapping each eigenvalue
through (x + 1) / 2 turns the stationarity region into the open unit square,
which is the ``ar_eig01`` parameterisation stored on ``EmissionParams``.

The first observation uses the stationary variance V solving
V = A V A' + Omega_1^{-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .covariates import CovariateSeries, DayCovariates
from .states import STATE_HOLIDAY, STATE_NORMAL, STATE_POST, STATE_PRE

LOG_2PI = math.log(2.0 * math.pi)
OMEGA_CLAMP = 30.0  # bound on log precisions before exponentiation


@dataclass(frozen=True)
class EmissionParams:
    """All parameters of the conditional demand model.

    Shapes: ``ar_eig01`` (2,), ``level`` (2,), ``holiday`` (2, 3) region x
    holiday type, ``annual`` (2, 2, K) region x {cos, sin} x harmonic,
    ``weekday`` (2, 2, 3), ``weather`` (2, 2) centered-CWV coefficient and its
    interaction with the raw CWV, ``decay_mean`` (2,), ``decay_prec`` scalar,
    ``prec_base`` (3,), ``prec_holiday`` (3,), ``prec_annual`` (3, 2, K).
    """

    ar_eig01: np.ndarray
    level: np.ndarray
    holiday: np.ndarray
    annual: np.ndarray
    weekday: np.ndarray
    weather: np.ndarray
    decay_mean: np.ndarray
    decay_prec: float
    prec_base: np.ndarray
    prec_holiday: np.ndarray
    prec_annual: np.ndarray

    @property
    def k_annual(self) -> int:
        return self.annual.shape[2]

    @property
    def k_prec_annual(self) -> int:
        return self.prec_annual.shape[2]

    @property
    def ar_matrix(self) -> np.ndarray:
        return psi_from_xi(self.ar_eig01)

    def replace(self, **kw) -> "EmissionParams":
        return replace(self, **kw)


def psi_from_xi(xi) -> np.ndarray:
    """Symmetric AR matrix from its unit-square eigenvalue parameterisation.

    xi in (0,1)^2 maps to eigenvalues chi = 2 xi - 1 in (-1,1); the matrix has
    common diagonal (chi1 + chi2) / 2 and common off-diagonal (chi1 - chi2) / 2.
    """
    xi = np.asarray(xi, dtype=np.float64)
    if np.any(xi <= 0.0) or np.any(xi >= 1.0):
        raise ValueError(f"ar_eig01 must lie in (0, 1)^2, got {xi}")
    chi = 2.0 * xi - 1.0
    on = 0.5 * (chi[0] + chi[1])
    off = 0.5 * (chi[0] - chi[1])
    return np.array([[on, off], [off, on]])


def xi_from_psi(psi) -> np.ndarray:
    """Inverse of :func:`psi_from_xi` for symmetric stationary matrices."""
    psi = np.asarray(psi, dtype=np.float64)
    chi1 = psi[0, 0] + psi[0, 1]
    chi2 = psi[0, 0] - psi[0, 1]
    return np.array([(chi1 + 1.0) / 2.0, (chi2 + 1.0) / 2.0])


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


def _lyapunov_matrix(a: float, b: float) -> np.ndarray:
    """3x3 system of V = psi V psi' + S in (V11, V12, V22) for psi = [[a, b], [b, a]]."""
    return np.array(
        [
            [1.0 - a * a, -2.0 * a * b, -b * b],
            [-a * b, 1.0 - a * a - b * b, -a * b],
            [-b * b, -2.0 * a * b, 1.0 - a * a],
        ]
    )


def stationary_variance(psi: np.ndarray, omega1: np.ndarray) -> np.ndarray:
    """Solve V = psi V psi' + omega1^{-1} for the stationary variance V.

    With symmetric psi the equation reduces to a 3x3 linear system in
    (V11, V12, V22); the system is nonsingular whenever both eigenvalues of
    psi lie inside the unit disc and omega1 is symmetric positive definite.
    ``omega1`` is one (2, 2) precision matrix or a stack (..., 2, 2) of them,
    solved together; V has the same shape.
    """
    psi = np.asarray(psi, dtype=np.float64)
    omega1 = np.asarray(omega1, dtype=np.float64)
    det = omega1[..., 0, 0] * omega1[..., 1, 1] - omega1[..., 0, 1] * omega1[..., 1, 0]
    if np.any(det <= 0.0) or np.any(omega1[..., 0, 0] <= 0.0):
        # a numerical failure: positive precisions can still cancel to det <= 0
        raise np.linalg.LinAlgError("omega1 must be symmetric positive definite")
    s = np.stack([omega1[..., 1, 1] / det, -omega1[..., 0, 1] / det, omega1[..., 0, 0] / det])
    v11, v12, v22 = np.linalg.solve(
        _lyapunov_matrix(psi[0, 0], psi[0, 1]), s.reshape(3, -1)
    ).reshape(s.shape)
    if not (np.all(v11 > 0.0) and np.all(v11 * v22 - v12 * v12 > 0.0)):
        raise np.linalg.LinAlgError("stationary variance is not positive definite")
    v = np.empty(omega1.shape)
    v[..., 0, 0], v[..., 0, 1], v[..., 1, 0], v[..., 1, 1] = v11, v12, v12, v22
    return v


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


# ---------------------------------------------------------------------------
# Vectorised per-day tables for the filter and the simulator.


@dataclass(frozen=True)
class DesignMatrices:
    """Parameter-independent per-day design data, built once per dataset."""

    f_annual: np.ndarray    # (T, 2K) cos then sin columns
    f_prec: np.ndarray      # (T, 2Kp)
    f_week: np.ndarray      # (T, 6)
    r_index: np.ndarray     # (T,) 0-based nearest-holiday type
    n: np.ndarray           # (T,) float
    gap: np.ndarray         # (T,) float min(n, p)
    w: np.ndarray           # (T, 2)
    w_tilde: np.ndarray     # (T, 2)


def _fourier_design(t_index: np.ndarray, period: float, k: int) -> np.ndarray:
    ks = np.arange(1, k + 1)
    ang = 2.0 * np.pi * np.outer(np.fmod(t_index, period), ks) / period
    return np.concatenate([np.cos(ang), np.sin(ang)], axis=1)


def build_design(cov: CovariateSeries, k_annual: int, k_prec_annual: int) -> DesignMatrices:
    """The design of ``cov`` for these harmonic counts, built once and kept on the series."""
    key = (k_annual, k_prec_annual)
    design = cov._designs.get(key)
    if design is None:
        t = cov.t_index.astype(np.float64)
        design = cov._designs[key] = DesignMatrices(
            f_annual=_fourier_design(t, 365.25, k_annual),
            f_prec=_fourier_design(t, 365.25, k_prec_annual),
            f_week=_fourier_design(t, 7.0, 3),
            r_index=(cov.r[1:] - 1).astype(np.int64),
            n=cov.n[1:].astype(np.float64),
            gap=cov.gap[1:].astype(np.float64),
            w=cov.w,
            w_tilde=cov.w_tilde,
        )
    return design


@dataclass(frozen=True)
class DayTables:
    """Per-day, per-state emission quantities consumed by the filter and simulator.

    ``mu`` is (T, 4, 2); ``phi``, ``tau1``, ``tau2``, ``ltau1``, ``ltau2`` are
    (T, 4). ``v_inv`` (4, 2, 2), ``v_logdet`` (4,) and ``v_chol`` (4, 2, 2)
    describe the stationary first-day distribution under each initial state.
    The per-day fields are transposed views of day-last arrays, so ``.T``
    gives those arrays without a copy.
    """

    mu: np.ndarray
    phi: np.ndarray
    tau1: np.ndarray
    tau2: np.ndarray
    ltau1: np.ndarray
    ltau2: np.ndarray
    psi: np.ndarray
    v_inv: np.ndarray
    v_logdet: np.ndarray
    v_chol: np.ndarray


def _state_weights(design: DesignMatrices, decay) -> np.ndarray:
    """Holiday-effect weights (..., 4, T) of states 1-4: ``decay**n``, 1, ``decay**gap``, 0."""
    with np.errstate(divide="ignore"):
        log_rho = np.log(decay)[..., None]
    w = np.zeros(np.shape(decay) + (4, design.n.shape[0]))
    w[..., 0, :] = np.exp(log_rho * design.n)
    w[..., 1, :] = 1.0
    w[..., 2, :] = np.exp(log_rho * design.gap)
    return w


def build_day_tables(params: EmissionParams, design: DesignMatrices) -> DayTables:
    """Evaluate mean and precision tables for every day and candidate state.

    The arrays are built with the day axis last, so numpy's loops run over
    days rather than over 2 regions or 4 states; the tables are (T, ...)
    views of them.
    """
    two_k = 2 * params.k_annual
    if design.f_annual.shape[1] != two_k or design.f_prec.shape[1] != 2 * params.k_prec_annual:
        raise ValueError("design matrices were built for different harmonic counts")

    # state-independent part of the mean, (2, T)
    base = (
        params.level[:, None]
        + params.annual.reshape(2, two_k) @ design.f_annual.T
        + params.weekday.reshape(2, 6) @ design.f_week.T
        + (params.weather[:, 0, None] + params.weather[:, 1, None] * design.w.T) * design.w_tilde.T
    )
    hol_effect = params.holiday[:, design.r_index]  # (2, T)
    mu = base[:, None, :] + _state_weights(design, params.decay_mean) * hol_effect[:, None, :]

    tw = _state_weights(design, params.decay_prec)  # (4, T)
    seasonal = params.prec_annual.reshape(3, 2 * params.k_prec_annual) @ design.f_prec.T  # (3, T)
    omega = (
        params.prec_base[:, None, None]
        + tw * params.prec_holiday[:, None, None]
        + seasonal[:, None, :]
    )  # (3, 4, T)
    phi = omega[0]
    ltau1 = np.clip(omega[1], -OMEGA_CLAMP, OMEGA_CLAMP)
    ltau2 = np.clip(omega[2], -OMEGA_CLAMP, OMEGA_CLAMP)
    tau1 = np.exp(ltau1)
    tau2 = np.exp(ltau2)

    psi = params.ar_matrix
    # first-day law under each state: the precision matrix of day 1's components
    phi0, t1, t2 = phi[:, 0], tau1[:, 0], tau2[:, 0]
    omega1 = np.empty((4, 2, 2))
    omega1[:, 0, 0] = t1 + phi0 * phi0 * t2
    omega1[:, 0, 1] = omega1[:, 1, 0] = -phi0 * t2
    omega1[:, 1, 1] = t2
    v = stationary_variance(psi, omega1)                 # (4, 2, 2)
    v00, v01, v11 = v[:, 0, 0], v[:, 0, 1], v[:, 1, 1]
    det = v00 * v11 - v01 * v01
    v_inv = np.empty((4, 2, 2))
    v_inv[:, 0, 0] = v11 / det
    v_inv[:, 0, 1] = v_inv[:, 1, 0] = -v01 / det
    v_inv[:, 1, 1] = v00 / det
    v_logdet = np.log(det)
    l11 = np.sqrt(v00)
    l21 = v01 / l11
    v_chol = np.zeros((4, 2, 2))
    v_chol[:, 0, 0] = l11
    v_chol[:, 1, 0] = l21
    v_chol[:, 1, 1] = np.sqrt(np.maximum(v11 - l21 * l21, 0.0))  # det > 0 up to rounding
    return DayTables(
        mu=mu.T,
        phi=phi.T,
        tau1=tau1.T,
        tau2=tau2.T,
        ltau1=ltau1.T,
        ltau2=ltau2.T,
        psi=psi,
        v_inv=v_inv,
        v_logdet=v_logdet,
        v_chol=v_chol,
    )


def day_tables(params: EmissionParams, cov: CovariateSeries) -> DayTables:
    """``build_day_tables`` of ``params`` over the design of ``cov``."""
    return build_day_tables(params, build_design(cov, params.k_annual, params.k_prec_annual))


def day_tables_adjoint(
    params: EmissionParams,
    design: DesignMatrices,
    tables: DayTables,
    g_mu, g_phi, g_ltau1, g_ltau2, g_psi, g_v_inv, g_v_logdet,
) -> dict:
    """Adjoint of :func:`build_day_tables`.

    Takes the gradients of a scalar with respect to the tables, the per-day
    ones transposed to put the day last (``filtering._log_kernels_adjoint``
    returns them so), and gives its gradients with respect to the
    ``EmissionParams`` fields, keyed by field name, on their natural scale.
    Clamped log precisions pass no gradient.
    """
    # first-day law: V_c solves V = psi V psi + S_c with S_c = Omega_c^{-1}.
    # d/dV of log det V and of V^{-1}, then back through the 3x3 system in
    # (V11, V12, V22) that stationary_variance solves
    v_inv = tables.v_inv
    v = np.stack([v_inv[:, 1, 1], -v_inv[:, 0, 1], v_inv[:, 0, 0]]) * np.exp(tables.v_logdet)
    g_v = g_v_logdet[:, None, None] * v_inv - v_inv @ g_v_inv.transpose(0, 2, 1) @ v_inv
    a, b = tables.psi[0, 0], tables.psi[0, 1]
    g_v3 = np.stack([g_v[:, 0, 0], g_v[:, 0, 1] + g_v[:, 1, 0], g_v[:, 1, 1]])
    g_s = np.linalg.solve(_lyapunov_matrix(a, b).T, g_v3)
    g_coef = -g_s @ v.T
    dcoef_da = np.array([[-2 * a, -2 * b, 0.0], [-b, -2 * a, -b], [0.0, -2 * b, -2 * a]])
    dcoef_db = np.array([[0.0, -2 * a, -2 * b], [-a, -2 * b, -a], [-2 * b, -2 * a, 0.0]])
    g_on = g_psi[0, 0] + g_psi[1, 1] + np.sum(g_coef * dcoef_da)
    g_off = g_psi[0, 1] + g_psi[1, 0] + np.sum(g_coef * dcoef_db)

    # omega = (phi, log tau1, log tau2); S_c = [[1/t1, phi/t1], [phi/t1, 1/t2 + phi^2/t1]]
    phi0, t1, t2 = tables.phi[0], tables.tau1[0], tables.tau2[0]
    g_omega = np.stack([g_phi, g_ltau1, g_ltau2])       # (3, 4, T)
    g_omega[0, :, 0] += (g_s[1] + 2.0 * phi0 * g_s[2]) / t1
    g_omega[1, :, 0] -= (g_s[0] + phi0 * g_s[1] + phi0 * phi0 * g_s[2]) / t1
    g_omega[2, :, 0] -= g_s[2] / t2
    g_omega[1] *= np.abs(tables.ltau1.T) < OMEGA_CLAMP
    g_omega[2] *= np.abs(tables.ltau2.T) < OMEGA_CLAMP
    tw = _state_weights(design, params.decay_prec)      # (4, T)
    g_tw = tw * np.tensordot(params.prec_holiday, g_omega, axes=1)  # d/d log decay_prec, per power
    g_seasonal = g_omega.sum(axis=1)                    # (3, T)

    # mu = base + bw * holiday effect, (2, 4, T) here
    hol_effect = params.holiday[:, design.r_index]      # (2, T)
    bw = _state_weights(design, params.decay_mean)      # (2, 4, T)
    g_base = g_mu.sum(axis=1)                           # (2, T)
    g_hol = (g_mu * bw).sum(axis=1)
    g_bw = g_mu * bw * hol_effect[:, None, :]
    g_base_w = g_base * design.w_tilde.T
    return {
        "ar_eig01": np.array([g_on + g_off, g_on - g_off]),
        "level": g_base.sum(axis=1),
        "holiday": np.stack(
            [np.bincount(design.r_index, weights=g_hol[j], minlength=3) for j in range(2)]
        ),
        "annual": (g_base @ design.f_annual).reshape(params.annual.shape),
        "weekday": (g_base @ design.f_week).reshape(params.weekday.shape),
        "weather": np.stack([g_base_w.sum(axis=1), (g_base_w * design.w.T).sum(axis=1)], axis=1),
        "decay_mean": (g_bw[:, 0] @ design.n + g_bw[:, 2] @ design.gap) / params.decay_mean,
        "decay_prec": (g_tw[0] @ design.n + g_tw[2] @ design.gap) / params.decay_prec,
        "prec_base": g_seasonal.sum(axis=1),
        "prec_holiday": (g_omega * tw).sum(axis=(1, 2)),
        "prec_annual": (g_seasonal @ design.f_prec).reshape(params.prec_annual.shape),
    }
