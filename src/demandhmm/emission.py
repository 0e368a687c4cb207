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


def stationary_variance(psi: np.ndarray, omega1: np.ndarray) -> np.ndarray:
    """Solve V = psi V psi' + omega1^{-1} for the stationary variance V.

    With symmetric psi the equation reduces to a 3x3 linear system in
    (V11, V12, V22); the system is nonsingular whenever both eigenvalues of
    psi lie inside the unit disc and omega1 is symmetric positive definite.
    """
    psi = np.asarray(psi, dtype=np.float64)
    a, b = psi[0, 0], psi[0, 1]
    omega1 = np.asarray(omega1, dtype=np.float64)
    det = omega1[0, 0] * omega1[1, 1] - omega1[0, 1] * omega1[1, 0]
    if det <= 0.0 or omega1[0, 0] <= 0.0:
        raise ValueError("omega1 must be symmetric positive definite")
    s11 = omega1[1, 1] / det
    s12 = -omega1[0, 1] / det
    s22 = omega1[0, 0] / det
    coef = np.array(
        [
            [1.0 - a * a, -2.0 * a * b, -b * b],
            [-a * b, 1.0 - a * a - b * b, -a * b],
            [-b * b, -2.0 * a * b, 1.0 - a * a],
        ]
    )
    v11, v12, v22 = np.linalg.solve(coef, np.array([s11, s12, s22]))
    v = np.array([[v11, v12], [v12, v22]])
    if not (v[0, 0] > 0.0 and np.linalg.det(v) > 0.0):
        raise np.linalg.LinAlgError("stationary variance is not positive definite")
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
    t = cov.t_index.astype(np.float64)
    return DesignMatrices(
        f_annual=_fourier_design(t, 365.25, k_annual),
        f_prec=_fourier_design(t, 365.25, k_prec_annual),
        f_week=_fourier_design(t, 7.0, 3),
        r_index=(cov.r[1:] - 1).astype(np.int64),
        n=cov.n[1:].astype(np.float64),
        gap=cov.gap[1:].astype(np.float64),
        w=cov.w,
        w_tilde=cov.w_tilde,
    )


@dataclass(frozen=True)
class DayTables:
    """Per-day, per-state emission quantities consumed by the filter and simulator.

    ``mu`` is (T, 4, 2); ``phi``, ``tau1``, ``tau2``, ``ltau1``, ``ltau2`` are
    (T, 4). ``v_inv`` (4, 2, 2), ``v_logdet`` (4,) and ``v_chol`` (4, 2, 2)
    describe the stationary first-day distribution under each initial state.
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


def build_day_tables(params: EmissionParams, design: DesignMatrices) -> DayTables:
    """Evaluate mean and precision tables for every day and candidate state."""
    T = design.n.shape[0]
    two_k = 2 * params.k_annual
    if design.f_annual.shape[1] != two_k or design.f_prec.shape[1] != 2 * params.k_prec_annual:
        raise ValueError("design matrices were built for different harmonic counts")

    # state-independent part of the mean, (T, 2)
    base = (
        params.level[None, :]
        + design.f_annual @ params.annual.reshape(2, two_k).T
        + design.f_week @ params.weekday.reshape(2, 6).T
        + (params.weather[None, :, 0] + params.weather[None, :, 1] * design.w) * design.w_tilde
    )
    hol_effect = params.holiday.T[design.r_index]  # (T, 2)

    with np.errstate(divide="ignore"):
        log_rho = np.log(params.decay_mean)  # (2,)
    bw = np.zeros((T, 4, 2))
    bw[:, 0, :] = np.exp(design.n[:, None] * log_rho[None, :])
    bw[:, 1, :] = 1.0
    bw[:, 2, :] = np.exp(design.gap[:, None] * log_rho[None, :])
    mu = base[:, None, :] + bw * hol_effect[:, None, :]

    tw = np.zeros((T, 4))
    log_rho_p = math.log(params.decay_prec)
    tw[:, 0] = np.exp(design.n * log_rho_p)
    tw[:, 1] = 1.0
    tw[:, 2] = np.exp(design.gap * log_rho_p)
    seasonal = design.f_prec @ params.prec_annual.reshape(3, 2 * params.k_prec_annual).T  # (T, 3)
    omega = (
        params.prec_base[None, None, :]
        + tw[:, :, None] * params.prec_holiday[None, None, :]
        + seasonal[:, None, :]
    )  # (T, 4, 3)
    phi = omega[:, :, 0]
    ltau1 = np.clip(omega[:, :, 1], -OMEGA_CLAMP, OMEGA_CLAMP)
    ltau2 = np.clip(omega[:, :, 2], -OMEGA_CLAMP, OMEGA_CLAMP)
    tau1 = np.exp(ltau1)
    tau2 = np.exp(ltau2)

    psi = params.ar_matrix
    v_inv = np.empty((4, 2, 2))
    v_logdet = np.empty(4)
    v_chol = np.empty((4, 2, 2))
    for s in range(4):
        pc = PrecisionComponents(phi=float(phi[0, s]), tau1=float(tau1[0, s]), tau2=float(tau2[0, s]))
        v = stationary_variance(psi, precision_matrix(pc))
        det = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
        v_inv[s] = np.array([[v[1, 1], -v[0, 1]], [-v[0, 1], v[0, 0]]]) / det
        v_logdet[s] = math.log(det)
        l11 = math.sqrt(v[0, 0])
        l21 = v[0, 1] / l11
        l22 = math.sqrt(v[1, 1] - l21 * l21)
        v_chol[s] = np.array([[l11, 0.0], [l21, l22]])
    return DayTables(
        mu=mu,
        phi=phi,
        tau1=tau1,
        tau2=tau2,
        ltau1=ltau1,
        ltau2=ltau2,
        psi=psi,
        v_inv=v_inv,
        v_logdet=v_logdet,
        v_chol=v_chol,
    )
