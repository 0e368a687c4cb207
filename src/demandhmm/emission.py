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

from .covariates import CovariateSeries
from .states import row_dot

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
    Parameters of several draws at once carry one leading axis of rows on
    every field (``decay_prec`` is then an array).
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
        return self.annual.shape[-1]

    @property
    def k_prec_annual(self) -> int:
        return self.prec_annual.shape[-1]

    @property
    def ar_matrix(self) -> np.ndarray:
        return psi_from_xi(self.ar_eig01)

    def replace(self, **kw) -> "EmissionParams":
        return replace(self, **kw)


def psi_from_xi(xi) -> np.ndarray:
    """Symmetric AR matrix from its unit-square eigenvalue parameterisation.

    xi in (0,1)^2 maps to eigenvalues chi = 2 xi - 1 in (-1,1); the matrix has
    common diagonal (chi1 + chi2) / 2 and common off-diagonal (chi1 - chi2) / 2.
    ``xi`` (..., 2) gives (..., 2, 2).
    """
    xi = np.asarray(xi, dtype=np.float64)
    if np.any(xi <= 0.0) or np.any(xi >= 1.0):
        raise ValueError(f"ar_eig01 must lie in (0, 1)^2, got {xi}")
    chi = 2.0 * xi - 1.0
    on = 0.5 * (chi[..., 0] + chi[..., 1])
    off = 0.5 * (chi[..., 0] - chi[..., 1])
    return _matrix([[on, off], [off, on]])


def _matrix(rows) -> np.ndarray:
    """(..., m, n) matrix from m rows of n entries, all numbers or all arrays of one shape."""
    m = np.array(rows, dtype=np.float64)
    return m.transpose(tuple(range(2, m.ndim)) + (0, 1))


def _lyapunov_matrix(a, b) -> np.ndarray:
    """(..., 3, 3) system of V = psi V psi' + S in (V11, V12, V22) for psi = [[a, b], [b, a]]."""
    return _matrix(
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
    solved together; V has the same shape. ``psi`` may carry leading axes of
    rows, which then lead ``omega1``'s too; each row is one solve. Raises
    ``LinAlgError`` when an omega1 or a V is not positive definite, or the
    system is singular.
    """
    v, omega_ok, v_ok = _stationary_variance_rows(psi, omega1)
    _raise_unless_positive_definite(omega_ok, v_ok)
    return v


def _stationary_variance_rows(psi, omega1):
    """``stationary_variance`` without raising: ``(v, omega_ok, v_ok)``.

    ``omega_ok`` and ``v_ok`` (psi's leading axes) say whether each row's
    omega1, and then its V, are positive definite; a singular 3x3 system
    (determinant 0.0, on which ``np.linalg.solve`` would raise) is solved as
    the identity and fails ``v_ok``. A row that fails either gets the
    identity for V; the other rows are what they are alone.
    """
    psi = np.asarray(psi, dtype=np.float64)
    omega1 = np.asarray(omega1, dtype=np.float64)
    k = psi.ndim - 2    # leading axes of rows
    within = tuple(range(k, omega1.ndim - 2))          # the axes of one row's matrices

    def by_row(ok, ndim):
        return ok[(...,) + (None,) * (ndim - k)]

    det = omega1[..., 0, 0] * omega1[..., 1, 1] - omega1[..., 0, 1] * omega1[..., 1, 0]
    # a numerical failure: positive precisions can still cancel to det <= 0
    omega_ok = ~np.any((det <= 0.0) | (omega1[..., 0, 0] <= 0.0), axis=within)
    if not omega_ok.all():
        omega1 = np.where(by_row(omega_ok, omega1.ndim), omega1, np.eye(2))
        det = np.where(by_row(omega_ok, det.ndim), det, 1.0)
    s = np.stack([omega1[..., 1, 1] / det, -omega1[..., 0, 1] / det, omega1[..., 0, 0] / det], axis=k)
    rhs = s.reshape(s.shape[: k + 1] + (-1,))          # (..., 3, M): one column per matrix
    system = _lyapunov_matrix(psi[..., 0, 0], psi[..., 0, 1])
    solvable = np.linalg.det(system) != 0.0
    sol = np.linalg.solve(np.where(solvable[..., None, None], system, np.eye(3)), rhs).reshape(s.shape)
    v11, v12, v22 = (sol[(slice(None),) * k + (i,)] for i in range(3))
    v_ok = solvable & np.all((v11 > 0.0) & (v11 * v22 - v12 * v12 > 0.0), axis=within)
    v = np.empty(omega1.shape)
    v[..., 0, 0], v[..., 0, 1], v[..., 1, 0], v[..., 1, 1] = v11, v12, v12, v22
    if not (omega_ok & v_ok).all():
        v = np.where(by_row(omega_ok & v_ok, v.ndim), v, np.eye(2))
    return v, omega_ok, v_ok


def _raise_unless_positive_definite(omega_ok, v_ok) -> None:
    if not np.all(omega_ok):
        raise np.linalg.LinAlgError("omega1 must be symmetric positive definite")
    if not np.all(v_ok):
        raise np.linalg.LinAlgError("stationary variance is not positive definite")


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
    def build():
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

    return cov.derived(("design", k_annual, k_prec_annual), build)


@dataclass(frozen=True)
class DayTables:
    """Per-day, per-state emission quantities consumed by the filter and simulator.

    ``mu`` is (T, 4, 2); ``phi``, ``tau1``, ``tau2`` are (T, 4). ``v_inv``
    (4, 2, 2), ``v_logdet`` (4,) and ``v_chol`` (4, 2, 2) describe the
    stationary first-day distribution under each initial state. Tables of
    several draws carry their leading axis of rows on every field. The
    per-day fields are views of the one day-last array ``days`` (7, 4, T),
    with the per-row axes reversed: mu's two regions, phi, log tau1, log
    tau2, tau1 and tau2. ``valid`` says whether each row's first-day law is
    positive definite, its Lyapunov system solvable; a row where it is not
    holds the identity for V.
    """

    mu: np.ndarray
    phi: np.ndarray
    tau1: np.ndarray
    tau2: np.ndarray
    psi: np.ndarray
    v_inv: np.ndarray
    v_logdet: np.ndarray
    v_chol: np.ndarray
    days: np.ndarray
    valid: np.ndarray


def reverse_trailing(x: np.ndarray, k: int) -> np.ndarray:
    """View of ``x`` with its last ``k`` axes in reverse order: ``x.T`` without leading axes."""
    n = x.ndim
    return x.transpose(tuple(range(n - k)) + tuple(range(n - 1, n - k - 1, -1)))


def _state_weights(design: DesignMatrices, decay) -> np.ndarray:
    """Holiday-effect weights (..., 4, T) of states 1-4: ``decay**n``, 1, ``decay**gap``, 0."""
    with np.errstate(divide="ignore"):
        log_rho = np.log(decay)[..., None]
    w = np.zeros(np.shape(decay) + (4, design.n.shape[0]))
    w[..., 0, :] = np.exp(log_rho * design.n)
    w[..., 1, :] = 1.0
    w[..., 2, :] = np.exp(log_rho * design.gap)
    return w


def _stage(*fields):
    """Declares the ``EmissionParams`` fields a day-table stage reads, as its ``fields``."""
    def declare(fn):
        fn.fields = frozenset(fields)
        return fn

    return declare


@_stage("level", "holiday", "annual", "weekday", "weather", "decay_mean")
def _mean_rows(params: EmissionParams, design: DesignMatrices, days: np.ndarray) -> None:
    """Write each region's mean under each state into ``days[..., 0:2, :, :]``."""
    lead = params.level.shape[:-1]
    # state-independent part of the mean, (..., 2, T)
    base = (
        params.level[..., :, None]
        + params.annual.reshape(lead + (2, 2 * params.k_annual)) @ design.f_annual.T
        + params.weekday.reshape(lead + (2, 6)) @ design.f_week.T
        + (params.weather[..., :, 0, None] + params.weather[..., :, 1, None] * design.w.T)
        * design.w_tilde.T
    )
    hol_effect = params.holiday[..., design.r_index]  # (..., 2, T)
    np.add(
        base[..., :, None, :],
        _state_weights(design, params.decay_mean) * hol_effect[..., :, None, :],
        out=days[..., 0:2, :, :],
    )


@_stage("prec_base", "prec_holiday", "prec_annual", "decay_prec")
def _precision_rows(params: EmissionParams, design: DesignMatrices, days: np.ndarray) -> None:
    """Write phi, log tau1, log tau2 (clamped), tau1 and tau2 into ``days[..., 2:7, :, :]``."""
    lead = params.level.shape[:-1]
    tw = _state_weights(design, params.decay_prec)  # (..., 4, T)
    seasonal = params.prec_annual.reshape(lead + (3, 2 * params.k_prec_annual)) @ design.f_prec.T
    np.add(
        params.prec_base[..., :, None, None] + tw[..., None, :, :] * params.prec_holiday[..., :, None, None],
        seasonal[..., :, None, :],
        out=days[..., 2:5, :, :],
    )  # omega = (phi, log tau1, log tau2), (..., 3, 4, T)
    np.clip(days[..., 3:5, :, :], -OMEGA_CLAMP, OMEGA_CLAMP, out=days[..., 3:5, :, :])
    np.exp(days[..., 3:5, :, :], out=days[..., 5:7, :, :])


# the first-day law reads day 1's precision rows, so every field they read
@_stage("ar_eig01", *_precision_rows.fields)
def _first_day_law(params: EmissionParams, days: np.ndarray):
    """``(fields, omega_ok, v_ok)``: psi and the stationary first-day law under each
    state (``v_inv``, ``v_logdet``, ``v_chol`` and ``valid``, as ``DayTables``
    fields), and whether each row's precision matrices and V are positive definite."""
    lead = params.level.shape[:-1]
    psi = params.ar_matrix
    # the precision matrix of day 1's components under each state
    phi0, t1, t2 = days[..., 2, :, 0], days[..., 5, :, 0], days[..., 6, :, 0]
    omega1 = np.empty(lead + (4, 2, 2))
    omega1[..., 0, 0] = t1 + phi0 * phi0 * t2
    omega1[..., 0, 1] = omega1[..., 1, 0] = -phi0 * t2
    omega1[..., 1, 1] = t2
    v, omega_ok, v_ok = _stationary_variance_rows(psi, omega1)   # (..., 4, 2, 2)
    v00, v01, v11 = v[..., 0, 0], v[..., 0, 1], v[..., 1, 1]
    det = v00 * v11 - v01 * v01
    v_inv = np.empty(lead + (4, 2, 2))
    v_inv[..., 0, 0] = v11 / det
    v_inv[..., 0, 1] = v_inv[..., 1, 0] = -v01 / det
    v_inv[..., 1, 1] = v00 / det
    l11 = np.sqrt(v00)
    l21 = v01 / l11
    v_chol = np.zeros(lead + (4, 2, 2))
    v_chol[..., 0, 0] = l11
    v_chol[..., 1, 0] = l21
    v_chol[..., 1, 1] = np.sqrt(np.maximum(v11 - l21 * l21, 0.0))  # det > 0 up to rounding
    law = {"psi": psi, "v_inv": v_inv, "v_logdet": np.log(det), "v_chol": v_chol, "valid": omega_ok & v_ok}
    return law, omega_ok, v_ok


def _day_rows(days: np.ndarray) -> dict:
    """The per-day ``DayTables`` fields: ``days`` and its (T, ...) views."""
    return {
        "mu": reverse_trailing(days[..., 0:2, :, :], 3),
        "phi": reverse_trailing(days[..., 2, :, :], 2),
        "tau1": reverse_trailing(days[..., 5, :, :], 2),
        "tau2": reverse_trailing(days[..., 6, :, :], 2),
        "days": days,
    }


def build_day_tables(params: EmissionParams, design: DesignMatrices, per_row: bool = False) -> DayTables:
    """Evaluate mean and precision tables for every day and candidate state.

    Three stages build them, each declaring the ``EmissionParams`` fields it
    reads (``fields``): the mean rows, the precision rows, and psi with the
    first-day law; this runs all three, ``update_day_tables`` only those a
    change feeds. The arrays are built with the day axis last, so numpy's
    loops run over days rather than over 2 regions or 4 states; the tables
    are (T, ...) views of them. Parameters with a leading axis of rows give
    tables with that axis, each row as that row alone would give it. Raises
    ``LinAlgError`` when a row's first-day law is not positive definite or
    its Lyapunov system is singular; with ``per_row`` that row is marked in
    ``valid`` instead.
    """
    if (design.f_annual.shape[1] != 2 * params.k_annual
            or design.f_prec.shape[1] != 2 * params.k_prec_annual):
        raise ValueError("design matrices were built for different harmonic counts")
    # mu (2 regions), phi, ltau1, ltau2, tau1, tau2
    days = np.empty(params.level.shape[:-1] + (7, 4, design.n.shape[0]))
    _mean_rows(params, design, days)
    _precision_rows(params, design, days)
    law, omega_ok, v_ok = _first_day_law(params, days)
    if not per_row:
        _raise_unless_positive_definite(omega_ok, v_ok)
    return DayTables(**_day_rows(days), **law)


def update_day_tables(
    params: EmissionParams, design: DesignMatrices, tables: DayTables, changed
) -> DayTables:
    """``build_day_tables(params, design, per_row=True)``, given the tables of
    parameters that differ from ``params`` in the fields ``changed`` only.

    Only the stages that read a changed field run, over copies of the rows of
    ``tables``; every other row is taken from ``tables`` as it is, so the
    result is bit for bit the full build. ``tables`` itself comes back when
    no stage reads a changed field.
    """
    rows = [stage for stage in (_mean_rows, _precision_rows) if stage.fields & changed]
    if rows:
        days = tables.days.copy()
        for stage in rows:
            stage(params, design, days)
        tables = replace(tables, **_day_rows(days))
    if _first_day_law.fields & changed:
        tables = replace(tables, **_first_day_law(params, tables.days)[0])
    return tables


def day_tables(params: EmissionParams, cov: CovariateSeries, per_row: bool = False) -> DayTables:
    """``build_day_tables`` of ``params`` over the design of ``cov``."""
    return build_day_tables(params, build_design(cov, params.k_annual, params.k_prec_annual), per_row)


def day_tables_adjoint(
    params: EmissionParams,
    design: DesignMatrices,
    tables: DayTables,
    g_days, g_psi, g_v_inv, g_v_logdet,
) -> dict:
    """Adjoint of :func:`build_day_tables`.

    Takes the gradients of a scalar with respect to the tables, as
    ``filtering.log_likelihood_adjoint`` returns them (``g_days`` is over the
    first five rows of ``tables.days``, up to the log precisions, and is
    overwritten), and gives its gradients with respect to the
    ``EmissionParams`` fields, keyed by field name, on their natural scale.
    Clamped log precisions pass no gradient.
    """
    # first-day law: V_c solves V = psi V psi + S_c with S_c = Omega_c^{-1}.
    # d/dV of log det V and of V^{-1}, then back through the 3x3 system in
    # (V11, V12, V22) that stationary_variance solves
    lead = params.level.shape[:-1]
    v_inv = tables.v_inv
    v = np.stack([v_inv[..., 1, 1], -v_inv[..., 0, 1], v_inv[..., 0, 0]], axis=-2)
    v = v * np.exp(tables.v_logdet)[..., None, :]       # (..., 3, 4)
    g_v = g_v_logdet[..., None, None] * v_inv - v_inv @ g_v_inv.swapaxes(-1, -2) @ v_inv
    a, b = tables.psi[..., 0, 0], tables.psi[..., 0, 1]
    g_v3 = np.stack([g_v[..., 0, 0], g_v[..., 0, 1] + g_v[..., 1, 0], g_v[..., 1, 1]], axis=-2)
    # a row marked invalid reads -inf and its gradient is not used: solve it as the identity
    system = np.where(tables.valid[..., None, None], _lyapunov_matrix(a, b), np.eye(3))
    g_s = np.linalg.solve(system.swapaxes(-1, -2), g_v3)
    g_coef = -g_s @ v.swapaxes(-1, -2)
    zero = np.zeros_like(a)
    dcoef_da = _matrix([[-2 * a, -2 * b, zero], [-b, -2 * a, -b], [zero, -2 * b, -2 * a]])
    dcoef_db = _matrix([[zero, -2 * a, -2 * b], [-a, -2 * b, -a], [-2 * b, -2 * a, zero]])
    g_on = g_psi[..., 0, 0] + g_psi[..., 1, 1] + (g_coef * dcoef_da).reshape(lead + (9,)).sum(axis=-1)
    g_off = g_psi[..., 0, 1] + g_psi[..., 1, 0] + (g_coef * dcoef_db).reshape(lead + (9,)).sum(axis=-1)

    # omega = (phi, log tau1, log tau2); S_c = [[1/t1, phi/t1], [phi/t1, 1/t2 + phi^2/t1]]
    phi0, t1, t2 = tables.phi[..., 0, :], tables.tau1[..., 0, :], tables.tau2[..., 0, :]
    g_s0, g_s1, g_s2 = g_s[..., 0, :], g_s[..., 1, :], g_s[..., 2, :]
    g_mu, g_omega = g_days[..., 0:2, :, :], g_days[..., 2:5, :, :]   # (..., 2 | 3, 4, T)
    g_omega[..., 0, :, 0] += (g_s1 + 2.0 * phi0 * g_s2) / t1
    g_omega[..., 1, :, 0] -= (g_s0 + phi0 * g_s1 + phi0 * phi0 * g_s2) / t1
    g_omega[..., 2, :, 0] -= g_s2 / t2
    g_omega[..., 1:, :, :] *= np.abs(tables.days[..., 3:5, :, :]) < OMEGA_CLAMP
    tw = _state_weights(design, params.decay_prec)      # (..., 4, T)
    # d/d log decay_prec, per power
    g_tw = tw * (params.prec_holiday[..., None, :] @ g_omega.reshape(lead + (3, -1))).reshape(tw.shape)
    g_seasonal = g_omega.sum(axis=-2)                   # (..., 3, T)

    # mu = base + bw * holiday effect, (..., 2, 4, T) here
    hol_effect = params.holiday[..., design.r_index]    # (..., 2, T)
    bw = _state_weights(design, params.decay_mean)      # (..., 2, 4, T)
    g_base = g_mu.sum(axis=-2)                          # (..., 2, T)
    g_hol = (g_mu * bw).sum(axis=-2)
    g_bw = g_mu * bw * hol_effect[..., :, None, :]
    g_base_w = g_base * design.w_tilde.T
    return {
        "ar_eig01": np.stack([g_on + g_off, g_on - g_off], axis=-1),
        "level": g_base.sum(axis=-1),
        "holiday": np.stack(
            [np.bincount(design.r_index, weights=g, minlength=3) for g in g_hol.reshape(-1, g_hol.shape[-1])]
        ).reshape(params.holiday.shape),
        "annual": (g_base @ design.f_annual).reshape(params.annual.shape),
        "weekday": (g_base @ design.f_week).reshape(params.weekday.shape),
        "weather": np.stack([g_base_w.sum(axis=-1), (g_base_w * design.w.T).sum(axis=-1)], axis=-1),
        "decay_mean": (g_bw[..., 0, :] @ design.n + g_bw[..., 2, :] @ design.gap) / params.decay_mean,
        "decay_prec": (row_dot(g_tw[..., 0, :], design.n) + row_dot(g_tw[..., 2, :], design.gap))
        / params.decay_prec,
        "prec_base": g_seasonal.sum(axis=-1),
        "prec_holiday": (g_omega * tw[..., None, :, :]).sum(axis=(-2, -1)),
        "prec_annual": (g_seasonal @ design.f_prec).reshape(params.prec_annual.shape),
    }
