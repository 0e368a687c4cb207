"""Non-homogeneous Markov chain over the four day-regime states.

States: 1 pre-holiday, 2 holiday, 3 post-holiday, 4 normal. State 2 is
observable (it applies exactly on public holidays); the others are hidden.
Transition probabilities vary with the days to the next holiday ``n`` and
since the previous one ``p``. The chain is cyclic: 4 -> (1) -> 2 -> (3) -> 4,
with the proximity states 1 and 3 optional. The two-state comparator has no
proximity states and no transition coefficients: every function here that
takes ``trans`` reads ``trans is None`` as that model.

The filter reads the chain as per-day log transition tables
(``log_transition_tables``), -inf at structurally impossible transitions;
``transition_matrix`` and ``initial_distribution`` give one day's law in
probability space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np

STATE_PRE = 1
STATE_HOLIDAY = 2
STATE_POST = 3
STATE_NORMAL = 4

LOGIT_CLAMP = 35.0


class ModelMode(enum.Enum):
    """Full model, or the restricted comparator without proximity states.

    Only the parameter vector's layout and prior draws take a mode; past
    them, ``trans is None`` is the two-state model.
    """

    FOUR_STATE = "four_state"
    TWO_STATE = "two_state"


@dataclass(frozen=True)
class TransitionParams:
    """Logit-scale coefficients of the three free transition probabilities.

    * normal -> pre-holiday: ``to_pre_const + to_pre_dist * sqrt(n - 1) / 10``
    * post-holiday -> normal: ``to_normal_const + to_normal_days * sqrt(p - 2) / 10
      + to_normal_eve * 1[n = 1]``
    * holiday -> post-holiday: ``to_post_const + to_post_gap2 * 1[n = 2]``
    """

    to_pre_const: float
    to_pre_dist: float
    to_normal_const: float
    to_normal_days: float
    to_normal_eve: float
    to_post_const: float
    to_post_gap2: float

    def as_array(self) -> np.ndarray:
        """(..., 7) coefficients; fields that hold one value per row give the leading axes."""
        return np.array([getattr(self, n) for n in TRANS_NAMES], dtype=np.float64).T

    @classmethod
    def from_array(cls, a) -> "TransitionParams":
        """From (..., 7) coefficients: floats from one row, arrays over the leading axes from several."""
        a = np.asarray(a, dtype=np.float64)
        return cls(*(a.tolist() if a.ndim == 1 else a.T))


TRANS_NAMES = tuple(f.name for f in fields(TransitionParams))


def sigmoid(x):
    """Numerically safe logistic function; logits are clamped to +/-35."""
    x = np.clip(x, -LOGIT_CLAMP, LOGIT_CLAMP)
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


def logit(x):
    """Inverse of ``sigmoid`` on (0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    return np.log(x) - np.log1p(-x)


def log_sigmoid_pair(x):
    """``(log sigmoid(x), log sigmoid(-x))`` without overflow, from one ``log1p(exp(-|x|))``;
    logits are clamped to +/-35."""
    x = np.clip(x, -LOGIT_CLAMP, LOGIT_CLAMP)
    a = np.abs(x)
    near = -np.log1p(np.exp(-a))    # log sigmoid(|x|)
    far = near - a                  # log sigmoid(-|x|)
    up = x >= 0
    return np.where(up, near, far), np.where(up, far, near)


def _logit_covariates(n, p):
    """``sqrt(n - 1)``, ``sqrt(p - 2)``, ``1[n = 1]`` and ``1[n = 2]``, offsets floored at zero."""
    n = np.asarray(n, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    return np.sqrt(np.maximum(n - 1.0, 0.0)), np.sqrt(np.maximum(p - 2.0, 0.0)), n == 1, n == 2


def _logits_clamped(trans: TransitionParams, n, p):
    """Vectorised logits with offsets floored at zero so any (n, p) >= 0 is safe.

    Rows for states that are unreachable at small n or p are multiplied by
    zero probability mass in the filter, but must still be finite. Fields
    that hold one value per row give the logits those leading axes.
    """
    sq_n, sq_p, eve, gap2 = _logit_covariates(n, p)
    coef = np.array([getattr(trans, f) for f in TRANS_NAMES])
    pre_c, pre_d, exit_c, exit_d, exit_e, post_c, post_g = coef.reshape(coef.shape + (1,) * sq_n.ndim)
    l_pre = pre_c + pre_d * sq_n / 10.0
    l_exit = exit_c + exit_d * sq_p / 10.0 + exit_e * eve
    l_post = post_c + post_g * gap2
    return l_pre, l_exit, l_post


def transition_matrix(trans: TransitionParams | None, n: int, p: int) -> np.ndarray:
    """Row-stochastic 4x4 matrix of Pr(state today | state yesterday, n, p).

    On a holiday (n = p = 0) every row moves to state 2 with certainty. In
    the two-state model (``trans is None``) the chain is deterministic:
    holiday -> 2, otherwise -> 4.
    """
    mat = np.zeros((4, 4))
    if n == 0 and p == 0:
        mat[:, 1] = 1.0
        return mat
    if trans is None:
        mat[:, 3] = 1.0
        return mat
    l_pre, l_exit, l_post = _logits_clamped(trans, n, p)
    lam_pre = float(sigmoid(l_pre))
    lam_exit = float(sigmoid(l_exit))
    lam_post = float(sigmoid(l_post))
    mat[0, 0] = 1.0
    mat[1, 2] = lam_post
    mat[1, 3] = 1.0 - lam_post
    mat[2, 2] = 1.0 - lam_exit
    mat[2, 3] = lam_exit
    mat[3, 0] = lam_pre
    mat[3, 3] = 1.0 - lam_pre
    return mat


def initial_distribution(trans: TransitionParams | None, n0: int, p0: int) -> np.ndarray:
    """Distribution of the anchor-day state given its holiday distances."""
    if n0 == 0 and p0 == 0:
        return np.array([0.0, 1.0, 0.0, 0.0])
    if trans is None:
        return np.array([0.0, 0.0, 0.0, 1.0])
    return np.array([1.0, 0.0, 1.0, 1.0]) / 3.0


def log_transition_tables(
    trans: TransitionParams | None, n: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """(..., T, 4, 4) log transition matrices for observation days 1..T.

    ``n`` and ``p`` are the day 1..T slices of the covariate arrays; the
    leading axes are those of ``trans``'s fields. Entries of structurally
    impossible transitions are -inf.
    """
    n = np.asarray(n)
    p = np.asarray(p)
    lead = () if trans is None else np.shape(trans.to_pre_const)
    out = np.full(lead + (n.shape[0], 4, 4), -np.inf)
    hol = (n == 0) & (p == 0)
    if trans is None:
        out[~hol, :, 3] = 0.0
    else:
        l_pre, l_exit, l_post = _logits_clamped(trans, n, p)
        out[..., 0, 0] = 0.0
        out[..., 1, 2], out[..., 1, 3] = log_sigmoid_pair(l_post)
        out[..., 2, 3], out[..., 2, 2] = log_sigmoid_pair(l_exit)
        out[..., 3, 0], out[..., 3, 3] = log_sigmoid_pair(l_pre)
        out[..., hol, :, :] = -np.inf
    out[..., hol, :, 1] = 0.0
    return out


def log_transition_tables_adjoint(trans: TransitionParams, n, p, g: np.ndarray) -> np.ndarray:
    """Adjoint of four-state :func:`log_transition_tables`: ``g`` (..., T, 4, 4) to the (..., 7) coefficients.

    ``g`` must be 0 on the -inf entries; a clamped logit passes no gradient.
    """
    def d_logit(x, g_up, g_down):
        # d/dx of g_up log sigmoid(x) + g_down log sigmoid(-x)
        s = sigmoid(x)
        return (g_up * (1.0 - s) - g_down * s) * (np.abs(x) < LOGIT_CLAMP)

    l_pre, l_exit, l_post = _logits_clamped(trans, n, p)
    g_pre = d_logit(l_pre, g[..., 3, 0], g[..., 3, 3])
    g_exit = d_logit(l_exit, g[..., 2, 3], g[..., 2, 2])
    g_post = d_logit(l_post, g[..., 1, 2], g[..., 1, 3])
    sq_n, sq_p, eve, gap2 = _logit_covariates(n, p)
    return np.stack(
        [
            g_pre.sum(axis=-1), row_dot(g_pre, sq_n) / 10.0,
            g_exit.sum(axis=-1), row_dot(g_exit, sq_p) / 10.0, row_dot(g_exit, eve),
            g_post.sum(axis=-1), row_dot(g_post, gap2),
        ],
        axis=-1,
    )


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of ``a`` and ``b`` along their last axis, over their leading axes.

    Each is the 1-D dot numpy gives for that row alone (a stacked matmul of
    1 x N by N x 1); ``a @ b`` on a stack of rows would run a matrix-vector
    product instead, whose last bits differ.
    """
    return (a[..., None, :] @ np.asarray(b)[..., :, None])[..., 0, 0]


def log_initial_distribution(trans: TransitionParams | None, n0: int, p0: int):
    with np.errstate(divide="ignore"):
        return np.log(initial_distribution(trans, n0, p0))
