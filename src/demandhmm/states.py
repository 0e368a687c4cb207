"""Non-homogeneous Markov chain over the four day-regime states.

States: 1 pre-holiday, 2 holiday, 3 post-holiday, 4 normal. State 2 is
observable (it applies exactly on public holidays); the others are hidden.
Transition probabilities vary with the days to the next holiday ``n`` and
since the previous one ``p``. The chain is cyclic: 4 -> (1) -> 2 -> (3) -> 4,
with the proximity states 1 and 3 optional. The two-state comparator has no
proximity states and no transition coefficients: every function here that
takes ``trans`` reads ``trans is None`` as that model.

The module also defines the 11-pair augmented state space of consecutive
state pairs used by the filtering algorithms; 5 of the 16 conceivable pairs
are structurally impossible.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

STATE_PRE = 1
STATE_HOLIDAY = 2
STATE_POST = 3
STATE_NORMAL = 4

# Pairs (previous state, current state) with nonzero probability for some
# (n, p). The order is fixed; filter messages index into it.
AUGMENTED_PAIRS = (
    (1, 1), (1, 2),
    (2, 2), (2, 3), (2, 4),
    (3, 2), (3, 3), (3, 4),
    (4, 1), (4, 2), (4, 4),
)
PAIR_PREV = np.array([a for a, _ in AUGMENTED_PAIRS], dtype=np.int64)
PAIR_CUR = np.array([b for _, b in AUGMENTED_PAIRS], dtype=np.int64)

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
        return np.array([getattr(self, n) for n in TRANS_NAMES], dtype=np.float64)

    @classmethod
    def from_array(cls, a) -> "TransitionParams":
        a = np.asarray(a, dtype=np.float64)
        return cls(*[float(x) for x in a])


TRANS_NAMES = tuple(f.name for f in fields(TransitionParams))


def sigmoid(x):
    """Numerically safe logistic function; logits are clamped to +/-35."""
    x = np.clip(x, -LOGIT_CLAMP, LOGIT_CLAMP)
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


def logit(x):
    """Inverse of ``sigmoid`` on (0, 1)."""
    x = np.asarray(x, dtype=np.float64)
    return np.log(x) - np.log1p(-x)


def log_sigmoid(x):
    """log(sigmoid(x)) without overflow."""
    x = np.clip(x, -LOGIT_CLAMP, LOGIT_CLAMP)
    return np.where(x >= 0, -np.log1p(np.exp(-x)), x - np.log1p(np.exp(x)))


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


def _logit_covariates(n, p):
    """``sqrt(n - 1)``, ``sqrt(p - 2)``, ``1[n = 1]`` and ``1[n = 2]``, offsets floored at zero."""
    n = np.asarray(n, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    return np.sqrt(np.maximum(n - 1.0, 0.0)), np.sqrt(np.maximum(p - 2.0, 0.0)), n == 1, n == 2


def _logits_clamped(trans: TransitionParams, n, p):
    """Vectorised logits with offsets floored at zero so any (n, p) >= 0 is safe.

    Rows for states that are unreachable at small n or p are multiplied by
    zero probability mass in the filter, but must still be finite.
    """
    sq_n, sq_p, eve, gap2 = _logit_covariates(n, p)
    l_pre = trans.to_pre_const + trans.to_pre_dist * sq_n / 10.0
    l_exit = trans.to_normal_const + trans.to_normal_days * sq_p / 10.0 + trans.to_normal_eve * eve
    l_post = trans.to_post_const + trans.to_post_gap2 * gap2
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


def log_transition_tables(
    trans: TransitionParams | None, n: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """(T, 4, 4) log transition matrices for observation days 1..T.

    ``n`` and ``p`` are the day 1..T slices of the covariate arrays. Entries
    of structurally impossible transitions are -inf.
    """
    n = np.asarray(n)
    p = np.asarray(p)
    T = n.shape[0]
    out = np.full((T, 4, 4), -np.inf)
    hol = (n == 0) & (p == 0)
    if trans is None:
        out[~hol, :, 3] = 0.0
    else:
        l_pre, l_exit, l_post = _logits_clamped(trans, n, p)
        out[:, 0, 0] = 0.0
        out[:, 1, 2] = log_sigmoid(l_post)
        out[:, 1, 3] = log_sigmoid(-l_post)
        out[:, 2, 2] = log_sigmoid(-l_exit)
        out[:, 2, 3] = log_sigmoid(l_exit)
        out[:, 3, 0] = log_sigmoid(l_pre)
        out[:, 3, 3] = log_sigmoid(-l_pre)
        out[hol] = -np.inf
    out[hol, :, 1] = 0.0
    return out


def log_transition_tables_adjoint(trans: TransitionParams, n, p, g: np.ndarray) -> np.ndarray:
    """Adjoint of four-state :func:`log_transition_tables`: ``g`` (T, 4, 4) to the 7 coefficients.

    ``g`` must be 0 on the -inf entries; a clamped logit passes no gradient.
    """
    def d_logit(x, g_up, g_down):
        # d/dx of g_up log sigmoid(x) + g_down log sigmoid(-x)
        s = sigmoid(x)
        return (g_up * (1.0 - s) - g_down * s) * (np.abs(x) < LOGIT_CLAMP)

    l_pre, l_exit, l_post = _logits_clamped(trans, n, p)
    g_pre = d_logit(l_pre, g[:, 3, 0], g[:, 3, 3])
    g_exit = d_logit(l_exit, g[:, 2, 3], g[:, 2, 2])
    g_post = d_logit(l_post, g[:, 1, 2], g[:, 1, 3])
    sq_n, sq_p, eve, gap2 = _logit_covariates(n, p)
    return np.array(
        [
            g_pre.sum(), g_pre @ sq_n / 10.0,
            g_exit.sum(), g_exit @ sq_p / 10.0, g_exit @ eve,
            g_post.sum(), g_post @ gap2,
        ]
    )


def log_initial_distribution(trans: TransitionParams | None, n0: int, p0: int):
    with np.errstate(divide="ignore"):
        return np.log(initial_distribution(trans, n0, p0))
