"""Convergence diagnostics for multi-chain MCMC output.

Implements the rank-normalised split potential scale reduction factor and
bulk effective sample size: draws are replaced by normal scores of their
pooled average ranks, chains are split in half, and

* ``R-hat = sqrt(((n - 1) / n * W + B / n) / W)`` with ``W``/``B`` the within
  and between split-chain variances of the scores;
* ``ESS = m * n / tau`` where ``tau = -1 + 2 * sum of monotone initial
  positive pairwise autocorrelation sums`` (Geyer), with the per-lag
  correlations combined across split chains as ``1 - (W - mean_acov) / var+``.

Degenerate inputs are handled explicitly: chains that are each constant get
an ESS equal to the number of chains and an infinite R-hat when their levels
differ (1.0 when all draws are identical). ``json_number`` writes such
undefined or infinite values as JSON ``null``.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

_PHI_INV = NormalDist().inv_cdf


def json_number(x) -> float | None:
    """``float(x)``, or None (JSON ``null``) for NaN and infinite values."""
    x = float(x)
    return x if np.isfinite(x) else None


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their mean rank."""
    flat = x.ravel()
    order = np.argsort(flat, kind="mergesort")
    ranks = np.empty(flat.size, dtype=np.float64)
    sorted_vals = flat[order]
    i = 0
    while i < flat.size:
        j = i
        while j + 1 < flat.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks.reshape(x.shape)


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    s = x.size
    ranks = _average_ranks(x)
    z = (ranks - 0.375) / (s + 0.25)
    return np.vectorize(_PHI_INV)(z)


def _split_chains(x: np.ndarray) -> np.ndarray:
    m, n = x.shape
    half = n // 2
    return np.concatenate([x[:, :half], x[:, n - half :]], axis=0)


def split_rhat(x: np.ndarray) -> float:
    """Rank-normalised split R-hat for draws shaped (n_chains, n_iter)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("draws must be (n_chains, n_iterations)")
    if x.shape[1] < 4:
        return np.nan
    if np.all(x == x.ravel()[0]):
        return 1.0
    z = _rank_normalize(x)
    s = _split_chains(z)
    m, n = s.shape
    means = s.mean(axis=1)
    w = s.var(axis=1, ddof=1).mean()
    b = n * means.var(ddof=1)
    if w == 0.0:
        return np.inf
    var_plus = (n - 1) / n * w + b / n
    return float(np.sqrt(var_plus / w))


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance by FFT, one row per chain."""
    m, n = x.shape
    xc = x - x.mean(axis=1, keepdims=True)
    size = int(2 ** np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(xc, n=size, axis=1)
    acov = np.fft.irfft(f * np.conj(f), n=size, axis=1)[:, :n].real
    return acov / n


def ess_bulk(x: np.ndarray) -> float:
    """Bulk effective sample size for draws shaped (n_chains, n_iter)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("draws must be (n_chains, n_iterations)")
    m0 = x.shape[0]
    if x.shape[1] < 4:
        return np.nan
    if np.all(x == x.ravel()[0]):
        return float(x.size)
    per_chain_const = np.all(x == x[:, :1], axis=1)
    if np.all(per_chain_const):
        return float(m0)
    z = _rank_normalize(x)
    s = _split_chains(z)
    m, n = s.shape
    acov = _autocovariance(s)
    w = (acov[:, 0] * n / (n - 1)).mean()
    means = s.mean(axis=1)
    b_over_n = means.var(ddof=1)
    var_plus = (n - 1) / n * w + b_over_n
    if var_plus == 0.0:
        return float(m0)

    rho = 1.0 - (w - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer initial monotone positive sequence on pair sums
    tau = 0.0
    prev_pair = np.inf
    t = 0
    max_t = n - 2 if n % 2 == 0 else n - 1
    while t + 1 < min(len(rho), max_t + 1):
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        pair = min(pair, prev_pair)
        tau += pair
        prev_pair = pair
        t += 2
    tau = max(2.0 * tau - 1.0, 1.0 / np.log10(n + 10.0))
    ess = m * n / tau
    return float(min(ess, m * n * np.log10(m * n)))
