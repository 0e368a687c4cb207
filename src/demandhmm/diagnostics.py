"""Convergence diagnostics for multi-chain MCMC output.

``rank_diagnostics`` gives the rank-normalised split potential scale
reduction factor and bulk effective sample size of one scalar from one pass:
draws are replaced by normal scores of their pooled average ranks, chains
are split in half, and

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

import numpy as np


def json_number(x) -> float | None:
    """``float(x)``, or None (JSON ``null``) for NaN and infinite values."""
    x = float(x)
    return x if np.isfinite(x) else None


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their mean rank."""
    flat = x.ravel()
    order = np.argsort(flat, kind="mergesort")
    sorted_vals = flat[order]
    # each sorted value's tie run spans i (first index) to j (last index)
    i = np.searchsorted(sorted_vals, sorted_vals, side="left")
    j = np.searchsorted(sorted_vals, sorted_vals, side="right") - 1
    ranks = np.empty(flat.size, dtype=np.float64)
    ranks[order] = 0.5 * (i + j) + 1.0
    return ranks.reshape(x.shape)


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    from statistics import NormalDist  # a slow import, needed only here

    s = x.size
    ranks = _average_ranks(x)
    z = (ranks - 0.375) / (s + 0.25)
    return np.vectorize(NormalDist().inv_cdf)(z)


def _split_chains(x: np.ndarray) -> np.ndarray:
    m, n = x.shape
    half = n // 2
    return np.concatenate([x[:, :half], x[:, n - half :]], axis=0)


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance by FFT, one row per chain."""
    m, n = x.shape
    xc = x - x.mean(axis=1, keepdims=True)
    size = int(2 ** np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(xc, n=size, axis=1)
    acov = np.fft.irfft(f * np.conj(f), n=size, axis=1)[:, :n].real
    return acov / n


def rank_diagnostics(x: np.ndarray) -> tuple:
    """Rank-normalised split R-hat and bulk ESS for draws shaped (n_chains, n_iter)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("draws must be (n_chains, n_iterations)")
    if x.shape[1] < 4:
        return np.nan, np.nan
    if np.all(x == x.ravel()[0]):
        return 1.0, float(x.size)
    m0 = x.shape[0]
    s = _split_chains(_rank_normalize(x))
    m, n = s.shape
    between = s.mean(axis=1).var(ddof=1)        # B / n
    w = s.var(axis=1, ddof=1).mean()
    rhat = np.inf if w == 0.0 else float(np.sqrt(((n - 1) / n * w + n * between / n) / w))
    if np.all(x == x[:, :1]):   # each chain constant
        return rhat, float(m0)

    acov = _autocovariance(s)
    w = (acov[:, 0] * n / (n - 1)).mean()
    var_plus = (n - 1) / n * w + between
    if var_plus == 0.0:
        return rhat, float(m0)

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
    return rhat, float(min(m * n / tau, m * n * np.log10(m * n)))
