"""Posterior predictive replication, coverage-by-gap checks and forecasting.

One replicated dataset is simulated per retained posterior draw, over the
observation window's own covariates. Calibration is summarised by the
fraction of observations falling outside the central 95% posterior
predictive interval, bucketed by the distance ``min(n, p)`` to the nearest
holiday: a model without proximity states shows its misfit in the small-gap
buckets.

Forecasts roll the generative model forward from the end of the data: for
each draw the terminal state is sampled from that draw's terminal filtered
distribution (which equals the smoothed one), then states and demand evolve
over the supplied future covariates (future holidays are known; future CWV
is a scenario).

Each draw's ``trans`` carries its model: ``None`` is the two-state comparator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the functions perfbench traces are called through their module, where its tracer wraps them
from . import generative
from .covariates import CovariateSeries
from .diagnostics import json_number
from .emission import day_tables
from .filtering import terminal_log_distribution
from .paramspace import PosteriorDraws

GAP_BUCKETS = (0, 1, 2, 3, 10)


@dataclass(frozen=True)
class PpcSummary:
    """Per-day predictive summaries and per-bucket 95% exceedance fractions."""

    bucket_labels: tuple            # e.g. ("0", "1", "2", "3", "10+")
    bucket_count: np.ndarray        # (n_buckets, 2) day counts per region
    bucket_outside: np.ndarray      # (n_buckets, 2)
    pred_mean: np.ndarray           # (T, 2)
    pred_q025: np.ndarray           # (T, 2)
    pred_q975: np.ndarray           # (T, 2)
    outside: np.ndarray             # (T, 2) bool
    gap: np.ndarray                 # (T,)

    def fraction_for(self, bucket: str, region: int | None = None) -> float:
        """Exceedance fraction for a bucket label, pooled unless a region is given; NaN if no days."""
        i = self.bucket_labels.index(bucket)
        cols = slice(None) if region is None else region
        with np.errstate(invalid="ignore"):
            return float(self.bucket_outside[i, cols].sum() / self.bucket_count[i, cols].sum())

    def to_dict(self) -> dict:
        """JSON-ready summary; the fractions of a bucket with no days are None."""
        return {
            "buckets": [
                {
                    "gap": label,
                    **{
                        f"region_{j + 1}": {
                            "n_days": int(self.bucket_count[i, j]),
                            "n_outside": int(self.bucket_outside[i, j]),
                            "fraction_outside": json_number(self.fraction_for(label, j)),
                        }
                        for j in range(2)
                    },
                    "pooled_fraction_outside": json_number(self.fraction_for(label)),
                }
                for i, label in enumerate(self.bucket_labels)
            ]
        }


def posterior_predictive_replicates(
    draws: PosteriorDraws, y: np.ndarray, cov: CovariateSeries, seed
) -> np.ndarray:
    """(M, T, 2) replicated log-demand series, one per retained draw.

    Raises ``FloatingPointError`` naming the first draw whose replicate is
    not finite.
    """
    y = np.asarray(y)
    if y.shape != (cov.T, 2):
        raise ValueError("data and covariates are misaligned")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2]))
    out = np.empty((draws.n_draws, cov.T, 2))
    for i in range(draws.n_draws):
        emission, trans, _ = draws.params_at(i)
        out[i] = generative.simulate(emission, trans, cov, rng).y
        if not np.all(np.isfinite(out[i])):
            raise FloatingPointError(f"draw {i}: replicate is not finite")
    return out


def coverage_by_gap(
    replicates: np.ndarray,
    y: np.ndarray,
    cov: CovariateSeries,
) -> PpcSummary:
    """Central-95% exceedance of the observations under the replicates, by ``GAP_BUCKETS``.

    The last bucket is open-ended (``>= GAP_BUCKETS[-1]``); days falling between
    the last closed bucket and the open one are not assigned to any bucket
    but still appear in the per-day summaries.
    """
    replicates = np.asarray(replicates)
    y = np.asarray(y)
    M, T, _ = replicates.shape
    if M < 40:
        raise ValueError(f"need at least 40 replicates for stable 95% quantiles, got {M}")
    if y.shape != (T, 2) or cov.T != T:
        raise ValueError("replicates, data and covariates are misaligned")

    q025 = np.quantile(replicates, 0.025, axis=0)
    q975 = np.quantile(replicates, 0.975, axis=0)
    pred_mean = replicates.mean(axis=0)
    outside = (y < q025) | (y > q975)
    gap = cov.gap[1:]

    labels = tuple(str(g) for g in GAP_BUCKETS[:-1]) + (f"{GAP_BUCKETS[-1]}+",)
    masks = [gap == g for g in GAP_BUCKETS[:-1]] + [gap >= GAP_BUCKETS[-1]]
    count = np.array([[mask.sum()] * 2 for mask in masks], dtype=np.float64)
    out_count = np.array([outside[mask].sum(axis=0) for mask in masks], dtype=np.float64)

    return PpcSummary(
        bucket_labels=labels,
        bucket_count=count,
        bucket_outside=out_count,
        pred_mean=pred_mean,
        pred_q025=q025,
        pred_q975=q975,
        outside=outside,
        gap=gap,
    )


def forecast(
    draws: PosteriorDraws,
    y: np.ndarray,
    cov: CovariateSeries,
    future_cov: CovariateSeries,
    seed,
) -> np.ndarray:
    """(M, h, 2) posterior predictive demand paths over the future covariates.

    ``future_cov`` must start the day after the last observation; its anchor
    day is that last observation day. Each path samples the terminal state
    from the draw's own terminal filtered distribution and rolls the chain
    forward.
    """
    y = np.asarray(y)
    if future_cov.day0 != cov.dates[-1]:
        raise ValueError(
            "future covariates must start immediately after the data "
            f"(expected anchor {cov.dates[-1]}, got {future_cov.day0})"
        )
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 3]))
    h = future_cov.T
    paths = np.empty((draws.n_draws, h, 2))
    for i in range(draws.n_draws):
        emission, trans, _ = draws.params_at(i)
        tables = day_tables(emission, cov)
        try:
            # the last filtered distribution is the last smoothed one
            log_last = terminal_log_distribution(y, cov, tables, trans)
        except FloatingPointError as exc:
            raise FloatingPointError(f"draw {i}: {exc}") from exc
        last_probs = np.exp(log_last)
        last_state = int(rng.choice(4, p=last_probs / last_probs.sum())) + 1
        last_mu = tables.mu[-1, last_state - 1]
        _, path = generative.continue_simulation(
            emission, trans, future_cov, last_state, y[-1], last_mu, rng
        )
        paths[i] = path
    return paths
