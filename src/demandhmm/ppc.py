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

Both value their draws in blocks of rows (``PosteriorDraws.blocks``, sized by
a budget of draw-days that bounds peak memory): one day-table build and one
path or tree pass per block, each row with the bits it would have alone. The
random stream is drawn in draw order as a loop over the draws drew it:
replicates take each draw's uniforms, then its normals; forecasts take each
draw's terminal state, then its uniforms, then its normals, and roll the
continuations of a block of draws at once. So every output is the per-draw one.

Each draw's ``trans`` carries its model: ``None`` is the two-state comparator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the functions perfbench traces are called through their module, where its tracer wraps them
from . import generative
from .covariates import CovariateSeries
from .dataio import quantile
from .diagnostics import json_number
from .emission import day_tables
from .filtering import terminal_log_distribution
from .paramspace import PosteriorDraws
from .states import initial_distribution

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

    Draws are simulated in blocks (``PosteriorDraws.blocks``), each drawing
    its noise in draw order, so every replicate is the one ``simulate`` gives
    that draw alone from the same stream. Raises the ``LinAlgError`` of the
    first draw whose first-day law fails, or a ``FloatingPointError`` naming
    it when its replicate is not finite, whichever comes first in draw order.
    """
    y = np.asarray(y)
    if y.shape != (cov.T, 2):
        raise ValueError("data and covariates are misaligned")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 2]))
    out = np.empty((draws.n_draws, cov.T, 2))
    for rows, (emission, trans, _) in draws.blocks(cov.T):
        tables, cum = generative.path_tables(emission, trans, cov, per_row=True)
        anchor = initial_distribution(trans, int(cov.n[0]), int(cov.p[0]))
        _, out[rows] = generative.draw_paths(tables, cum, anchor, rng)
        finite = np.all(np.isfinite(out[rows]), axis=(1, 2))
        failed = ~(tables.valid & finite)
        if failed.any():
            i = int(np.argmax(failed))
            if tables.valid[i]:
                raise FloatingPointError(f"draw {rows.start + i}: replicate is not finite")
            draws.raise_for(rows.start + i, lambda e, _: day_tables(e, cov))
        del tables, cum   # a block's arrays go before the next block's are built
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

    q025 = quantile(replicates, 0.025)
    q975 = quantile(replicates, 0.975)
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
    forward. Each draw takes its terminal state, then its path's noise, from
    the stream in draw order. Both windows are valued in blocks of draws
    (``PosteriorDraws.blocks``), each block's paths rolled at once. Raises
    the error of the first draw, in draw order, whose first-day law fails in
    either window (``LinAlgError``) or whose likelihood is NaN or zero
    (``FloatingPointError`` naming the draw).
    """
    if future_cov.day0 != cov.dates[-1]:
        raise ValueError(
            "future covariates must start immediately after the data "
            f"(expected anchor {cov.dates[-1]}, got {future_cov.day0})"
        )
    M, h = draws.n_draws, future_cov.T
    # the last filtered distribution is the last smoothed one
    log_last, last_mu = np.empty((M, 4)), np.empty((M, 4, 2))
    for rows, (emission, trans, _) in draws.blocks(cov.T):
        tables = day_tables(emission, cov, per_row=True)
        log_last[rows] = terminal_log_distribution(y, cov, tables, trans, per_row=True)
        last_mu[rows] = tables.mu[:, -1]
        del tables   # a block's arrays go before the next block's are built

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 3]))
    paths = np.empty((M, h, 2))
    for rows, (emission, trans, _) in draws.blocks(h):
        tables, cum = generative.path_tables(emission, trans, future_cov, per_row=True)
        failed = np.isnan(log_last[rows]).any(axis=1) | ~tables.valid
        if failed.any():
            draws.raise_for(rows.start + int(np.argmax(failed)), lambda e, t: (
                terminal_log_distribution(y, cov, day_tables(e, cov), t), day_tables(e, future_cov)))
        n = rows.stop - rows.start
        last_state = np.empty(n, dtype=np.int64)
        u, z = np.empty((n, h + 1)), np.empty((n, h, 2))
        for r, probs in enumerate(np.exp(log_last[rows])):
            last_state[r] = rng.choice(4, p=probs / probs.sum())
            u[r], z[r] = generative.path_noise(rng, h)
        _, paths[rows] = generative.continue_simulation(
            tables, cum, last_state + 1, np.asarray(y)[-1], last_mu[rows][np.arange(n), last_state], u, z
        )
        del tables, cum, u, z
    return paths
