"""Shared test utilities: small fixtures and independent oracles."""

import datetime as dt
import math

import numpy as np

from demandhmm.covariates import (
    CovariateSeries,
    HolidayCalendar,
    SeasonalCwvBaseline,
    build_covariates,
)
from demandhmm.emission import log_emission_density
from demandhmm.generative import default_truth
from demandhmm.paramspace import ParamSpace
from demandhmm.sampler import PosteriorDraws
from demandhmm.states import initial_distribution, transition_matrix


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
