"""Four-state non-homogeneous HMM for daily gas demand.

Days are classified as holiday (observed), pre-holiday, post-holiday or
normal; hidden-state transitions depend on the distance to the surrounding
holidays, and log demand in two regions follows a conditionally stationary
bivariate AR(1) around a state-dependent mean with a state-dependent
precision. The package covers covariate construction, exact filtering and
smoothing, Bayesian MCMC fitting, simulation, forecasting and posterior
predictive checking, plus a batch CLI.

Importing the package loads none of its modules: each name below is looked
up in its module on first access, so a CLI command loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "covariates": (
        "CovariateSeries", "HolidayCalendar", "SeasonalCwvBaseline", "build_covariates",
        "smooth_cwv_baseline",
    ),
    "emission": ("EmissionParams",),
    "filtering": ("backward_smooth", "forward_filter", "rao_blackwell_states", "smooth_states"),
    "generative": ("SimulationOutput", "default_truth", "simulate", "uk_holiday_calendar"),
    "paramspace": ("HyperLatents", "PosteriorDraws"),
    "priors": ("Hyperparameters", "default_hyperparameters", "log_prior", "sample_prior"),
    "sampler": ("SamplerConfig", "run_mcmc"),
    "states": ("ModelMode", "TransitionParams"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # not cached here, so a name always reads its module's current binding
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
