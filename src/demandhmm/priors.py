"""Hierarchical prior over the demand-model and transition parameters.

The prior couples the two regions through shared latent means: intercepts,
weather coefficients, weekday and annual Fourier coefficients and holiday
effects are exchangeable across regions around region-free means, with fixed
variance/correlation hyperparameters. The holiday-effect decay factors get an
asymmetric hierarchy on the logit scale: the two mean-decay factors are more
strongly tied to each other than either is to the precision-decay factor.

Marginal moments implied by the decay hierarchy (logit scale):
``Var = v_decay`` for the mean decays, ``Cor = r_decay_1`` between them, and
``Cor = sqrt(r_decay_1) * r_decay_2`` between a mean decay and the precision
decay.

Hyperparameters are plain data, configurable from a flat ``key = value`` text
file; unknown keys are rejected. Transition-coefficient prior variances are
capped at 1 to keep the implied transition-probability priors unimodal.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .emission import LOG_2PI, EmissionParams
from .states import TRANS_NAMES, ModelMode, TransitionParams, logit


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration entries."""


@dataclass(frozen=True)
class HyperLatents:
    """Latent hyperprior means shared between the two regions."""

    mu_level: float
    mu_weather: np.ndarray      # (2,)
    mu_weekday: np.ndarray      # (2, 3) cos/sin x harmonic
    mu_annual: np.ndarray       # (2, K)
    mu_holiday: np.ndarray      # (3,)
    logit_decay_mean: float     # shared centre of the two mean-decay logits
    mu_logit_decay: float       # grand mean of the decay hierarchy


@dataclass(frozen=True)
class Hyperparameters:
    """Every fixed prior constant, in model units."""

    k_annual: int
    k_prec_annual: int
    m_trans: np.ndarray         # (7,)
    v_trans: np.ndarray         # (7,), each in (0, 1]
    a_ar: np.ndarray            # (2,)
    b_ar: np.ndarray            # (2,)
    m_level: float
    v_level: float
    r_level: float
    m_weather: np.ndarray       # (2,)
    v_weather: np.ndarray       # (2,)
    r_weather: np.ndarray       # (2,)
    v_weekday: float
    r_weekday: float
    v_annual: np.ndarray        # (K,), non-increasing
    r_annual: float
    v_holiday: float
    c_holiday: float            # compound-symmetry correlation of the 3x3 block
    r_holiday: float
    m_decay: float
    v_decay: float
    r_decay_1: float
    r_decay_2: float
    m_prec_base: np.ndarray     # (3,)
    v_prec_base: np.ndarray     # (3,)
    v_prec_holiday: np.ndarray  # (3,)
    v_prec_annual: np.ndarray   # (3, Kp)

    def __post_init__(self):
        def pos(name, x):
            if np.any(np.asarray(x) <= 0.0):
                raise ConfigError(f"{name} must be positive")

        def corr(name, x):
            x = np.asarray(x)
            if np.any(x <= 0.0) or np.any(x >= 1.0):
                raise ConfigError(f"{name} must lie in (0, 1)")

        if self.m_trans.shape != (7,) or self.v_trans.shape != (7,):
            raise ConfigError("transition prior moments must have length 7")
        pos("v_trans", self.v_trans)
        if np.any(self.v_trans > 1.0):
            raise ConfigError("v_trans entries above 1 give bimodal transition priors")
        pos("a_ar", self.a_ar)
        pos("b_ar", self.b_ar)
        pos("v_level", self.v_level)
        corr("r_level", self.r_level)
        pos("v_weather", self.v_weather)
        corr("r_weather", self.r_weather)
        pos("v_weekday", self.v_weekday)
        corr("r_weekday", self.r_weekday)
        if self.v_annual.shape != (self.k_annual,):
            raise ConfigError("v_annual must have k_annual entries")
        pos("v_annual", self.v_annual)
        if np.any(np.diff(self.v_annual) > 0.0):
            raise ConfigError("v_annual must be non-increasing in the harmonic")
        corr("r_annual", self.r_annual)
        pos("v_holiday", self.v_holiday)
        corr("c_holiday", self.c_holiday)
        corr("r_holiday", self.r_holiday)
        pos("v_decay", self.v_decay)
        corr("r_decay_1", self.r_decay_1)
        corr("r_decay_2", self.r_decay_2)
        pos("v_prec_base", self.v_prec_base)
        pos("v_prec_holiday", self.v_prec_holiday)
        if self.v_prec_annual.shape != (3, self.k_prec_annual):
            raise ConfigError("v_prec_annual must be (3, k_prec_annual)")
        pos("v_prec_annual", self.v_prec_annual)

    def holiday_cov(self) -> np.ndarray:
        """Compound-symmetric 3x3 covariance of the holiday-effect block."""
        c = self.c_holiday
        return self.v_holiday * ((1.0 - c) * np.eye(3) + c * np.ones((3, 3)))

    @cached_property
    def _holiday_precisions(self) -> tuple:
        """``((precision, log det covariance), ...)`` of the regions' holiday
        effects around their latent mean, then of that mean around 0.

        The covariances are constant, so they are factorised once per instance.
        """
        v_beta = self.holiday_cov()
        return tuple(
            (np.linalg.inv(cov), np.linalg.slogdet(cov)[1])
            for cov in ((1.0 - self.r_holiday) * v_beta, self.r_holiday * v_beta)
        )


def default_hyperparameters(
    mode: str = "weak", k_annual: int = 6, k_prec_annual: int = 12
) -> Hyperparameters:
    """Documented presets.

    ``weak``: zero-centred, transition-coefficient variances at the unimodality
    bound, broad everything else. ``paper-like``: identical demand-model prior,
    but transition-coefficient means tuned so the prior state chain confines
    proximity behaviour to roughly the two days around each holiday.
    """
    if mode not in ("weak", "paper-like"):
        raise ConfigError(f"unknown preset {mode!r}")
    m_trans = np.zeros(7)
    if mode == "paper-like":
        m_trans = np.array([0.0, -20.0, 1.0, 15.0, -1.0, 0.0, 1.0])
    decay_gamma = 0.5 ** np.arange(k_annual)
    decay_kappa = 0.7 ** np.arange(k_prec_annual)
    return Hyperparameters(
        k_annual=k_annual,
        k_prec_annual=k_prec_annual,
        m_trans=m_trans,
        v_trans=np.ones(7),
        a_ar=np.array([2.0, 2.0]),
        b_ar=np.array([2.0, 2.0]),
        m_level=0.0,
        v_level=25.0,
        r_level=0.5,
        m_weather=np.zeros(2),
        v_weather=np.array([1.0, 0.01]),
        r_weather=np.array([0.5, 0.5]),
        v_weekday=0.25,
        r_weekday=0.5,
        v_annual=0.5 * decay_gamma,
        r_annual=0.5,
        v_holiday=0.25,
        c_holiday=0.5,
        r_holiday=0.5,
        m_decay=0.0,
        v_decay=1.0,
        r_decay_1=0.5,
        r_decay_2=0.5,
        m_prec_base=np.zeros(3),
        v_prec_base=np.array([1.0, 25.0, 25.0]),
        v_prec_holiday=np.ones(3),
        v_prec_annual=np.tile(0.25 * decay_kappa, (3, 1)),
    )


# ---------------------------------------------------------------------------
# Density evaluation


def _norm_lpdf(x, m, v) -> float:
    x = np.asarray(x, dtype=np.float64)
    return float(np.sum(-0.5 * (LOG_2PI + np.log(v)) - 0.5 * (x - m) ** 2 / v))


def _beta_lpdf(x: float, a: float, b: float) -> float:
    return (
        (a - 1.0) * math.log(x)
        + (b - 1.0) * math.log1p(-x)
        - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    )


def _mvn3_lpdf(x, m, precision, logdet) -> float:
    d = np.asarray(x) - m
    quad = d @ precision @ d
    return float(-1.5 * LOG_2PI - 0.5 * logdet - 0.5 * quad)


def _prior_factors(emission, trans, latents, hyper, mode):
    """The prior's normal factors as ``(x_family, x, mean_family, mean, variance)``.

    ``mean_family`` is None for a fixed mean; means and variances broadcast
    against ``x`` from the right. The decay factors enter on the logit scale.
    """
    h = hyper
    rw, vw = h.r_weather, h.v_weather
    v_wd, v_ann = h.v_weekday, h.v_annual
    factors = [
        ("level", emission.level, "mu_level", latents.mu_level, (1.0 - h.r_level) * h.v_level),
        ("mu_level", latents.mu_level, None, h.m_level, h.r_level * h.v_level),
        ("weather", emission.weather, "mu_weather", latents.mu_weather, (1.0 - rw) * vw),
        ("mu_weather", latents.mu_weather, None, h.m_weather, rw * vw),
        ("weekday", emission.weekday, "mu_weekday", latents.mu_weekday, (1.0 - h.r_weekday) * v_wd),
        ("mu_weekday", latents.mu_weekday, None, 0.0, h.r_weekday * v_wd),
        ("annual", emission.annual, "mu_annual", latents.mu_annual, (1.0 - h.r_annual) * v_ann),
        ("mu_annual", latents.mu_annual, None, 0.0, h.r_annual * v_ann),
        ("prec_base", emission.prec_base, None, h.m_prec_base, h.v_prec_base),
        ("prec_holiday", emission.prec_holiday, None, 0.0, h.v_prec_holiday),
        ("prec_annual", emission.prec_annual, None, 0.0, h.v_prec_annual[:, None, :]),
    ]
    if mode is ModelMode.FOUR_STATE:
        v, r1, r2 = h.v_decay, h.r_decay_1, h.r_decay_2
        ldm, mld = latents.logit_decay_mean, latents.mu_logit_decay
        factors += [
            ("trans", trans.as_array(), None, h.m_trans, h.v_trans),
            ("decay_mean", logit(emission.decay_mean), "logit_decay_mean", ldm, (1.0 - r1) * v),
            ("logit_decay_mean", ldm, "mu_logit_decay", mld, (1.0 - r2) * r1 * v),
            ("decay_prec", logit(emission.decay_prec), "mu_logit_decay", mld, (1.0 - r2) * r1 * v),
            ("mu_logit_decay", mld, None, h.m_decay, r1 * r2 * v),
        ]
    return factors


def log_prior(
    emission: EmissionParams,
    trans: TransitionParams | None,
    latents: HyperLatents,
    hyper: Hyperparameters,
    mode: ModelMode = ModelMode.FOUR_STATE,
) -> float:
    """Joint log prior density of all parameters and hyper-latents.

    The density is taken with respect to the natural parameterisation: unit
    interval parameters contribute their logit-normal (decay) or beta (AR)
    densities directly. Support violations yield ``-inf`` rather than raising
    so that samplers can reject.
    """
    four = mode is ModelMode.FOUR_STATE
    ar = emission.ar_eig01
    if np.any(ar <= 0.0) or np.any(ar >= 1.0):
        return -np.inf
    if four:
        rho = np.concatenate([emission.decay_mean, [emission.decay_prec]])
        if np.any(rho <= 0.0) or np.any(rho >= 1.0):
            return -np.inf

    lp = 0.0
    regions, mean = hyper._holiday_precisions
    # parameters far out (a diverging HMC trajectory) overflow the squares: density -inf
    with np.errstate(over="ignore"):
        for _, x, _, m, v in _prior_factors(emission, trans, latents, hyper, mode):
            lp += _norm_lpdf(x, m, v)
        for i in range(2):
            lp += _beta_lpdf(float(ar[i]), float(hyper.a_ar[i]), float(hyper.b_ar[i]))
        for j in range(2):
            lp += _mvn3_lpdf(emission.holiday[j], latents.mu_holiday, *regions)
        lp += _mvn3_lpdf(latents.mu_holiday, 0.0, *mean)
    if four:
        # change of measure from logits to the (0, 1) decay values themselves
        lp -= float(np.sum(np.log(rho) + np.log1p(-rho)))
    return lp


def log_prior_grad(
    emission: EmissionParams,
    trans: TransitionParams | None,
    latents: HyperLatents,
    hyper: Hyperparameters,
    mode: ModelMode = ModelMode.FOUR_STATE,
) -> dict:
    """Gradient of :func:`log_prior` inside its support, keyed by family name.

    Family names are the ``EmissionParams`` and ``HyperLatents`` field names
    plus ``trans``; each entry has the shape of that field, on the natural
    scale the density is taken in.
    """
    g = {}
    for name, x, mean_name, m, v in _prior_factors(emission, trans, latents, hyper, mode):
        d = (np.asarray(x) - m) / v
        g[name] = g.get(name, 0.0) - d
        if mean_name is not None:
            g[mean_name] = g.get(mean_name, 0.0) + d.reshape((-1,) + np.shape(m)).sum(axis=0)
    ar = emission.ar_eig01
    g["ar_eig01"] = (hyper.a_ar - 1.0) / ar - (hyper.b_ar - 1.0) / (1.0 - ar)
    (prec_regions, _), (prec_mean, _) = hyper._holiday_precisions
    pd = (emission.holiday - latents.mu_holiday) @ prec_regions
    g["holiday"] = -pd
    g["mu_holiday"] = pd.sum(axis=0) - prec_mean @ latents.mu_holiday
    if mode is ModelMode.FOUR_STATE:
        # d logit(rho) / d rho = 1 / (rho (1 - rho)), plus the change of measure
        for name in ("decay_mean", "decay_prec"):
            rho = getattr(emission, name)
            g[name] = (g[name] + 2.0 * rho - 1.0) / (rho * (1.0 - rho))
    return g


def sample_prior_batch(
    hyper: Hyperparameters,
    rng: np.random.Generator,
    n: int,
    mode: ModelMode = ModelMode.FOUR_STATE,
) -> dict:
    """``n`` exact prior draws as a dict of arrays with leading dimension n.

    Used directly for Monte Carlo checks of the prior's marginal moments;
    :func:`sample_prior` is the single-draw structured view.
    """
    four = mode is ModelMode.FOUR_STATE
    kg, kp = hyper.k_annual, hyper.k_prec_annual
    out = {}

    if four:
        out["trans"] = rng.normal(hyper.m_trans, np.sqrt(hyper.v_trans), size=(n, 7))

    out["ar_eig01"] = rng.beta(hyper.a_ar, hyper.b_ar, size=(n, 2))

    mu_level = rng.normal(hyper.m_level, math.sqrt(hyper.r_level * hyper.v_level), size=n)
    out["mu_level"] = mu_level
    out["level"] = rng.normal(
        mu_level[:, None], math.sqrt((1.0 - hyper.r_level) * hyper.v_level), size=(n, 2)
    )

    mu_weather = rng.normal(hyper.m_weather, np.sqrt(hyper.r_weather * hyper.v_weather), size=(n, 2))
    out["mu_weather"] = mu_weather
    out["weather"] = rng.normal(
        mu_weather[:, None, :],
        np.sqrt((1.0 - hyper.r_weather) * hyper.v_weather)[None, None, :],
        size=(n, 2, 2),
    )

    mu_weekday = rng.normal(0.0, math.sqrt(hyper.r_weekday * hyper.v_weekday), size=(n, 2, 3))
    out["mu_weekday"] = mu_weekday
    out["weekday"] = rng.normal(
        mu_weekday[:, None], math.sqrt((1.0 - hyper.r_weekday) * hyper.v_weekday), size=(n, 2, 2, 3)
    )

    mu_annual = rng.normal(
        0.0, np.sqrt(hyper.r_annual * hyper.v_annual)[None, :], size=(n, 2, kg)
    )
    out["mu_annual"] = mu_annual
    out["annual"] = rng.normal(
        mu_annual[:, None],
        np.sqrt((1.0 - hyper.r_annual) * hyper.v_annual)[None, None, None, :],
        size=(n, 2, 2, kg),
    )

    v_beta = hyper.holiday_cov()
    chol_hyper = np.linalg.cholesky(hyper.r_holiday * v_beta)
    chol_cond = np.linalg.cholesky((1.0 - hyper.r_holiday) * v_beta)
    mu_holiday = rng.standard_normal((n, 3)) @ chol_hyper.T
    out["mu_holiday"] = mu_holiday
    out["holiday"] = (
        mu_holiday[:, None, :] + rng.standard_normal((n, 2, 3)) @ chol_cond.T
    )

    if four:
        v, r1, r2 = hyper.v_decay, hyper.r_decay_1, hyper.r_decay_2
        mu_ld = rng.normal(hyper.m_decay, math.sqrt(r1 * r2 * v), size=n)
        ld_mean = rng.normal(mu_ld, math.sqrt((1.0 - r2) * r1 * v))
        ld_prec = rng.normal(mu_ld, math.sqrt((1.0 - r2) * r1 * v))
        lrho = rng.normal(ld_mean[:, None], math.sqrt((1.0 - r1) * v), size=(n, 2))
        out["mu_logit_decay"] = mu_ld
        out["logit_decay_mean"] = ld_mean
        out["logit_decay"] = np.concatenate([lrho, ld_prec[:, None]], axis=1)
        out["decay_mean"] = 1.0 / (1.0 + np.exp(-lrho))
        out["decay_prec"] = 1.0 / (1.0 + np.exp(-ld_prec))

    out["prec_base"] = rng.normal(hyper.m_prec_base, np.sqrt(hyper.v_prec_base), size=(n, 3))
    out["prec_holiday"] = rng.normal(0.0, np.sqrt(hyper.v_prec_holiday), size=(n, 3))
    out["prec_annual"] = rng.normal(
        0.0, np.sqrt(hyper.v_prec_annual)[None, :, None, :], size=(n, 3, 2, kp)
    )
    return out


def sample_prior(
    hyper: Hyperparameters,
    rng: np.random.Generator,
    mode: ModelMode = ModelMode.FOUR_STATE,
):
    """One exact draw of (EmissionParams, TransitionParams | None, HyperLatents)."""
    d = sample_prior_batch(hyper, rng, 1, mode)
    return assemble_params({name: x[0] for name, x in d.items()}, mode)


def assemble_params(values: dict, mode: ModelMode = ModelMode.FOUR_STATE):
    """(EmissionParams, TransitionParams | None, HyperLatents) from natural values.

    ``values`` maps family names (the struct field names, plus ``trans``) to
    arrays of the field's shape; 0-d values become floats. The two-state model
    has no transition coefficients, and its decay factors are pinned at 1/2
    (logit 0), freshly built on each call.
    """
    if mode is ModelMode.FOUR_STATE:
        trans = TransitionParams.from_array(values["trans"])
    else:
        trans = None
        values = dict(values, decay_mean=np.array([0.5, 0.5]), decay_prec=0.5,
                      logit_decay_mean=0.0, mu_logit_decay=0.0)

    def struct(cls):
        return cls(**{name: _field_value(values[name]) for name in _FIELD_NAMES[cls]})

    return struct(EmissionParams), trans, struct(HyperLatents)


_FIELD_NAMES = {cls: tuple(f.name for f in fields(cls)) for cls in (EmissionParams, HyperLatents)}


def _field_value(x):
    """Arrays stay as they are; 0-d values become floats."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


# ---------------------------------------------------------------------------
# Flat configuration file


# Fields whose last axis is the harmonic: each row is one comma-separated list.
_HARMONIC_FIELDS = ("v_annual", "v_prec_annual")


def _config_layout() -> list[tuple[str, tuple[str, ...]]]:
    """``(field, keys)`` for every ``Hyperparameters`` field after the harmonic counts.

    The harmonic axis of a ``_HARMONIC_FIELDS`` entry is one list value. Past
    that, a scalar field is its own key, ``m_trans``/``v_trans`` take one key per
    transition coefficient (``m_to_pre_const``, ...) and other vectors take
    suffixes ``_1..n``.
    """
    shapes = default_hyperparameters()
    layout = []
    for f in fields(Hyperparameters)[2:]:
        shape = np.shape(getattr(shapes, f.name))
        if f.name in _HARMONIC_FIELDS:
            shape = shape[:-1]
        if not shape:
            keys = (f.name,)
        elif f.name in ("m_trans", "v_trans"):
            keys = tuple(f.name.replace("trans", n) for n in TRANS_NAMES)
        else:
            keys = tuple(f"{f.name}_{i + 1}" for i in range(shape[0]))
        layout.append((f.name, keys))
    return layout


def config_keys() -> tuple[str, ...]:
    """Every key the configuration file accepts."""
    return ("preset", "k_annual", "k_prec_annual") + tuple(
        key for _, keys in _config_layout() for key in keys
    )


def parse_config(path) -> dict:
    """Parse a ``key = value`` file; values are numbers or comma-separated lists."""
    known = set(config_keys())
    list_keys = {key for name, keys in _config_layout() if name in _HARMONIC_FIELDS for key in keys}
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in known:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in out:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            if key == "preset":
                out[key] = value
            elif "," in value or key in list_keys:
                try:
                    out[key] = tuple(float(v) for v in value.split(","))
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad list for {key!r}") from exc
            else:
                try:
                    out[key] = float(value)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad number for {key!r}") from exc
    return out


def hyperparameters_from_config(cfg: dict) -> Hyperparameters:
    """Build hyperparameters from a parsed config, starting from a preset.

    Any key not present falls back to the preset value (``preset`` defaults to
    ``paper-like``).
    """
    cfg = dict(cfg)
    preset = cfg.pop("preset", "paper-like")
    kg = _harmonic_count(cfg, "k_annual", 6)
    kp = _harmonic_count(cfg, "k_prec_annual", 12)
    base = default_hyperparameters(preset, k_annual=kg, k_prec_annual=kp)
    values = {"k_annual": kg, "k_prec_annual": kp}
    for name, keys in _config_layout():
        default = getattr(base, name)
        if name in _HARMONIC_FIELDS:
            rows = [
                np.atleast_1d(np.asarray(cfg.pop(key, tuple(row)), dtype=np.float64))
                for key, row in zip(keys, np.atleast_2d(default))
            ]
            values[name] = np.stack(rows) if default.ndim == 2 else rows[0]
        elif np.ndim(default) == 0:
            values[name] = cfg.pop(name, default)
        else:
            values[name] = np.array([cfg.pop(key, d) for key, d in zip(keys, default)])
    hyper = Hyperparameters(**values)
    if cfg:
        raise ConfigError(f"unknown configuration keys: {sorted(cfg)}")
    return hyper


def _harmonic_count(cfg: dict, key: str, default: int) -> int:
    value = cfg.pop(key, default)
    if not isinstance(value, numbers.Real) or not float(value).is_integer() or value < 1:
        raise ConfigError(f"{key} must be a whole number >= 1, got {value!r}")
    return int(value)


def load_hyperparameters(path) -> Hyperparameters:
    return hyperparameters_from_config(parse_config(path))


def hyperparameters_to_dict(hyper: Hyperparameters) -> dict:
    """JSON-friendly snapshot for run manifests."""
    out = {}
    for f in fields(hyper):
        v = getattr(hyper, f.name)
        out[f.name] = v.tolist() if isinstance(v, np.ndarray) else v
    return out
