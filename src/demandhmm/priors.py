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

The prior's laws and fixed means are declared once, as a factor table cached
per ``Hyperparameters``; shapes and parents come from ``paramspace``'s layout.
:func:`prior_terms`, :func:`log_prior_grad` and :func:`sample_prior_batch`
walk it. :func:`log_prior` is the in-order sum of the per-factor terms, so a
sampler that keeps them recomputes only the factors a move reaches.

Hyperparameters are plain data, configurable from a flat ``key = value`` text
file; unknown keys are rejected. Transition-coefficient prior variances are
capped at 1 to keep the implied transition-probability priors unimodal.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .emission import LOG_2PI, EmissionParams
from .paramspace import HyperLatents, ParamSpace, assemble_params
from .states import TRANS_NAMES, ModelMode, TransitionParams, logit


class ConfigError(ValueError):
    """Raised for malformed or unknown configuration entries."""


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

        for f in fields(self):
            if not np.all(np.isfinite(getattr(self, f.name))):
                raise ConfigError(f"{f.name} must be finite")
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
    def _factor_tables(self) -> dict:
        """Factor tables of the four-state (key True) and two-state (False) priors, built once."""
        table = _factor_table(self)
        two_state = ParamSpace(self.k_annual, self.k_prec_annual, ModelMode.TWO_STATE).family_names
        return {True: table, False: tuple(f for f in table if f[0] in two_state)}


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
# The factor table


# Each law's ``logpdf`` gives the log density of every independent unit of x
# (a scalar, or a 3-vector for ``_Normal3``); ``log_prior`` sums them per row.


class _Normal:
    """Independent normals; the variance broadcasts against x from the right."""

    def __init__(self, var):
        self.var = np.asarray(var, dtype=np.float64)
        self.sd, self.norm = np.sqrt(self.var), -0.5 * (LOG_2PI + np.log(self.var))

    def logpdf(self, x, m):
        return self.norm - 0.5 * (x - m) ** 2 / self.var

    def score(self, x, m):
        return (m - x) / self.var

    def draw(self, rng, m, size):
        return rng.normal(m, self.sd, size=size)


class _Beta:
    """Independent betas on the unit interval; they take no mean."""

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.log_beta = np.array([math.lgamma(i) + math.lgamma(j) - math.lgamma(i + j)
                                  for i, j in zip(a, b)])

    def logpdf(self, x, m):
        log_kernel = (self.a - 1.0) * np.log(x) + (self.b - 1.0) * np.log1p(-x)
        return log_kernel - self.log_beta

    def score(self, x, m):
        return (self.a - 1.0) / x - (self.b - 1.0) / (1.0 - x)

    def draw(self, rng, m, size):
        return rng.beta(self.a, self.b, size=size)


class _Normal3:
    """Normal 3-vectors along the last axis, all with one covariance.

    ``rows`` says whether the family is a stack of vectors (2, 3) rather
    than one vector (3,).
    """

    def __init__(self, cov, rows: bool):
        self.prec, self.chol = np.linalg.inv(cov), np.linalg.cholesky(cov)
        self.norm = -1.5 * LOG_2PI - 0.5 * np.linalg.slogdet(cov)[1]
        self.rows = rows

    def logpdf(self, x, m):
        # d P d as one product per vector: far out, elementwise terms overflow to inf - inf
        d = x - m
        return self.norm - 0.5 * ((d[..., None, :] @ self.prec) @ d[..., :, None])[..., 0, 0]

    def score(self, x, m):
        # inv(cov) is symmetric only up to rounding: one vector as P d, stacked rows as d P
        d = m - x
        return d @ self.prec if self.rows else (self.prec @ d[..., None])[..., 0]

    def draw(self, rng, m, size):
        return m + rng.standard_normal(size) @ self.chol.T


_LOGIT_FAMILIES = ("decay_mean", "decay_prec")  # declared on the logit scale


def _factor_table(h: Hyperparameters) -> tuple:
    """The four-state prior as ``(family, shape, parent, fixed mean, law)`` factors.

    Entries are in draw order, parents first, with the layout's shapes and
    parents. A factor's mean is its parent's value, broadcast from the right,
    or else the fixed mean. The decay families enter on the logit scale.
    """
    v, r1, r2 = h.v_decay, h.r_decay_1, h.r_decay_2
    v_beta = h.holiday_cov()
    decay_mid = _Normal((1.0 - r2) * r1 * v)
    laws = (
        ("trans", h.m_trans, _Normal(h.v_trans)),
        ("ar_eig01", None, _Beta(h.a_ar, h.b_ar)),
        ("mu_level", h.m_level, _Normal(h.r_level * h.v_level)),
        ("level", None, _Normal((1.0 - h.r_level) * h.v_level)),
        ("mu_weather", h.m_weather, _Normal(h.r_weather * h.v_weather)),
        ("weather", None, _Normal((1.0 - h.r_weather) * h.v_weather)),
        ("mu_weekday", 0.0, _Normal(h.r_weekday * h.v_weekday)),
        ("weekday", None, _Normal((1.0 - h.r_weekday) * h.v_weekday)),
        ("mu_annual", 0.0, _Normal(h.r_annual * h.v_annual)),
        ("annual", None, _Normal((1.0 - h.r_annual) * h.v_annual)),
        ("mu_holiday", 0.0, _Normal3(h.r_holiday * v_beta, rows=False)),
        ("holiday", None, _Normal3((1.0 - h.r_holiday) * v_beta, rows=True)),
        ("mu_logit_decay", h.m_decay, _Normal(r1 * r2 * v)),
        ("logit_decay_mean", None, decay_mid),
        ("decay_prec", None, decay_mid),
        ("decay_mean", None, _Normal((1.0 - r1) * v)),
        ("prec_base", h.m_prec_base, _Normal(h.v_prec_base)),
        ("prec_holiday", 0.0, _Normal(h.v_prec_holiday)),
        ("prec_annual", 0.0, _Normal(h.v_prec_annual[:, None, :])),
    )
    layout = {f.name: f for f in ParamSpace(h.k_annual, h.k_prec_annual).families}
    return tuple((name, layout[name].shape, layout[name].parent, mean, law) for name, mean, law in laws)


def _parent_mean(p, lead: tuple, shape: tuple):
    """Parent value ``p`` (lead + its shape) lined up with a child of shape ``lead + shape``:
    the parent's axes match the child's trailing axes."""
    p = np.asarray(p)
    p_shape = p.shape[len(lead):]
    return p.reshape(lead + (1,) * (len(shape) - len(p_shape)) + p_shape)


def _table_values(emission, trans, latents) -> dict:
    """Every family's value on the scale the table declares it on."""
    values = {**vars(emission), **vars(latents)}
    values["trans"] = None if trans is None else trans.as_array()
    for name in _LOGIT_FAMILIES:
        values[name] = logit(values[name])
    return values


# ---------------------------------------------------------------------------
# Density, gradient and exact sampling


def prior_terms(
    emission: EmissionParams,
    trans: TransitionParams | None,
    latents: HyperLatents,
    hyper: Hyperparameters,
    current: np.ndarray | None = None,
    changed=frozenset(),
):
    """``(terms, outside)``: the addends of :func:`log_prior` and the rows outside its support.

    ``terms`` (..., F) holds each factor's log density summed over the
    factor, in table order, then (four-state model) the negated change of
    measure from the decay logits to the decay values; ``outside`` says
    whether a unit-interval parameter lies outside (0, 1). Given ``current``,
    the terms of parameters that differ from these in the families
    ``changed`` only, a factor is recomputed only if its family or its parent
    changed; every other term is copied from ``current``.
    """
    four = trans is not None
    lead = np.shape(emission.level)[:-1]
    unit = emission.ar_eig01
    if four:
        rho = np.concatenate([emission.decay_mean, np.reshape(emission.decay_prec, lead + (1,))], axis=-1)
        unit = np.concatenate([unit, rho], axis=-1)
    outside = np.any((unit <= 0.0) | (unit >= 1.0), axis=-1)

    table = hyper._factor_tables[four]
    terms = np.empty(lead + (len(table) + four,)) if current is None else current.copy()
    # parameters far out (a diverging HMC trajectory) overflow the squares: density -inf;
    # rows outside the support, set to -inf by log_prior, take logs of values <= 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        values = _table_values(emission, trans, latents)
        for k, (name, shape, parent, mean, law) in enumerate(table):
            if current is None or name in changed or parent in changed:
                m = mean if parent is None else _parent_mean(values[parent], lead, shape)
                terms[..., k] = _row_sum(law.logpdf(values[name], m), lead)
        if four and (current is None or not changed.isdisjoint(_LOGIT_FAMILIES)):
            # change of measure from logits to the (0, 1) decay values themselves
            terms[..., -1] = -np.sum(np.log(rho) + np.log1p(-rho), axis=-1)
    return terms, outside


def prior_total(terms: np.ndarray, outside) -> np.ndarray:
    """The log prior from :func:`prior_terms`: its terms added in order, -inf outside the support."""
    lp = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(terms.shape[-1]):
            lp = lp + terms[..., k]
    return np.where(outside, -np.inf, lp)


def log_prior(
    emission: EmissionParams,
    trans: TransitionParams | None,
    latents: HyperLatents,
    hyper: Hyperparameters,
) -> float | np.ndarray:
    """Joint log prior density of all parameters and hyper-latents.

    The density is taken with respect to the natural parameterisation: unit
    interval parameters contribute their logit-normal (decay) or beta (AR)
    densities directly. Support violations yield ``-inf`` rather than raising
    so that samplers can reject. ``trans is None`` is the two-state model,
    whose pinned decay factors carry no density.

    It is the in-order sum of :func:`prior_terms`, one term per factor of
    the prior's table and one for the change of measure, so a caller that
    keeps the terms can recompute only the factors a change reaches.
    Parameters with a leading axis of rows give an array of one density per
    row, each as that row alone would give it.
    """
    lp = prior_total(*prior_terms(emission, trans, latents, hyper))
    return float(lp) if lp.ndim == 0 else lp


def _row_sum(x, lead: tuple):
    """Sum of ``x`` over all but its ``lead`` axes."""
    return np.asarray(x).reshape(lead + (-1,)).sum(axis=-1)


def log_prior_grad(
    emission: EmissionParams,
    trans: TransitionParams | None,
    latents: HyperLatents,
    hyper: Hyperparameters,
) -> dict:
    """Gradient of :func:`log_prior` inside its support, keyed by family name.

    Family names are the ``EmissionParams`` and ``HyperLatents`` field names
    plus ``trans``; each entry has the shape of that field, on the natural
    scale the density is taken in, behind the parameters' leading axis of
    rows if they have one.
    """
    values = _table_values(emission, trans, latents)
    lead = np.shape(emission.level)[:-1]
    g = {}
    # children first, so each parent has collected its children's terms
    for name, shape, parent, mean, law in reversed(hyper._factor_tables[trans is not None]):
        m = mean if parent is None else _parent_mean(values[parent], lead, shape)
        s = law.score(values[name], m)
        g[name] = g.get(name, 0.0) + s
        if parent is not None:
            p_shape = np.shape(values[parent])[len(lead):]
            g[parent] = g.get(parent, 0.0) - s.reshape(lead + (-1,) + p_shape).sum(axis=len(lead))
    if trans is not None:
        # d logit(rho) / d rho = 1 / (rho (1 - rho)), plus the change of measure
        for name in _LOGIT_FAMILIES:
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
    :func:`sample_prior` is the single-draw structured view. The decay
    logits are also returned together, as ``logit_decay`` (n, 3).
    """
    four = mode is ModelMode.FOUR_STATE
    out = {}
    for name, shape, parent, mean, law in hyper._factor_tables[four]:
        if parent is not None:
            mean = _parent_mean(out[parent], (n,), shape)
        out[name] = law.draw(rng, mean, (n,) + shape)
    if four:
        out["logit_decay"] = np.concatenate([out["decay_mean"], out["decay_prec"][:, None]], axis=1)
        for name in _LOGIT_FAMILIES:
            out[name] = 1.0 / (1.0 + np.exp(-out[name]))
    return out


def sample_prior(
    hyper: Hyperparameters,
    rng: np.random.Generator,
    mode: ModelMode = ModelMode.FOUR_STATE,
):
    """One exact draw of (EmissionParams, TransitionParams | None, HyperLatents)."""
    d = sample_prior_batch(hyper, rng, 1, mode)
    return assemble_params({name: x[0] for name, x in d.items()}, mode)


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
    """Parse a ``key = value`` file.

    Values are numbers; the ``_HARMONIC_FIELDS`` keys take comma-separated lists.
    """
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
                continue
            try:
                out[key] = tuple(map(float, value.split(","))) if key in list_keys else float(value)
            except ValueError as exc:
                kind = "list" if key in list_keys else "number"
                raise ConfigError(f"{path}:{lineno}: bad {kind} for {key!r}") from exc
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
