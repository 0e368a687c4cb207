"""Flat parameter vector layout and constrained/unconstrained transforms.

The samplers work on an unconstrained real vector. Unit-interval parameters
(the AR eigenvalue coordinates and the holiday-effect decay factors) travel
on the logit scale; everything else is unchanged.

The layout is one table of parameter families, ``_TABLE``: each family's
name, the struct that holds it, its shape in terms of the harmonic counts and
whether it travels on the logit scale. The scalar names (the draws.csv
header), ``pack`` and ``unpack`` are all read off it, and
``priors.assemble_params`` builds the structs from the unpacked values. The
restricted two-state model carries no transition coefficients and no decay
parameters; ``assemble_params`` pins the latter.

A subset of parameter families can be declared free; the remaining families
are pinned to a base vector. This is how conditional posteriors (for example
with only the intercepts free) are sampled. ``PosteriorDraws`` holds a
sampler's retained draws in a space's free coordinates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .emission import EmissionParams
from .priors import HyperLatents, assemble_params
from .states import (
    LOGIT_CLAMP,
    TRANS_NAMES,
    ModelMode,
    TransitionParams,
    log_sigmoid_pair,
    logit,
    sigmoid,
)

_CS = "cos/sin"  # shape marker: an axis of length 2 whose scalars are named cos, sin


@dataclass(frozen=True)
class _Spec:
    name: str               # field name in its part's struct
    part: str               # "emission", "trans" or "latents"
    shape: tuple            # ints, "kg"/"kp" for the harmonic counts, or _CS
    logit: bool = False     # travels on the logit scale
    four_state: bool = False  # absent from the two-state model


# One entry per parameter family, in layout order (the draws.csv column order).
_TABLE = (
    _Spec("trans", "trans", (len(TRANS_NAMES),), four_state=True),
    _Spec("ar_eig01", "emission", (2,), logit=True),
    _Spec("level", "emission", (2,)),
    _Spec("holiday", "emission", (2, 3)),
    _Spec("annual", "emission", (2, _CS, "kg")),
    _Spec("weekday", "emission", (2, _CS, 3)),
    _Spec("weather", "emission", (2, 2)),
    _Spec("decay_mean", "emission", (2,), logit=True, four_state=True),
    _Spec("decay_prec", "emission", (), logit=True, four_state=True),
    _Spec("prec_base", "emission", (3,)),
    _Spec("prec_holiday", "emission", (3,)),
    _Spec("prec_annual", "emission", (3, _CS, "kp")),
    _Spec("mu_level", "latents", ()),
    _Spec("mu_weather", "latents", (2,)),
    _Spec("mu_weekday", "latents", (_CS, 3)),
    _Spec("mu_annual", "latents", (_CS, "kg")),
    _Spec("mu_holiday", "latents", (3,)),
    _Spec("logit_decay_mean", "latents", (), four_state=True),
    _Spec("mu_logit_decay", "latents", (), four_state=True),
)


@dataclass(frozen=True)
class _Family:
    name: str
    part: str
    shape: tuple[int, ...]
    logit: bool
    slice: slice
    scalar_names: tuple[str, ...]


def _scalar_names(spec: _Spec, shape: tuple[int, ...]) -> tuple[str, ...]:
    """``name_<index>...`` per scalar in C order: 1-based, or cos/sin on a _CS axis."""
    if spec.part == "trans":
        return TRANS_NAMES
    labels = [("cos", "sin") if m == _CS else [str(i + 1) for i in range(n)]
              for m, n in zip(spec.shape, shape)]
    return tuple("_".join((spec.name, *idx)) for idx in itertools.product(*labels))


class ParamSpace:
    """Maps between parameter structs and flat vectors for one model setup."""

    def __init__(
        self,
        k_annual: int = 6,
        k_prec_annual: int = 12,
        mode: ModelMode = ModelMode.FOUR_STATE,
        free: list[str] | None = None,
    ):
        self.k_annual = k_annual
        self.k_prec_annual = k_prec_annual
        self.mode = mode
        dims = {"kg": k_annual, "kp": k_prec_annual, _CS: 2}
        fams: list[_Family] = []
        pos = 0
        for spec in _TABLE:
            if spec.four_state and mode is not ModelMode.FOUR_STATE:
                continue
            shape = tuple(dims.get(m, m) for m in spec.shape)
            size = math.prod(shape)
            fams.append(_Family(spec.name, spec.part, shape, spec.logit,
                                slice(pos, pos + size), _scalar_names(spec, shape)))
            pos += size
        self.families = tuple(fams)
        self.family_names = tuple(f.name for f in fams)
        self._by_name = {f.name: f for f in fams}
        self.full_size = pos
        self.names = tuple(n for f in fams for n in f.scalar_names)

        if free is not None:
            unknown = set(free) - set(self.family_names)
            if unknown:
                raise ValueError(f"unknown free families: {sorted(unknown)}")
        self.free = tuple(free) if free is not None else None
        if self.free is None:
            self.free_idx = np.arange(self.full_size)
        else:
            self.free_idx = np.array(
                [i for f in fams if f.name in self.free for i in range(f.slice.start, f.slice.stop)],
                dtype=np.int64,
            )
        self.free_names = tuple(self.names[i] for i in self.free_idx)
        self.size = len(self.free_idx)

        self._logit_mask = np.zeros(self.full_size, dtype=bool)
        for f in fams:
            self._logit_mask[f.slice] = f.logit
        self._free_logit_mask = self._logit_mask[self.free_idx]

    # -- struct <-> full vector -------------------------------------------

    def slice(self, name: str) -> slice:
        return self._by_name[name].slice

    def pack(
        self,
        emission: EmissionParams,
        trans: TransitionParams | None,
        latents: HyperLatents,
    ) -> np.ndarray:
        """Unconstrained full vector from parameter structs."""
        if emission.k_annual != self.k_annual or emission.k_prec_annual != self.k_prec_annual:
            raise ValueError("parameter harmonic counts do not match this space")
        if self.mode is ModelMode.FOUR_STATE and trans is None:
            raise ValueError("four-state space requires transition parameters")
        structs = {"emission": emission, "latents": latents}
        u = np.empty(self.full_size)
        for f in self.families:
            x = trans.as_array() if f.part == "trans" else getattr(structs[f.part], f.name)
            u[f.slice] = np.ravel(logit(x) if f.logit else x)
        return u

    def unpack(self, u: np.ndarray):
        """(EmissionParams, TransitionParams | None, HyperLatents) from a full vector.

        Rows (C, full_size) give structs whose fields carry the row axis.
        """
        u = np.asarray(u, dtype=np.float64)
        if u.ndim not in (1, 2) or u.shape[-1] != self.full_size:
            raise ValueError(f"expected full vectors of size {self.full_size}, got {u.shape}")
        natural = self.constrained_values(u)
        lead = u.shape[:-1]
        return assemble_params(
            {f.name: natural[..., f.slice].reshape(lead + f.shape) for f in self.families}, self.mode
        )

    # -- free subvector ----------------------------------------------------

    def extract_free(self, u_full: np.ndarray) -> np.ndarray:
        return np.asarray(u_full)[self.free_idx].copy()

    def insert_free(self, base_full: np.ndarray, u_free: np.ndarray) -> np.ndarray:
        """Full vectors: ``base_full`` with the free coordinates (..., size) of ``u_free``."""
        out = np.empty(np.shape(u_free)[:-1] + (self.full_size,))
        out[...] = base_full
        out[..., self.free_idx] = u_free
        return out

    # -- measure change ----------------------------------------------------

    def log_jacobian(self, u_full: np.ndarray):
        """log |d(constrained) / d(unconstrained)| of the vector transform; one per row of (C, full_size)."""
        x = np.asarray(u_full)[..., self._logit_mask]
        up, down = log_sigmoid_pair(x)
        out = np.sum(up + down, axis=-1)
        return float(out) if out.ndim == 0 else out

    def log_jacobian_chain(self, u_full: np.ndarray, grads: dict) -> np.ndarray:
        """Gradient over the full vector of ``f(unpack(u)) + log_jacobian(u)``.

        ``grads`` maps every family name to the gradient of ``f`` with respect
        to that family's natural values. Logit families pick up the factor
        ``sigmoid(u) sigmoid(-u)`` and the log-Jacobian's own gradient; past
        the logit clamp both are 0. Rows (C, full_size) take gradients with
        the same leading axis and give (C, full_size).
        """
        u_full = np.asarray(u_full)
        lead = u_full.shape[:-1]
        g = np.concatenate([np.reshape(grads[name], lead + (-1,)) for name in self.family_names], axis=-1)
        x = u_full[..., self._logit_mask]
        s, s_neg = sigmoid(x), sigmoid(-x)
        g[..., self._logit_mask] = np.where(
            np.abs(x) < LOGIT_CLAMP, g[..., self._logit_mask] * s * s_neg + s_neg - s, 0.0
        )
        return g

    def constrained_values(self, u_full: np.ndarray) -> np.ndarray:
        """Natural-space value of every scalar, in layout order."""
        return _on_mask(u_full, self._logit_mask, sigmoid)

    def free_constrained(self, u_free: np.ndarray) -> np.ndarray:
        """Natural-space values of free-coordinate rows, shape (..., size)."""
        return _on_mask(u_free, self._free_logit_mask, sigmoid)

    def free_unconstrained(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`free_constrained`."""
        return _on_mask(values, self._free_logit_mask, logit)


@dataclass
class PosteriorDraws:
    """Retained draws in unconstrained free coordinates plus provenance."""

    free_draws: np.ndarray              # (M, d)
    logpost: np.ndarray                 # (M,)
    chain: np.ndarray                   # (M,)
    iteration: np.ndarray               # (M,)
    space: ParamSpace
    base_full: np.ndarray               # pinned values for non-free entries

    @property
    def n_draws(self) -> int:
        return self.free_draws.shape[0]

    @property
    def mode(self) -> ModelMode:
        return self.space.mode

    @property
    def names(self) -> tuple:
        return self.space.free_names

    def full_vector(self, i: int) -> np.ndarray:
        return self.space.insert_free(self.base_full, self.free_draws[i])

    def params_at(self, i: int):
        return self.space.unpack(self.full_vector(i))

    def constrained(self) -> np.ndarray:
        """(M, d) natural-space values of the free coordinates."""
        return self.space.free_constrained(self.free_draws)

    def by_chain(self) -> np.ndarray:
        """(n_chains, n_per_chain, d) view; requires balanced chains."""
        chains = np.unique(self.chain)
        per = [self.free_draws[self.chain == c] for c in chains]
        n = min(p.shape[0] for p in per)
        return np.stack([p[:n] for p in per])


def _on_mask(x, mask: np.ndarray, fn) -> np.ndarray:
    """C-ordered copy of ``x`` with ``fn`` applied to the last-axis entries selected by ``mask``.

    Each row of the copy is laid out as a lone vector would be, so numpy's
    BLAS calls see the strides they see for one row and round alike.
    """
    out = np.array(x, dtype=np.float64, order="C")
    out[..., mask] = fn(out[..., mask])
    return out
