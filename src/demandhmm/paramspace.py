"""Flat parameter vector layout and constrained/unconstrained transforms.

The samplers work on an unconstrained real vector. Unit-interval parameters
(the AR eigenvalue coordinates and the holiday-effect decay factors) travel
on the logit scale; everything else is unchanged. The layout depends on the
harmonic counts and on the model mode: the restricted two-state model carries
no transition coefficients and no decay parameters.

A subset of parameter families can be declared free; the remaining families
are pinned to a base vector. This is how conditional posteriors (for example
with only the intercepts free) are sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .emission import EmissionParams
from .priors import HyperLatents
from .states import (
    LOGIT_CLAMP,
    TRANS_NAMES,
    ModelMode,
    TransitionParams,
    log_sigmoid,
    logit,
    sigmoid,
)

_COS_SIN = ("cos", "sin")


@dataclass(frozen=True)
class _Family:
    name: str
    size: int
    transform: str          # "id" or "logit"
    scalar_names: tuple[str, ...]


def _grid_names(fam: str, dims: tuple) -> list[str]:
    """Names like fam_1_cos_2 for (region, cos/sin, harmonic) grids."""
    names = []
    if len(dims) == 3:
        for j in range(dims[0]):
            for m in range(dims[1]):
                for k in range(dims[2]):
                    names.append(f"{fam}_{j + 1}_{_COS_SIN[m]}_{k + 1}")
    elif len(dims) == 2:
        for a in range(dims[0]):
            for b in range(dims[1]):
                names.append(f"{fam}_{a + 1}_{b + 1}")
    else:
        for a in range(dims[0]):
            names.append(f"{fam}_{a + 1}")
    return names


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
        kg, kp = k_annual, k_prec_annual
        fams: list[_Family] = []

        def add(name, size, transform, scalar_names):
            fams.append(_Family(name, size, transform, tuple(scalar_names)))

        four = mode is ModelMode.FOUR_STATE
        if four:
            add("trans", 7, "id", TRANS_NAMES)
        add("ar_eig01", 2, "logit", _grid_names("ar_eig01", (2,)))
        add("level", 2, "id", _grid_names("level", (2,)))
        add("holiday", 6, "id", _grid_names("holiday", (2, 3)))
        add("annual", 4 * kg, "id", _grid_names("annual", (2, 2, kg)))
        add("weekday", 12, "id", _grid_names("weekday", (2, 2, 3)))
        add("weather", 4, "id", _grid_names("weather", (2, 2)))
        if four:
            add("decay_mean", 2, "logit", _grid_names("decay_mean", (2,)))
            add("decay_prec", 1, "logit", ["decay_prec"])
        add("prec_base", 3, "id", _grid_names("prec_base", (3,)))
        add("prec_holiday", 3, "id", _grid_names("prec_holiday", (3,)))
        add("prec_annual", 6 * kp, "id", _grid_names("prec_annual", (3, 2, kp)))
        add("mu_level", 1, "id", ["mu_level"])
        add("mu_weather", 2, "id", _grid_names("mu_weather", (2,)))
        add("mu_weekday", 6, "id", [f"mu_weekday_{_COS_SIN[m]}_{k + 1}" for m in range(2) for k in range(3)])
        add("mu_annual", 2 * kg, "id", [f"mu_annual_{_COS_SIN[m]}_{k + 1}" for m in range(2) for k in range(kg)])
        add("mu_holiday", 3, "id", _grid_names("mu_holiday", (3,)))
        if four:
            add("logit_decay_mean", 1, "id", ["logit_decay_mean"])
            add("mu_logit_decay", 1, "id", ["mu_logit_decay"])

        self.families = tuple(fams)
        self.family_names = tuple(f.name for f in fams)
        offsets = {}
        pos = 0
        for f in fams:
            offsets[f.name] = (pos, pos + f.size)
            pos += f.size
        self._offsets = offsets
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
            idx = []
            for f in fams:
                if f.name in self.free:
                    a, b = offsets[f.name]
                    idx.extend(range(a, b))
            self.free_idx = np.array(idx, dtype=np.int64)
        self.free_names = tuple(self.names[i] for i in self.free_idx)
        self.size = len(self.free_idx)

        self._logit_mask = np.zeros(self.full_size, dtype=bool)
        for f in fams:
            if f.transform == "logit":
                a, b = offsets[f.name]
                self._logit_mask[a:b] = True

    # -- struct <-> full vector -------------------------------------------

    def slice(self, name: str) -> slice:
        a, b = self._offsets[name]
        return slice(a, b)

    def pack(
        self,
        emission: EmissionParams,
        trans: TransitionParams | None,
        latents: HyperLatents,
    ) -> np.ndarray:
        """Unconstrained full vector from parameter structs."""
        kg, kp = self.k_annual, self.k_prec_annual
        if emission.k_annual != kg or emission.k_prec_annual != kp:
            raise ValueError("parameter harmonic counts do not match this space")
        u = np.empty(self.full_size)
        four = self.mode is ModelMode.FOUR_STATE
        if four:
            if trans is None:
                raise ValueError("four-state space requires transition parameters")
            u[self.slice("trans")] = trans.as_array()
        u[self.slice("ar_eig01")] = logit(emission.ar_eig01)
        u[self.slice("level")] = emission.level
        u[self.slice("holiday")] = emission.holiday.reshape(-1)
        u[self.slice("annual")] = emission.annual.reshape(-1)
        u[self.slice("weekday")] = emission.weekday.reshape(-1)
        u[self.slice("weather")] = emission.weather.reshape(-1)
        if four:
            u[self.slice("decay_mean")] = logit(emission.decay_mean)
            u[self.slice("decay_prec")] = logit(emission.decay_prec)
        u[self.slice("prec_base")] = emission.prec_base
        u[self.slice("prec_holiday")] = emission.prec_holiday
        u[self.slice("prec_annual")] = emission.prec_annual.reshape(-1)
        u[self.slice("mu_level")] = latents.mu_level
        u[self.slice("mu_weather")] = latents.mu_weather
        u[self.slice("mu_weekday")] = latents.mu_weekday.reshape(-1)
        u[self.slice("mu_annual")] = latents.mu_annual.reshape(-1)
        u[self.slice("mu_holiday")] = latents.mu_holiday
        if four:
            u[self.slice("logit_decay_mean")] = latents.logit_decay_mean
            u[self.slice("mu_logit_decay")] = latents.mu_logit_decay
        return u

    def unpack(self, u: np.ndarray):
        """(EmissionParams, TransitionParams | None, HyperLatents) from a full vector."""
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.full_size,):
            raise ValueError(f"expected full vector of size {self.full_size}, got {u.shape}")
        kg, kp = self.k_annual, self.k_prec_annual
        four = self.mode is ModelMode.FOUR_STATE
        trans = TransitionParams.from_array(u[self.slice("trans")]) if four else None
        emission = EmissionParams(
            ar_eig01=np.asarray(sigmoid(u[self.slice("ar_eig01")])),
            level=u[self.slice("level")].copy(),
            holiday=u[self.slice("holiday")].reshape(2, 3).copy(),
            annual=u[self.slice("annual")].reshape(2, 2, kg).copy(),
            weekday=u[self.slice("weekday")].reshape(2, 2, 3).copy(),
            weather=u[self.slice("weather")].reshape(2, 2).copy(),
            decay_mean=(
                np.asarray(sigmoid(u[self.slice("decay_mean")])) if four else np.array([0.5, 0.5])
            ),
            decay_prec=float(sigmoid(u[self.slice("decay_prec")])[0]) if four else 0.5,
            prec_base=u[self.slice("prec_base")].copy(),
            prec_holiday=u[self.slice("prec_holiday")].copy(),
            prec_annual=u[self.slice("prec_annual")].reshape(3, 2, kp).copy(),
        )
        latents = HyperLatents(
            mu_level=float(u[self.slice("mu_level")][0]),
            mu_weather=u[self.slice("mu_weather")].copy(),
            mu_weekday=u[self.slice("mu_weekday")].reshape(2, 3).copy(),
            mu_annual=u[self.slice("mu_annual")].reshape(2, kg).copy(),
            mu_holiday=u[self.slice("mu_holiday")].copy(),
            logit_decay_mean=float(u[self.slice("logit_decay_mean")][0]) if four else 0.0,
            mu_logit_decay=float(u[self.slice("mu_logit_decay")][0]) if four else 0.0,
        )
        return emission, trans, latents

    # -- free subvector ----------------------------------------------------

    def extract_free(self, u_full: np.ndarray) -> np.ndarray:
        return np.asarray(u_full)[self.free_idx].copy()

    def insert_free(self, base_full: np.ndarray, u_free: np.ndarray) -> np.ndarray:
        out = np.asarray(base_full, dtype=np.float64).copy()
        out[self.free_idx] = u_free
        return out

    # -- measure change ----------------------------------------------------

    def log_jacobian(self, u_full: np.ndarray) -> float:
        """log |d(constrained) / d(unconstrained)| of the vector transform."""
        x = np.asarray(u_full)[self._logit_mask]
        return float(np.sum(log_sigmoid(x) + log_sigmoid(-x)))

    def log_jacobian_chain(self, u_full: np.ndarray, grads: dict) -> np.ndarray:
        """Gradient over the full vector of ``f(unpack(u)) + log_jacobian(u)``.

        ``grads`` maps every family name to the gradient of ``f`` with respect
        to that family's natural values. Logit families pick up the factor
        ``sigmoid(u) sigmoid(-u)`` and the log-Jacobian's own gradient; past
        the logit clamp both are 0.
        """
        g = np.concatenate([np.ravel(grads[name]) for name in self.family_names])
        x = np.asarray(u_full)[self._logit_mask]
        s, s_neg = sigmoid(x), sigmoid(-x)
        g[self._logit_mask] = np.where(
            np.abs(x) < LOGIT_CLAMP, g[self._logit_mask] * s * s_neg + s_neg - s, 0.0
        )
        return g

    def constrained_values(self, u_full: np.ndarray) -> np.ndarray:
        """Natural-space value of every scalar, in layout order."""
        out = np.asarray(u_full, dtype=np.float64).copy()
        out[self._logit_mask] = sigmoid(out[self._logit_mask])
        return out

    def unconstrained_from_values(self, values: np.ndarray) -> np.ndarray:
        out = np.asarray(values, dtype=np.float64).copy()
        out[self._logit_mask] = logit(out[self._logit_mask])
        return out
