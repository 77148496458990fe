"""Named rate, drift, and initial-condition functions.

Configs select these by name plus parameters instead of arbitrary
expressions, which keeps runs auditable and hashes stable.  Every rate kind
declares its supremum so that the dominating clock rate can be validated;
every drift kind is bounded by construction.  Each spec validates its own
kind and parameters and raises ``ConfigInvalid`` naming ``kind`` or the
parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy.special import ndtri

from .errors import ConfigInvalid
from .field import Field, GridSpec


@dataclass(frozen=True)
class RegistrySpec:
    """A registry selection: ``kind`` plus named numeric parameters.

    A parameter name is accepted if some kind of the family reads it, every
    parameter but those in ``POINTS`` is a single number, the parameters in
    ``POSITIVE`` are positive and those in ``INTEGER`` integers when given.
    A point has one entry per axis or one entry for every axis;
    ``check_points`` holds it to the grid.
    """

    kind: str
    params: dict = field(default_factory=dict)

    KINDS: ClassVar[dict[str, tuple[str, ...]]] = {}  # kind -> names it reads
    POSITIVE: ClassVar[tuple[str, ...]] = ()
    INTEGER: ClassVar[tuple[str, ...]] = ()
    POINTS: ClassVar[tuple[str, ...]] = ()

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigInvalid("kind", f"unknown kind {self.kind!r}; expected "
                                        f"one of {', '.join(self.KINDS)}")
        known = sorted({name for names in self.KINDS.values() for name in names})
        for name, value in self.params.items():
            if name not in known:
                raise ConfigInvalid(name, "no kind of this section reads it; "
                                          f"known: {', '.join(known)}")
            if name not in self.POINTS and np.ndim(value) != 0:
                raise ConfigInvalid(name, f"expects a single number, got {value}")
            if name in self.POSITIVE and not value > 0:
                raise ConfigInvalid(name, f"must be positive, got {value}")
            if name in self.INTEGER and not float(value).is_integer():
                raise ConfigInvalid(name, f"must be an integer, got {value}")

    def point(self, name: str, d: int, default: float) -> np.ndarray:
        """Point parameter ``name`` with d entries (``default`` on every axis
        when absent); a single entry is repeated to every axis."""
        arr = np.atleast_1d(np.asarray(self.params.get(name, default),
                                       dtype=np.float64))
        if arr.size == d:
            return arr
        if arr.size != 1:
            raise ConfigInvalid(name, f"has {arr.size} entries, expected 1 "
                                      f"or grid.d = {d}")
        return np.repeat(arr, d)

    def check_points(self, d: int):
        for name in self.POINTS:
            self.point(name, d, 0.0)


@dataclass(frozen=True)
class RateSpec(RegistrySpec):
    """A birth or death rate lambda(x, rho) chosen from the registry.

    kinds:
      zero       -- identically 0
      constant   -- c
      indicator  -- c * 1[x_1 < L/2]   (half-torus in the first coordinate)
      logistic   -- c / (1 + exp(-slope * (rho - center))), bounded by c
    """

    KINDS = {"zero": (), "constant": ("c",), "indicator": ("c",),
             "logistic": ("c", "slope", "center")}

    def __post_init__(self):
        super().__post_init__()
        if self.kind == "zero":
            return
        if "c" not in self.params:
            raise ConfigInvalid("c", f"missing required key for kind {self.kind!r}")
        if not self.params["c"] >= 0:
            raise ConfigInvalid("c", f"must be nonnegative, got {self.params['c']}")

    def sup(self) -> float:
        if self.kind == "zero":
            return 0.0
        return float(self.params["c"])

    @property
    def reads_field(self) -> bool:  # whether lambda depends on rho
        return self.kind == "logistic"

    def build(self, extent: float):
        kind, p = self.kind, self.params
        if kind == "zero":
            return lambda x, rho: np.zeros(len(np.atleast_2d(x)))
        c = float(p["c"])
        if kind == "constant":
            return lambda x, rho: np.full(len(np.atleast_2d(x)), c)
        if kind == "indicator":
            half = 0.5 * extent
            return lambda x, rho: c * (np.atleast_2d(x)[:, 0] < half)
        slope = float(p.get("slope", 1.0))
        center = float(p.get("center", 0.0))
        return lambda x, rho: c / (1.0 + np.exp(-slope * (np.asarray(rho) - center)))


@dataclass(frozen=True)
class DriftSpec(RegistrySpec):
    """Drift b(x, g) with g the chemoattractant gradient.

    kinds:
      zero        -- 0
      constant    -- fixed vector (vx[, vy])
      chemotaxis  -- chi * g / (1 + |g|/gsat), bounded by chi * gsat
    """

    KINDS = {"zero": (), "constant": ("vx", "vy"), "chemotaxis": ("chi", "gsat")}
    POSITIVE = ("gsat",)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    def _vector(self, d: int) -> np.ndarray:
        p = self.params
        comps = [float(p.get("vx", 0.0))]
        if d == 2:
            comps.append(float(p.get("vy", 0.0)))
        return np.array(comps)

    def build(self, d: int):
        kind, p = self.kind, self.params
        if kind == "zero":
            return lambda x, g: np.zeros_like(np.atleast_2d(x))
        if kind == "constant":
            v = self._vector(d)
            return lambda x, g: np.broadcast_to(v, np.atleast_2d(x).shape)
        chi = float(p.get("chi", 1.0))
        gsat = float(p.get("gsat", 1.0))

        def chemotaxis(x, g):
            g = np.atleast_2d(g)
            norms = np.sqrt(np.sum(g * g, axis=1, keepdims=True))
            return chi * g / (1.0 + norms / gsat)

        return chemotaxis


@dataclass(frozen=True)
class InitialMeasureSpec(RegistrySpec):
    """Initial cell-position law mu_0 on the torus.

    kinds: uniform; gaussian (center per axis, sd, wrapped); point (at).
    Sampling is inverse-CDF on the reserved init stream, one draw per
    coordinate, so founders are pure functions of (universe, line).
    """

    KINDS = {"uniform": (), "gaussian": ("center", "sd"), "point": ("at",)}
    POSITIVE = ("sd",)
    POINTS = ("center", "at")

    def sample(self, universe, lines, d: int, extent: float) -> np.ndarray:
        """Initial positions (m, d) of a batch of founder lines."""
        if self.kind == "point":
            return np.tile(np.mod(self.point("at", d, 0.0), extent),
                           (len(lines), 1))
        u = universe.init_uniforms(lines, d)
        if self.kind == "uniform":
            return extent * u
        sd = float(self.params.get("sd", extent / 10.0))
        return np.mod(self.point("center", d, 0.0) + sd * ndtri(u), extent)

    def density(self, grid: GridSpec) -> np.ndarray:
        """Grid-sampled probability density (unit total mass by quadrature)."""
        nodes = grid.node_coords()
        if self.kind == "uniform":
            vals = np.ones(len(nodes))
        elif self.kind == "point":
            # narrow normalized bump as the grid representation of an atom
            vals = _periodized_gaussian(nodes, self.point("at", grid.d, 0.0),
                                        4.0 * grid.dx, grid.extent)
        else:
            sd = float(self.params.get("sd", grid.extent / 10.0))
            vals = _periodized_gaussian(nodes, self.point("center", grid.d, 0.0),
                                        sd, grid.extent)
        vals = vals.reshape(grid.shape)
        return vals / (np.sum(vals) * grid.cell_volume)


@dataclass(frozen=True)
class InitialFieldSpec(RegistrySpec):
    """Initial chemoattractant rho_0 (twice differentiable torus function).

    kinds: constant (c); cosine (c0 + amp * cos(2*pi*mode*x_1/L), mode an
    integer); bump (amp * periodized gaussian at center with width).
    """

    KINDS = {"constant": ("c",), "cosine": ("c0", "amp", "mode"),
             "bump": ("amp", "width", "center")}
    POSITIVE = ("width",)
    INTEGER = ("mode",)
    POINTS = ("center",)

    def sample(self, grid: GridSpec) -> Field:
        p = self.params
        nodes = grid.node_coords()
        if self.kind == "constant":
            vals = np.full(len(nodes), float(p.get("c", 0.0)))
        elif self.kind == "cosine":
            c0 = float(p.get("c0", 0.0))
            amp = float(p.get("amp", 1.0))
            mode = int(p.get("mode", 1))
            vals = c0 + amp * np.cos(2.0 * np.pi * mode * nodes[:, 0] / grid.extent)
        else:
            amp = float(p.get("amp", 1.0))
            width = float(p.get("width", grid.extent / 10.0))
            center = self.point("center", grid.d, grid.extent / 2)
            vals = amp * _periodized_gaussian(nodes, center, width, grid.extent)
        return Field(grid, vals.reshape(grid.shape), 0.0)


def _periodized_gaussian(nodes: np.ndarray, center: np.ndarray, width: float,
                         extent: float) -> np.ndarray:
    """Wrapped normal density on the torus, a product over axes.

    Narrower than L/2 it sums the ceil(8 width/L) <= 4 nearest images on
    each side, so the first image left out is 8 widths away.  From L/2 on it
    sums the Fourier series (1 + 2 sum_k exp(-2 pi^2 k^2 width^2/L^2)
    cos(2 pi k x/L)) / L up to k = 4L/(pi width) <= 2, so every term left
    out is below the same exp(-32), and any finite width takes O(1) work.
    """
    out = np.ones(len(nodes))
    for ax in range(nodes.shape[1]):
        dx = np.mod(nodes[:, ax] - center[ax] + 0.5 * extent, extent) - 0.5 * extent
        if width < extent / 2:
            images = max(1, int(np.ceil(8.0 * width / extent)))
            acc = np.zeros(len(nodes))
            for m in range(-images, images + 1):
                acc += np.exp(-((dx + m * extent) ** 2) / (2.0 * width ** 2))
            norm = np.sqrt(2.0 * np.pi * width ** 2)
        else:
            acc = np.ones(len(nodes))
            for k in range(1, int(4.0 * extent / (np.pi * width)) + 1):
                acc += (2.0 * np.exp(-2.0 * (np.pi * k * width / extent) ** 2)
                        * np.cos(2.0 * np.pi * k * dx / extent))
            norm = extent
        out = out * acc / norm
    return out
