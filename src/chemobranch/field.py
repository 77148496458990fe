"""Chemoattractant field on a periodic grid.

The spatial domain is the torus [0, L)^d (d = 1 or 2), discretized on n
(power of two) nodes per axis.  The linear part of the field dynamics,
d/dt rho = D*Lap(rho) - r*rho + alpha*source, is advanced with the exact
spectral semigroup: mode k decays by exp(-(D|k|^2+r)dt) and a source frozen
over the step enters through the exact Duhamel multiplier
(1 - exp(-(D|k|^2+r)dt)) / (D|k|^2+r).

Off-grid evaluation uses trigonometric interpolation; the gradient is the
exact gradient of that interpolant, so value/gradient form a consistent pair.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, GridMismatch, NonFiniteAtom, NonFiniteQuery
from .population import EmpiricalMeasure


@dataclass(frozen=True)
class GridSpec:
    """Periodic grid: dimension d in {1, 2}, n nodes per axis, side L."""

    d: int
    n: int
    extent: float

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ConfigInvalid("d", f"must be 1 or 2, got {self.d}")
        if self.n < 2 or self.n & (self.n - 1):
            raise ConfigInvalid("n", f"must be a power of two, got {self.n}")
        if not self.extent > 0:
            raise ConfigInvalid("extent", f"must be positive, got {self.extent}")

    @property
    def dx(self) -> float:
        return self.extent / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def cell_volume(self) -> float:
        return self.dx ** self.d

    def axis_coords(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    def node_coords(self) -> np.ndarray:
        """Node coordinates, shape (n^d, d), row-major."""
        x = self.axis_coords()
        if self.d == 1:
            return x.reshape(-1, 1)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        return np.stack([xx.ravel(), yy.ravel()], axis=1)

    def axis_wavenumbers(self) -> np.ndarray:
        """Physical wavenumbers 2*pi*m/L in numpy fft order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    def rfft_k2(self) -> np.ndarray:
        """|k|^2 on the rfftn output layout."""
        k_full = self.axis_wavenumbers()
        k_half = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)
        if self.d == 1:
            return k_half ** 2
        return k_full[:, None] ** 2 + k_half[None, :] ** 2

    def wrap(self, points: np.ndarray) -> np.ndarray:
        return np.mod(points, self.extent)


class Field:
    """Grid-sampled scalar field with spectral point evaluation."""

    __slots__ = ("grid", "values", "time", "_hat_over_n")

    def __init__(self, grid: GridSpec, values: np.ndarray, time: float = 0.0):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise GridMismatch(f"values shape {values.shape} != grid {grid.shape}")
        self.grid = grid
        self.values = values
        self.time = float(time)
        self._hat_over_n = None

    @classmethod
    def from_function(cls, grid: GridSpec, f, time: float = 0.0) -> "Field":
        nodes = grid.node_coords()
        vals = np.asarray(f(nodes), dtype=np.float64).reshape(grid.shape)
        return cls(grid, vals, time)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    def _hat(self) -> np.ndarray:
        # full fftn divided by n^d, cached; Field values are never mutated
        if self._hat_over_n is None:
            self._hat_over_n = np.fft.fftn(self.values) / self.values.size
        return self._hat_over_n

    def _phases(self, pts: np.ndarray) -> list[np.ndarray]:
        k = self.grid.axis_wavenumbers()
        return [np.exp(1j * np.outer(pts[:, ax], k)) for ax in range(self.grid.d)]

    def _check_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.shape[1] != self.grid.d:
            raise NonFiniteQuery(f"query dimension {pts.shape[1]} != {self.grid.d}")
        if not np.all(np.isfinite(pts)):
            raise NonFiniteQuery("field evaluated at non-finite point")
        return self.grid.wrap(pts)

    def value_at(self, points: np.ndarray) -> np.ndarray:
        """Trigonometric interpolant at arbitrary points, shape (m,)."""
        pts = self._check_points(points)
        c = self._hat()
        E = self._phases(pts)
        if self.grid.d == 1:
            return np.einsum("pa,a->p", E[0], c).real
        tmp = np.einsum("ab,pb->pa", c, E[1])
        return np.einsum("pa,pa->p", E[0], tmp).real

    def gradient_at(self, points: np.ndarray) -> np.ndarray:
        """Exact gradient of the interpolant used by value_at, shape (m, d)."""
        pts = self._check_points(points)
        c = self._hat()
        k = self.grid.axis_wavenumbers()
        E = self._phases(pts)
        if self.grid.d == 1:
            g = np.einsum("pa,a->p", E[0], 1j * k * c).real
            return g.reshape(-1, 1)
        tmp = np.einsum("ab,pb->pa", c, E[1])
        gx = np.einsum("pa,pa->p", E[0] * (1j * k)[None, :], tmp).real
        tmp_y = np.einsum("ab,pb->pa", c * (1j * k)[None, :], E[1])
        gy = np.einsum("pa,pa->p", E[0], tmp_y).real
        return np.stack([gx, gy], axis=1)

    def gradient_grid(self) -> list[np.ndarray]:
        """Spectral gradient sampled on the grid, one array per axis."""
        hat = np.fft.fftn(self.values)
        k = self.grid.axis_wavenumbers()
        out = []
        for ax in range(self.grid.d):
            shape = [1] * self.grid.d
            shape[ax] = self.grid.n
            out.append(np.fft.ifftn(hat * (1j * k).reshape(shape)).real)
        return out

    def integrate_against(self, phi_nodes: np.ndarray) -> float:
        """Quadrature pairing <phi, field> with phi sampled on the grid."""
        return float(np.sum(self.values * phi_nodes) * self.grid.cell_volume)


class Kernel:
    """Periodized Gaussian mollifier of unit mass on the torus.

    Separable across axes; the 1-D profile sums enough periodic images that
    the truncation error is far below the 1e-10 unit-mass tolerance.
    """

    def __init__(self, grid: GridSpec, width: float | None = None):
        self.grid = grid
        self.width = float(width) if width is not None else 4.0 * grid.dx
        if not 0 < self.width <= grid.extent / 8:
            default = "" if width is not None else " (the default, 4 grid cells)"
            raise ConfigInvalid("width", f"must lie in (0, L/8] = "
                                         f"(0, {grid.extent / 8:g}], got "
                                         f"{self.width:g}{default}")
        self._images = max(1, int(np.ceil(8.0 * self.width / grid.extent)))
        self._norm1d = 1.0 / np.sqrt(2.0 * np.pi * self.width ** 2)
        self.samples = self._grid_samples()
        self.hat = np.fft.rfftn(self.samples)

    def profile1d(self, dx: np.ndarray) -> np.ndarray:
        """1-D periodized Gaussian at signed offsets (any real values)."""
        L = self.grid.extent
        dx = np.mod(np.asarray(dx, dtype=np.float64) + 0.5 * L, L) - 0.5 * L
        acc = np.zeros_like(dx)
        for m in range(-self._images, self._images + 1):
            acc += np.exp(-((dx + m * L) ** 2) / (2.0 * self.width ** 2))
        return self._norm1d * acc

    def _grid_samples(self) -> np.ndarray:
        axis = self.profile1d(self.grid.axis_coords())
        if self.grid.d == 1:
            return axis
        return np.outer(axis, axis)

    def torus_mass(self) -> float:
        """Grid quadrature of the kernel (spectrally exact for this profile)."""
        return float(np.sum(self.samples) * self.grid.cell_volume)

    def sup_gradient(self) -> float:
        """Numerical sup-norm of the kernel gradient (fine 1-D sampling)."""
        xs = np.linspace(-self.grid.extent / 2, self.grid.extent / 2, 8192)
        prof = self.profile1d(xs)
        dprof = np.gradient(prof, xs)
        if self.grid.d == 1:
            return float(np.max(np.abs(dprof)))
        # separable product: max |k'(x) k(y)| = max|k'| * max k
        return float(np.max(np.abs(dprof)) * np.max(prof))

    def convolve_density(self, values: np.ndarray) -> np.ndarray:
        """Spectral convolution (kernel * density) on the grid."""
        if values.shape != self.grid.shape:
            raise GridMismatch("density shape does not match kernel grid")
        prod = self.hat * np.fft.rfftn(values)
        out = np.fft.irfftn(prod, s=self.grid.shape, axes=range(self.grid.d))
        return out * self.grid.cell_volume


def deposit(measure: EmpiricalMeasure, kernel: Kernel, grid: GridSpec) -> np.ndarray:
    """Mollified empirical measure on the grid: sum_a w_a * kernel(node - x_a).

    Atoms are assumed already in canonical (lineage) order; the reduction
    order over atoms is a fixed function of that ordering, so deposits are
    bit-reproducible.
    """
    if kernel.grid != grid:
        raise GridMismatch("kernel was built for a different grid")
    if not (np.all(np.isfinite(measure.positions)) and np.all(np.isfinite(measure.weights))):
        raise NonFiniteAtom("deposit received non-finite atoms")
    if len(measure.weights) == 0:
        return np.zeros(grid.shape)
    pos = grid.wrap(measure.positions)
    axis = grid.axis_coords()
    if grid.d == 1:
        w = kernel.profile1d(axis[None, :] - pos[:, 0][:, None])
        return np.sum(w * measure.weights[:, None], axis=0)
    wx = kernel.profile1d(axis[None, :] - pos[:, 0][:, None])
    wy = kernel.profile1d(axis[None, :] - pos[:, 1][:, None])
    return np.einsum("ai,aj,a->ij", wx, wy, measure.weights)


def semigroup_step(rho: Field, source: np.ndarray | None, dt: float, D: float,
                   r: float, alpha: float) -> Field:
    """One exact mild-solution step with the source frozen over [t, t+dt].

    rho_{t+dt} = S_dt rho_t + alpha * J_dt source, applied mode-by-mode with
    S multiplier exp(-(D|k|^2+r)dt) and J multiplier (1-S)/(D|k|^2+r).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = rho.grid
    a = D * grid.rfft_k2() + r
    decay = np.exp(-a * dt)
    hat = np.fft.rfftn(rho.values) * decay
    if source is not None and alpha != 0.0:
        if np.asarray(source).shape != grid.shape:
            raise GridMismatch("source shape does not match field grid")
        hat = hat + alpha * np.fft.rfftn(source) * (1.0 - decay) / a
    values = np.fft.irfftn(hat, s=grid.shape, axes=range(grid.d))
    return Field(grid, values, rho.time + dt)


class FieldPath:
    """Field trajectory stored at a uniform time grid.

    Queries at stored times return the stored arrays bitwise; intermediate
    times are linear interpolations (the field is continuous in time).
    """

    def __init__(self, grid: GridSpec, times: np.ndarray, values: np.ndarray):
        self.grid = grid
        self.times = np.asarray(times, dtype=np.float64)
        self.values = np.asarray(values, dtype=np.float64)
        if self.values.shape[0] != len(self.times):
            raise ValueError("one value slice per time required")
        self._dt = float(self.times[1] - self.times[0]) if len(self.times) > 1 else 1.0

    @classmethod
    def from_fields(cls, fields: list[Field]) -> "FieldPath":
        times = np.array([f.time for f in fields])
        values = np.stack([f.values for f in fields])
        return cls(fields[0].grid, times, values)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def field_at(self, t: float) -> Field:
        k = int(round((t - self.times[0]) / self._dt))
        if 0 <= k < len(self.times) and abs(self.times[k] - t) <= 1e-9 * max(1.0, abs(t)):
            return Field(self.grid, self.values[k], t)
        if t <= self.times[0]:
            return Field(self.grid, self.values[0], t)
        if t >= self.times[-1]:
            return Field(self.grid, self.values[-1], t)
        j = int(np.searchsorted(self.times, t, side="right")) - 1
        w = (t - self.times[j]) / (self.times[j + 1] - self.times[j])
        vals = (1.0 - w) * self.values[j] + w * self.values[j + 1]
        return Field(self.grid, vals, t)

    def shifted(self, offset: float) -> "FieldPath":
        """Path with a constant value offset (used for perturbation studies)."""
        return FieldPath(self.grid, self.times, self.values + offset)


# ---------------------------------------------------------------------------
# Snapshot export

_MAGIC = b"CBF1"


def field_to_bytes(field: Field) -> bytes:
    """Compact binary: magic, d, n (int32 LE), L, t (float64 LE), row-major payload."""
    head = _MAGIC + struct.pack("<ii", field.grid.d, field.grid.n)
    head += struct.pack("<dd", field.grid.extent, field.time)
    return head + field.values.astype("<f8").tobytes(order="C")


def field_from_bytes(blob: bytes) -> Field:
    if blob[:4] != _MAGIC:
        raise ValueError("not a field binary blob")
    d, n = struct.unpack("<ii", blob[4:12])
    extent, t = struct.unpack("<dd", blob[12:28])
    grid = GridSpec(d, n, extent)
    values = np.frombuffer(blob[28:], dtype="<f8").reshape(grid.shape).copy()
    return Field(grid, values, t)


def field_to_csv_lines(field: Field) -> list[str]:
    cols = "x,value" if field.grid.d == 1 else "x,y,value"
    out = [cols]
    nodes = field.grid.node_coords()
    flat = field.values.ravel(order="C")
    for row, v in zip(nodes, flat):
        coords = ",".join(repr(float(c)) for c in row)
        out.append(f"{coords},{float(v)!r}")
    return out
