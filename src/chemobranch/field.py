"""Chemoattractant field on a periodic grid.

The spatial domain is the torus [0, L)^d (d = 1 or 2), discretized on n
(power of two) nodes per axis.  The linear part of the field dynamics,
d/dt rho = D*Lap(rho) - r*rho + alpha*source, is advanced with the exact
spectral semigroup: mode k decays by exp(-(D|k|^2+r)dt) and a source frozen
over the step enters through the exact Duhamel multiplier
(1 - exp(-(D|k|^2+r)dt)) / (D|k|^2+r).

Off-grid work is a nonuniform DFT through one table of e^{ikx} per point and
axis on the rfftn layout (``_phase_table``).  The deposit of a measure is
the kernel's Fourier multiplier times the conjugated atom sum of the table,
then one inverse FFT.  Point evaluation is trigonometric interpolation; the
gradient is the exact gradient of that interpolant, so value/gradient form a
consistent pair.  Sums over atoms and modes are numpy einsums in a fixed
order, never BLAS products, whose summation order can follow the BLAS
thread count; so results are bit-identical across BLAS settings.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, GridMismatch, NonFiniteAtom, NonFiniteQuery
from .population import EmpiricalMeasure, join_columns


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
        return sum(k ** 2 for k in _wavenumbers(self))

    def wrap(self, points: np.ndarray) -> np.ndarray:
        return np.mod(points, self.extent)


class Field:
    """Grid-sampled scalar field with spectral point evaluation."""

    __slots__ = ("grid", "values", "time", "_coef")

    def __init__(self, grid: GridSpec, values: np.ndarray, time: float = 0.0):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise GridMismatch(f"values shape {values.shape} != grid {grid.shape}")
        self.grid = grid
        self.values = values
        self.time = float(time)
        self._coef = None

    def _coefficients(self) -> np.ndarray:
        # rfftn of the values, cached; Field values are never mutated
        if self._coef is None:
            self._coef = np.fft.rfftn(self.values)
        return self._coef

    def _check_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.shape[1] != self.grid.d:
            raise NonFiniteQuery(f"query dimension {pts.shape[1]} != {self.grid.d}")
        if not np.all(np.isfinite(pts)):
            raise NonFiniteQuery("field evaluated at non-finite point")
        return self.grid.wrap(pts)

    def _interpolate(self, points: np.ndarray, spectra: np.ndarray) -> np.ndarray:
        """Interpolants of rfftn-layout spectra at the points, (m, len(spectra))."""
        n = self.grid.n
        weight = np.full(n // 2 + 1, 2.0 / self.values.size)
        weight[[0, n // 2]] /= 2.0  # the other modes stand for their conjugates too
        table = _phase_table(self.grid, self._check_points(points))
        out = np.einsum("q...j,aj->aq...", spectra * weight, table[-1])
        for axis in table[-2::-1]:
            out = np.einsum("aq...i,ai->aq...", out, axis)
        return out.real

    def value_at(self, points: np.ndarray) -> np.ndarray:
        """Trigonometric interpolant at arbitrary points, shape (m,)."""
        return self._interpolate(points, self._coefficients()[None])[:, 0]

    def gradient_at(self, points: np.ndarray) -> np.ndarray:
        """Exact gradient of the interpolant used by value_at, shape (m, d)."""
        c = self._coefficients()
        return self._interpolate(points, np.stack([1j * k * c for k in
                                                   _wavenumbers(self.grid)]))

    def gradient_grid(self) -> list[np.ndarray]:
        """Spectral gradient sampled on the grid, one array per axis."""
        out = []
        for k in _wavenumbers(self.grid):
            k = k.copy()
            k.flat[self.grid.n // 2] = 0.0  # the n/2 mode's slope is 0 at every node
            out.append(np.fft.irfftn(1j * k * self._coefficients(),
                                     s=self.grid.shape, axes=range(self.grid.d)))
        return out


def _wavenumbers(grid: GridSpec) -> list[np.ndarray]:
    """Per-axis wavenumbers broadcasting on the rfftn layout, in numpy fft
    order (mode n/2 counts as -n/2); the last axis keeps n/2 + 1 of them."""
    k = grid.axis_wavenumbers()
    if grid.d == 1:
        return [k[:grid.n // 2 + 1]]
    return [k[:, None], k[None, :grid.n // 2 + 1]]


def _phase_table(grid: GridSpec, points: np.ndarray) -> list[np.ndarray]:
    """e^{ikx} at the points, one (m, modes) array per axis on the
    wavenumbers of ``_wavenumbers``: one complex exp per point and axis, and
    its powers by a cumulative product (about n/2 round-offs of accuracy)."""
    n = grid.n
    tables = []
    for ax in range(grid.d):
        half = np.empty((len(points), n // 2 + 1), dtype=np.complex128)
        half[:, 0] = 1.0
        half[:, 1:] = np.exp(2j * np.pi / grid.extent * points[:, ax])[:, None]
        np.cumprod(half, axis=1, out=half)
        half[:, n // 2] = half[:, n // 2].conj()  # mode n/2 counts as -n/2
        if ax < grid.d - 1:  # full axis: the negative modes are conjugates
            half = np.concatenate([half, half[:, n // 2 - 1:0:-1].conj()], axis=1)
        tables.append(half)
    return tables


class Kernel:
    """Periodized Gaussian mollifier of unit mass on the torus, held as its
    Fourier multiplier: ``hat`` = exp(-w^2|k|^2/2) / dx^d on the rfftn layout,
    and ``samples`` (the node values) is its inverse FFT.  The modes beyond
    the grid's are dropped, at most exp(-w^2 k_Nyq^2/2) = 2.7e-9 of the
    kernel at the narrowest allowed width, 2 dx.
    """

    def __init__(self, grid: GridSpec, width: float | None = None):
        self.grid = grid
        self.width = float(width) if width is not None else 4.0 * grid.dx
        lo, hi = 2.0 * grid.dx, grid.extent / 8
        if not lo <= self.width <= hi:
            default = "" if width is not None else " (the default, 4 grid cells)"
            raise ConfigInvalid("width", f"must lie in [2 dx, L/8] = "
                                         f"[{lo:g}, {hi:g}], got "
                                         f"{self.width:g}{default}")
        self.hat = np.exp(-0.5 * self.width ** 2 * grid.rfft_k2()) / grid.cell_volume
        self.samples = np.fft.irfftn(self.hat, s=grid.shape, axes=range(grid.d))

    def convolve_density(self, values: np.ndarray) -> np.ndarray:
        """Spectral convolution (kernel * density) on the grid."""
        if values.shape != self.grid.shape:
            raise GridMismatch("density shape does not match kernel grid")
        prod = self.hat * np.fft.rfftn(values)
        out = np.fft.irfftn(prod, s=self.grid.shape, axes=range(self.grid.d))
        return out * self.grid.cell_volume


def deposit(measure: EmpiricalMeasure, kernel: Kernel, grid: GridSpec) -> np.ndarray:
    """Mollified empirical measure on the grid: sum_a w_a * kernel(node - x_a).

    Spectral: the inverse FFT of kernel.hat * conj(sum_a w_a e^{ikx_a}).  The
    atom sum is an einsum in the canonical (lineage) atom order, not a BLAS
    product, whose order can follow its thread count; so deposits are
    bit-reproducible.
    """
    if kernel.grid != grid:
        raise GridMismatch("kernel was built for a different grid")
    if not (np.all(np.isfinite(measure.positions)) and np.all(np.isfinite(measure.weights))):
        raise NonFiniteAtom("deposit received non-finite atoms")
    if len(measure.weights) == 0:
        return np.zeros(grid.shape)
    table = _phase_table(grid, grid.wrap(measure.positions))
    table[0] *= measure.weights[:, None]
    axes = "ij"[:grid.d]
    spectrum = np.einsum(",".join("a" + ax for ax in axes) + "->" + axes, *table)
    return np.fft.irfftn(kernel.hat * spectrum.conj(), s=grid.shape,
                         axes=range(grid.d))


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


# ---------------------------------------------------------------------------
# Snapshot export

_MAGIC = b"CBF1"


def field_to_bytes(field: Field) -> bytes:
    """Compact binary: magic, d, n (int32 LE), L, t (float64 LE), row-major payload."""
    head = _MAGIC + struct.pack("<ii", field.grid.d, field.grid.n)
    head += struct.pack("<dd", field.grid.extent, field.time)
    return head + field.values.astype("<f8").tobytes(order="C")


def field_to_csv_lines(field: Field) -> list[str]:
    cols = "x,value" if field.grid.d == 1 else "x,y,value"
    return [cols] + join_columns(
        (*field.grid.node_coords().T, field.values.ravel(order="C")), sep=",")
