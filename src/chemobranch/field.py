"""Chemoattractant field on a periodic grid.

The spatial domain is the torus [0, L)^d (d = 1 or 2), discretized on n
(power of two) nodes per axis.  The linear part of the field dynamics,
d/dt rho = D*Lap(rho) - r*rho + alpha*source, is advanced with the exact
spectral semigroup: mode k decays by exp(-(D|k|^2+r)dt) and a source frozen
over the step enters through the exact Duhamel multiplier
(1 - exp(-(D|k|^2+r)dt)) / (D|k|^2+r).

Off-grid work is a nonuniform DFT evaluated mode-major, in O(m) memory for
m points: each point contributes z = e^{2 pi i x/L} per axis, and the sums
over the modes of the last (rfft) axis run as Horner's rule in z over
``_STRANDS`` interleaved strands (``_horner``).  Point evaluation is
trigonometric interpolation; the gradient is the exact gradient of that
interpolant, so value/gradient form a consistent pair.  The deposit of a
measure is the kernel's Fourier multiplier times the conjugated atom sums
sum_a w_a z_a^j, built by the same recurrence run over the atoms, then one
inverse FFT.  In 2-D the leading (full) axis keeps one e^{ikx} table per
point (``_leading_table``).  A point's z comes from ``point_phases`` alone,
which checks and wraps the point first; a caller that reads the field at
the same points more than once computes them once and passes them as
``phases``.  A point's value is computed by elementwise operations in a
fixed order, so it does not depend on the batch of points it is evaluated
in; sums over atoms are numpy reductions, never BLAS products, whose
summation order can follow the BLAS thread count.
"""

from __future__ import annotations

import functools
import math
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
        if not (self.extent > 0 and math.isfinite(self.extent * self.extent)):
            raise ConfigInvalid("extent", "must be positive with a finite square, "
                                          f"got {self.extent}")

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
            self._coef = grid_rfft(self.values)
        return self._coef

    def _interpolate(self, points: np.ndarray, factors: np.ndarray,
                     phases: np.ndarray | None) -> np.ndarray:
        """Interpolants at the points of the spectrum times each row of
        ``factors`` (``_interpolation_factors``), (m, len(factors))."""
        coef = np.moveaxis(self._coefficients() * factors, -1, 0)
        z = point_phases(self.grid, points) if phases is None else phases
        lead = _leading_table(self.grid, z)
        out = np.empty((len(factors), z.shape[1]))
        for lo in range(0, z.shape[1], _CHUNK):
            sl = slice(lo, lo + _CHUNK)
            out[:, sl] = _horner(self.grid, coef, z[-1, sl],
                                 None if lead is None else lead[:, sl])
        return out.T

    def value_at(self, points: np.ndarray, *,
                 phases: np.ndarray | None = None) -> np.ndarray:
        """Trigonometric interpolant at arbitrary points, shape (m,);
        ``phases`` are the points' ``point_phases`` when the caller holds
        them."""
        return self._interpolate(points, _interpolation_factors(self.grid)[:1],
                                 phases)[:, 0]

    def gradient_at(self, points: np.ndarray, *,
                    phases: np.ndarray | None = None) -> np.ndarray:
        """Exact gradient of the interpolant used by value_at, shape (m, d);
        ``phases`` as in ``value_at``."""
        return self._interpolate(points, _interpolation_factors(self.grid)[1:],
                                 phases)

    def gradient_grid(self) -> list[np.ndarray]:
        """Spectral gradient sampled on the grid, one array per axis."""
        return [grid_irfft(ik * self._coefficients(), self.grid)
                for ik in _gradient_multipliers(self.grid)]


def grid_rfft(values: np.ndarray) -> np.ndarray:
    """``np.fft.rfftn`` of grid values; in 1-D through ``np.fft.rfft``,
    which gives the same bytes with less wrapper cost."""
    return np.fft.rfft(values) if values.ndim == 1 else np.fft.rfftn(values)


def grid_irfft(hat: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Grid values of the rfftn-layout spectrum ``hat``, the inverse of
    ``grid_rfft``."""
    if grid.d == 1:
        return np.fft.irfft(hat, n=grid.n)
    return np.fft.irfftn(hat, s=grid.shape, axes=range(grid.d))


@functools.lru_cache(maxsize=16)
def _interpolation_factors(grid: GridSpec) -> np.ndarray:
    """Per-mode factors on the rfftn layout that turn the spectrum into the
    interpolant's coefficients: row 0 for the value, then i k per axis for
    the gradient.  Each mode of the last axis but 0 and n/2 stands for its
    conjugate too, so weighs 2/n^d, and those two weigh 1/n^d."""
    h = grid.n // 2
    weight = np.full(h + 1, 2.0 / grid.n ** grid.d)
    weight[[0, h]] /= 2.0
    shape = grid.shape[:-1] + (h + 1,)
    rows = [weight + 0j] + [1j * k * weight for k in _wavenumbers(grid)]
    factors = np.stack([np.broadcast_to(row, shape) for row in rows])
    factors.flags.writeable = False
    return factors


@functools.lru_cache(maxsize=16)
def _gradient_multipliers(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """i k per axis on the rfftn layout, read-only, with mode n/2 at 0: its
    slope is 0 at every node."""
    out = []
    for k in _wavenumbers(grid):
        k = k.copy()
        k.flat[grid.n // 2] = 0.0
        ik = 1j * k
        ik.flags.writeable = False
        out.append(ik)
    return tuple(out)


def _wavenumbers(grid: GridSpec) -> list[np.ndarray]:
    """Per-axis wavenumbers broadcasting on the rfftn layout, in numpy fft
    order (mode n/2 counts as -n/2); the last axis keeps n/2 + 1 of them."""
    k = grid.axis_wavenumbers()
    if grid.d == 1:
        return [k[:grid.n // 2 + 1]]
    return [k[:, None], k[None, :grid.n // 2 + 1]]


_STRANDS = 8  # interleaved Horner strands on the last axis
_CHUNK = 2048  # points per pass of the kernel, so that its arrays stay in cache


def point_phases(grid: GridSpec, points: np.ndarray) -> np.ndarray:
    """z = e^{2 pi i x/L} at the points (m, d) wrapped onto the torus, shape
    (d, m), which point evaluation and the deposit read; ``NonFiniteQuery``
    if a point is not finite or has the wrong dimension.  The one way to
    get a point's phases, so they are computed alike wherever they are."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.shape[1] != grid.d:
        raise NonFiniteQuery(f"query dimension {pts.shape[1]} != {grid.d}")
    if not np.all(np.isfinite(pts)):
        raise NonFiniteQuery("field evaluated at non-finite point")
    return _unit_phases(grid, grid.wrap(pts))


def _unit_phases(grid: GridSpec, points: np.ndarray) -> np.ndarray:
    """z = e^{2 pi i x/L} at the (wrapped) points, shape (d, m): one complex
    exp per point and axis."""
    return np.exp(2j * np.pi / grid.extent * np.ascontiguousarray(points.T))


def _squares(grid: GridSpec, z: np.ndarray) -> list[np.ndarray]:
    """z, z^2, z^4, ..., z^S by squaring, for S = min(_STRANDS, n/2)
    strands; both powers of two, so S divides n/2."""
    squares = [z]
    while 2 ** len(squares) <= min(_STRANDS, grid.n // 2):
        squares.append(squares[-1] * squares[-1])
    return squares


def _leading_table(grid: GridSpec, z: np.ndarray) -> np.ndarray | None:
    """In 2-D, e^{ikx} on the leading (full) axis, shape (n, m), modes in
    numpy fft order with n/2 counted as -n/2; None in 1-D."""
    if grid.d == 1:
        return None
    n, h = grid.n, grid.n // 2
    table = np.empty((n, z.shape[1]), dtype=np.complex128)
    table[0] = 1.0
    for i in range(1, h + 1):
        np.multiply(table[i - 1], z[0], out=table[i])
    table[h] = table[h].conj()
    table[h + 1:] = table[h - 1:0:-1].conj()
    return table


def _horner(grid: GridSpec, coef: np.ndarray, z: np.ndarray,
            lead: np.ndarray | None) -> np.ndarray:
    """Re sum_j coef[j] z^j over the last axis's modes j, (q, m): ``coef``
    is (n/2 + 1, q[, n]), with the leading axis summed against ``lead`` in
    2-D.  Horner's rule in z^strands, mode j on strand j % strands.  Only
    the real part is kept, and Re(c z^-h) is Re(conj(c) z^h), so mode n/2
    (counted as -n/2) tops strand 0."""
    h, q, m = grid.n // 2, coef.shape[1], len(z)
    # the q sums at the m points run as q*m points on one axis, so every
    # complex product is of two contiguous arrays of one shape, which numpy
    # rounds alike at every position and length
    zq = np.tile(z, q)
    squares = _squares(grid, zq)
    strands = 2 ** (len(squares) - 1)
    step = np.empty((strands, q * m), dtype=np.complex128)
    step[...] = squares[-1]
    acc = np.zeros((strands, q * m), dtype=np.complex128)
    blocks = acc.reshape(strands, q, m)
    blocks[0] = _at_points(coef[h:], lead)[0].conj()
    for j in range(h - strands, -1, -strands):
        acc *= step
        blocks += _at_points(coef[j:j + strands], lead)
    out = acc[-1]
    for s in range(strands - 2, -1, -1):  # sum_s z^s acc[s], by Horner
        out = out * zq + acc[s]
    return out.reshape(q, m).real


def _at_points(coef: np.ndarray, lead: np.ndarray | None) -> np.ndarray:
    """Coefficients (k, q[, n]) of k last-axis modes as their values at the
    points, (k, q, m): in 2-D summed against the leading table mode by mode
    in real arithmetic, whose products round alike in any array layout; in
    1-D the same at every point, (k, q, 1)."""
    if lead is None:
        return coef[..., None]
    times_i = np.empty_like(lead)
    times_i.real, times_i.imag = -lead.imag, lead.real
    out = np.zeros(coef.shape[:2] + lead.shape[1:], dtype=np.complex128)
    pairs = out.view(np.float64)  # real and imaginary parts interleaved
    for i, (e, ie) in enumerate(zip(lead.view(np.float64),
                                    times_i.view(np.float64))):
        pairs += coef[..., i, None].real * e
        pairs += coef[..., i, None].imag * ie
    return out


def _atom_sums(terms: np.ndarray, lead: np.ndarray | None) -> np.ndarray:
    """sum_a terms[s, a], times the leading table in 2-D: (k,) or (n, k)."""
    if lead is None:
        return terms.sum(axis=-1)
    return np.einsum("ia,sa->is", lead, terms)


class Kernel:
    """Periodized Gaussian mollifier of unit mass on the torus, held as its
    Fourier multiplier: ``hat`` = exp(-w^2|k|^2/2) / dx^d on the rfftn
    layout, whose inverse FFT is the kernel at the nodes.  The modes beyond
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

    def convolve_density(self, values: np.ndarray) -> np.ndarray:
        """Spectral convolution (kernel * density) on the grid."""
        if values.shape != self.grid.shape:
            raise GridMismatch("density shape does not match kernel grid")
        return (grid_irfft(self.hat * grid_rfft(values), self.grid)
                * self.grid.cell_volume)


def deposit(measure: EmpiricalMeasure, kernel: Kernel, grid: GridSpec, *,
            phases: np.ndarray | None = None) -> np.ndarray:
    """Mollified empirical measure on the grid: sum_a w_a * kernel(node - x_a).

    Spectral: the inverse FFT of kernel.hat * conj(sum_a w_a e^{ikx_a}), the
    atom sums taken mode by mode in the canonical (lineage) atom order, never
    through a BLAS product, whose order can follow its thread count; so
    deposits are bit-reproducible.  ``phases`` are the atoms'
    ``point_phases`` when the caller holds them.
    """
    if kernel.grid != grid:
        raise GridMismatch("kernel was built for a different grid")
    if not (np.all(np.isfinite(measure.positions)) and np.all(np.isfinite(measure.weights))):
        raise NonFiniteAtom("deposit received non-finite atoms")
    if len(measure.weights) == 0:
        return np.zeros(grid.shape)
    z = point_phases(grid, measure.positions) if phases is None else phases
    lead = _leading_table(grid, z)
    squares = _squares(grid, z[-1])
    terms = np.empty((2 ** (len(squares) - 1), z.shape[1]), dtype=np.complex128)
    terms[0] = measure.weights
    for i, zz in enumerate(squares[:-1]):  # w_a z_a^s for s < strands
        np.multiply(terms[:2 ** i], zz, out=terms[2 ** i:2 ** (i + 1)])
    sums = []
    for _ in range(0, grid.n // 2, len(terms)):
        sums.append(_atom_sums(terms, lead))
        terms *= squares[-1]
    sums.append(_atom_sums(terms[:1].conj(), lead))  # mode n/2 counts as -n/2
    spectrum = np.concatenate(sums, axis=-1)
    return grid_irfft(kernel.hat * spectrum.conj(), grid)


def semigroup_step(rho: Field, source: np.ndarray | None, dt: float, D: float,
                   r: float, alpha: float) -> Field:
    """One exact mild-solution step with the source frozen over [t, t+dt].

    rho_{t+dt} = S_dt rho_t + alpha * J_dt source, applied mode-by-mode with
    S multiplier exp(-(D|k|^2+r)dt) and J multiplier (1-S)/(D|k|^2+r).
    ``rho``'s spectrum is reused when it holds one; none is attached to it.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = rho.grid
    a, decay, gain = _semigroup_multipliers(grid, D, r, dt)
    hat = (grid_rfft(rho.values) if rho._coef is None else rho._coef) * decay
    if source is not None and alpha != 0.0:
        if np.asarray(source).shape != grid.shape:
            raise GridMismatch("source shape does not match field grid")
        hat = hat + alpha * grid_rfft(source) * gain / a
    return Field(grid, grid_irfft(hat, grid), rho.time + dt)


@functools.lru_cache(maxsize=32)
def _semigroup_multipliers(grid: GridSpec, D: float, r: float,
                           dt: float) -> tuple[np.ndarray, ...]:
    """a = D|k|^2 + r, S = exp(-a dt) and 1 - S on the rfftn layout,
    read-only."""
    a = D * grid.rfft_k2() + r
    decay = np.exp(-a * dt)
    out = (a, decay, 1.0 - decay)
    for arr in out:
        arr.flags.writeable = False
    return out


def check_path(path: tuple[Field, ...], dt: float, n_steps: int):
    """Raise ValueError unless field k of ``path`` is at k·dt for
    k = 0..n_steps."""
    if len(path) <= n_steps or not np.allclose(
            [f.time for f in path[:n_steps + 1]], np.arange(n_steps + 1) * dt):
        raise ValueError(f"field path is not stored at the {n_steps} "
                         f"steps of length {dt}")


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
