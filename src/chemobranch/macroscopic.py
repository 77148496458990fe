"""Deterministic solver for the nonconservative chemotaxis system.

Advances the density p and field rho by palindromic Strang splitting:

    rho half-step (exact semigroup, source kernel*p frozen at the left state)
    p:  diffusion dt/2 | advection dt/2 | reaction dt | advection dt/2 | diffusion dt/2
    rho half-step (source frozen at the right state)

Diffusion is exact in spectral space, the proliferation reaction is an exact
pointwise exponential, and advection by the particle drift b(x, grad rho)
uses either conservative first-order upwind fluxes (positivity preserving
under CFL <= 1) or a conservative semi-Lagrangian step with spectral
interpolation and Jacobian weights (second order, preferred at large CFL).
The density diffuses with coefficient sigma^2/2 and is transported with the
drift, matching the particle generator (sigma^2/2) Lap + b . grad for any
sigma, the drift and rates being the particle step's (``ModelParams``).
The two advection half-steps of a Strang step share its velocity, so its
departure map (departure points, their phases and the Jacobian) is built
once per step, and the diffusion and semigroup multipliers once per
(grid, coefficient, dt).
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .errors import CFLViolation
from .field import Field, grid_irfft, grid_rfft, point_phases, semigroup_step
from .microscopic import ModelParams


@functools.lru_cache(maxsize=32)
def _heat_multiplier(grid, nu: float, dt: float) -> np.ndarray:
    """exp(-nu |k|^2 dt) on the rfftn layout, read-only."""
    mult = np.exp(-nu * grid.rfft_k2() * dt)
    mult.flags.writeable = False
    return mult


def _diffuse(grid, values: np.ndarray, nu: float, dt: float) -> np.ndarray:
    if nu == 0.0 or dt == 0.0:
        return values
    return grid_irfft(grid_rfft(values) * _heat_multiplier(grid, nu, dt), grid)


def _advect_upwind(grid, values: np.ndarray, vel: list[np.ndarray],
                   dt: float) -> np.ndarray:
    """Conservative first-order upwind step for d/dt p + div(v p) = 0."""
    dx = grid.dx
    cfl = sum(np.abs(v) for v in vel).max() * dt / dx
    if cfl > 1.0:
        raise CFLViolation(
            f"upwind CFL {cfl:.3f} > 1", required_dt=dt / cfl)
    out = values.copy()
    for ax, v in enumerate(vel):
        v_face = 0.5 * (v + np.roll(v, -1, axis=ax))  # at face j+1/2
        up = np.maximum(v_face, 0.0) * values
        dn = np.minimum(v_face, 0.0) * np.roll(values, -1, axis=ax)
        flux = up + dn
        out = out - (dt / dx) * (flux - np.roll(flux, 1, axis=ax))
    return out


def _semi_lagrangian(grid, vel: list[np.ndarray], dt: float):
    """Conservative semi-Lagrangian step by ``vel`` over dt as a function
    of the density: p_new = p(departure) * |J|.

    Departure feet use one midpoint iteration; the Jacobian of the departure
    map comes from spectral derivatives of the (periodic) displacement.  The
    map, with the phases of its departure points, is built here once and
    serves every density it is applied to; ``NonFiniteQuery`` if a midpoint
    or departure point is not finite.
    """
    nodes = grid.node_coords()
    vnode = np.stack([v.ravel() for v in vel], axis=1)
    mid = grid.wrap(nodes - 0.5 * dt * vnode)
    z_mid = point_phases(grid, mid)
    vmid = np.stack([Field(grid, v).value_at(mid, phases=z_mid) for v in vel],
                    axis=1)
    disp = -dt * vmid  # displacement to departure point, periodic in x
    dep = grid.wrap(nodes + disp)
    z_dep = point_phases(grid, dep)

    # J = det(I + d(disp)/dx), spectral derivatives of each component
    if grid.d == 1:
        du = Field(grid, disp[:, 0].reshape(grid.shape)).gradient_grid()[0]
        jac = 1.0 + du.ravel()
    else:
        d00 = Field(grid, disp[:, 0].reshape(grid.shape)).gradient_grid()
        d11 = Field(grid, disp[:, 1].reshape(grid.shape)).gradient_grid()
        jac = ((1.0 + d00[0]) * (1.0 + d11[1]) - d00[1] * d11[0]).ravel()

    def advect(values: np.ndarray) -> np.ndarray:
        p_dep = Field(grid, values).value_at(dep, phases=z_dep)
        return (p_dep * jac).reshape(grid.shape)
    return advect


def _advection(grid, vel, dt, scheme: str):
    """The advection step by ``vel`` over dt, as a function of the density,
    by ``scheme`` ("auto" picks by the CFL number)."""
    if all(np.all(v == 0.0) for v in vel):
        return lambda values: values
    if scheme == "auto":
        cfl = sum(np.abs(v) for v in vel).max() * dt / grid.dx
        scheme = "semi_lagrangian" if cfl > 0.8 else "upwind"
    if scheme == "upwind":
        return lambda values: _advect_upwind(grid, values, vel, dt)
    return _semi_lagrangian(grid, vel, dt)


@dataclass(frozen=True)
class PksSolution:
    """Density and field paths on the step grid, field k at ``times[k]``."""

    times: np.ndarray
    p_path: tuple[Field, ...]
    rho_path: tuple[Field, ...]

    def mass(self) -> np.ndarray:
        return np.array([np.sum(f.values) * f.grid.cell_volume
                         for f in self.p_path])


def solve_pks(params: ModelParams) -> PksSolution:
    """Solve the coupled density/field system on [0, T] with step dt."""
    p = params
    grid = p.grid
    dt, n_steps, scheme = p.dt, p.n_steps, p.advection

    kernel = p.make_kernel()
    birth_fn, death_fn = p.rates
    nodes = grid.node_coords()
    nu = 0.5 * p.sigma ** 2

    dens = p.mu0.density(grid)
    rho = p.rho0.sample(grid)
    p_slices = [dens]
    rho_slices = [rho.values]
    for k in range(n_steps):
        rho = semigroup_step(rho, kernel.convolve_density(dens), 0.5 * dt,
                             p.D, p.r, p.alpha)
        arg = p.rate_argument(rho)
        lam = (birth_fn(nodes, arg) - death_fn(nodes, arg)).reshape(grid.shape)
        if p.drift_fn is not None:
            grads = np.stack([g.ravel() for g in rho.gradient_grid()], axis=1)
            bvals = p.drift_fn(nodes, grads)
            # transport velocity equals the particle drift: the density obeys
            # d/dt p = ... - div(p b), the Fokker-Planck form of dX = b dt
            vel = [bvals[:, ax].reshape(grid.shape) for ax in range(grid.d)]
        else:
            vel = [np.zeros(grid.shape)] * grid.d

        advect = _advection(grid, vel, 0.5 * dt, scheme)  # both half-steps
        dens = _diffuse(grid, dens, nu, 0.5 * dt)
        dens = advect(dens)
        dens = dens * np.exp(lam * dt)
        dens = advect(dens)
        dens = _diffuse(grid, dens, nu, 0.5 * dt)

        rho = semigroup_step(rho, kernel.convolve_density(dens), 0.5 * dt,
                             p.D, p.r, p.alpha)
        p_slices.append(dens)
        rho_slices.append(rho.values)

    times = p.times()
    return PksSolution(
        times, tuple(Field(grid, v, t) for v, t in zip(p_slices, times)),
        tuple(Field(grid, v, t) for v, t in zip(rho_slices, times)))


def order_check(params: ModelParams, sol: PksSolution) -> dict:
    """The Strang order observed over a dt-halving triplet on the configured
    problem, ``sol`` being its solution at dt, and the verdict that it lies
    in [1.8, 2.2]: ``{"observed_order": ..., "pass": ...}``; the order is
    None (JSON null), and fails, when an error is 0."""
    finals = [sol.p_path[-1].values] + [
        solve_pks(dataclasses.replace(params, dt=params.dt / 2 ** j))
        .p_path[-1].values for j in (1, 2)]
    e1 = np.max(np.abs(finals[0] - finals[1]))
    e2 = np.max(np.abs(finals[1] - finals[2]))
    order = float(np.log2(e1 / e2)) if e1 > 0 and e2 > 0 else None
    return {"observed_order": order,
            "pass": order is not None and 1.8 <= order <= 2.2}
