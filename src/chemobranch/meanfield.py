"""Mean-field models: single-line hybrid branching and the (X, M) ensemble.

Two interchangeable representations of the limiting mean measure are
provided: the expected empirical measure of a single-line branching diffusion
driven by a deterministic field (``simulate_hybrid``), and the mass-weighted
law of one particle (X, M) whose mass grows at the net rate
lambda = lambda_b - lambda_d, simulated as a replica ensemble
(``simulate_mass_ensemble``).  Both consume the same deterministic field
path, which is produced either by the macroscopic solver (default, cheap) or
by fixed-point iteration on the mild field equation with mass ensembles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyEnsemble, NonFiniteState, PicardStalled
from .field import Field, FieldPath, deposit, semigroup_step
from .microscopic import MicroTrajectory, ModelParams, simulate_lines
from .population import EmpiricalMeasure, mean_se
from .randomness import NoiseUniverse

MODES = ("macroscopic", "picard")  # how solve_selfconsistent_field finds the field


def simulate_hybrid(params: ModelParams, rho_path: FieldPath,
                    universe: NoiseUniverse, line: int = 1) -> MicroTrajectory:
    """Single-line branching diffusion against a frozen deterministic field.

    Uses exactly the Wiener and clock streams of ``line`` in ``universe``, so
    with the field path of a coupled run substituted verbatim this reproduces
    that run's line bitwise.
    """
    return simulate_lines(params, [line], universe, rho_path=rho_path)


@dataclass(frozen=True)
class MassEnsemble:
    """Stacked (X, M) replicas stored at selected times; M(0) = 1.

    The ensemble estimates the mean measure as
    mu_t = (1/K) sum_k M_k(t) delta_{X_k(t)} over its K replicas.
    """

    replica_ids: tuple[int, ...]
    times: np.ndarray
    X: np.ndarray  # (K, n_times, d)
    M: np.ndarray  # (K, n_times)

    def pairing_stats(self, phi, t_index: int) -> tuple[float, float]:
        """Mean and standard error of <phi, mu_t> over replicas."""
        vals = self.M[:, t_index] * np.asarray(phi(self.X[:, t_index]))
        return mean_se(vals)


_BLOCK = 64  # steps of Wiener increments prefetched per refill


def simulate_mass_ensemble(params: ModelParams, rho_path: FieldPath,
                           universe: NoiseUniverse, replicas,
                           store_times: np.ndarray | None = None) -> MassEnsemble:
    """Vectorized (X, M) replicas: Euler-Maruyama for X, exponential Euler for M.

    The mass update M <- M * exp(lambda(X, rho) dt) is exact for constant
    rates; lambda is evaluated where the branching models evaluate their
    clock-event rates, so the two mean-measure estimators share discretization
    conventions.
    """
    if isinstance(replicas, int):
        replica_ids = tuple(range(1, replicas + 1))
    else:
        replica_ids = tuple(int(r) for r in replicas)
    K = len(replica_ids)
    if K == 0:
        raise EmptyEnsemble("mass ensemble needs at least one replica")
    p = params
    d, dt, L = p.grid.d, p.dt, p.grid.extent
    n_steps = p.n_steps
    if rho_path.t_end + 1e-9 < p.T:
        raise ValueError("field path does not cover [0, T]")

    birth_fn = p.birth.build(L)
    death_fn = p.death.build(L)
    drift_fn = None if p.drift.is_zero else p.drift.build(d)
    needs_rho = "logistic" in (p.birth.kind, p.death.kind)

    all_times = p.times()
    if store_times is None:
        store_times = all_times
    store_idx = {}
    for t in np.asarray(store_times, dtype=np.float64):
        k = int(round(t / dt))
        if not (0 <= k <= n_steps and abs(all_times[k] - t) < 1e-9):
            raise ValueError(f"store time {t} is not on the step grid")
        store_idx[k] = len(store_idx)

    X = np.stack([p.mu0.sample(universe, rid, d, L) for rid in replica_ids])
    M = np.ones(K)
    Xs = np.zeros((K, len(store_idx), d))
    Ms = np.zeros((K, len(store_idx)))
    if 0 in store_idx:
        Xs[:, store_idx[0]] = X
        Ms[:, store_idx[0]] = M

    inc_block = None
    for k in range(n_steps):
        if k % _BLOCK == 0:
            hi = min(k + _BLOCK, n_steps)
            inc_block = np.stack([universe.mass_increments(rid, k, hi, dt)
                                  for rid in replica_ids])
        t = k * dt
        rho = rho_path.field_at(t)
        if drift_fn is not None:
            X = X + drift_fn(X, rho.gradient_at(X)) * dt
        X = np.mod(X + p.sigma * inc_block[:, k % _BLOCK], L)
        if not np.all(np.isfinite(X)):
            raise NonFiniteState(f"non-finite mass-particle position at t={t + dt}")
        # rate at the end-of-substep position with the substep-start field,
        # the same convention the branching engine applies at clock events
        rho_vals = p.rate_argument(rho, X) if needs_rho else np.zeros(K)
        lam = birth_fn(X, rho_vals) - death_fn(X, rho_vals)
        M = M * np.exp(lam * dt)
        if k + 1 in store_idx:
            Xs[:, store_idx[k + 1]] = X
            Ms[:, store_idx[k + 1]] = M

    return MassEnsemble(replica_ids, np.asarray(store_times, dtype=np.float64),
                        Xs, Ms)


@dataclass(frozen=True)
class SelfConsistentField:
    """Deterministic field path with provenance for the two solve modes."""

    rho_path: FieldPath
    p_path: FieldPath | None
    mode: str
    picard_gaps: tuple[float, ...] = ()


def rebuild_field_path(params: ModelParams, source_at) -> FieldPath:
    """Advance the field one full step at a time with frozen sources.

    ``source_at(k)`` returns the grid source for the step ending at step k;
    this is the same per-step convention the particle models use, so fields
    built here couple bitwise with simulation fields in degenerate cases.
    """
    p = params
    rho = p.make_rho0()
    slices = [rho]
    for k in range(1, p.n_steps + 1):
        src = source_at(k) if p.alpha != 0.0 else None
        rho = semigroup_step(rho, src, p.dt, p.D, p.r, p.alpha)
        slices.append(rho)
    return FieldPath.from_fields(slices)


def solve_selfconsistent_field(params: ModelParams, mode: str = "macroscopic",
                               universe: NoiseUniverse | None = None,
                               n_replicas: int = 2000, tol: float = 1e-4,
                               max_iters: int = 25) -> SelfConsistentField:
    """Compute the deterministic field driven by its own mean measure.

    mode "macroscopic": solve the coupled density/field PDE system, then
    replay the field with per-step frozen sources kernel*p so it matches the
    particle models' stepping convention.  mode "picard": fix a field path,
    simulate an (X, M) ensemble against it, rebuild the field from the
    estimated mean measure, and iterate to the fixed point (common random
    numbers make the map deterministic, so the gaps contract to round-off).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    p = params
    kernel = p.make_kernel()
    if mode == "macroscopic":
        from .macroscopic import solve_pks

        sol = solve_pks(p)
        rho_path = rebuild_field_path(
            p, lambda k: kernel.convolve_density(sol.p_path.values[k]))
        return SelfConsistentField(rho_path, sol.p_path, mode)

    if universe is None:
        raise ValueError("picard mode needs a universe for its ensembles")

    mass_universe = universe.child("picard")
    rho_path = rebuild_field_path(p, lambda k: None)  # free evolution start
    gaps: list[float] = []
    for _ in range(max_iters):
        ens = simulate_mass_ensemble(p, rho_path, mass_universe, n_replicas)
        sources = []
        for k in range(p.n_steps + 1):
            mu = EmpiricalMeasure(ens.X[:, k], ens.M[:, k] / len(ens.replica_ids))
            sources.append(deposit(mu, kernel, p.grid))
        new_path = rebuild_field_path(p, lambda k: sources[k])
        gap = 0.0
        for k in range(p.n_steps + 1):
            a = Field(p.grid, rho_path.values[k])
            b = Field(p.grid, new_path.values[k])
            dv = float(np.max(np.abs(a.values - b.values)))
            dg = float(max(np.max(np.abs(ga - gb)) for ga, gb in
                           zip(a.gradient_grid(), b.gradient_grid())))
            gap = max(gap, dv + dg)
        rho_path = new_path
        if len(gaps) >= 2 and gap > gaps[-1]:
            raise PicardStalled(
                f"field iteration gap grew to {gap:.3e}", gaps + [gap])
        gaps.append(gap)
        if gap < tol:
            return SelfConsistentField(rho_path, None, mode, tuple(gaps))
    raise PicardStalled(
        f"no contraction below {tol:.1e} after {max_iters} iterations "
        f"(last gap {gaps[-1]:.3e})", gaps)
