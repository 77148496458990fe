"""Mean-field models: single-line hybrid branching and the (X, M) ensemble.

Two interchangeable representations of the limiting mean measure are
provided: the expected empirical measure of a single-line branching diffusion
driven by a deterministic field (``simulate_hybrid``), and the mass-weighted
law of one particle (X, M) whose mass grows at the net rate
lambda = lambda_b - lambda_d, simulated as a replica ensemble
(``simulate_mass_ensemble``).  Both consume the same deterministic field
path, a tuple of ``Field`` with field k at checkpoint k, which is produced
either by the macroscopic solver (default, cheap) or by fixed-point
iteration on the mild field equation with mass ensembles.  Both step as
the coupled engine does (``ModelParams``).

Neither keeps a trajectory: each hands its state at every checkpoint to
the caller's observer and returns only what it holds at the end, so the
ensemble's memory follows the number of replicas, not the number of steps.
The Picard iteration deposits each step's source in its observer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyEnsemble, PicardStalled
from .field import Field, check_path, deposit, point_phases, semigroup_step
from .microscopic import (WIENER_BLOCK, MicroTrajectory, ModelParams,
                          simulate_lines)
from .population import EmpiricalMeasure
from .randomness import NoiseUniverse

MODES = ("macroscopic", "picard")  # how solve_selfconsistent_field finds the field


def simulate_hybrid(params: ModelParams, rho_path: tuple[Field, ...],
                    universe: NoiseUniverse, *, observe=None) -> MicroTrajectory:
    """Single-line branching diffusion against a deterministic field path,
    field k at checkpoint k.

    Uses exactly the Wiener and clock streams of line 1 in ``universe``, so
    with the field path of a coupled run substituted verbatim this reproduces
    that run's first line bitwise.  ``observe`` as in ``simulate_lines``.
    """
    return simulate_lines(params, [1], universe, rho_path=rho_path,
                          observe=observe)


@dataclass(frozen=True)
class MassEnsemble:
    """The (X, M) replicas 1..K at the final time: X (K, d), M (K,).

    The ensemble estimates the mean measure as
    mu_t = (1/K) sum_k M_k(t) delta_{X_k(t)} over its K replicas; the
    states before the final one go to the run's observer
    (``simulate_mass_ensemble``).
    """

    replica_ids: tuple[int, ...]
    X: np.ndarray
    M: np.ndarray


def simulate_mass_ensemble(params: ModelParams, rho_path: tuple[Field, ...],
                           universe: NoiseUniverse, replicas: int, *,
                           observe=None) -> MassEnsemble:
    """Vectorized (X, M) replicas: Euler-Maruyama for X, exponential Euler for M.

    Field k of ``rho_path`` drives step k.  Replicas 1..``replicas`` start
    with M = 1; their initial positions, and each 64-step block of their
    increments, are drawn in one batch.  ``observe(k, X, M)`` is called at
    each checkpoint k = 0..n_steps in order with the replicas' positions
    (K, d) and masses (K,) at k·dt; neither array changes afterwards.  The
    run keeps no trajectory, so its memory follows the replicas, not the
    number of steps.

    The mass update M <- M * exp(lambda(X, rho) dt) is exact for constant
    rates; X moves and lambda is evaluated as and where the branching models
    move and evaluate their clock-event rates (``ModelParams``), so the two
    mean-measure estimators share discretization conventions.  The phases
    of the moved positions are computed once per step, for the rates and
    the next step's drift, and not at all when neither reads the field.
    """
    K = replicas
    if K < 1:
        raise EmptyEnsemble("mass ensemble needs at least one replica")
    replica_ids = tuple(range(1, K + 1))
    p = params
    d, dt = p.grid.d, p.dt
    n_steps = p.n_steps
    check_path(rho_path, dt, n_steps)
    birth_fn, death_fn = p.rates

    X = p.mu0.sample(universe, replica_ids, d, p.grid.extent)
    M = np.ones(K)
    if observe is not None:
        observe(0, X, M)
    reads_field = p.rates_read_field or p.drift_fn is not None
    z = None  # the phases of X

    for k in range(n_steps):
        if k % WIENER_BLOCK == 0:
            hi = min(k + WIENER_BLOCK, n_steps)
            inc_block = None  # one block held at a time
            inc_block = universe.mass_increments(replica_ids, k, hi, dt)
        if z is None and p.drift_fn is not None:
            z = point_phases(p.grid, X)
        rho = rho_path[k]
        X = p.move(X, rho, inc_block[:, k % WIENER_BLOCK], (k + 1) * dt,
                   phases=z)
        if reads_field:
            z = point_phases(p.grid, X)
        # rate at the end-of-substep position with the substep-start field,
        # the same convention the branching engine applies at clock events
        arg = p.rate_argument(rho, X, phases=z)
        lam = birth_fn(X, arg) - death_fn(X, arg)
        M = M * np.exp(lam * dt)
        if observe is not None:
            observe(k + 1, X, M)

    return MassEnsemble(replica_ids, X, M)


@dataclass(frozen=True)
class SelfConsistentField:
    """Deterministic field path, field k at checkpoint k; the density path
    of the macroscopic mode, or the gaps of the Picard mode."""

    rho_path: tuple[Field, ...]
    p_path: tuple[Field, ...] | None
    picard_gaps: tuple[float, ...] = ()


def rebuild_field_path(params: ModelParams, source_at) -> tuple[Field, ...]:
    """Advance the field one full step at a time with frozen sources.

    ``source_at(k)`` returns the grid source for the step ending at step k,
    and is called for k = 1..n_steps in order, or never when alpha = 0;
    this is the same per-step convention the particle models use, so fields
    built here couple bitwise with simulation fields in degenerate cases.
    """
    p = params
    rho = p.rho0.sample(p.grid)
    path = [rho]
    for k in range(1, p.n_steps + 1):
        src = source_at(k) if p.alpha != 0.0 else None
        rho = semigroup_step(rho, src, p.dt, p.D, p.r, p.alpha)
        path.append(rho)
    return tuple(path)


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
            p, lambda k: kernel.convolve_density(sol.p_path[k].values))
        return SelfConsistentField(rho_path, sol.p_path)

    if universe is None:
        raise ValueError("picard mode needs a universe for its ensembles")

    mass_universe = universe.child("picard")
    rho_path = rebuild_field_path(p, lambda k: None)  # free evolution start
    gaps: list[float] = []
    for _ in range(max_iters):
        sources = [None]  # the source of the step ending at step k

        def observe(k, X, M):
            if k and p.alpha != 0.0:
                sources.append(deposit(
                    EmpiricalMeasure(X, M / n_replicas), kernel, p.grid))

        simulate_mass_ensemble(p, rho_path, mass_universe, n_replicas,
                               observe=observe)
        new_path = rebuild_field_path(p, sources.__getitem__)
        gap = 0.0
        for a, b in zip(rho_path, new_path):
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
            return SelfConsistentField(rho_path, None, tuple(gaps))
    raise PicardStalled(
        f"no contraction below {tol:.1e} after {max_iters} iterations "
        f"(last gap {gaps[-1]:.3e})", gaps)
