"""Individual-based model: branching diffusions coupled to the grid field.

Founder lines move by Euler-Maruyama with chemotactic drift, branch or die
at Poisson-clock points thinned by the state-dependent rates, and source the
field through the mollified empirical measure.  Within each step of length dt
the order is fixed: evaluate the gradient, move every live cell, read the
field quantity the rates consume, in one batch, at the cells whose clock
rings in the step (end-of-substep positions, field at substep start),
process clock events in global time order (daughters read their mother's
value, as they sit at her position), then deposit and advance the field.
A point's field value does not depend on the batch it is read in, so the
batch holds only the cells that need it.  This order plus counter-based
noise makes every trajectory a pure function of (params, universe),
independent of thread count.

The same engine drives the single-line mean-field process by swapping the
coupled field for a frozen field path, which keeps the two models bitwise
coupled when their inputs coincide.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, NonFiniteState, NoSuchLine, PopulationExplosion
from .field import Field, FieldPath, GridSpec, Kernel, deposit, semigroup_step
from .population import EmpiricalMeasure, LineageIndex, PopulationState, empirical
from .randomness import NoiseUniverse
from .registry import DriftSpec, InitialFieldSpec, InitialMeasureSpec, RateSpec

EVENT_BRANCH = "branch"
EVENT_DEATH = "death"
ADVECTION_SCHEMES = ("auto", "upwind", "semi_lagrangian")
LAMBDA_ARGS = ("rho", "grad_rho_norm")


@dataclass(frozen=True)
class ModelParams:
    """All model constants, rate/drift selections, and discretization controls.

    Construction validates every constant and raises ``ConfigInvalid``
    naming the offending field (``width`` for the kernel width, ``mu0.at``
    for a point of ``mu0`` whose length does not fit the grid).
    """

    grid: GridSpec
    sigma: float
    D: float
    r: float
    alpha: float
    lambda_bar: float
    birth: RateSpec
    death: RateSpec
    drift: DriftSpec
    mu0: InitialMeasureSpec
    rho0: InitialFieldSpec
    dt: float
    T: float
    kernel_width: float | None = None
    population_cap: int = 1_000_000
    advection: str = "auto"
    lambda_arg: str = "rho"  # what the rates see: field value or |gradient|

    def __post_init__(self):
        for name in ("sigma", "D", "r", "lambda_bar", "dt", "T"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigInvalid(name, f"must be positive, got {value}")
        if not math.isfinite(self.sigma * self.sigma):
            raise ConfigInvalid("sigma", "must have a finite square, "
                                         f"got {self.sigma}")
        if not self.alpha >= 0:
            raise ConfigInvalid("alpha", f"must be nonnegative, got {self.alpha}")
        rate_sup = self.birth.sup() + self.death.sup()
        if rate_sup > self.lambda_bar + 1e-12:
            raise ConfigInvalid("lambda_bar", f"sup(lambda_b + lambda_d) = {rate_sup} "
                                              f"exceeds lambda_bar = {self.lambda_bar}")
        steps = self.T / self.dt
        if not (math.isfinite(steps) and round(steps) >= 1
                and abs(steps - round(steps)) <= 1e-9):
            raise ConfigInvalid("dt", f"T={self.T} is not a positive integer "
                                      f"multiple of dt={self.dt}")
        for name, allowed in (("advection", ADVECTION_SCHEMES),
                              ("lambda_arg", LAMBDA_ARGS)):
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigInvalid(name, f"must be one of {', '.join(allowed)}, "
                                          f"got {value!r}")
        for name in ("mu0", "rho0"):
            try:
                getattr(self, name).check_points(self.grid.d)
            except ConfigInvalid as exc:
                raise ConfigInvalid(f"{name}.{exc.field}", exc.reason) from None
        self.make_kernel()

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    def rate_argument(self, field, points) -> np.ndarray:
        """The field quantity rates consume at the given points."""
        if self.lambda_arg == "rho":
            return field.value_at(points)
        g = field.gradient_at(points)
        return np.sqrt(np.sum(g * g, axis=1))

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def make_kernel(self) -> Kernel:
        return Kernel(self.grid, self.kernel_width)

    def make_rho0(self) -> Field:
        return self.rho0.sample(self.grid)


@dataclass(frozen=True)
class EventRecord:
    time: float
    idx: LineageIndex
    kind: str
    position: np.ndarray


@dataclass
class MicroTrajectory:
    """Simulation output: checkpoint snapshots, field path, and event log."""

    params: ModelParams
    n0: int
    founder_lines: tuple[int, ...]
    times: np.ndarray
    states: list[PopulationState]
    fields: list[Field]
    event_log: list[EventRecord]

    def measure_at(self, k: int) -> EmpiricalMeasure:
        return empirical(self.states[k], self.n0)

    def live_counts(self) -> np.ndarray:
        return np.array([s.live_count for s in self.states])

    def sup_live_over_n0(self) -> float:
        """sup over continuous time of live count / n0, exact from the event log."""
        live = len(self.founder_lines)
        peak = live
        for ev in self.event_log:
            live += 1 if ev.kind == EVENT_BRANCH else -1
            peak = max(peak, live)
        return peak / self.n0


def lineage_restriction(traj: MicroTrajectory, line: int) -> MicroTrajectory:
    """The sub-population of one founder line, as its own trajectory."""
    if line not in traj.founder_lines:
        raise NoSuchLine(f"line {line} not among founders {traj.founder_lines}")
    return MicroTrajectory(
        params=traj.params,
        n0=traj.n0,
        founder_lines=(line,),
        times=traj.times,
        states=[s.restrict_to_line(line) for s in traj.states],
        fields=traj.fields,
        event_log=[ev for ev in traj.event_log if ev.idx.line == line],
    )


class _Engine:
    """Growable arrays of per-cell state plus the global event heap."""

    def __init__(self, params: ModelParams, universe: NoiseUniverse):
        self.p = params
        self.u = universe
        self.d = params.grid.d
        self.n_steps = params.n_steps
        cap = 64
        self.lines = np.zeros(cap, dtype=np.int64)
        self.wlens = np.zeros(cap, dtype=np.int64)
        self.wbits = np.zeros(cap, dtype=np.uint64)
        self.births = np.zeros(cap)
        self.deaths = np.full(cap, np.inf)
        self.alive = np.zeros(cap, dtype=bool)
        self.pos = np.zeros((cap, self.d))
        self.next_time = np.full(cap, np.inf)  # the cell's next clock point
        self.rate_arg = np.zeros(cap)  # what its rates read in this step
        self.inc = np.zeros((cap, self.n_steps, self.d))
        self.clock_times: list[np.ndarray | None] = [None] * cap
        self.clock_marks: list[np.ndarray | None] = [None] * cap
        self.cursor = np.zeros(cap, dtype=np.int64)
        self.count = 0
        self.n_live = 0
        self.heap: list[tuple[float, int, int, int, int]] = []
        self._canon: np.ndarray | None = None

    def _grow(self):
        cap = len(self.lines)
        new = cap * 2
        for name in ("lines", "wlens", "wbits", "births", "deaths", "alive",
                     "cursor", "next_time", "rate_arg"):
            arr = getattr(self, name)
            grown = np.zeros(new, dtype=arr.dtype)
            if name in ("deaths", "next_time"):
                grown[:] = np.inf
            grown[:cap] = arr
            setattr(self, name, grown)
        for name in ("pos", "inc"):
            arr = getattr(self, name)
            grown = np.zeros((new,) + arr.shape[1:], dtype=arr.dtype)
            grown[:cap] = arr
            setattr(self, name, grown)
        self.clock_times.extend([None] * cap)
        self.clock_marks.extend([None] * cap)

    def add_cell(self, idx: LineageIndex, position: np.ndarray, birth: float,
                 birth_step: int) -> int:
        if self.count == len(self.lines):
            self._grow()
        s = self.count
        self.count += 1
        self.lines[s] = idx.line
        self.wlens[s] = idx.word_len
        self.wbits[s] = idx.word_bits
        self.births[s] = birth
        self.deaths[s] = np.inf
        self.alive[s] = True
        self.pos[s] = position
        if birth_step < self.n_steps:
            self.inc[s, birth_step:] = self.u.wiener_increments(
                idx, birth_step, self.n_steps, self.p.dt)
        times, marks = self.u.clock_arrays(idx, self.p.T, self.p.lambda_bar)
        self.clock_times[s] = times
        self.clock_marks[s] = marks
        self.cursor[s] = times.searchsorted(birth)
        self._push_next(s)
        self.n_live += 1
        if self.n_live > self.p.population_cap:
            raise PopulationExplosion(
                f"live count {self.n_live} exceeds cap {self.p.population_cap}")
        self._canon = None
        return s

    def _push_next(self, s: int):
        c = int(self.cursor[s])
        times = self.clock_times[s]
        if c < len(times):
            self.next_time[s] = times[c]
            heapq.heappush(self.heap, (float(times[c]), int(self.lines[s]),
                                       int(self.wlens[s]), int(self.wbits[s]), s))
        else:
            self.next_time[s] = np.inf

    def kill(self, s: int, t: float):
        self.alive[s] = False
        self.deaths[s] = t
        self.n_live -= 1
        self._canon = None

    def index_of(self, s: int) -> LineageIndex:
        return LineageIndex(int(self.lines[s]), int(self.wlens[s]),
                            int(self.wbits[s]))

    def live_slots(self) -> np.ndarray:
        """Live slots sorted by (line, word length, word bits)."""
        if self._canon is None:
            live = np.flatnonzero(self.alive[:self.count])
            order = np.lexsort((self.wbits[live], self.wlens[live],
                                self.lines[live]))
            self._canon = live[order]
        return self._canon

    def snapshot(self, t: float, keep_dead: bool = True) -> PopulationState:
        if not keep_dead:
            ls = self.live_slots()
            return PopulationState(t, self.d, self.lines[ls], self.wlens[ls],
                                   self.wbits[ls], self.births[ls],
                                   self.deaths[ls], self.pos[ls],
                                   _presorted=True)
        n = self.count
        pos = np.where(self.alive[:n, None], self.pos[:n], np.nan)
        return PopulationState(t, self.d, self.lines[:n], self.wlens[:n],
                               self.wbits[:n], self.births[:n],
                               self.deaths[:n], pos)


def simulate_lines(params: ModelParams, founder_lines, universe: NoiseUniverse,
                   *, rho_path: FieldPath | None = None,
                   keep_dead: bool = True) -> MicroTrajectory:
    """Shared engine behind the microscopic and single-line hybrid models.

    ``rho_path`` None runs the coupled model (field sourced by the mollified
    empirical measure); a FieldPath runs against that frozen deterministic
    field instead, consuming exactly the same noise streams.
    """
    founder_lines = tuple(int(i) for i in founder_lines)
    p = params
    d, dt, L = p.grid.d, p.dt, p.grid.extent
    n_steps = p.n_steps
    n0 = len(founder_lines)
    coupled = rho_path is None

    birth_fn = p.birth.build(L)
    death_fn = p.death.build(L)
    drift_fn = None if p.drift.is_zero else p.drift.build(d)
    needs_rho = "logistic" in (p.birth.kind, p.death.kind)
    kernel = p.make_kernel() if coupled and p.alpha != 0.0 else None

    if coupled:
        rho = p.make_rho0()
    else:
        if rho_path.t_end + 1e-9 < p.T:
            raise ValueError("field path does not cover [0, T]")
        rho = rho_path.field_at(0.0)

    eng = _Engine(p, universe)
    for line in founder_lines:
        x0 = p.mu0.sample(universe, line, d, L)
        eng.add_cell(LineageIndex(line), x0, 0.0, 0)

    states = [eng.snapshot(0.0, keep_dead)]
    fields = [rho]
    event_log: list[EventRecord] = []

    for k in range(n_steps):
        t_next = (k + 1) * dt
        ls = eng.live_slots()
        if len(ls):
            x = eng.pos[ls]
            if drift_fn is not None:
                move = drift_fn(x, rho.gradient_at(x)) * dt
                x = x + move + p.sigma * eng.inc[ls, k]
            else:
                x = x + p.sigma * eng.inc[ls, k]
            x = np.mod(x, L)
            if not np.all(np.isfinite(x)):
                raise NonFiniteState(f"non-finite position at t={t_next}")
            eng.pos[ls] = x
            if needs_rho:  # one batch: the cells whose clock rings in the step
                ring = eng.next_time[ls] < t_next
                if ring.any():
                    eng.rate_arg[ls[ring]] = p.rate_argument(rho, x[ring])

        while eng.heap and eng.heap[0][0] < t_next:
            t_e, _, _, _, s = heapq.heappop(eng.heap)
            if not eng.alive[s]:
                continue
            xs = eng.pos[s].reshape(1, d)
            rho_val = eng.rate_arg[s:s + 1]
            z = float(eng.clock_marks[s][eng.cursor[s]])
            eng.cursor[s] += 1
            lb = float(birth_fn(xs, rho_val)[0])
            if z <= lb:
                idx = eng.index_of(s)
                eng.kill(s, t_e)
                pos_here = eng.pos[s].copy()
                for child in idx.children():
                    c = eng.add_cell(child, pos_here.copy(), t_e, k + 1)
                    eng.rate_arg[c] = eng.rate_arg[s]  # born where s sits
                event_log.append(EventRecord(t_e, idx, EVENT_BRANCH, pos_here))
            elif z <= lb + float(death_fn(xs, rho_val)[0]):
                idx = eng.index_of(s)
                eng.kill(s, t_e)
                event_log.append(EventRecord(t_e, idx, EVENT_DEATH,
                                             eng.pos[s].copy()))
            else:
                eng._push_next(s)

        if coupled:
            source = None
            if p.alpha != 0.0:
                ls = eng.live_slots()
                measure = EmpiricalMeasure(eng.pos[ls].reshape(len(ls), d),
                                           np.full(len(ls), 1.0 / n0))
                source = deposit(measure, kernel, p.grid)
            rho = semigroup_step(rho, source, dt, p.D, p.r, p.alpha)
            if not np.all(np.isfinite(rho.values)):
                raise NonFiniteState(f"non-finite field at t={t_next}")
        else:
            rho = rho_path.field_at(t_next)

        states.append(eng.snapshot(t_next, keep_dead))
        fields.append(rho)

    return MicroTrajectory(params=p, n0=n0, founder_lines=founder_lines,
                           times=p.times(), states=states, fields=fields,
                           event_log=event_log)


def simulate_microscopic(params: ModelParams, n0: int, universe: NoiseUniverse,
                         *, keep_dead: bool = True) -> MicroTrajectory:
    """Run the coupled individual-based model with founder lines 1..n0."""
    if n0 < 1:
        raise ValueError("n0 must be at least 1")
    return simulate_lines(params, range(1, n0 + 1), universe,
                          keep_dead=keep_dead)
