"""Individual-based model: branching diffusions coupled to the grid field.

Founder lines move by Euler-Maruyama with chemotactic drift, branch or die
at Poisson-clock points thinned by the state-dependent rates, and source the
field through the mollified empirical measure.  ``ModelParams`` owns the
particle step all models share: rates, drift, what the rates read, the move.
Within each step of length dt the order is fixed: evaluate the gradient,
move every live cell, read the field quantity the rates consume, in one
batch, at the cells whose clock rings in the step (end-of-substep
positions, field at substep start), process the step's clock events in
rounds over the ringing cells (daughters read their mother's value, as they
sit at her position), then deposit and advance the field.  A point's field
value and rates do not depend on the batch they are read in, and no
decision reads another event of the step, so batches hold only the cells
that need them and the rounds find the events of global time order.  This
order plus counter-based noise makes every trajectory a pure function of
(params, universe), independent of threads.

The phases of a position (``field.point_phases``) are computed once per
step, right after the move, when the deposit or the next step's gradient
reads them: the ringing cells' rates read a subset of them, survivors keep
theirs and daughters take their mother's, as they sit at her position.
When nothing reads the field, none are computed.

Cells enter the engine in batches, all founders at once and all daughters
of a step's round together, and each batch draws its clock points in one
call.  Wiener increments are held one 64-step block per cell: every live
cell draws the next block when it starts, and each new batch draws from its
first step to that step's block end as it enters.  Counter-indexed streams
make every draw bit-identical to a per-cell draw of the whole run.

The same engine drives the single-line mean-field process by swapping the
coupled field for a given field path, a tuple of ``Field`` with field k at
checkpoint k, which keeps the two models bitwise coupled when their inputs
coincide.

A run keeps no trajectory.  At each checkpoint k·dt, k = 0..n_steps, it
hands the population (dead cells kept) and the field to the caller's
observer, if there is one, and keeps only the live count, so its memory
follows the live population, not the number of steps.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConfigInvalid, LineageDepthExceeded, NonFiniteState,
                     PopulationExplosion)
from .field import (Field, GridSpec, Kernel, check_path, deposit,
                    point_phases, semigroup_step)
from .population import (MAX_WORD_LEN, EmpiricalMeasure, PopulationState,
                         cell_keys)
from .randomness import NoiseUniverse
from .registry import DriftSpec, InitialFieldSpec, InitialMeasureSpec, RateSpec

EVENT_BRANCH = "branch"
EVENT_DEATH = "death"
ADVECTION_SCHEMES = ("auto", "upwind", "semi_lagrangian")
LAMBDA_ARGS = ("rho", "grad_rho_norm")
WIENER_BLOCK = 64  # steps of Wiener increments drawn per refill
# bound on lambda_bar * T, the mean number of clock points a cell draws
MAX_CLOCK_POINTS = 4096


@dataclass(frozen=True)
class ModelParams:
    """All model constants, rate/drift selections, and discretization
    controls, and the particle step that every model takes from them.

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
        if not self.lambda_bar * self.T <= MAX_CLOCK_POINTS:
            raise ConfigInvalid("lambda_bar", "lambda_bar * T = "
                                f"{self.lambda_bar * self.T} exceeds the "
                                "per-cell clock-point limit "
                                f"{MAX_CLOCK_POINTS}")
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

    @cached_property
    def rates(self):
        """(birth, death), each lambda(x, arg), arg from ``rate_argument``."""
        return (self.birth.build(self.grid.extent),
                self.death.build(self.grid.extent))

    @cached_property
    def drift_fn(self):
        """b(x, grad rho), or None for the zero drift."""
        return None if self.drift.is_zero else self.drift.build(self.grid.d)

    @cached_property
    def rates_read_field(self) -> bool:
        """Whether a rate reads the field (else ``rate_argument`` is 0)."""
        return self.birth.reads_field or self.death.reads_field

    def rate_argument(self, field: Field, points=None, *,
                      phases=None) -> np.ndarray:
        """``field``'s value or gradient norm (``lambda_arg``) at ``points``,
        or the nodes (row-major) if None; zeros if no rate reads the field.
        ``phases`` are the points' ``point_phases`` when the caller holds
        them."""
        if not self.rates_read_field:
            return np.zeros(field.values.size if points is None
                            else len(points))
        if self.lambda_arg == "rho":
            return (field.values.ravel() if points is None
                    else field.value_at(points, phases=phases))
        g = (np.stack([c.ravel() for c in field.gradient_grid()], axis=1)
             if points is None else field.gradient_at(points, phases=phases))
        return np.sqrt(np.sum(g * g, axis=1))

    def move(self, x: np.ndarray, rho: Field, inc: np.ndarray, t: float, *,
             phases=None) -> np.ndarray:
        """Euler-Maruyama step of ``x`` (m, d) to time t with increments
        ``inc``, wrapped onto the torus; ``NonFiniteState`` if not finite.
        ``phases`` are ``x``'s ``point_phases`` when the caller holds them."""
        if self.drift_fn is not None:
            x = x + self.drift_fn(x, rho.gradient_at(x, phases=phases)) * self.dt
        x = np.mod(x + self.sigma * inc, self.grid.extent)
        if not np.all(np.isfinite(x)):
            raise NonFiniteState(f"non-finite position at t={t}")
        return x

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def make_kernel(self) -> Kernel:
        return Kernel(self.grid, self.kernel_width)


@dataclass(frozen=True)
class EventRecord:
    """One event as a record, ``idx`` the cell's (line, word length, word
    bits).  Kept only for ``perfbench/spans.py``, which reads
    ``MicroTrajectory.event_log``, until the benchmark reads the run's
    counters elsewhere (ROADMAP item 5); everything else reads
    ``EventColumns``."""

    time: float
    idx: tuple[int, int, int]
    kind: str
    position: np.ndarray


@dataclass(frozen=True)
class EventColumns:
    """A run's clock events in the order they happen: time, the cell's line,
    word length and word bits, whether it branched (else it died), and its
    position (n, d)."""

    time: np.ndarray
    line: np.ndarray
    word_len: np.ndarray
    word_bits: np.ndarray
    branch: np.ndarray
    position: np.ndarray

    def kinds(self) -> np.ndarray:
        return np.where(self.branch, EVENT_BRANCH, EVENT_DEATH)


@dataclass
class MicroTrajectory:
    """What a run keeps once it ends: the live count at each checkpoint, the
    final field and the clock events.  The checkpoint states go to the run's
    observer (``simulate_lines``)."""

    params: ModelParams
    founder_lines: tuple[int, ...]
    live: np.ndarray
    field: Field
    events: EventColumns

    @cached_property
    def event_log(self) -> list[EventRecord]:
        """The events as records, built from ``events`` on first use; for
        ``perfbench/spans.py`` only, like ``EventRecord``."""
        ev = self.events
        return [EventRecord(t, (line, n, bits), kind, x)
                for t, line, n, bits, kind, x in zip(
                    ev.time.tolist(), ev.line.tolist(), ev.word_len.tolist(),
                    ev.word_bits.tolist(), ev.kinds().tolist(), ev.position)]

    def live_counts(self) -> np.ndarray:
        """``live``; for ``perfbench/spans.py`` only, like ``event_log``."""
        return self.live

    def sup_live_over_n0(self) -> float:
        """sup over continuous time of live count / n0, exact from the events."""
        n0 = len(self.founder_lines)
        net = np.cumsum(np.where(self.events.branch, 1, -1))
        return (n0 + int(net.max(initial=0))) / n0


_PER_CELL = ("lines", "wlens", "wbits", "keys", "births", "deaths", "alive",
             "pos", "cursor", "rate_arg", "inc")


def _explosion(cap: int) -> PopulationExplosion:
    return PopulationExplosion(f"live count {cap + 1} exceeds cap {cap}")


class _Tally:
    """The live count over one step's events in time order, checked against
    the population cap and the depth limit as the events become final.

    It starts from the events found so far, sorted; later events are passed
    to ``add`` in time order, each once every event before it is found, and
    the sorted events before it are checked first.  The first error in time
    order is raised, the depth limit first when one event meets both.
    """

    def __init__(self, eng: "_Engine", found, n_start: int):
        self.eng = eng
        self.t, self.s, b = eng.in_order(found)
        self.live = n_start + np.cumsum(np.where(b, 1, -1))
        self.deep = b & (eng.wlens[self.s] >= MAX_WORD_LEN)
        self.n_start = n_start
        self.done = 0  # sorted events checked so far
        self.added = 0  # net births of the events added since, all earlier

    def check_before(self, horizon: float):
        """Check the sorted events before ``horizon``."""
        self._check_to(int(np.searchsorted(self.t, horizon)))

    def _check_to(self, j: int):
        live = self.live[self.done:j] + self.added
        deep = self.deep[self.done:j]
        bad = np.flatnonzero((live > self.eng.p.population_cap) | deep)
        if len(bad):
            self._raise(deep[bad[0]])
        self.done = max(self.done, j)

    def add(self, t: float, s: int, branched: bool):
        eng = self.eng
        # after the sorted events before t and those at t with smaller keys
        lo, hi = np.searchsorted(self.t, t), np.searchsorted(self.t, t, "right")
        j = int(lo + np.searchsorted(eng.keys[self.s[lo:hi]], eng.keys[s]))
        self._check_to(j)
        self.added += 1 if branched else -1
        live = (self.live[j - 1] if j else self.n_start) + self.added
        deep = branched and eng.wlens[s] >= MAX_WORD_LEN
        if deep or live > eng.p.population_cap:
            self._raise(deep)

    def _raise(self, deep: bool):
        if deep:
            raise LineageDepthExceeded(
                f"genealogy deeper than {MAX_WORD_LEN} generations")
        raise _explosion(self.eng.p.population_cap)


class _Engine:
    """Growable arrays of per-cell state plus the flat store of clock points:
    a cell's points sit in ``clock_times``/``clock_marks`` followed by one
    +inf, and ``clock_times[cursor]`` is its next point (inf when none is).

    ``keys`` holds each cell's ``cell_keys`` key, set once at its birth
    (``add_cells``); every ordering of cells, of slots and of tied events
    alike, sorts or searches that column.

    ``inc`` holds one block of Wiener increments per cell, (cap, 64, d):
    step k reads column k % 64.  Every live cell draws a block when it
    starts, and each batch of new cells draws from the step it first moves
    in to the end of that step's block as ``add_cells`` enters it; both go
    through ``draw_increments``.
    """

    def __init__(self, params: ModelParams, universe: NoiseUniverse):
        self.p = params
        self.u = universe
        self.d = params.grid.d
        self.n_steps = params.n_steps
        cap = 64
        self.lines = np.zeros(cap, dtype=np.int64)
        self.wlens = np.zeros(cap, dtype=np.int64)
        self.wbits = np.zeros(cap, dtype=np.uint64)
        self.keys = cell_keys(self.lines, self.wlens, self.wbits)
        self.births = np.zeros(cap)
        self.deaths = np.zeros(cap)
        self.alive = np.zeros(cap, dtype=bool)
        self.pos = np.zeros((cap, self.d))
        self.cursor = np.zeros(cap, dtype=np.int64)
        self.rate_arg = np.zeros(cap)  # what its rates read in this step
        self.inc = np.zeros((cap, min(WIENER_BLOCK, self.n_steps), self.d))
        self.count = 0
        self.n_live = 0
        self.clock_times = np.zeros(cap)
        self.clock_marks = np.zeros(cap)
        self.n_points = 0  # entries of the clock store in use
        # (times, slots, branched) of the events, a batch per round
        self.events = [(np.empty(0), np.empty(0, dtype=np.int64),
                        np.empty(0, dtype=bool))]
        # every slot below ``_ordered`` in canonical order, dead ones too;
        # the cells added since are merged in when the order is next read
        self._order = np.empty(0, dtype=np.int64)
        self._ordered = 0
        self._live: np.ndarray | None = None

    def _resize(self, names, size: int):
        for name in names:
            arr = getattr(self, name)
            grown = np.zeros((size,) + arr.shape[1:], dtype=arr.dtype)
            grown[:len(arr)] = arr
            setattr(self, name, grown)

    def add_cells(self, lines, wlens, wbits, positions: np.ndarray,
                  births, step: int) -> slice:
        """Insert a batch of cells born at ``births`` into consecutive slots
        and draw, in one batch each, their clock points up to T and their
        Wiener increments from ``step``, their first, to its block's end."""
        m = len(lines)
        if self.count + m > len(self.lines):  # to the next power of two
            self._resize(_PER_CELL, 1 << (self.count + m - 1).bit_length())
        new = slice(self.count, self.count + m)
        self.count += m
        self.n_live += m
        self.lines[new] = lines
        self.wlens[new] = wlens
        self.wbits[new] = wbits
        self.keys[new] = cell_keys(self.lines[new], self.wlens[new],
                                   self.wbits[new])
        self.births[new] = births
        self.deaths[new] = np.inf
        self.alive[new] = True
        self.pos[new] = positions
        # one hash per cell for its clock and Wiener streams
        hashed = self.u.hash_cells(
            (self.lines[new], self.wlens[new], self.wbits[new]))
        times, marks, offsets = self.u.clock_arrays(hashed, self.p.T,
                                                    self.p.lambda_bar)
        # each cell's points and a closing +inf go to the clock store; its
        # next point is its first one at or after its birth
        counts = offsets[1:] - offsets[:-1]
        cells = np.arange(self.n_points, self.n_points + m)
        self.n_points += len(times) + m
        if self.n_points > len(self.clock_times):
            self._resize(("clock_times", "clock_marks"),
                         max(2 * len(self.clock_times), self.n_points))
        at = np.arange(len(times)) + np.repeat(cells, counts)
        self.clock_times[at], self.clock_marks[at] = times, marks
        self.clock_times[offsets[1:] + cells] = np.inf
        early = np.zeros(len(times) + 1, dtype=np.int64)
        np.cumsum(times < np.repeat(self.births[new], counts), out=early[1:])
        self.cursor[new] = (offsets[:-1] + cells + early[offsets[1:]]
                            - early[offsets[:-1]])
        if step < self.n_steps:
            self.draw_increments(new, step, hashed)
        self._live = None
        return new

    def next_times(self, slots: np.ndarray) -> np.ndarray:
        return self.clock_times[self.cursor[slots]]

    def draw_increments(self, slots, k: int, cells=None):
        """Draw in one call the Wiener increments of the cells ``slots``
        (an index array or a slice) from step k to the end of its block;
        ``cells`` is their ``hash_cells`` when the caller holds it."""
        j = k % WIENER_BLOCK
        end = min(k - j + WIENER_BLOCK, self.n_steps)
        cols = slice(j, j + end - k)
        # a slice of slots selects a view, drawn into in place (its write
        # back copies nothing); an index array selects a copy, written back
        block = self.inc[slots, cols]
        if cells is None:
            cells = (self.lines[slots], self.wlens[slots], self.wbits[slots])
        self.inc[slots, cols] = self.u.wiener_increments(
            cells, k, end, self.p.dt, out=block)

    def process_clocks(self, slots: np.ndarray, times: np.ndarray,
                       k: int) -> list[np.ndarray]:
        """Process the clock points of step k, before (k + 1)·dt, of the
        live cells ``slots``, whose next points are at ``times``, in
        rounds: each reads its cells' next points and marks, evaluates the
        rates once, kills the cells that branch or die and adds all their
        daughters in one batch; the next round holds the daughters and
        rejected cells whose next point is in the step.  The pending cells'
        next times travel with them, so a round gathers only the next times
        of the cells it touched.  Returns the mothers of each batch of
        daughters in the order they were added, two daughters each.

        The cap and the depth limit hold in time order (``_Tally``).  A
        round at most doubles the live count; once it passes the cap, the
        pending cells go into a heap by (next time, key) and the rounds pop
        one cell at a time, so that every event is final when found and the
        run stops at the first one past the cap.
        """
        cap = self.p.population_cap
        t_next = (k + 1) * self.p.dt
        birth_fn, death_fn = self.p.rates
        n_start, branches, deep = self.n_live, 0, False
        found, tally, heap, born = [], None, [], []
        while len(slots) or heap:
            if tally is not None:  # the earliest cell alone
                t0, _, s = heapq.heappop(heap)
                slots, times = np.array([s]), np.array([t0])
            t, z = times, self.clock_marks[self.cursor[slots]]
            self.cursor[slots] += 1
            x, arg = self.pos[slots], self.rate_arg[slots]
            lb = birth_fn(x, arg)
            branch = z <= lb
            end = branch | (z <= lb + death_fn(x, arg))
            ended = slots[end]
            if len(ended):
                self.alive[ended] = False
                self.deaths[ended] = t[end]
                self.n_live -= len(ended)
                self._live = None
                found.append((t[end], ended, branch[end]))
                if tally is not None:
                    tally.add(float(t[0]), int(slots[0]), bool(branch[0]))
            kept = slots[~end]
            pending = [(kept, self.next_times(kept))]
            mothers = slots[branch]
            if len(mothers):
                born.append(mothers)
                branches += len(mothers)
                deep = deep or self.wlens[mothers].max() >= MAX_WORD_LEN
                words = np.repeat(self.wbits[mothers] << 1, 2)
                words[1::2] |= 1
                new = self.add_cells(
                    np.repeat(self.lines[mothers], 2),
                    np.repeat(self.wlens[mothers] + 1, 2), words,
                    np.repeat(self.pos[mothers], 2, axis=0),
                    np.repeat(t[branch], 2), k + 1)
                self.rate_arg[new] = np.repeat(self.rate_arg[mothers], 2)
                daughters = np.arange(new.start, new.stop)
                pending.append((daughters, self.next_times(daughters)))
            slots = np.concatenate([s[ts < t_next] for s, ts in pending])
            times = np.concatenate([ts[ts < t_next] for _, ts in pending])
            if tally is None and self.n_live > cap and len(slots):
                tally = _Tally(self, found, n_start)
                tally.check_before(times.min())
            if tally is not None:
                for entry in zip(times.tolist(), self.keys[slots].tolist(),
                                 slots.tolist()):
                    heapq.heappush(heap, entry)
                slots = slots[:0]
        if tally is None and (deep or n_start + branches > cap):
            tally = _Tally(self, found, n_start)
        if tally is not None:
            tally.check_before(np.inf)
        self.events.extend(found)
        return born

    def follow_phases(self, z: np.ndarray, ls: np.ndarray, count: int,
                      born: list[np.ndarray]) -> np.ndarray:
        """The phases of the live slots from those ``z`` of the slots
        ``ls`` before a step's clock events, after which ``count`` slots
        were in use and ``born`` was returned: survivors keep theirs and a
        daughter takes her mother's, at whose position she sits."""
        if self.count == count:  # deaths at most: ls in order, thinned
            alive = self.alive[ls]
            return z if alive.all() else z[:, alive]
        src = np.empty(self.count, dtype=np.int64)  # each slot's column of z
        src[ls] = np.arange(len(ls))
        for mothers in born:
            src[count:count + 2 * len(mothers)] = np.repeat(src[mothers], 2)
            count += 2 * len(mothers)
        return z[:, src[self.live_slots()]]

    def in_order(self, events):
        """Batches of (times, slots, branched) as one, sorted by (time,
        line, word length, word bits): the order in which they happen."""
        t, s, b = (np.concatenate(col) for col in zip(*events))
        order = np.lexsort((self.keys[s], t))
        return t[order], s[order], b[order]

    def event_columns(self) -> EventColumns:
        t, s, b = self.in_order(self.events)
        return EventColumns(t, self.lines[s], self.wlens[s], self.wbits[s],
                            b, self.pos[s])

    def ordered_slots(self) -> np.ndarray:
        """Every slot, dead ones too, sorted by (line, word length, word
        bits): the cells added since the last call are sorted among
        themselves and merged in (equal keys stay in slot order)."""
        if self._ordered < self.count:
            new = np.arange(self._ordered, self.count)
            new = new[np.argsort(self.keys[new], kind="stable")]
            # the i-th new slot lands after the old slots not above it and
            # the i new slots before it; the old slots fill the rest in order
            at = np.searchsorted(self.keys[self._order], self.keys[new],
                                 side="right") + np.arange(len(new))
            order = np.empty(self.count, dtype=np.int64)
            old = np.ones(self.count, dtype=bool)
            old[at] = False
            order[at], order[old] = new, self._order
            self._order = order
            self._ordered = self.count
        return self._order

    def live_slots(self) -> np.ndarray:
        """Live slots sorted by (line, word length, word bits)."""
        if self._live is None:
            order = self.ordered_slots()
            self._live = order[self.alive[order]]
        return self._live

    def snapshot(self, t: float) -> PopulationState:
        """Every cell born so far, dead ones too, in canonical order."""
        rows = self.ordered_slots()
        pos = self.pos[rows]
        pos[~self.alive[rows]] = np.nan
        return PopulationState(t, self.d, self.lines[rows], self.wlens[rows],
                               self.wbits[rows], self.births[rows],
                               self.deaths[rows], pos, self.keys[rows])


def simulate_lines(params: ModelParams, founder_lines, universe: NoiseUniverse,
                   *, rho_path: tuple[Field, ...] | None = None,
                   observe=None) -> MicroTrajectory:
    """Shared engine behind the microscopic and single-line hybrid models.

    ``rho_path`` None runs the coupled model (field sourced by the mollified
    empirical measure); a tuple of Fields runs against that deterministic
    field path instead, field k at checkpoint k, consuming exactly the same
    noise streams.

    ``observe(k, state, rho)`` is called at each checkpoint k = 0..n_steps
    in order: ``state`` is the population at k·dt, every cell born by then
    with the dead ones kept, built only when ``observe`` is given, and
    ``rho`` the field then.  Neither changes afterwards.

    ``founder_lines`` must be one or more distinct integers from 1, else
    ``ValueError``: a line number leads the identity of each of its cells.
    """
    founder_lines = tuple(int(i) for i in founder_lines)
    if not founder_lines or min(founder_lines) < 1 \
            or len(set(founder_lines)) < len(founder_lines):
        raise ValueError("founder lines must be one or more distinct "
                         "integers from 1")
    p = params
    d, dt = p.grid.d, p.dt
    n_steps = p.n_steps
    n0 = len(founder_lines)
    coupled = rho_path is None
    kernel = p.make_kernel() if coupled and p.alpha != 0.0 else None

    if coupled:
        rho = p.rho0.sample(p.grid)
    else:
        check_path(rho_path, dt, n_steps)
        rho = rho_path[0]

    if n0 > p.population_cap:
        raise _explosion(p.population_cap)
    eng = _Engine(p, universe)
    lines = np.array(founder_lines, dtype=np.int64)
    eng.add_cells(lines, 0, 0, p.mu0.sample(universe, lines, d, p.grid.extent),
                  0.0, 0)

    live = np.empty(n_steps + 1, dtype=np.int64)
    live[0] = eng.n_live
    if observe is not None:
        observe(0, eng.snapshot(0.0), rho)

    # the live cells' phases, kept from the move to the deposit and the
    # next step's gradient when either reads them
    keep_phases = kernel is not None or p.drift_fn is not None
    z = None
    for k in range(n_steps):
        t_next = (k + 1) * dt
        if k and k % WIENER_BLOCK == 0:  # every live cell draws the new block
            eng.draw_increments(eng.live_slots(), k)
        ls = eng.live_slots()
        if len(ls):
            if z is None and p.drift_fn is not None:  # the founders
                z = point_phases(p.grid, eng.pos[ls])
            eng.pos[ls] = p.move(eng.pos[ls], rho,
                                 eng.inc[ls, k % WIENER_BLOCK], t_next,
                                 phases=z)
            z = None  # freed before the next ones are computed
            if keep_phases:
                z = point_phases(p.grid, eng.pos[ls])
            times = eng.next_times(ls)
            rings = times < t_next
            ring = ls[rings]
            if len(ring):  # one batch: the ringing cells
                eng.rate_arg[ring] = p.rate_argument(
                    rho, eng.pos[ring],
                    phases=None if z is None else z[:, rings])
            count = eng.count
            born = eng.process_clocks(ring, times[rings], k)
            if z is not None:
                z = eng.follow_phases(z, ls, count, born)

        if coupled:
            source = None
            if p.alpha != 0.0:
                ls = eng.live_slots()
                measure = EmpiricalMeasure(eng.pos[ls].reshape(len(ls), d),
                                           np.full(len(ls), 1.0 / n0))
                source = deposit(measure, kernel, p.grid, phases=z)
            rho = semigroup_step(rho, source, dt, p.D, p.r, p.alpha)
            if not np.all(np.isfinite(rho.values)):
                raise NonFiniteState(f"non-finite field at t={t_next}")
        else:
            rho = rho_path[k + 1]

        live[k + 1] = eng.n_live
        if observe is not None:
            observe(k + 1, eng.snapshot(t_next), rho)

    return MicroTrajectory(params=p, founder_lines=founder_lines, live=live,
                           field=rho, events=eng.event_columns())


def simulate_microscopic(params: ModelParams, n0: int, universe: NoiseUniverse,
                         *, observe=None) -> MicroTrajectory:
    """Run the coupled individual-based model with founder lines 1..n0;
    ``observe`` as in ``simulate_lines``."""
    return simulate_lines(params, range(1, n0 + 1), universe, observe=observe)
