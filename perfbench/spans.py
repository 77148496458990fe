"""Span recorder and the instrumentation of chemobranch's public functions.

The recorder lives in the child process that runs one CLI invocation.  It
keeps spans in memory as (id, parent, name, start, end) and counters as a
name -> number map; the child writes both out when the invocation ends.
``derive`` turns a list of spans into self times: a span's duration minus
the part of it that its child spans cover.

Nothing inside ``src/`` changes.  ``instrument`` replaces module attributes
and class methods with wrappers; functions that other modules import by
name (``deposit``, ``semigroup_step``, ``solve_pks``, ...) are rebound in
every chemobranch module that holds them, so the wrapper sits where they
are called.

Without tracing only two work counters are installed: live cells per step
of every engine run (``simulate_lines``) and particle steps of every mass
ensemble.  They feed ``cell_steps_per_s`` and cost a few milliseconds per
invocation.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

BOOKKEEPING = "trace.bookkeeping"


class Recorder:
    """In-memory spans and counters of one process.

    Each thread has its own span stack.  A span opened on a worker thread
    with an empty stack (a replica running in the analysis thread pool) gets
    the innermost open span of the main thread as its parent, which is the
    experiment that submitted it.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._peaks: dict[str, int] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple[int, int, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main and self._main:
            parent = self._main[-1]
        else:
            parent = 0
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    def close(self, sid, parent, stack, name, t0, t1):
        stack.pop()
        self.spans.append((sid, parent, name, t0, t1))

    @contextmanager
    def span(self, name: str):
        sid, parent, stack = self.open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self.close(sid, parent, stack, name, t0, perf_counter())

    def add(self, name: str, value: int = 1):
        with self._lock:
            self.counts[name] += int(value)

    def peak(self, name: str, value: int):
        with self._lock:
            self._peaks[name] = max(self._peaks.get(name, 0), int(value))

    def counters(self) -> dict[str, int]:
        out = dict(self.counts)
        out.update(self._peaks)
        return out


def _rebind(original, replacement):
    """Point every chemobranch module attribute holding ``original`` at
    ``replacement``."""
    for name, mod in list(sys.modules.items()):
        if name == "chemobranch" or name.startswith("chemobranch."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def _wrap(rec: Recorder, name: str | None, fn, after=None):
    """``fn`` inside a span called ``name`` (no span when None); ``after``
    receives (args, kwargs, result) once the span has closed."""
    if name is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result
        return counted

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        sid, parent, stack = rec.open()
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid, parent, stack, name, t0, perf_counter())
        if after is not None:
            after(args, kwargs, result)
        return result
    return spanned


def _patch_function(rec, name, module, attr, after=None):
    original = getattr(module, attr)
    _rebind(original, _wrap(rec, name, original, after))


def _patch_method(rec, name, cls, attr, after=None):
    setattr(cls, attr, _wrap(rec, name, getattr(cls, attr), after))


def _calls(rec, prefix):
    def after(args, kwargs, result):
        rec.add(prefix + ".calls")
    return after


def instrument(rec: Recorder, trace: bool):
    """Install the work counters and, with ``trace``, the layer spans."""
    from chemobranch import (analysis, config, field, macroscopic, meanfield,
                             microscopic, population, randomness)

    def engine_counts(args, kwargs, traj):
        live = traj.live_counts()
        rec.add("microscopic.cell_steps", int(live[:-1].sum()))
        if not trace:
            return
        branch = sum(1 for ev in traj.event_log
                     if ev.kind == microscopic.EVENT_BRANCH)
        death = len(traj.event_log) - branch
        founders = len(traj.founder_lines)
        # exact continuous-time peak: replay the event log
        live_now = peak = founders
        for ev in traj.event_log:
            live_now += 1 if ev.kind == microscopic.EVENT_BRANCH else -1
            peak = max(peak, live_now)
        rec.add("microscopic.simulate_lines.calls")
        rec.add("microscopic.events.branch", branch)
        rec.add("microscopic.events.death", death)
        rec.add("microscopic.founders", founders)
        rec.peak("microscopic.peak_live", peak)

    def mass_counts(args, kwargs, ens):
        params = args[0] if args else kwargs["params"]
        rec.add("meanfield.mass_steps", len(ens.replica_ids) * params.n_steps)
        if trace:
            rec.add("meanfield.simulate_mass_ensemble.calls")

    if not trace:
        _patch_function(rec, None, microscopic, "simulate_lines", engine_counts)
        _patch_function(rec, None, meanfield, "simulate_mass_ensemble",
                        mass_counts)
        return

    def bookkept(fn):
        def after(args, kwargs, result):
            with rec.span(BOOKKEEPING):
                fn(args, kwargs, result)
        return after

    _patch_function(rec, "microscopic.simulate_lines", microscopic,
                    "simulate_lines", bookkept(engine_counts))
    _patch_function(rec, "meanfield.simulate_mass_ensemble", meanfield,
                    "simulate_mass_ensemble", mass_counts)
    _patch_function(rec, "meanfield.solve_selfconsistent_field", meanfield,
                    "solve_selfconsistent_field")

    # noise layer
    def clock_counts(args, kwargs, result):
        rec.add("randomness.clock_arrays.calls")
        rec.add("randomness.clock_arrays.points", len(result[0]))

    def wiener_counts(args, kwargs, result):
        rec.add("randomness.wiener_increments.calls")
        rec.add("randomness.wiener_increments.rows", result.shape[0])

    U = randomness.NoiseUniverse
    _patch_method(rec, "randomness.clock_arrays", U, "clock_arrays",
                  clock_counts)
    _patch_method(rec, "randomness.wiener_increments", U, "wiener_increments",
                  wiener_counts)
    _patch_method(rec, "randomness.mass_increments", U, "mass_increments",
                  _calls(rec, "randomness.mass_increments"))

    # field layer; computed bytes are float64 kernel weights (deposit) and
    # complex128 phase tables (point evaluation) of the dense algorithms
    def deposit_counts(args, kwargs, result):
        measure = args[0] if args else kwargs["measure"]
        atoms = len(measure.weights)
        grid = args[2] if len(args) > 2 else kwargs["grid"]
        evals = atoms * grid.n * grid.d
        rec.add("field.deposit.calls")
        rec.add("field.deposit.atoms", atoms)
        rec.add("field.deposit.kernel_evals", evals)
        rec.add("field.deposit.bytes_computed", 8 * evals)

    def point_counts(prefix):
        def after(args, kwargs, result):
            grid = args[0].grid
            m = result.shape[0]
            rec.add(prefix + ".calls")
            rec.add(prefix + ".points", m)
            rec.add("field.point_eval.phase_evals", m * grid.n * grid.d)
            rec.add("field.point_eval.bytes_computed", 16 * m * grid.n * grid.d)
        return after

    _patch_function(rec, "field.deposit", field, "deposit", deposit_counts)
    _patch_function(rec, "field.semigroup_step", field, "semigroup_step",
                    _calls(rec, "field.semigroup_step"))
    _patch_method(rec, "field.gradient_at", field.Field, "gradient_at",
                  point_counts("field.gradient_at"))
    _patch_method(rec, "field.value_at", field.Field, "value_at",
                  point_counts("field.value_at"))
    _patch_method(rec, "field.gradient_grid", field.Field, "gradient_grid",
                  _calls(rec, "field.gradient_grid"))
    _patch_method(rec, "field.convolve_density", field.Kernel,
                  "convolve_density", _calls(rec, "field.convolve_density"))

    # population layer
    def state_counts(args, kwargs, result):
        rec.add("population.state.builds")
        rec.add("population.state.rows", len(args[0]))

    def lines_counts(args, kwargs, result):
        rec.add("population.population_to_lines.rows", len(args[0]))

    _patch_method(rec, "population.state", population.PopulationState,
                  "__init__", state_counts)
    _patch_function(rec, "population.population_to_lines", population,
                    "population_to_lines", lines_counts)

    # macroscopic solver
    def pks_counts(args, kwargs, sol):
        rec.add("macroscopic.solve_pks.calls")
        rec.add("macroscopic.solve_pks.steps", len(sol.times) - 1)

    _patch_function(rec, "macroscopic.solve_pks", macroscopic, "solve_pks",
                    pks_counts)

    # analysis layer
    _patch_method(rec, "analysis.pair_measure", analysis.TestFunctionBank,
                  "pair_measure", _calls(rec, "analysis.pair_measure"))
    for attr in ("measure_convergence_experiment", "coupling_experiment",
                 "yule_bound_check"):
        _patch_function(rec, "analysis.experiment", analysis, attr)

    # config load and model construction
    Cfg = config.ExperimentConfig
    Cfg.from_file = staticmethod(_wrap(rec, "config", Cfg.from_file))
    _patch_method(rec, "config", Cfg, "model_params")


def derive(spans) -> tuple[dict[str, float], list[str]]:
    """Self time per span name, and a message for every child span that
    starts before or ends after its parent.

    ``spans`` holds (id, parent, name, start, end) rows of one process.  The
    covered part of a span is the union of its children's intervals, so
    children running in parallel threads are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, t0, t1 in spans:
        children[parent].append((t0, t1))
    self_time: dict[str, float] = defaultdict(float)
    overruns = []
    for sid, _, name, t0, t1 in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            if c0 < t0 or c1 > t1:
                overruns.append(f"{name}#{sid}: child [{c0}, {c1}] "
                                f"outside [{t0}, {t1}]")
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        self_time[name] += (t1 - t0) - covered
    return dict(self_time), overruns
