import dataclasses
import io
import tracemalloc
from collections import Counter
from functools import partial
from itertools import chain

import numpy as np
import pytest
from conftest import (event_rows, model_params, record, states_equal,
                      written)

from chemobranch import (ConfigInvalid, DriftSpec, InitialMeasureSpec,
                         LineageDepthExceeded, NoiseUniverse,
                         PopulationExplosion, RateSpec, population,
                         simulate_lines, simulate_microscopic)
from chemobranch.microscopic import (EVENT_BRANCH, EVENT_DEATH,
                                     MAX_CLOCK_POINTS, _Engine)


base_params = partial(model_params, birth=RateSpec("constant", {"c": 0.3}))


def decoupled(**over):
    return base_params(alpha=0.0,
                       birth=RateSpec("zero"), death=RateSpec("zero"),
                       drift=DriftSpec("zero"), **over)


class TestDegenerateRates:
    def test_zero_rates_conserve_population(self):
        params = base_params(birth=RateSpec("zero"), death=RateSpec("zero"))
        traj = simulate_microscopic(params, 40, NoiseUniverse(1, 1))
        assert len(traj.events.time) == 0
        assert np.all(traj.live == 40)

    def test_rate_bound_validated(self):
        with pytest.raises(ValueError):
            base_params(birth=RateSpec("constant", {"c": 0.5}),
                        death=RateSpec("constant", {"c": 0.2}))


class TestBrownianOracle:
    def test_displacement_variance(self):
        # with zero drift/rates and a decoupled field each founder line is an
        # independent Brownian path: variance oracle sigma^2 T per coordinate
        sigma, T = 0.2, 1.0
        params = decoupled(sigma=sigma, dt=0.1, T=T,
                           mu0=InitialMeasureSpec("point", {"at": [4.0]}))
        n = 10_000
        _, states, _ = record(simulate_microscopic, params, n,
                              NoiseUniverse(11, 1))
        start = states[0].live_positions()[:, 0]
        end = states[-1].live_positions()[:, 0]
        disp = (end - start + 4.0) % 8.0 - 4.0
        var = disp.var(ddof=1)
        assert abs(var - sigma ** 2 * T) < 0.05 * sigma ** 2 * T
        assert abs(disp.mean()) < 4 * sigma * np.sqrt(T / n)

    def test_exponential_survival(self):
        # binomial thinning oracle: live(T) ~ Bin(n0, exp(-c T))
        c, T, n0 = 0.7, 1.0, 2000
        params = base_params(birth=RateSpec("zero"),
                             death=RateSpec("constant", {"c": c}),
                             lambda_bar=0.7, alpha=0.0,
                             drift=DriftSpec("zero"), dt=0.05, T=T)
        traj = simulate_microscopic(params, n0, NoiseUniverse(21, 1))
        p_survive = np.exp(-c * T)
        expected = n0 * p_survive
        se = np.sqrt(n0 * p_survive * (1 - p_survive))
        assert abs(traj.live[-1] - expected) < 3 * se
        assert set(traj.events.kinds().tolist()) == {EVENT_DEATH}


class TestThinning:
    def test_indicator_rate_branches_only_inside(self):
        # accept region is the half-torus x < L/2; event log must respect it
        lam = 0.8
        params = base_params(
            birth=RateSpec("indicator", {"c": lam}),
            death=RateSpec("zero"), lambda_bar=lam, alpha=0.0,
            drift=DriftSpec("zero"),
            mu0=InitialMeasureSpec("uniform"), dt=0.05, T=2.0)
        traj = simulate_microscopic(params, 150, NoiseUniverse(3, 1))
        ev = traj.events
        assert len(ev.time) > 30
        assert set(ev.kinds().tolist()) == {EVENT_BRANCH}
        assert np.all(ev.position[:, 0] < 4.0)

    def test_yule_domination(self):
        # mean of sup live/n0 stays below exp(lambda_bar T) with CLT slack
        params = base_params(alpha=0.0, drift=DriftSpec("zero"), dt=0.05, T=1.0)
        reps = 50
        u = NoiseUniverse(8, 1)
        sups = [simulate_microscopic(params, 30,
                                     u.child("rep", r)).sup_live_over_n0()
                for r in range(reps)]
        bound = np.exp(params.lambda_bar * params.T)
        assert np.mean(sups) <= bound * (1 + 4 / np.sqrt(reps))


class TestCouplingDeterminism:
    def test_bitwise_identical_reruns(self):
        params = base_params()
        u = NoiseUniverse(7, 1)
        a, a_states, a_fields = record(simulate_microscopic, params, 30, u)
        b, b_states, b_fields = record(simulate_microscopic, params, 30, u)
        assert all(states_equal(x, y) for x, y in zip(a_states, b_states))
        assert all(np.array_equal(x.values, y.values)
                   for x, y in zip(a_fields, b_fields))
        assert event_rows(a.events) == event_rows(b.events)

    def test_snapshot_writer_formats_identities_once(self, monkeypatch):
        # the streamed writer gives the per-state text of every checkpoint
        # and formats each cell's line, word and birth at one checkpoint
        traj, states, _ = record(simulate_microscopic, base_params(T=2.0),
                                 30, NoiseUniverse(7, 1))
        assert set(traj.events.kinds().tolist()) == {EVENT_BRANCH,
                                                     EVENT_DEATH}
        whole = [written(state) for state in states]
        formatted = []
        identity = population._identity_columns

        def counted(pop, rows=slice(None)):
            text = identity(pop, rows)
            formatted.extend(text)
            return text

        handed = []  # per checkpoint, the identities given a new head
        row_heads = population._row_heads

        def counted_heads(identities, deaths):
            handed[-1].extend(identities)
            return row_heads(identities, deaths)

        monkeypatch.setattr(population, "_identity_columns", counted)
        monkeypatch.setattr(population, "_row_heads", counted_heads)
        out = io.StringIO()
        writer = population.SnapshotWriter(out)
        for state in states:
            handed.append([])
            writer.write(state)
        assert out.getvalue() == "".join(whole)
        assert sorted(formatted) == sorted(identity(states[-1]))
        # a cell's death is formatted once per value it takes: at its entry
        # and, if it entered alive, at its death; a row dead at one
        # checkpoint is not formatted at the next
        deaths = {}
        for state in states:
            for cell, death in zip(identity(state), state.deaths.tolist()):
                deaths.setdefault(cell, set()).add(death)
        heads = Counter(chain.from_iterable(handed))
        assert heads == {cell: len(seen) for cell, seen in deaths.items()}
        assert max(heads.values()) == 2
        for before, now in zip(states, handed[1:]):
            dead = np.array(identity(before), dtype=object)[~before.live_mask]
            assert set(dead.tolist()).isdisjoint(now)

    def test_shared_lines_agree_across_n0_when_decoupled(self):
        # the coupling property the convergence theorems rely on: the states
        # and the events of every shared line agree bit for bit
        params = base_params(alpha=0.0)
        u = NoiseUniverse(17, 1)
        small, small_states, _ = record(simulate_microscopic, params, 6, u)
        large, large_states, _ = record(simulate_microscopic, params, 9, u)
        assert len(small.events.time) > 0
        a, b = small.events, large.events
        for line in range(1, 7):
            assert all(states_equal(x.restrict_to_line(line),
                                    y.restrict_to_line(line))
                       for x, y in zip(small_states, large_states))
            for name in ("time", "word_len", "word_bits", "branch",
                         "position"):
                assert np.array_equal(getattr(a, name)[a.line == line],
                                      getattr(b, name)[b.line == line])


def row_of(state, cell):
    """The one row of ``state`` that holds ``cell``, a (line, word length,
    word bits) tuple."""
    line, word_len, word_bits = cell
    rows = np.flatnonzero((state.lines == line)
                          & (state.word_lens == word_len)
                          & (state.word_bits == word_bits))
    assert len(rows) == 1
    return rows[0]


class TestEventBookkeeping:
    def test_snapshots_at_event_times_and_sibling_symmetry(self):
        params = base_params(birth=RateSpec("constant", {"c": 0.5}),
                             death=RateSpec("zero"), lambda_bar=0.5,
                             dt=0.05, T=2.0)
        traj, states, _ = record(simulate_microscopic, params, 20,
                                 NoiseUniverse(5, 1))
        times = params.times()
        rows = event_rows(traj.events)
        branches = [row for row in rows if row[4]]
        assert len(branches) == 50
        ended = {row[1:4] for row in rows}
        ended_in_birth_step = 0
        for t, line, word_len, word_bits, _, x in branches:
            # the checkpoint closing the step that holds the event
            k = int(np.searchsorted(times, t, side="right")) - 1
            assert times[k] <= t < times[k + 1]
            snap = states[k + 1]
            mother = row_of(snap, (line, word_len, word_bits))
            assert np.isnan(snap.positions[mother, 0])
            assert snap.deaths[mother] == t
            for b in (0, 1):  # the daughters append 0 and 1 to the word
                child = (line, word_len + 1, word_bits << 1 | b)
                row = row_of(snap, child)
                assert snap.births[row] == t
                if not np.isnan(snap.positions[row, 0]):
                    # daughters do not move before the next step
                    assert tuple(snap.positions[row].tolist()) == x
                else:
                    assert child in ended
                    assert t < snap.deaths[row] < times[k + 1]
                    ended_in_birth_step += 1
        assert ended_in_birth_step == 2

    def test_event_times_strictly_increasing_per_lineage(self):
        params = base_params(dt=0.05, T=2.0, lambda_bar=0.8,
                             birth=RateSpec("constant", {"c": 0.5}),
                             death=RateSpec("constant", {"c": 0.3}))
        traj = simulate_microscopic(params, 30, NoiseUniverse(29, 1))
        rows = event_rows(traj.events)
        times = [row[0] for row in rows]
        assert times == sorted(times)
        seen = {}
        for row in rows:
            key = row[1:4]
            assert key not in seen  # one terminal event per cell
            seen[key] = row[0]

    def test_observed_states_keep_dead_rows(self):
        # each checkpoint state holds every cell born by then, the dead with
        # a NaN position and their death time; the live counts the run
        # keeps are those of the states
        params = base_params(birth=RateSpec("zero"),
                             death=RateSpec("constant", {"c": 0.5}),
                             lambda_bar=0.5, dt=0.05, T=2.0)
        traj, states, _ = record(simulate_microscopic, params, 50,
                                 NoiseUniverse(2, 1))
        final = states[-1]
        assert len(final) == 50 and final.live_count < 50
        dead = ~final.live_mask
        assert np.all(np.isnan(final.positions[dead]))
        assert np.all(final.deaths[dead] <= params.T)
        assert np.all(final.deaths[~dead] == np.inf)
        assert traj.live.tolist() == [s.live_count for s in states]
        assert [s.time for s in states] == params.times().tolist()


class TestEngine:
    @pytest.mark.parametrize("spec", [
        RateSpec("zero"), RateSpec("constant", {"c": 0.3}),
        RateSpec("indicator", {"c": 0.8}),
        RateSpec("logistic", {"c": 0.3, "slope": 2.0, "center": 0.2})])
    def test_rates_do_not_depend_on_the_batch(self, spec):
        # a step's rates are read in one batch per round; each point's rate
        # must equal its rate read alone, bit for bit
        L = 8.0
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, L, (5000, 1))
        rho = rng.normal(0.0, 10.0, 5000)
        rate = spec.build(L)
        batch = np.asarray(rate(x, rho), dtype=np.float64)
        alone = np.array([rate(x[i:i + 1], rho[i:i + 1])[0]
                          for i in range(5000)])
        assert batch.view(np.uint64).tolist() == alone.view(np.uint64).tolist()

    def test_ordered_slots_equal_a_full_sort(self):
        # merged batch by batch (sometimes several at once), the order is
        # a stable sort of every slot by (line, word length, word bits)
        eng = _Engine(decoupled(), NoiseUniverse(3, 1))
        rng = np.random.default_rng(8)
        for batch in range(12):
            m = int(rng.integers(1, 40))
            eng.add_cells(rng.integers(1, 6, m), rng.integers(0, 4, m),
                          rng.integers(0, 4, m).astype(np.uint64),
                          rng.uniform(0.0, 8.0, (m, 1)), 0.0, 0)
            if batch % 3:
                n = eng.count
                full = np.lexsort((eng.wbits[:n], eng.wlens[:n],
                                   eng.lines[:n]))
                assert np.array_equal(eng.ordered_slots(), full)

    def test_states_are_built_only_for_an_observer(self, monkeypatch):
        # without an observer a run builds no checkpoint state; with one it
        # builds one per checkpoint, and the final field is the last seen
        built = []
        snapshot = _Engine.snapshot
        monkeypatch.setattr(_Engine, "snapshot",
                            lambda eng, t: built.append(t) or snapshot(eng, t))
        params = base_params(dt=0.05, T=1.0)
        bare = simulate_microscopic(params, 10, NoiseUniverse(3, 1))
        assert built == []
        traj, states, fields = record(simulate_microscopic, params, 10,
                                      NoiseUniverse(3, 1))
        assert built == params.times().tolist()
        assert traj.field is fields[-1]
        assert np.array_equal(bare.field.values, traj.field.values)
        assert np.array_equal(bare.live, traj.live)

    def test_sup_live_equals_event_replay(self):
        traj = simulate_microscopic(base_params(dt=0.05, T=2.0), 30,
                                    NoiseUniverse(29, 1))
        live = peak = 30
        for row in event_rows(traj.events):
            live += 1 if row[4] else -1
            peak = max(peak, live)
        assert peak > 30
        assert traj.sup_live_over_n0() == peak / 30


class TestLineageRestriction:
    def test_single_line_restriction_is_identity(self):
        params = base_params()
        _, states, _ = record(simulate_microscopic, params, 1,
                              NoiseUniverse(4, 1))
        assert all(states_equal(s.restrict_to_line(1), s) for s in states)

    def test_restrictions_partition_population(self):
        params = base_params(dt=0.05, T=1.0)
        n0 = 12
        traj, states, _ = record(simulate_microscopic, params, n0,
                                 NoiseUniverse(6, 1))
        for k in (0, len(states) // 2, len(states) - 1):
            total = sum(states[k].restrict_to_line(i).live_count
                        for i in range(1, n0 + 1))
            assert total == states[k].live_count == traj.live[k]


class TestGuards:
    def test_population_explosion(self):
        params = base_params(birth=RateSpec("constant", {"c": 5.0}),
                             death=RateSpec("zero"), lambda_bar=5.0,
                             alpha=0.0, drift=DriftSpec("zero"),
                             dt=0.05, T=2.0, population_cap=40)
        with pytest.raises(PopulationExplosion):
            simulate_microscopic(params, 20, NoiseUniverse(10, 1))

    @pytest.mark.parametrize("seed", [2, 5])
    def test_population_cap_at_the_exact_peak(self, seed):
        # the cap holds for the live count in time order over each step's
        # events: a cap at the run's peak lets it finish unchanged, one
        # below raises.  With seed 5 the events found by a step's rounds,
        # counted regardless of their order, pass the peak
        params = base_params(birth=RateSpec("constant", {"c": 6.0}),
                             death=RateSpec("constant", {"c": 4.0}),
                             lambda_bar=10.0, alpha=0.0,
                             drift=DriftSpec("zero"), dt=0.1, T=1.0)
        u = NoiseUniverse(seed, 1)
        free, free_states, _ = record(simulate_microscopic, params, 10, u)
        rows = event_rows(free.events)
        live = 10 + np.cumsum([1 if row[4] else -1 for row in rows])
        peak = int(live.max())
        assert peak > 10
        if seed == 2:
            # the count first reaches the peak when a cell born earlier in
            # the same step branches
            t, *cell, branched, _ = rows[int(np.argmax(live))]
            final = free_states[-1]
            born = final.births[row_of(final, cell)]
            step = np.searchsorted(params.times(), [born, t],
                                   side="right") - 1
            assert branched and born > 0
            assert step[0] == step[1]
        at_peak = simulate_microscopic(
            dataclasses.replace(params, population_cap=peak), 10, u)
        assert event_rows(at_peak.events) == rows
        with pytest.raises(PopulationExplosion):
            simulate_microscopic(
                dataclasses.replace(params, population_cap=peak - 1), 10, u)

    @pytest.mark.parametrize("seed", [4, 7, 12])
    def test_tied_event_times(self, seed, monkeypatch):
        # clock times floored to multiples of dt/2 make most events tie: the
        # events still come in (time, line, word length, word bits) order,
        # and the cap still holds in that order, one tied event at a time
        params = base_params(birth=RateSpec("constant", {"c": 6.0}),
                             death=RateSpec("constant", {"c": 4.0}),
                             lambda_bar=10.0, alpha=0.0,
                             drift=DriftSpec("zero"), dt=0.1, T=1.0)
        h = params.dt / 2
        clock_arrays = NoiseUniverse.clock_arrays

        def floored(self, cells, t_end, lambda_bar):
            times, marks, offsets = clock_arrays(self, cells, t_end, lambda_bar)
            return np.floor(times / h) * h, marks, offsets

        monkeypatch.setattr(NoiseUniverse, "clock_arrays", floored)
        u = NoiseUniverse(seed, 1)
        ev = simulate_microscopic(params, 10, u).events
        _, count = np.unique(ev.time, return_counts=True)
        assert np.sum(count[count > 1]) > len(ev.time) // 2
        order = np.lexsort((ev.word_bits, ev.word_len, ev.line, ev.time))
        assert np.array_equal(order, np.arange(len(order)))
        live = 10 + np.cumsum(np.where(ev.branch, 1, -1))
        peak = int(live.max())
        assert peak > 10
        at_peak = simulate_microscopic(
            dataclasses.replace(params, population_cap=peak), 10, u).events
        for name in ("time", "line", "word_len", "word_bits", "branch",
                     "position"):
            assert np.array_equal(getattr(at_peak, name), getattr(ev, name))
        with pytest.raises(PopulationExplosion):
            simulate_microscopic(
                dataclasses.replace(params, population_cap=peak - 1), 10, u)

    def test_explosive_step_stops_near_the_cap(self, monkeypatch):
        # every cell branches hundreds of times within the first step: the
        # run stops at the cap, and once past it the step's events are taken
        # one at a time, so the engine holds at most about three caps
        params = base_params(birth=RateSpec("constant", {"c": 200.0}),
                             death=RateSpec("zero"), lambda_bar=200.0,
                             alpha=0.0, drift=DriftSpec("zero"), dt=1.0,
                             T=2.0, population_cap=2000)
        held = []
        add_cells = _Engine.add_cells

        def counted(eng, *args):
            new = add_cells(eng, *args)
            held.append(eng.n_live)
            return new

        monkeypatch.setattr(_Engine, "add_cells", counted)
        with pytest.raises(PopulationExplosion):
            simulate_microscopic(params, 10, NoiseUniverse(1, 1))
        assert 2000 < max(held) <= 3 * 2000

    def test_one_cell_rounds_gather_only_the_cells_they_touch(self,
                                                              monkeypatch):
        # past the cap each round takes one cell; it reads the next times
        # of that cell and its daughters only, not of every pending cell.
        # Every clock point branches here, so the next times gathered are
        # those of the founders and of each cell added once: linear in the
        # rounds, not rounds x pending cells
        params = base_params(birth=RateSpec("constant", {"c": 200.0}),
                             death=RateSpec("zero"), lambda_bar=200.0,
                             alpha=0.0, drift=DriftSpec("zero"), dt=1.0,
                             T=2.0, population_cap=2000)
        gathered, added = [], []
        next_times, add_cells = _Engine.next_times, _Engine.add_cells

        def gather(eng, slots):
            gathered.append(len(slots))
            return next_times(eng, slots)

        def add(eng, lines, *args):
            added.append(len(lines))
            return add_cells(eng, lines, *args)

        monkeypatch.setattr(_Engine, "next_times", gather)
        monkeypatch.setattr(_Engine, "add_cells", add)
        with pytest.raises(PopulationExplosion):
            simulate_microscopic(params, 10, NoiseUniverse(1, 1))
        one_cell_rounds = added.count(2)
        assert one_cell_rounds > 1000
        assert sum(gathered) <= sum(added)

    def test_lineage_depth_limit(self):
        # a critical branching run with many founders grows a genealogy
        # past the 64 generations that a cell's word holds
        params = base_params(birth=RateSpec("constant", {"c": 50.0}),
                             death=RateSpec("constant", {"c": 50.0}),
                             lambda_bar=100.0, alpha=0.0,
                             drift=DriftSpec("zero"), dt=0.25, T=2.0)
        with pytest.raises(LineageDepthExceeded):
            simulate_microscopic(params, 30, NoiseUniverse(0, 1))

    @pytest.mark.parametrize("lines", [[], [0], [-3], [1, 1]])
    def test_founder_lines_checked_before_the_run(self, lines):
        # a line number leads each cell's identity and noise keys: lines
        # must be one or more distinct integers from 1
        with pytest.raises(ValueError, match="founder lines"):
            simulate_lines(base_params(), lines, NoiseUniverse(1, 1))

    def test_no_founders_rejected(self):
        with pytest.raises(ValueError, match="founder lines"):
            simulate_microscopic(base_params(), 0, NoiseUniverse(1, 1))

    def test_time_grid_validated(self):
        with pytest.raises(ValueError):
            base_params(dt=0.3, T=1.0)

    def test_clock_work_bounded_at_construction(self):
        # lambda_bar * T is the mean clock-point count of a cell
        base_params(lambda_bar=MAX_CLOCK_POINTS, T=1.0)
        for lam in (MAX_CLOCK_POINTS * 1.01, 1e300):
            with pytest.raises(ConfigInvalid) as exc:
                base_params(lambda_bar=lam, T=1.0)
            assert exc.value.field == "lambda_bar"

    def test_working_memory_does_not_grow_with_T(self):
        # the engine holds one 64-step block of Wiener increments per cell:
        # at a fixed population (zero rates) the memory a run frees when it
        # ends is the same at 64 and at 256 steps, up to the clock points
        def working(T):
            params = decoupled(lambda_bar=0.05, dt=0.25, T=T)
            tracemalloc.start()
            try:
                traj = simulate_microscopic(params, 256, NoiseUniverse(1, 1))
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert traj.live[-1] == 256
            return peak - current

        assert working(64.0) < 1.1 * working(16.0)

    def test_peak_memory_does_not_grow_with_run_length(self):
        # without an observer a run keeps no checkpoint: at a fixed
        # population its peak memory is the same at 64 and at 512 steps
        def peak(n_steps):
            params = decoupled(lambda_bar=0.05, dt=0.01, T=0.01 * n_steps)
            tracemalloc.start()
            try:
                traj = simulate_microscopic(params, 2000, NoiseUniverse(1, 1))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert traj.live.tolist() == [2000] * (n_steps + 1)
            return peak

        assert peak(512) < 1.5 * peak(64)


class TestWeakFormResidual:
    def test_drift_part_has_zero_mean(self):
        # Ito-expansion oracle: <phi, xi_T> - <phi, xi_0>
        #   - int <B phi + lambda phi, xi_s> ds is a martingale mean
        from chemobranch.analysis import TestFunctionBank

        params = base_params(
            birth=RateSpec("logistic", {"c": 0.3, "slope": 1.5, "center": 0.3}),
            death=RateSpec("constant", {"c": 0.1}), dt=0.02, T=1.0)
        phi = TestFunctionBank.default_for_grid(params.grid).functions[1]
        birth_fn, death_fn = params.rates
        u = NoiseUniverse(101, 1)
        reps, n0 = 80, 40
        residuals = []
        for rep in range(reps):
            _, states, fields = record(simulate_microscopic, params, n0,
                                       u.child("wf", rep))
            acc = 0.0
            for k in range(params.n_steps):
                pos = states[k].live_positions()
                if len(pos) == 0:
                    continue
                rho = fields[k]
                b = params.drift_fn(pos, rho.gradient_at(pos))
                arg = params.rate_argument(rho, pos)
                bphi = (np.sum(b * phi.gradient(pos), axis=1)
                        + 0.5 * params.sigma ** 2 * phi.laplacian(pos))
                lam = birth_fn(pos, arg) - death_fn(pos, arg)
                acc += params.dt * np.sum(bphi + lam * phi(pos)) / n0
            pair_T = np.sum(phi(states[-1].live_positions())) / n0
            pair_0 = np.sum(phi(states[0].live_positions())) / n0
            residuals.append(pair_T - pair_0 - acc)
        residuals = np.asarray(residuals)
        se = residuals.std(ddof=1) / np.sqrt(reps)
        assert abs(residuals.mean()) < 4 * se


class TestRateArgumentSwitch:
    def test_grad_rho_norm_changes_event_pattern(self):
        params_rho = base_params(
            birth=RateSpec("logistic", {"c": 0.4, "slope": 4.0, "center": 0.3}),
            death=RateSpec("zero"), lambda_bar=0.4, dt=0.05, T=2.0)
        params_grad = dataclasses.replace(params_rho,
                                          lambda_arg="grad_rho_norm")
        u = NoiseUniverse(44, 1)
        a = simulate_microscopic(params_rho, 40, u)
        b = simulate_microscopic(params_grad, 40, u)
        sig_a = [row[:5] for row in event_rows(a.events)]
        sig_b = [row[:5] for row in event_rows(b.events)]
        assert sig_a != sig_b  # the switch reaches the thinning decision

    def test_grad_rho_norm_consistent_across_models(self):
        # mass-particle total mass against the density solver's total mass
        from chemobranch import (simulate_mass_ensemble, solve_pks,
                                 solve_selfconsistent_field)
        params = base_params(
            birth=RateSpec("logistic", {"c": 0.4, "slope": 4.0, "center": 0.1}),
            death=RateSpec("zero"), lambda_bar=0.4, dt=0.01, T=0.5,
            lambda_arg="grad_rho_norm", advection="semi_lagrangian")
        sol = solve_pks(params)
        scf = solve_selfconsistent_field(params, "macroscopic")
        ens = simulate_mass_ensemble(params, scf.rho_path,
                                     NoiseUniverse(45, 1), 4000)
        mc = ens.M.mean()  # the final masses
        se = ens.M.std(ddof=1) / np.sqrt(4000)
        pde = sol.mass()[-1]
        assert abs(mc - pde) < 3 * se + 2e-3

    def test_unknown_lambda_arg_rejected(self):
        with pytest.raises(ValueError):
            base_params(lambda_arg="hessian")
