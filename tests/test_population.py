import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import row_by_row_lines, written

from chemobranch import (DimensionMismatch, EmpiricalMeasure, NonFiniteAtom,
                         PopulationState, empirical, integrate, mean_se,
                         state_distance)
from chemobranch.population import SnapshotWriter, cell_keys


def word(bits_str: str) -> tuple[int, int]:
    return (len(bits_str), int(bits_str, 2) if bits_str else 0)


def make_idx(line, bits_str=""):
    """The cell (line, word length, word bits) of a word given as text."""
    return (line, *word(bits_str))


class TestCellOrder:
    @given(cells=st.lists(st.tuples(
        st.integers(-2 ** 63, 2 ** 63 - 1), st.integers(0, 64)).flatmap(
            lambda lw: st.tuples(st.just(lw[0]), st.just(lw[1]),
                                 st.integers(0, 2 ** lw[1] - 1))),
        min_size=2, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_cell_keys_sort_as_the_index_tuples(self, cells):
        keys = cell_keys(*(np.array(c, dtype=t) for c, t in zip(
            zip(*cells), (np.int64, np.int64, np.uint64))))
        for a in range(len(cells)):
            for b in range(len(cells)):
                assert (keys[a] < keys[b]) == (cells[a] < cells[b])
                assert (keys[a] == keys[b]) == (cells[a] == cells[b])
        assert np.array_equal(np.argsort(keys, kind="stable"),
                              sorted(range(len(cells)), key=cells.__getitem__))

    def test_cell_keys_order_line_then_word_length_then_bits(self):
        cells = [make_idx(2), make_idx(1, "1"), make_idx(1), make_idx(1, "01"),
                 make_idx(1, "0"), make_idx(1, "10")]
        keys = cell_keys(*zip(*cells))
        ordered = [cells[i] for i in np.argsort(keys, kind="stable")]
        assert ordered == [make_idx(1), make_idx(1, "0"), make_idx(1, "1"),
                           make_idx(1, "01"), make_idx(1, "10"), make_idx(2)]


def state_from(d, entries, time=0.0):
    """State of {index: position, or None for a cell dead at t=0.5}."""
    idxs = list(entries)
    positions = np.full((len(idxs), d), np.nan)  # a NaN row marks the dead
    for row, idx in enumerate(idxs):
        if entries[idx] is not None:
            positions[row] = entries[idx]
    deaths = [np.inf if entries[idx] is not None else 0.5 for idx in idxs]
    return PopulationState(time, d, [idx[0] for idx in idxs],
                           [idx[1] for idx in idxs],
                           [idx[2] for idx in idxs],
                           np.zeros(len(idxs)), deaths, positions)


def read_population(lines):
    """Parse one block of the snapshot format."""
    head = lines[0].split()
    assert head[:2] == ["#", "population"]
    t, d = float(head[2].removeprefix("t=")), int(head[3].removeprefix("d="))
    rows = [line.split() for line in lines[1:]]
    positions = [[np.nan] * d if row[5] == "dead"
                 else [float(x) for x in row[5:5 + d]] for row in rows]
    return PopulationState(t, d, [int(row[0]) for row in rows],
                           [int(row[2]) for row in rows],
                           [int(row[1]) for row in rows],
                           [float(row[3]) for row in rows],
                           [float(row[4]) for row in rows],
                           np.array(positions).reshape(len(rows), d))


_floats = st.one_of(st.sampled_from([0.0, -0.0, 1e-7, 0.1, 1e20, 5e-324]),
                    st.floats(allow_nan=False, allow_infinity=False))


class TestStateDistance:
    def test_identical_states(self):
        a = state_from(2, {make_idx(1): [0.1, 0.2], make_idx(2): [1.0, 1.5]})
        assert state_distance(a, a) == 0.0

    def test_dead_alive_mismatch_is_one(self):
        a = state_from(1, {make_idx(1): [0.3], make_idx(2): [0.9]})
        b = state_from(1, {make_idx(1): [0.3], make_idx(2): None})
        assert state_distance(a, b) == 1.0

    def test_euclidean_displacement(self):
        a = state_from(2, {make_idx(1): [1.0, 1.0]})
        b = state_from(2, {make_idx(1): [1.3, 1.4]})
        assert state_distance(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_position_difference_not_capped(self):
        a = state_from(1, {make_idx(1): [0.0]})
        b = state_from(1, {make_idx(1): [3.0]})
        assert state_distance(a, b) == pytest.approx(3.0)

    def test_absent_index_counts_as_dead(self):
        a = state_from(1, {make_idx(1): [0.5], make_idx(2): [0.7]})
        b = state_from(1, {make_idx(1): [0.5]})
        assert state_distance(a, b) == 1.0
        # dead in one, absent in the other: both are the dead marker
        c = state_from(1, {make_idx(1): [0.5], make_idx(2): None})
        assert state_distance(b, c) == 0.0

    def test_dimension_mismatch(self):
        a = state_from(1, {make_idx(1): [0.5]})
        b = state_from(2, {make_idx(1): [0.5, 0.5]})
        with pytest.raises(DimensionMismatch):
            state_distance(a, b)

    def test_periodic_extent_uses_minimum_image(self):
        a = state_from(1, {make_idx(1): [0.01]})
        b = state_from(1, {make_idx(1): [7.99]})
        assert state_distance(a, b, extent=8.0) == pytest.approx(0.02)

    def test_metric_properties_random_triples(self):
        # The dead-marker convention |x - dead| = 1 makes the triangle
        # inequality valid only while live positions stay within diameter 2
        # (an alive-dead-alive chain costs 1 + 1); draw triples there.
        # Symmetry needs no such restriction and is checked more widely below.
        rng = np.random.default_rng(0)
        idxs = [make_idx(1), make_idx(1, "0"), make_idx(1, "1"), make_idx(2)]

        def random_state(spread):
            entries = {}
            for idx in idxs:
                roll = rng.uniform()
                if roll < 0.25:
                    continue                      # absent
                if roll < 0.5:
                    entries[idx] = None           # dead marker
                else:
                    entries[idx] = rng.uniform(0, spread, size=2)
            return state_from(2, entries)

        for _ in range(200):
            a, b, c = (random_state(np.sqrt(2.0)) for _ in range(3))
            dab, dba = state_distance(a, b), state_distance(b, a)
            assert dab == dba
            assert state_distance(a, c) <= dab + state_distance(b, c) + 1e-12
        for _ in range(50):
            a, b = random_state(10.0), random_state(10.0)
            assert state_distance(a, b) == state_distance(b, a)


def reference_distance(a, b, extent=None):
    """state_distance as a loop over a dict from each cell to its row."""
    def rows(state):
        return {(int(l), int(wl), int(wb)): r for r, (l, wl, wb) in enumerate(
            zip(state.lines, state.word_lens, state.word_bits))}

    rows_a, rows_b = rows(a), rows(b)
    best = 0.0
    for key, ra in rows_a.items():
        pa = a.positions[ra]
        if key in rows_b:
            pb = b.positions[rows_b[key]]
            dead_a, dead_b = np.isnan(pa[0]), np.isnan(pb[0])
            if dead_a and dead_b:
                continue
            if dead_a != dead_b:
                best = max(best, 1.0)
                continue
            diff = pa - pb
            if extent is not None:
                diff = (diff + 0.5 * extent) % extent - 0.5 * extent
            best = max(best, float(np.sqrt(np.sum(diff * diff))))
        elif not np.isnan(pa[0]):
            best = max(best, 1.0)
    for key, rb in rows_b.items():
        if key not in rows_a and not np.isnan(b.positions[rb][0]):
            best = max(best, 1.0)
    return best


def random_state(rng, d, cells, spread=8.0):
    """Some of ``cells``, in random row order, each dead or at a random
    position; the rest are missing."""
    rows = [c for c in cells if rng.uniform() < 0.6]
    rng.shuffle(rows)
    dead = rng.uniform(size=len(rows)) < 0.3
    positions = rng.uniform(0.0, spread, (len(rows), d))
    positions[dead] = np.nan
    return PopulationState(0.0, d, [c[0] for c in rows],
                           [c[1] for c in rows], [c[2] for c in rows],
                           np.zeros(len(rows)),
                           np.where(dead, 0.5, np.inf), positions)


class TestStateMatching:
    @pytest.mark.parametrize("d", [1, 2])
    def test_distance_equals_a_per_cell_loop(self, d):
        # missing, dead and live rows of two random states, matched by cell
        rng = np.random.default_rng(40 + d)
        for case in range(1500):
            n = int(rng.integers(0, 10))
            wlens = rng.integers(0, 4, n)
            cells = {(int(line), int(wl), int(rng.integers(0, 2 ** wl)))
                     for line, wl in zip(rng.integers(1, 5, n), wlens)}
            cells = sorted(cells)
            a, b = (random_state(rng, d, cells) for _ in range(2))
            for extent in (None, 8.0):
                for x, y in ((a, b), (b, a), (a, a)):
                    assert state_distance(x, y, extent) == \
                        reference_distance(x, y, extent)
        empty = random_state(rng, d, [])
        full = random_state(rng, d, [(1, 0, 0), (2, 1, 1)])
        assert state_distance(empty, empty) == 0.0
        assert state_distance(empty, full) == reference_distance(empty, full)

    def test_restrict_to_line_selects_the_lines_rows(self):
        rng = np.random.default_rng(7)
        cells = [(line, wl, bits) for line in (1, 2, 4)
                 for wl in range(3) for bits in range(2 ** wl)]
        state = random_state(rng, 2, cells)
        for line in range(6):
            part = state.restrict_to_line(line)
            keep = state.lines == line
            for name in ("lines", "word_lens", "word_bits", "births",
                         "deaths", "keys"):
                assert np.array_equal(getattr(part, name),
                                      getattr(state, name)[keep])
            assert np.array_equal(part.positions, state.positions[keep],
                                  equal_nan=True)
            assert len(part) == int(keep.sum())
            if line not in state.lines:
                assert len(part) == 0 and part.d == 2


class TestEmpiricalMeasure:
    def test_count_with_unit_normalization(self):
        pop = state_from(2, {make_idx(i): [0.1 * i, 0.0] for i in (1, 2, 3)})
        assert np.sum(empirical(pop, 1).weights) == pytest.approx(3.0)

    def test_all_dead_gives_zero_measure(self):
        pop = state_from(1, {make_idx(1): None, make_idx(2): None})
        mu = empirical(pop, 1)
        assert np.sum(mu.weights) == 0.0
        assert integrate(mu, lambda x: np.ones(len(x))) == 0.0

    def test_normalization(self):
        pop = state_from(1, {make_idx(i): [0.01 * i] for i in range(1, 101)})
        assert np.sum(empirical(pop, 100).weights) == pytest.approx(1.0)

    def test_count_identity_exact(self):
        pop = state_from(1, {make_idx(i): [0.02 * i] for i in range(1, 38)})
        mu = empirical(pop, 7)
        total = integrate(mu, lambda x: np.ones(len(x)))
        assert total * 7 == pytest.approx(37, abs=1e-10)

    def test_constant_test_function(self):
        mu = EmpiricalMeasure(np.array([[0.1], [0.4]]), np.array([0.5, 0.25]))
        assert integrate(mu, lambda x: np.ones(len(x))) == pytest.approx(0.75)

    def test_single_atom_pairing(self):
        mu = EmpiricalMeasure(np.array([[1.0, 2.0]]), np.array([0.5]))

        def bump(x):
            return 2.0 * np.ones(len(x))

        assert integrate(mu, bump) == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("at", ["position", "weight"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_atom_rejected(self, d, at, bad):
        pos = np.full((3, d), 1.0)
        w = np.full(3, 0.5)
        if at == "position":
            pos[1, d - 1] = bad
        else:
            w[1] = bad
        with pytest.raises(NonFiniteAtom):
            EmpiricalMeasure(pos, w)

    def test_weights_are_nonnegative(self):
        mu = EmpiricalMeasure(np.array([[1.0], [2.0]]), np.array([0.0, 0.5]))
        assert integrate(mu, lambda x: np.ones(len(x))) == 0.5
        with pytest.raises(ValueError, match="nonnegative"):
            EmpiricalMeasure(np.array([[1.0]]), np.array([-1e-300]))

    def test_mean_se_over_replicas(self):
        # SE = sample std (ddof 1) / sqrt(n); one replica has SE 0
        mean, se = mean_se([1.0, 2.0, 3.0, 4.0])
        assert mean == 2.5
        assert se == pytest.approx(np.sqrt(5.0 / 3.0) / 2.0, rel=1e-15)
        assert mean_se([5.0]) == (5.0, 0.0)


class TestSerialization:
    def test_population_round_trip(self):
        pop = state_from(2, {make_idx(1): [0.25, 0.5],
                             make_idx(1, "0"): None,
                             make_idx(3, "101"): [7.125, 0.0]},
                         time=1.5)
        back = read_population(written(pop).splitlines())
        assert back.time == pop.time and back.d == pop.d
        assert np.array_equal(back.lines, pop.lines)
        assert np.array_equal(back.word_lens, pop.word_lens)
        assert np.array_equal(back.word_bits, pop.word_bits)
        assert np.array_equal(back.positions, pop.positions, equal_nan=True)
        assert np.array_equal(back.births, pop.births)
        assert np.array_equal(back.deaths, pop.deaths)

    def test_dead_rows_serialize_as_dead(self):
        pop = state_from(1, {make_idx(1): None})
        assert written(pop).splitlines()[1].endswith(" dead")

    @given(data=st.data(), d=st.sampled_from([1, 2]), time=_floats,
           n=st.integers(0, 12))
    @settings(max_examples=300, deadline=None)
    def test_columnar_writer_matches_row_formatter(self, data, d, time, n):
        lines, word_lens, word_bits, births, deaths, positions = (
            [], [], [], [], [], [])
        for _ in range(n):
            word_len = data.draw(st.one_of(st.just(64), st.integers(0, 64)))
            lines.append(data.draw(st.integers(1, 10 ** 9)))
            word_lens.append(word_len)
            word_bits.append(data.draw(st.integers(0, 2 ** word_len - 1)))
            births.append(data.draw(_floats))
            dead = data.draw(st.booleans())
            deaths.append(data.draw(_floats) if dead
                          else data.draw(st.sampled_from([np.inf, 1e20])))
            positions.append([np.nan] * d if dead else
                             [data.draw(_floats) for _ in range(d)])
        pop = PopulationState(time, d, lines, word_lens, word_bits, births,
                              deaths, np.array(positions).reshape(n, d))
        assert written(pop) == "\n".join(row_by_row_lines(pop)) + "\n"

    def test_checkpoint_writer_matches_per_state_writer(self):
        def state(time, rows):
            # rows: (line, word, birth, death, position or None)
            return PopulationState(
                time, 1, [r[0] for r in rows], [word(r[1])[0] for r in rows],
                [word(r[1])[1] for r in rows], [r[2] for r in rows],
                [r[3] for r in rows],
                [[np.nan if r[4] is None else r[4]] for r in rows])

        a, b = (1, "", 0.0), (2, "", 0.0)
        run = [state(0.0, [(*a, np.inf, 1.0), (*b, np.inf, 2.0)]),
               state(0.5, [(*a, 0.3, None), (*b, np.inf, 2.5),
                           (1, "0", 0.3, np.inf, 1.5),
                           (1, "1", 0.3, np.inf, 0.5)]),
               state(1.0, [(*a, 0.3, None), (*b, 0.7, None),
                           (1, "0", 0.3, np.inf, 1.25),
                           (1, "1", 0.3, np.inf, 0.75),
                           (1, "10", 0.9, np.inf, 0.0)])]
        out = io.StringIO()
        writer = SnapshotWriter(out)
        for pop in run:
            writer.write(pop)
        assert out.getvalue() == "".join(map(written, run)) == "".join(
            "\n".join(row_by_row_lines(pop)) + "\n" for pop in run)

    def test_snapshot_writer_rejects_a_checkpoint_without_a_written_cell(self):
        # without the check, line 3 took line 2's row: "2 0 0 0.0 inf 3.5"
        first = state_from(1, {make_idx(1): [1.0], make_idx(2): [2.0]})
        out = io.StringIO()
        writer = SnapshotWriter(out)
        writer.write(first)
        with pytest.raises(ValueError, match="lacks a cell"):
            writer.write(state_from(1, {make_idx(1): [1.0],
                                        make_idx(3): [3.5]}, time=0.5))
        assert out.getvalue() == written(first)

    def test_snapshot_writer_rejects_a_changed_birth(self):
        first = state_from(1, {make_idx(1): [1.0]})
        out = io.StringIO()
        writer = SnapshotWriter(out)
        writer.write(first)
        with pytest.raises(ValueError, match="birth"):
            writer.write(PopulationState(0.5, 1, [1], [0], [0], [0.25],
                                         [np.inf], [[1.0]]))
        assert out.getvalue() == written(first)

    @given(data=st.data(), d=st.sampled_from([1, 2]))
    @settings(max_examples=200, deadline=None)
    def test_snapshot_writer_over_a_growing_population(self, data, d):
        # cells born, moved and killed at random checkpoints, every cell
        # kept once born: the streamed writer gives the per-state text
        keys = data.draw(st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 64)).flatmap(
                lambda lw: st.tuples(st.just(lw[0]), st.just(lw[1]),
                                     st.integers(0, 2 ** lw[1] - 1))),
            unique=True, max_size=12))
        births = [data.draw(st.integers(0, 3)) for _ in keys]
        deaths = [b + data.draw(st.sampled_from([1, 2, np.inf]))
                  for b in births]
        out = io.StringIO()
        writer = SnapshotWriter(out)
        expected = []
        for t in range(4):
            rows = [i for i, b in enumerate(births) if b <= t]
            pop = PopulationState(
                float(t), d, [keys[i][0] for i in rows],
                [keys[i][1] for i in rows], [keys[i][2] for i in rows],
                [births[i] for i in rows], [deaths[i] for i in rows],
                [[np.nan] * d if deaths[i] <= t else
                 [data.draw(_floats) for _ in range(d)] for i in rows])
            writer.write(pop)
            expected.append("\n".join(row_by_row_lines(pop)) + "\n")
        assert out.getvalue() == "".join(expected)

    def test_compact_drops_dead(self):
        pop = state_from(1, {make_idx(1): [0.5], make_idx(2): None})
        assert list(pop.live_mask) == [True, False] and pop.live_count == 1
        assert np.array_equal(pop.lines[pop.live_mask], [1])
        assert np.array_equal(pop.live_positions(), [[0.5]])
