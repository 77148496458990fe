from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.random import Philox
from scipy import stats
from scipy.special import ndtri

from chemobranch import InitialMeasureSpec, NoiseUniverse


def idx(line, word=""):
    """The cell (line, word length, word bits) of a word given as text."""
    return (line, len(word), int(word, 2) if word else 0)


def batch(*cells):
    """A batch of cells as the (lines, word lengths, word bits) columns."""
    return (np.array([c[0] for c in cells], dtype=np.int64),
            np.array([c[1] for c in cells], dtype=np.int64),
            np.array([c[2] for c in cells], dtype=np.uint64))


def wiener(u, cell, k0, k1, dt):
    return u.wiener_increments(batch(cell), k0, k1, dt)[0]


def clock(u, cell, t_end, lambda_bar):
    times, marks, offsets = u.clock_arrays(batch(cell), t_end, lambda_bar)
    assert offsets.tolist() == [0, len(times)] and len(marks) == len(times)
    return times, marks


def counts(u, n, t_end, lambda_bar):
    """Clock-point counts of founders 1..n in one batch."""
    cells = (np.arange(1, n + 1), 0, 0)
    return np.diff(u.clock_arrays(cells, t_end, lambda_bar)[2])


class TestWienerStreams:
    def test_deterministic_replay(self):
        u = NoiseUniverse(123, 2)
        a = wiener(u, idx(3, "01"), 5, 50, 0.02)
        b = wiener(u, idx(3, "01"), 5, 50, 0.02)
        assert np.array_equal(a, b)

    def test_window_independence(self):
        u = NoiseUniverse(123, 2)
        full = wiener(u, idx(1), 0, 100, 0.05)
        first = wiener(u, idx(1), 0, 40, 0.05)
        second = wiener(u, idx(1), 40, 100, 0.05)
        assert np.array_equal(full, np.vstack([first, second]))

    def test_sample_mean_bound(self):
        # CLT oracle: per-coordinate SE is sqrt(dt)/sqrt(N) = 0.1/1e3
        u = NoiseUniverse(2024, 1)
        inc = wiener(u, idx(1), 0, 10 ** 6, 0.01)
        assert abs(inc.mean()) < 4 * 0.1 / 1e3

    def test_sample_covariance(self):
        # sample-covariance oracle: diag within 1% of dt, off-diagonal near 0
        u = NoiseUniverse(55, 2)
        inc = wiener(u, idx(2), 0, 10 ** 6, 0.01)
        cov = np.cov(inc.T)
        assert abs(cov[0, 0] - 0.01) < 1e-4
        assert abs(cov[1, 1] - 0.01) < 1e-4
        assert abs(cov[0, 1]) < 1e-4

    def test_cross_stream_correlation(self):
        n = 10 ** 6
        u = NoiseUniverse(9, 1)
        a = wiener(u, idx(1), 0, n, 1.0)[:, 0]
        b = wiener(u, idx(1, "0"), 0, n, 1.0)[:, 0]
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 4 / np.sqrt(n)

    def test_distinct_seeds_decorrelate(self):
        u1 = NoiseUniverse(1, 1)
        u2 = NoiseUniverse(2, 1)
        a = wiener(u1, idx(1), 0, 1000, 1.0)
        b = wiener(u2, idx(1), 0, 1000, 1.0)
        assert not np.array_equal(a, b)

    def test_child_universe_differs_and_replays(self):
        u = NoiseUniverse(77, 1)
        c1 = u.child("replica", 4)
        c2 = u.child("replica", 5)
        a = wiener(c1, idx(1), 0, 10, 1.0)
        assert not np.array_equal(a, wiener(c2, idx(1), 0, 10, 1.0))
        again = wiener(u.child("replica", 4), idx(1), 0, 10, 1.0)
        assert np.array_equal(a, again)

    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError):
            wiener(NoiseUniverse(1, 1), idx(1), 0, 1, 0.0)


class TestPoissonClocks:
    def test_empty_window(self):
        u = NoiseUniverse(5, 1)
        times, marks = clock(u, idx(1), 0.0, 2.0)
        assert len(times) == 0 and len(marks) == 0
        times, _ = clock(u, idx(1), 1.0, 2.0)
        assert not np.any(times >= 1.0)      # the window [1, 1) is empty

    def test_restriction_consistency_exact(self):
        u = NoiseUniverse(5, 1)
        wide_t, wide_m = clock(u, idx(4, "11"), 3.0, 1.5)
        narrow_t, narrow_m = clock(u, idx(4, "11"), 2.1, 1.5)
        n = len(narrow_t)
        assert 0 < n < len(wide_t)
        assert np.array_equal(narrow_t, wide_t[:n])
        assert np.array_equal(narrow_m, wide_m[:n])
        assert np.array_equal(narrow_t, wide_t[wide_t < 2.1])
        # the window [1.5, 3.0) is the times >= 1.5 part: a suffix
        late = np.flatnonzero(wide_t >= 1.5)
        assert 0 < len(late) < len(wide_t)
        assert np.array_equal(late, np.arange(len(wide_t) - len(late),
                                              len(wide_t)))

    def test_times_strictly_increasing(self):
        u = NoiseUniverse(5, 1)
        times, _ = clock(u, idx(2), 50.0, 3.0)
        assert np.all(np.diff(times) > 0)

    def test_mean_count_oracle(self):
        # Poisson mean oracle: lambda_bar * |window| = 2.0, tolerance 0.02
        n = counts(NoiseUniverse(31, 1), 10 ** 5, 1.0, 2.0)
        assert abs(n.mean() - 2.0) < 0.02

    def test_marks_uniform_ks(self):
        # KS oracle against Uniform[0, lambda_bar] at the 1% level
        u = NoiseUniverse(13, 1)
        _, marks, _ = u.clock_arrays((np.arange(1, 4001), 0, 0), 1.0, 2.0)
        assert len(marks) > 5000
        res = stats.kstest(marks, stats.uniform(loc=0.0, scale=2.0).cdf)
        assert res.pvalue > 0.01
        assert np.all((marks > 0) & (marks < 2.0))

    def test_count_distribution_poisson(self):
        # chi-square against Poisson(1.0) pmf on 0..5+
        n = 20000
        got = counts(NoiseUniverse(99, 1), n, 1.0, 1.0)
        kmax = 6
        obs = np.bincount(np.minimum(got, kmax), minlength=kmax + 1)
        pmf = stats.poisson(1.0).pmf(np.arange(kmax))
        expected = np.append(pmf, 1.0 - pmf.sum()) * n
        chi2 = np.sum((obs - expected) ** 2 / expected)
        assert chi2 < stats.chi2(df=kmax).ppf(0.999)


# ---------------------------------------------------------------------------
# Bitwise pin of the stream algorithm against a direct re-implementation:
# SplitMix64 key hashing, Philox4x64 positioned by counter = start // 4,
# ((raw >> 11) + 0.5) * 2^-53 uniforms, inverse-CDF normals and 64-gap
# exponential clock blocks anchored at t = 0.

_MASK = (1 << 64) - 1


def _ref_mix(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _ref_key(seed, cell, purpose):
    line, word_len, word_bits = cell
    h = _ref_mix(seed & _MASK)
    for part in (line, word_bits, word_len, purpose):
        h = _ref_mix(h ^ (part & _MASK))
    return np.array([h, _ref_mix(h ^ 0xD1B54A32D192ED03)], dtype=np.uint64)


def _ref_uniforms(key, start, count):
    if count <= 0:
        return np.empty(0)
    skip = start % 4
    raw = Philox(key=key, counter=start // 4).random_raw(skip + count)[skip:]
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def _ref_wiener(seed, d, cell, k0, k1, dt):
    u = _ref_uniforms(_ref_key(seed, cell, 1), k0 * d, (k1 - k0) * d)
    return ndtri(u).reshape(k1 - k0, d) * np.sqrt(dt)


def _ref_clock(seed, cell, t_end, lambda_bar):
    if t_end <= 0:
        return np.empty(0), np.empty(0)
    tkey, mkey = _ref_key(seed, cell, 2), _ref_key(seed, cell, 3)
    blocks, carry, g = [], 0.0, 0
    while carry < t_end:
        gaps = -np.log(_ref_uniforms(tkey, g, 64)) / lambda_bar
        blocks.append(carry + np.cumsum(gaps))
        carry = float(blocks[-1][-1])
        g += 64
    times = np.concatenate(blocks)
    n = int(np.searchsorted(times, t_end, side="left"))
    return times[:n], lambda_bar * _ref_uniforms(mkey, 0, n)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def cell_ids(draw):
    word_len = draw(st.integers(0, 64))
    bits = draw(st.integers(0, (1 << word_len) - 1))
    return (draw(st.integers(1, 10 ** 9)), word_len, bits)


@st.composite
def cell_batches(draw):
    """0, 1, 2 or 257 cells: batches this small hash their keys per cell in
    Python ints, and 257 cells hash as uint64 arrays."""
    size = draw(st.sampled_from([0, 1, 2, 257]))
    if size <= 2:
        return draw(st.lists(cell_ids(), min_size=size, max_size=size))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    cells = []
    for _ in range(size):
        word_len = int(rng.integers(0, 65))
        bits = int.from_bytes(rng.bytes(8), "little") >> (64 - word_len)
        cells.append((int(rng.integers(1, 10 ** 9)), word_len,
                      bits if word_len else 0))
    return cells


seeds = st.integers(0, _MASK)


class TestStreamAlgorithmPinned:
    """Every batched draw equals, row for row and bit for bit, the reference
    algorithm applied to each cell on its own."""

    @settings(max_examples=150, deadline=None)
    @given(seed=seeds, d=st.sampled_from([1, 2]), cells=cell_batches(),
           k0=st.integers(0, 300), steps=st.integers(0, 120),
           dt=st.floats(1e-4, 10.0))
    @example(seed=7, d=2, cells=[(3, 2, 1)], k0=37, steps=13, dt=0.02)
    @example(seed=7, d=1, cells=[(1, 0, 0)], k0=50, steps=0, dt=0.02)
    def test_wiener_increments_match_reference(self, seed, d, cells, k0,
                                               steps, dt):
        # k0 > 0 is a cell born at step k0: its stream starts mid-block
        u = NoiseUniverse(seed, d)
        got = u.wiener_increments(batch(*cells), k0, k0 + steps, dt)
        assert got.shape == (len(cells), steps, d)
        for row, cell in zip(got, cells):
            assert _same_bits(row, _ref_wiener(seed, d, cell, k0, k0 + steps,
                                               dt))
        # written in place into a window of a wider array, as the engine
        # fills its increment blocks; the margins stay untouched
        wide = np.zeros((len(cells), steps + 3, d))
        u.wiener_increments(batch(*cells), k0, k0 + steps, dt,
                            out=wide[:, 1:1 + steps])
        assert _same_bits(wide[:, 1:1 + steps], got)
        assert not wide[:, 0].any() and not wide[:, 1 + steps:].any()

    @settings(max_examples=150, deadline=None)
    @given(seed=seeds, d=st.sampled_from([1, 2]), cells=cell_batches(),
           t_end=st.floats(-1.0, 8.0), lambda_bar=st.floats(1e-3, 300.0))
    @example(seed=11, d=1, cells=[(5, 0, 0)], t_end=4.0,
             lambda_bar=200.0)       # lambda_bar * T = 800: 13 gap blocks
    @example(seed=11, d=1, cells=[(5, 0, 0), (6, 0, 0)],
             t_end=4.0, lambda_bar=16.0)  # rows that end in different blocks
    @example(seed=11, d=1, cells=[(5, 0, 0)], t_end=1e-9,
             lambda_bar=0.5)         # no point before t_end
    @example(seed=11, d=2, cells=[(2, 1, 1)], t_end=0.0,
             lambda_bar=0.5)         # empty window
    def test_clock_arrays_match_reference(self, seed, d, cells, t_end,
                                          lambda_bar):
        times, marks, offsets = NoiseUniverse(seed, d).clock_arrays(
            batch(*cells), t_end, lambda_bar)
        assert offsets[0] == 0 and len(offsets) == len(cells) + 1
        assert len(times) == len(marks) == offsets[-1]
        for i, cell in enumerate(cells):
            ref_times, ref_marks = _ref_clock(seed, cell, t_end, lambda_bar)
            cell = slice(offsets[i], offsets[i + 1])
            assert _same_bits(times[cell], ref_times)
            assert _same_bits(marks[cell], ref_marks)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, d=st.sampled_from([1, 2]), cells=cell_batches(),
           k0=st.integers(0, 100), lambda_bar=st.floats(1e-3, 300.0))
    def test_hashed_batch_draws_the_same_streams(self, seed, d, cells, k0,
                                                 lambda_bar):
        # a batch hashed once for its clock and Wiener streams, as the
        # engine hashes the cells it adds, draws the plain batch's bits
        u = NoiseUniverse(seed, d)
        hashed = u.hash_cells(batch(*cells))
        assert len(hashed) == len(cells) and u.hash_cells(hashed) is hashed
        for a, b in zip(u.clock_arrays(hashed, 2.0, lambda_bar),
                        u.clock_arrays(batch(*cells), 2.0, lambda_bar)):
            assert _same_bits(a, b)
        assert _same_bits(u.wiener_increments(hashed, k0, k0 + 70, 0.02),
                          u.wiener_increments(batch(*cells), k0, k0 + 70,
                                              0.02))

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, d=st.sampled_from([1, 2]), cells=cell_batches(),
           k0=st.integers(0, 100), steps=st.integers(0, 70))
    def test_line_streams_match_reference(self, seed, d, cells, k0, steps):
        # founders' initial positions and the replica-indexed mass streams
        lines = np.array([cell[0] for cell in cells], dtype=np.int64)
        u = NoiseUniverse(seed, d)
        init = u.init_uniforms(lines, d)
        mass = u.mass_increments(lines, k0, k0 + steps, 0.02)
        mu0 = InitialMeasureSpec("gaussian", {"center": [1.0] * d, "sd": 0.5})
        x0 = mu0.sample(u, lines, d, 8.0)
        assert init.shape == x0.shape == (len(cells), d)
        assert mass.shape == (len(cells), steps, d)
        for i, line in enumerate(lines.tolist()):
            root = (line, 0, 0)
            ref = _ref_uniforms(_ref_key(seed, root, 4), 0, d)
            assert _same_bits(init[i], ref)
            assert _same_bits(x0[i], np.mod(1.0 + 0.5 * ndtri(ref), 8.0))
            ref = _ref_uniforms(_ref_key(seed, root, 5), k0 * d, steps * d)
            assert _same_bits(mass[i], ndtri(ref).reshape(steps, d)
                              * np.sqrt(0.02))

    def test_streams_agree_across_threads(self):
        u = NoiseUniverse(21, 2)

        def draw(line):
            return (wiener(u, idx(line, "10"), 3, 40, 0.1),
                    clock(u, idx(line), 30.0, 4.0))

        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(draw, range(1, 9)))
        for line, (inc, (times, marks)) in zip(range(1, 9), threaded):
            ref_inc, (ref_times, ref_marks) = draw(line)
            assert _same_bits(inc, ref_inc)
            assert _same_bits(times, ref_times)
            assert _same_bits(marks, ref_marks)


def test_top_raw_output_maps_inside_the_open_unit_interval(monkeypatch):
    # (2^53 - 1) * 2^-53 + 2^-54 rounds (ties to even) to 1.0, where ndtri
    # is +inf and log is 0; every transform clamps it below 1
    from chemobranch import randomness
    real = randomness._fill_uniform
    top = (2 ** 53 - 1) * 2.0 ** -53

    def fill(keys, start, rows):
        real(keys, start, rows)
        for row in rows:
            if row.size:
                row.flat[0] = top  # every stream's first draw

    monkeypatch.setattr(randomness, "_fill_uniform", fill)
    u = NoiseUniverse(5, 2)
    cells = batch(idx(1), idx(2, "01"))
    for inc in (u.wiener_increments(cells, 0, 3, 0.01),
                u.mass_increments([1, 2], 0, 3, 0.01)):
        assert np.all(np.isfinite(inc))
        assert np.all(inc[:, 0, 0] == ndtri(np.nextafter(1.0, 0.0)) * 0.1)
    init = u.init_uniforms([1, 2], 2)
    assert np.all((init > 0.0) & (init < 1.0))
    assert np.all(init[:, 0] == np.nextafter(1.0, 0.0))
    spec = InitialMeasureSpec("gaussian", {"center": [4.0], "sd": 0.5})
    assert np.all(np.isfinite(spec.sample(u, [1, 2], 2, 8.0)))
    times, marks, offsets = u.clock_arrays(cells, 3.0, 2.0)
    assert np.all(times[offsets[:-1]] > 0.0)  # no zero first gap
    assert np.all(marks < 2.0) and np.all(marks > 0.0)
