from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.random import Philox
from scipy import stats
from scipy.special import ndtri

from chemobranch import LineageIndex, NoiseUniverse


def idx(line, word=""):
    return LineageIndex(line, len(word), int(word, 2) if word else 0)


class TestWienerStreams:
    def test_deterministic_replay(self):
        u = NoiseUniverse(123, 2)
        a = u.wiener_increments(idx(3, "01"), 5, 50, 0.02)
        b = u.wiener_increments(idx(3, "01"), 5, 50, 0.02)
        assert np.array_equal(a, b)

    def test_window_independence(self):
        u = NoiseUniverse(123, 2)
        full = u.wiener_increments(idx(1), 0, 100, 0.05)
        first = u.wiener_increments(idx(1), 0, 40, 0.05)
        second = u.wiener_increments(idx(1), 40, 100, 0.05)
        assert np.array_equal(full, np.vstack([first, second]))

    def test_sample_mean_bound(self):
        # CLT oracle: per-coordinate SE is sqrt(dt)/sqrt(N) = 0.1/1e3
        u = NoiseUniverse(2024, 1)
        inc = u.wiener_increments(idx(1), 0, 10 ** 6, 0.01)
        assert abs(inc.mean()) < 4 * 0.1 / 1e3

    def test_sample_covariance(self):
        # sample-covariance oracle: diag within 1% of dt, off-diagonal near 0
        u = NoiseUniverse(55, 2)
        inc = u.wiener_increments(idx(2), 0, 10 ** 6, 0.01)
        cov = np.cov(inc.T)
        assert abs(cov[0, 0] - 0.01) < 1e-4
        assert abs(cov[1, 1] - 0.01) < 1e-4
        assert abs(cov[0, 1]) < 1e-4

    def test_cross_stream_correlation(self):
        n = 10 ** 6
        u = NoiseUniverse(9, 1)
        a = u.wiener_increments(idx(1), 0, n, 1.0)[:, 0]
        b = u.wiener_increments(idx(1, "0"), 0, n, 1.0)[:, 0]
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 4 / np.sqrt(n)

    def test_distinct_seeds_decorrelate(self):
        u1 = NoiseUniverse(1, 1)
        u2 = NoiseUniverse(2, 1)
        a = u1.wiener_increments(idx(1), 0, 1000, 1.0)
        b = u2.wiener_increments(idx(1), 0, 1000, 1.0)
        assert not np.array_equal(a, b)

    def test_child_universe_differs_and_replays(self):
        u = NoiseUniverse(77, 1)
        c1 = u.child("replica", 4)
        c2 = u.child("replica", 5)
        a = c1.wiener_increments(idx(1), 0, 10, 1.0)
        assert not np.array_equal(a, c2.wiener_increments(idx(1), 0, 10, 1.0))
        assert np.array_equal(a, u.child("replica", 4).wiener_increments(idx(1), 0, 10, 1.0))

    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError):
            NoiseUniverse(1, 1).wiener_increments(idx(1), 0, 1, 0.0)


class TestPoissonClocks:
    def test_empty_window(self):
        u = NoiseUniverse(5, 1)
        times, marks = u.clock_arrays(idx(1), 0.0, 2.0)
        assert len(times) == 0 and len(marks) == 0
        times, _ = u.clock_arrays(idx(1), 1.0, 2.0)
        assert not np.any(times >= 1.0)      # the window [1, 1) is empty

    def test_restriction_consistency_exact(self):
        u = NoiseUniverse(5, 1)
        wide_t, wide_m = u.clock_arrays(idx(4, "11"), 3.0, 1.5)
        narrow_t, narrow_m = u.clock_arrays(idx(4, "11"), 2.1, 1.5)
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
        times, _ = u.clock_arrays(idx(2), 50.0, 3.0)
        assert np.all(np.diff(times) > 0)

    def test_mean_count_oracle(self):
        # Poisson mean oracle: lambda_bar * |window| = 2.0, tolerance 0.02
        u = NoiseUniverse(31, 1)
        counts = np.empty(10 ** 5)
        for i in range(10 ** 5):
            times, _ = u.clock_arrays(idx(i + 1), 1.0, 2.0)
            counts[i] = len(times)
        assert abs(counts.mean() - 2.0) < 0.02

    def test_marks_uniform_ks(self):
        # KS oracle against Uniform[0, lambda_bar] at the 1% level
        u = NoiseUniverse(13, 1)
        marks = []
        for i in range(4000):
            _, m = u.clock_arrays(idx(i + 1), 1.0, 2.0)
            marks.extend(m)
        marks = np.asarray(marks)
        assert len(marks) > 5000
        res = stats.kstest(marks, stats.uniform(loc=0.0, scale=2.0).cdf)
        assert res.pvalue > 0.01
        assert np.all((marks > 0) & (marks < 2.0))

    def test_count_distribution_poisson(self):
        # chi-square against Poisson(1.0) pmf on 0..5+
        u = NoiseUniverse(99, 1)
        n = 20000
        counts = np.array([len(u.clock_arrays(idx(i + 1), 1.0, 1.0)[0])
                           for i in range(n)])
        kmax = 6
        obs = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
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


def _ref_key(seed, idx, purpose):
    h = _ref_mix(seed & _MASK)
    for part in (idx.line, idx.word_bits, idx.word_len, purpose):
        h = _ref_mix(h ^ (part & _MASK))
    return np.array([h, _ref_mix(h ^ 0xD1B54A32D192ED03)], dtype=np.uint64)


def _ref_uniforms(key, start, count):
    if count <= 0:
        return np.empty(0)
    skip = start % 4
    raw = Philox(key=key, counter=start // 4).random_raw(skip + count)[skip:]
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53


def _ref_wiener(seed, d, idx, k0, k1, dt):
    u = _ref_uniforms(_ref_key(seed, idx, 1), k0 * d, (k1 - k0) * d)
    return ndtri(u).reshape(k1 - k0, d) * np.sqrt(dt)


def _ref_clock(seed, idx, t_end, lambda_bar):
    if t_end <= 0:
        return np.empty(0), np.empty(0)
    tkey, mkey = _ref_key(seed, idx, 2), _ref_key(seed, idx, 3)
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
def lineage_indices(draw):
    word_len = draw(st.integers(0, 64))
    bits = draw(st.integers(0, (1 << word_len) - 1))
    return LineageIndex(draw(st.integers(1, 10 ** 9)), word_len, bits)


seeds = st.integers(0, _MASK)


class TestStreamAlgorithmPinned:
    @settings(max_examples=150, deadline=None)
    @given(seed=seeds, d=st.sampled_from([1, 2]), index=lineage_indices(),
           k0=st.integers(0, 300), steps=st.integers(0, 120),
           dt=st.floats(1e-4, 10.0))
    @example(seed=7, d=2, index=LineageIndex(3, 2, 1), k0=37, steps=13, dt=0.02)
    @example(seed=7, d=1, index=LineageIndex(1), k0=50, steps=0, dt=0.02)
    def test_wiener_increments_match_reference(self, seed, d, index, k0,
                                               steps, dt):
        # k0 > 0 is a cell born at step k0: its stream starts mid-block
        got = NoiseUniverse(seed, d).wiener_increments(index, k0, k0 + steps, dt)
        assert _same_bits(got, _ref_wiener(seed, d, index, k0, k0 + steps, dt))

    @settings(max_examples=150, deadline=None)
    @given(seed=seeds, d=st.sampled_from([1, 2]), index=lineage_indices(),
           t_end=st.floats(-1.0, 8.0), lambda_bar=st.floats(1e-3, 300.0))
    @example(seed=11, d=1, index=LineageIndex(5), t_end=4.0,
             lambda_bar=200.0)       # lambda_bar * T = 800: 13 gap blocks
    @example(seed=11, d=1, index=LineageIndex(5), t_end=1e-9,
             lambda_bar=0.5)         # no point before t_end
    @example(seed=11, d=2, index=LineageIndex(2, 1, 1), t_end=0.0,
             lambda_bar=0.5)         # empty window
    def test_clock_arrays_match_reference(self, seed, d, index, t_end,
                                          lambda_bar):
        times, marks = NoiseUniverse(seed, d).clock_arrays(index, t_end,
                                                           lambda_bar)
        ref_times, ref_marks = _ref_clock(seed, index, t_end, lambda_bar)
        assert _same_bits(times, ref_times)
        assert _same_bits(marks, ref_marks)

    def test_streams_agree_across_threads(self):
        u = NoiseUniverse(21, 2)

        def draw(line):
            return (u.wiener_increments(idx(line, "10"), 3, 40, 0.1),
                    u.clock_arrays(idx(line), 30.0, 4.0))

        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(draw, range(1, 9)))
        for line, (inc, (times, marks)) in zip(range(1, 9), threaded):
            ref_inc, (ref_times, ref_marks) = draw(line)
            assert _same_bits(inc, ref_inc)
            assert _same_bits(times, ref_times)
            assert _same_bits(marks, ref_marks)
