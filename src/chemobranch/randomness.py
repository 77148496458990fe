"""Reproducible lineage-indexed noise: Wiener increments and Poisson clocks.

Every random number is a pure function of
(master_seed, line, ancestry word, purpose, counter), realized with Philox
counter-based streams.  Streams therefore do not depend on creation order,
thread schedule, or on how many founder lines a particular simulation uses --
which is what makes pathwise couplings across population sizes possible.

Normals come from inverse-CDF transforms (one raw draw per normal) so that
random access by step index is exact.  Poisson clock times are built by
exponential-gap inversion anchored at t=0 per clock, so restricting a clock
to a smaller window returns exactly the same events.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field as dc_field

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .population import LineageIndex

_MASK64 = (1 << 64) - 1

# purpose tags; changing these renumbers every stream in existing outputs
PURPOSE_WIENER = 1
PURPOSE_CLOCK_TIME = 2
PURPOSE_CLOCK_MARK = 3
PURPOSE_INIT = 4
PURPOSE_MASS = 5

_CLOCK_BLOCK = 64  # gaps generated per refill; fixed so times replay exactly


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: collision-resistant 64-bit mixing."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _stream_key(prefix: int, purpose: int) -> tuple[int, int]:
    """Philox key of one purpose's stream of the cell hashed to ``prefix``."""
    h = _mix64(prefix ^ purpose)
    return h, _mix64(h ^ 0xD1B54A32D192ED03)


_local = threading.local()


def _uniform_open(key: tuple[int, int], start: int, count: int) -> np.ndarray:
    """Raw outputs [start, start+count) of the keyed Philox stream, mapped
    to doubles strictly inside (0, 1) as ((raw >> 11) + 0.5) * 2^-53.

    One Philox instance is reused per thread (construction would re-seed from
    OS entropy on every call); resetting its full state dict is bitwise
    equivalent to constructing Philox(key=key, counter=start // 4).
    ``Generator.random`` returns (raw >> 11) * 2^-53 exactly, and adding
    2^-54 rounds as adding 0.5 before the power-of-two scaling does.
    """
    if count <= 0:
        return np.empty(0)
    try:
        bg, gen, state = _local.philox
    except AttributeError:
        bg = Philox(key=np.zeros(2, dtype=np.uint64))
        gen = np.random.Generator(bg)
        state = bg.state
        state["buffer_pos"] = 4          # force a fresh block at the counter
        state["has_uint32"] = 0
        state["uinteger"] = 0
        _local.philox = bg, gen, state
    state["state"] = {"counter": (start // 4, 0, 0, 0), "key": key}
    bg.state = state
    skip = start % 4
    if skip:
        bg.random_raw(skip)
    u = gen.random(count)
    u += 2.0 ** -54
    return u


@dataclass(frozen=True)
class NoiseUniverse:
    """Addressable source of all Wiener and Poisson-clock randomness.

    One universe is shared by simulations of every population size; distinct
    experiments or Monte Carlo replicas should use ``child`` universes.
    """

    master_seed: int
    dimension: int
    _seed_mix: int = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_seed_mix",
                           _mix64(self.master_seed & _MASK64))

    def child(self, tag: str, index: int = 0) -> "NoiseUniverse":
        """Derive an independent universe, e.g. one per Monte Carlo replica."""
        h = self._seed_mix
        for byte in tag.encode("utf-8"):
            h = _mix64(h ^ byte)
        h = _mix64(h ^ (index & _MASK64))
        return NoiseUniverse(h, self.dimension)

    def _prefix(self, line: int, word_bits: int = 0, word_len: int = 0) -> int:
        """Hash of (master seed, line, ancestry word), shared by the
        purposes' stream keys of one cell."""
        h = self._seed_mix
        for part in (line, word_bits, word_len):
            h = _mix64(h ^ (part & _MASK64))
        return h

    def _normals(self, key: tuple[int, int], k0: int, k1: int,
                 dt: float) -> np.ndarray:
        if dt <= 0:
            raise ValueError("dt must be positive")
        d = self.dimension
        z = ndtri(_uniform_open(key, k0 * d, (k1 - k0) * d)).reshape(k1 - k0, d)
        z *= math.sqrt(dt)
        return z

    # -- Wiener streams ----------------------------------------------------

    def wiener_increments(self, idx: LineageIndex, k0: int, k1: int,
                          dt: float) -> np.ndarray:
        """Increments of W_(line,word) over steps [k0, k1): shape (k1-k0, d).

        Entry j is the increment over step k0+j, i.i.d. N(0, dt·I) and a pure
        function of (universe, idx, k0+j).
        """
        prefix = self._prefix(idx.line, idx.word_bits, idx.word_len)
        return self._normals(_stream_key(prefix, PURPOSE_WIENER), k0, k1, dt)

    # -- Poisson clocks ------------------------------------------------------

    def clock_arrays(self, idx: LineageIndex, t_end: float,
                     lambda_bar: float) -> tuple[np.ndarray, np.ndarray]:
        """Clock points of N_(line,word) with time < t_end, as (times, marks)
        arrays; marks are uniform in (0, lambda_bar).

        The underlying point process is fixed once per (universe, idx,
        lambda_bar): point m has time = sum_{g<=m} Exp_g(lambda_bar) anchored
        at 0 and an independent uniform mark, so a smaller ``t_end`` returns a
        prefix of the arrays of a larger one, and a window [t0, t_end) is the
        ``times >= t0`` part of that prefix.
        """
        if lambda_bar <= 0:
            raise ValueError("lambda_bar must be positive")
        if t_end <= 0:
            return np.empty(0), np.empty(0)
        prefix = self._prefix(idx.line, idx.word_bits, idx.word_len)
        tkey = _stream_key(prefix, PURPOSE_CLOCK_TIME)
        blocks: list[np.ndarray] = []
        carry = 0.0
        while carry < t_end:
            gaps = np.log(_uniform_open(tkey, len(blocks) * _CLOCK_BLOCK,
                                        _CLOCK_BLOCK))
            gaps /= -lambda_bar
            block = np.cumsum(gaps, out=gaps)
            if blocks:
                block += carry
            blocks.append(block)
            carry = block[-1]
        times = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        n = int(times.searchsorted(t_end))
        if n == 0:
            return times[:0], np.empty(0)
        marks = _uniform_open(_stream_key(prefix, PURPOSE_CLOCK_MARK), 0, n)
        marks *= lambda_bar
        return times[:n], marks

    # -- initial data and auxiliary streams ---------------------------------

    def init_uniforms(self, line: int, count: int,
                      purpose: int = PURPOSE_INIT) -> np.ndarray:
        """Uniform(0,1) draws from the reserved init stream of a line."""
        return _uniform_open(_stream_key(self._prefix(line), purpose), 0, count)

    def mass_increments(self, replica: int, k0: int, k1: int,
                        dt: float) -> np.ndarray:
        """Wiener increments for the replica-indexed mass-particle stream."""
        return self._normals(_stream_key(self._prefix(replica), PURPOSE_MASS),
                             k0, k1, dt)

