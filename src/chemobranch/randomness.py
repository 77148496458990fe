"""Reproducible lineage-indexed noise: Wiener increments and Poisson clocks.

Every random number is a pure function of
(master_seed, line, ancestry word, purpose, counter), realized with Philox
counter-based streams.  Streams therefore do not depend on creation order,
thread schedule, or on how many founder lines a particular simulation uses --
which is what makes pathwise couplings across population sizes possible.

Every draw takes a batch of cells (or lines, or replicas) and returns one
row per member; a single cell is a batch of one.  The stream keys of a
batch are hashed in one vectorized SplitMix64 pass, each row is filled from
its own Philox stream, and every transform then runs once on the whole
block, so a row's bits do not depend on the batch it is drawn in.

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

_MASK64 = (1 << 64) - 1

# purpose tags; changing these renumbers every stream in existing outputs
PURPOSE_WIENER = 1
PURPOSE_CLOCK_TIME = 2
PURPOSE_CLOCK_MARK = 3
PURPOSE_INIT = 4
PURPOSE_MASS = 5

_CLOCK_BLOCK = 64  # gaps generated per refill; fixed so times replay exactly
_VECTOR_HASH = 16  # batches at least this large hash as uint64 arrays


def _mix64(x):
    """SplitMix64 finalizer of a Python int or, elementwise and wrapping
    modulo 2^64, of a uint64 array."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _hash_keys(h, line, word_bits, word_len, purposes) -> list:
    """Philox keys [(k0, k1) per purpose] of the cell (line, word) under the
    universe hash ``h``; Python ints, or uint64 arrays for a whole batch.

    The hash of (universe, line, word) is shared by a cell's purposes; each
    purpose mixes its tag into it and derives the key's second word from
    the first.
    """
    for part in (line, word_bits, word_len):
        h = _mix64(h ^ part)
    keys = []
    for purpose in purposes:
        k = _mix64(h ^ purpose)
        keys.append((k, _mix64(k ^ 0xD1B54A32D192ED03)))
    return keys


_local = threading.local()


def _fill_uniform(keys: list, start: int, rows) -> None:
    """Fill each row (a C-contiguous float64 array) with raw outputs
    [start, start + row.size) of the Philox stream keyed by the matching
    [k0, k1] of ``keys``, as (raw >> 11) * 2^-53.

    One Philox instance is reused per thread (construction would re-seed
    from OS entropy on every call); resetting its state dict is bitwise
    equivalent to constructing Philox(key=key, counter=start // 4).  Adding
    2^-54 afterwards maps the block into (0, 1) exactly as
    ((raw >> 11) + 0.5) * 2^-53 does.
    """
    try:
        bg, gen, state = _local.philox
    except AttributeError:
        bg = Philox(key=np.zeros(2, dtype=np.uint64))
        gen = np.random.Generator(bg)
        state = bg.state
        state["buffer_pos"] = 4          # force a fresh block at the counter
        state["has_uint32"] = 0
        state["uinteger"] = 0
        state["buffer"] = (0, 0, 0, 0)   # Python ints: the setter reads
        state["state"] = {"counter": None, "key": None}  # them fastest
        _local.philox = bg, gen, state
    inner = state["state"]
    inner["counter"] = (start // 4, 0, 0, 0)
    skip = start % 4
    for key, row in zip(keys, rows):
        if not row.size:
            continue
        inner["key"] = key
        bg.state = state
        if skip:
            bg.random_raw(skip)
        gen.random(out=row)


def _ints(column, m: int) -> list[int]:
    """A batch column as m Python ints; a scalar is shared by the batch."""
    column = np.asarray(column)
    return column.tolist() if column.ndim else [int(column)] * m


@dataclass(frozen=True)
class NoiseUniverse:
    """Addressable source of all Wiener and Poisson-clock randomness.

    One universe is shared by simulations of every population size; distinct
    experiments or Monte Carlo replicas should use ``child`` universes.

    A batch of cells is given as ``(lines, word_lens, word_bits)``: one
    array per identity column of a cell (``population``), or a scalar
    shared by the batch.
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
        return NoiseUniverse(_mix64(h ^ (index & _MASK64)), self.dimension)

    def _keys(self, cells, *purposes) -> list[list]:
        """Philox keys [k0, k1] of a batch of cells' streams, one list of m
        keys per purpose.

        Large batches hash in one pass over uint64 arrays; below
        ``_VECTOR_HASH`` cells numpy's per-call cost outweighs the work, and
        the same function runs on each cell's Python ints.
        """
        m = len(cells[0])
        if m >= _VECTOR_HASH:
            lines, lens, bits = (np.asarray(c).astype(np.uint64)
                                 for c in cells)
            keys = _hash_keys(np.full(m, self._seed_mix, dtype=np.uint64),
                              lines, bits, lens, purposes)
            return [np.stack(pair, axis=1).tolist() for pair in keys]
        lines, lens, bits = (_ints(c, m) for c in cells)
        per_cell = [_hash_keys(self._seed_mix, line & _MASK64, b, n, purposes)
                    for line, n, b in zip(lines, lens, bits)]
        return [[cell[i] for cell in per_cell] for i in range(len(purposes))]

    def _normals(self, keys: list, k0: int, k1: int, dt: float,
                 out: np.ndarray | None) -> np.ndarray:
        """N(0, dt·I) increments over steps [k0, k1) of each keyed stream,
        written into ``out`` (m, k1 - k0, d) when given; each ``out[i]``
        must be C-contiguous."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        shape = (len(keys), k1 - k0, self.dimension)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape:
            raise ValueError(f"out has shape {out.shape}, expected {shape}")
        _fill_uniform(keys, k0 * self.dimension, out)
        out += 2.0 ** -54
        ndtri(out, out=out)
        out *= math.sqrt(dt)
        return out

    # -- Wiener streams ----------------------------------------------------

    def wiener_increments(self, cells, k0: int, k1: int, dt: float,
                          out: np.ndarray | None = None) -> np.ndarray:
        """Increments of W_(line,word) over steps [k0, k1) for a batch of
        cells: shape (m, k1-k0, d), written into ``out`` when given.

        Entry [i, j] is cell i's increment over step k0+j, i.i.d. N(0, dt·I)
        and a pure function of (universe, cell, k0+j).
        """
        return self._normals(self._keys(cells, PURPOSE_WIENER)[0], k0, k1, dt,
                             out)

    # -- Poisson clocks ------------------------------------------------------

    def clock_arrays(self, cells, t_end: float, lambda_bar: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Clock points of N_(line,word) with time < t_end for a batch of
        cells, as flat (times, marks, offsets): cell i's points are
        ``times[offsets[i]:offsets[i + 1]]``; marks are uniform in
        (0, lambda_bar).

        The underlying point process is fixed once per (universe, cell,
        lambda_bar): point m has time = sum_{g<=m} Exp_g(lambda_bar) anchored
        at 0 and an independent uniform mark, so a smaller ``t_end`` returns a
        prefix of a cell's points of a larger one, and a window [t0, t_end)
        is the ``times >= t0`` part of that prefix.
        """
        if lambda_bar <= 0:
            raise ValueError("lambda_bar must be positive")
        m = len(cells[0])
        offsets = np.zeros(m + 1, dtype=np.int64)
        if t_end <= 0:
            return np.empty(0), np.empty(0), offsets
        tkeys, mkeys = self._keys(cells, PURPOSE_CLOCK_TIME,
                                  PURPOSE_CLOCK_MARK)
        counts = offsets[1:]
        # 64 gaps per row and refill; a row goes on while its last point
        # lies below t_end, so every block but its last lies below t_end
        blocks, rows, carry = [], slice(None), None
        while True:
            keys = (tkeys if carry is None
                    else [tkeys[r] for r in rows.tolist()])
            block = np.empty((len(keys), _CLOCK_BLOCK))
            _fill_uniform(keys, len(blocks) * _CLOCK_BLOCK, block)
            block += 2.0 ** -54
            np.log(block, out=block)
            block /= -lambda_bar
            np.cumsum(block, axis=1, out=block)
            if carry is not None:
                block += carry
            below = block < t_end
            counts[rows] += below.sum(axis=1)
            blocks.append((rows, block, below))
            more = np.flatnonzero(below[:, -1])
            if not len(more):
                break
            rows = more if carry is None else rows[more]
            carry = block[more, -1:]
        np.cumsum(offsets, out=offsets)
        if len(blocks) == 1:  # each row's points are a prefix of its block
            times = block[below]
        else:
            times = np.empty(offsets[-1])
            lane = np.arange(_CLOCK_BLOCK)
            for b, (rows, block, below) in enumerate(blocks):
                dest = offsets[:-1][rows, None] + (b * _CLOCK_BLOCK + lane)
                times[dest[below]] = block[below]
        marks = np.empty(len(times))
        if len(marks):
            bounds = offsets.tolist()
            _fill_uniform(mkeys, 0, [marks[a:b] for a, b in
                                     zip(bounds[:-1], bounds[1:])])
            marks += 2.0 ** -54
            marks *= lambda_bar
        return times, marks, offsets

    # -- initial data and auxiliary streams ---------------------------------

    def init_uniforms(self, lines, count: int) -> np.ndarray:
        """Uniform(0,1) draws (m, count) from the reserved init streams of a
        batch of lines."""
        out = np.empty((len(lines), count))
        _fill_uniform(self._keys((lines, 0, 0), PURPOSE_INIT)[0], 0, out)
        out += 2.0 ** -54
        return out

    def mass_increments(self, replicas, k0: int, k1: int, dt: float
                        ) -> np.ndarray:
        """Wiener increments (m, k1-k0, d) of the replica-indexed
        mass-particle streams of a batch of replicas."""
        keys = self._keys((replicas, 0, 0), PURPOSE_MASS)[0]
        return self._normals(keys, k0, k1, dt, None)
