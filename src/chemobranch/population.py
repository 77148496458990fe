"""Genealogy-indexed population state, its metric, and empirical measures.

Cells are identified by a cell-line number plus a binary ancestry word
(daughters append 0 and 1 to the mother's word).  A population snapshot maps
those identities to a position-or-dead record; the dead marker is represented
by a NaN position row.  Snapshots are immutable once built.

``cell_keys`` gives each identity one bytes key in the canonical cell
order; every ordering and lookup of cells sorts or searches these keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, LineageDepthExceeded, NonFiniteAtom

MAX_WORD_LEN = 64
_SIGN = np.uint64(1 << 63)


@dataclass(frozen=True, order=True)
class LineageIndex:
    """Identity of a cell: line number `line` and packed ancestry word.

    The word is stored MSB-first in ``word_bits`` with explicit length, so
    appending a symbol is ``bits << 1 | b``.  The empty word (length 0) is the
    founder of its line.  Indices compare as their fields in order, line,
    word length, word bits: the order of ``cell_keys``.
    """

    line: int
    word_len: int = 0
    word_bits: int = 0

    def __post_init__(self):
        if self.line < 1:
            raise ValueError("line numbers start at 1")
        if not 0 <= self.word_len <= MAX_WORD_LEN:
            raise LineageDepthExceeded(
                f"word length {self.word_len} outside [0, {MAX_WORD_LEN}]")
        if self.word_bits >> max(self.word_len, 0):
            raise ValueError("word_bits has bits beyond word_len")

    def word_str(self) -> str:
        return "@" + format(self.word_bits, "b").zfill(self.word_len) if self.word_len else "@"

    def __repr__(self):
        return f"LineageIndex({self.line}, {self.word_str()!r})"


def cell_keys(lines, word_lens, word_bits) -> np.ndarray:
    """One key per cell that sorts as (line, word length, word bits), the
    canonical cell order: the three as big-endian 64-bit words in 24 bytes,
    the line's sign bit flipped, which compare bytewise (a tenth of the time
    of a structured key)."""
    words = np.empty((len(lines), 3), dtype=">u8")
    words[:, 0] = np.asarray(lines, dtype=np.int64).view(np.uint64) ^ _SIGN
    words[:, 1] = word_lens
    words[:, 2] = word_bits
    return words.view("S24").ravel()


class PopulationState:
    """Finite map LineageIndex -> (birth, death, position) at a fixed time,
    array-backed.

    Rows are kept in ``cell_keys`` order, (line, word length, word bits),
    so that every iteration order, dump, and deposit is deterministic;
    ``keys`` holds each row's key.  A caller that has the keys of rows
    already in that order passes them as ``keys``; otherwise they are
    computed once and the rows sorted by them.  Dead cells keep their row
    (genealogy retained) with a NaN position; ``live_mask`` selects the
    live ones.
    """

    __slots__ = ("time", "d", "lines", "word_lens", "word_bits", "births",
                 "deaths", "positions", "keys")

    def __init__(self, time, d, lines, word_lens, word_bits, births, deaths,
                 positions, keys=None):
        self.time = float(time)
        self.d = int(d)
        lines = np.asarray(lines, dtype=np.int64)
        word_lens = np.asarray(word_lens, dtype=np.int64)
        word_bits = np.asarray(word_bits, dtype=np.uint64)
        births = np.asarray(births, dtype=np.float64)
        deaths = np.asarray(deaths, dtype=np.float64)
        positions = np.asarray(positions, dtype=np.float64).reshape(len(lines), self.d)
        if keys is None:
            keys = cell_keys(lines, word_lens, word_bits)
            order = np.argsort(keys, kind="stable")
            lines, word_lens, word_bits = lines[order], word_lens[order], word_bits[order]
            births, deaths, positions = births[order], deaths[order], positions[order]
            keys = keys[order]
        self.lines = lines
        self.word_lens = word_lens
        self.word_bits = word_bits
        self.births = births
        self.deaths = deaths
        self.positions = positions
        self.keys = keys

    def __len__(self) -> int:
        return len(self.lines)

    @property
    def live_mask(self) -> np.ndarray:
        return ~np.isnan(self.positions[:, 0])

    @property
    def live_count(self) -> int:
        return int(self.live_mask.sum())

    def live_positions(self) -> np.ndarray:
        return self.positions[self.live_mask]

    def restrict_to_line(self, line: int) -> "PopulationState":
        # the line leads the key, so its rows are one run of the sorted lines
        keep = slice(np.searchsorted(self.lines, line),
                     np.searchsorted(self.lines, line, side="right"))
        return PopulationState(self.time, self.d, self.lines[keep],
                               self.word_lens[keep], self.word_bits[keep],
                               self.births[keep], self.deaths[keep],
                               self.positions[keep], self.keys[keep])


def state_distance(a: PopulationState, b: PopulationState,
                   extent: float | None = None) -> float:
    """Sup metric over the union of indices; a missing index counts as dead.

    The dead/alive mismatch contributes exactly 1; the dead/dead pair 0; two
    live positions contribute their Euclidean distance, uncapped.  On the
    periodic domain pass ``extent`` to use minimum-image differences.
    """
    if a.d != b.d:
        raise DimensionMismatch(f"states have d={a.d} and d={b.d}")
    # rows ra of a and rb of b hold the same cells
    at = np.minimum(np.searchsorted(b.keys, a.keys), max(len(b) - 1, 0))
    match = b.keys[at] == a.keys if len(b) else np.zeros(len(a), dtype=bool)
    ra, rb = np.flatnonzero(match), at[match]
    both = a.live_mask[ra] & b.live_mask[rb]
    # some live cell is dead or missing in the other state
    alone = a.live_count + b.live_count > 2 * np.count_nonzero(both)
    diff = a.positions[ra[both]] - b.positions[rb[both]]
    if extent is not None:
        diff = (diff + 0.5 * extent) % extent - 0.5 * extent
    dist = np.sqrt(np.sum(diff * diff, axis=1)).max(initial=0.0)
    return max(float(dist), 1.0 if alone else 0.0)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted atomic measure: Σ weight_k · δ(position_k)."""

    positions: np.ndarray  # (n_atoms, d)
    weights: np.ndarray    # (n_atoms,)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if pos.ndim == 1:
            pos = pos.reshape(-1, 1)
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(w))):
            raise NonFiniteAtom("empirical measure contains non-finite atoms")
        if np.any(w <= 0):
            raise ValueError("atom weights must be positive")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)


def empirical(pop: PopulationState, n0: int) -> EmpiricalMeasure:
    """Empirical measure of all live cells: one atom of weight 1/n0 each."""
    live = pop.live_positions()
    return EmpiricalMeasure(live.reshape(len(live), pop.d),
                            np.full(len(live), 1.0 / n0))


def integrate(measure: EmpiricalMeasure, phi: Callable[[np.ndarray], np.ndarray]):
    """Pairing <phi, measure> = Σ weight · phi(position).

    ``phi`` receives an (n_atoms, d) array and returns per-atom values (a
    float pairing) or the values of k functions stacked as (k, n_atoms) (k
    pairings, each summed along the contiguous atom axis); scalar returns
    broadcast (constant test functions).
    """
    values = np.asarray(phi(measure.positions), dtype=np.float64)
    if values.shape[-1:] != measure.weights.shape:
        values = np.broadcast_to(values, measure.weights.shape)
    pairing = np.sum(measure.weights * values, axis=-1)
    return float(pairing) if pairing.ndim == 0 else pairing


def mean_se(values) -> tuple[float, float]:
    """Sample mean and its standard error std(ddof=1)/sqrt(n) over replicas.

    A single value has standard error 0.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    se = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(values)), se


# ---------------------------------------------------------------------------
# Line-oriented text format of the CLI's snapshot and CSV files

def _column_text(column):
    if not isinstance(column, np.ndarray):
        return column
    return map(repr if column.dtype.kind == "f" else str, column.tolist())


def join_columns(columns, sep: str = " ") -> list[str]:
    """Text rows whose row r joins entry r of every column with ``sep``.

    A float array is written as ``repr(float(x))`` and an integer array as
    ``str(int(x))``, each converted to Python values once per column; any
    other column must already hold strings.
    """
    return list(map(sep.join, zip(*map(_column_text, columns))))


def _identity_columns(pop: PopulationState, rows=slice(None)) -> list[str]:
    """The line, word bits, word length and birth of ``pop``'s ``rows``, as
    text."""
    return join_columns((pop.lines[rows], pop.word_bits[rows],
                         pop.word_lens[rows], pop.births[rows]))


def population_to_lines(pop: PopulationState,
                        identity: list[str] | None = None) -> list[str]:
    """A ``# population t= d=`` line, then one row per cell: line, word bits,
    word length, birth, death, and the position or ``dead``.

    ``identity``, when given, holds each row's first four fields as text
    (what ``_identity_columns`` makes of ``pop``).
    """
    coords = join_columns(pop.positions.T)
    where = [c if live else "dead"
             for c, live in zip(coords, pop.live_mask.tolist())]
    if identity is None:
        identity = _identity_columns(pop)
    return [f"# population t={pop.time!r} d={pop.d}"] + join_columns(
        (identity, pop.deaths, where))


class SnapshotWriter:
    """Writes the checkpoints of one run to an open text file as they come,
    each as ``population_to_lines`` makes it.

    A checkpoint holds every row of the one before it, since a run never
    drops a cell, so each cell's line, word and birth are formatted once, at
    the first checkpoint that holds it: one ``searchsorted`` over the cell
    keys (``pop.keys``) finds the rows formatted before.
    """

    def __init__(self, file):
        self.file = file
        self.keys = cell_keys([], [], [])
        self.identity = np.empty(0, dtype=object)

    def write(self, pop: PopulationState):
        seen = np.searchsorted(pop.keys, self.keys)
        fresh = np.ones(len(pop), dtype=bool)
        fresh[seen] = False
        identity = np.empty(len(pop), dtype=object)
        identity[seen] = self.identity
        identity[fresh] = _identity_columns(pop, fresh)
        self.keys, self.identity = pop.keys, identity
        self.file.write(
            "\n".join(population_to_lines(pop, identity.tolist())) + "\n")
