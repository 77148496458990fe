"""Genealogy-indexed population state, its metric, and empirical measures.

Cells are identified by a cell-line number plus a binary ancestry word
(daughters append 0 and 1 to the mother's word).  A population snapshot maps
those identities to a position-or-dead record; the dead marker is represented
by a NaN position row.  Snapshots are immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, LineageDepthExceeded, NonFiniteAtom

MAX_WORD_LEN = 64


@dataclass(frozen=True, order=False)
class LineageIndex:
    """Identity of a cell: line number `line` and packed ancestry word.

    The word is stored MSB-first in ``word_bits`` with explicit length, so
    appending a symbol is ``bits << 1 | b``.  The empty word (length 0) is the
    founder of its line.
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

    def children(self) -> tuple["LineageIndex", "LineageIndex"]:
        """Indices of the two daughters (word + 0, word + 1)."""
        if self.word_len >= MAX_WORD_LEN:
            raise LineageDepthExceeded(
                f"genealogy deeper than {MAX_WORD_LEN} generations")
        return (
            LineageIndex(self.line, self.word_len + 1, self.word_bits << 1),
            LineageIndex(self.line, self.word_len + 1, (self.word_bits << 1) | 1),
        )

    def sort_key(self) -> tuple[int, int, int]:
        # line, then generation, then lexicographic within a generation
        return (self.line, self.word_len, self.word_bits)

    def word_str(self) -> str:
        return "@" + format(self.word_bits, "b").zfill(self.word_len) if self.word_len else "@"

    def __lt__(self, other: "LineageIndex") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return f"LineageIndex({self.line}, {self.word_str()!r})"


class PopulationState:
    """Finite map LineageIndex -> (birth, death, position) at a fixed time,
    array-backed.

    Rows are kept sorted by (line, word length, word bits) so that every
    iteration order, dump, and deposit is deterministic.  Dead cells keep
    their row (genealogy retained) with a NaN position; ``live_mask`` selects
    the live ones.
    """

    __slots__ = ("time", "d", "lines", "word_lens", "word_bits", "births",
                 "deaths", "positions", "_key_to_row")

    def __init__(self, time, d, lines, word_lens, word_bits, births, deaths,
                 positions, _presorted=False):
        self.time = float(time)
        self.d = int(d)
        lines = np.asarray(lines, dtype=np.int64)
        word_lens = np.asarray(word_lens, dtype=np.int64)
        word_bits = np.asarray(word_bits, dtype=np.uint64)
        births = np.asarray(births, dtype=np.float64)
        deaths = np.asarray(deaths, dtype=np.float64)
        positions = np.asarray(positions, dtype=np.float64).reshape(len(lines), self.d)
        if not _presorted:
            order = np.lexsort((word_bits, word_lens, lines))
            lines, word_lens, word_bits = lines[order], word_lens[order], word_bits[order]
            births, deaths, positions = births[order], deaths[order], positions[order]
        self.lines = lines
        self.word_lens = word_lens
        self.word_bits = word_bits
        self.births = births
        self.deaths = deaths
        self.positions = positions
        self._key_to_row = None

    def _rows(self):
        if self._key_to_row is None:
            self._key_to_row = {
                (int(l), int(wl), int(wb)): r
                for r, (l, wl, wb) in enumerate(zip(self.lines, self.word_lens, self.word_bits))
            }
        return self._key_to_row

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
        keep = self.lines == line
        return PopulationState(self.time, self.d, self.lines[keep],
                               self.word_lens[keep], self.word_bits[keep],
                               self.births[keep], self.deaths[keep],
                               self.positions[keep], _presorted=True)


def state_distance(a: PopulationState, b: PopulationState,
                   extent: float | None = None) -> float:
    """Sup metric over the union of indices; a missing index counts as dead.

    The dead/alive mismatch contributes exactly 1; the dead/dead pair 0; two
    live positions contribute their Euclidean distance, uncapped.  On the
    periodic domain pass ``extent`` to use minimum-image differences.
    """
    if a.d != b.d:
        raise DimensionMismatch(f"states have d={a.d} and d={b.d}")
    rows_a, rows_b = a._rows(), b._rows()
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


def population_to_lines(pop: PopulationState) -> list[str]:
    """A ``# population t= d=`` line, then one row per cell: line, word bits,
    word length, birth, death, and the position or ``dead``."""
    coords = join_columns(pop.positions.T)
    where = [c if live else "dead"
             for c, live in zip(coords, pop.live_mask.tolist())]
    return [f"# population t={pop.time!r} d={pop.d}"] + join_columns(
        (pop.lines, pop.word_bits, pop.word_lens, pop.births, pop.deaths,
         where))
