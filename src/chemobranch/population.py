"""Genealogy-indexed population state, its metric, and empirical measures.

Cells are identified by a cell-line number plus a binary ancestry word
(daughters append 0 and 1 to the mother's word).  A population snapshot maps
those identities to a position-or-dead record; the dead marker is represented
by a NaN position row.  Snapshots are immutable once built and safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import (
    DimensionMismatch,
    LineageDepthExceeded,
    NonFiniteAtom,
    RootHasNoParent,
)

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

    def parent(self) -> "LineageIndex":
        """Drop the trailing symbol of the ancestry word."""
        if self.word_len == 0:
            raise RootHasNoParent(f"founder of line {self.line} has no parent")
        return LineageIndex(self.line, self.word_len - 1, self.word_bits >> 1)

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


@dataclass(frozen=True)
class CellRecord:
    """Per-cell data at a snapshot time.

    ``position`` is None exactly when the snapshot time lies outside
    [birth_time, death_time).  Times use +inf for events that never happen.
    """

    position: np.ndarray | None
    birth_time: float = 0.0
    death_time: float = np.inf

    def __post_init__(self):
        if np.isfinite(self.birth_time) and np.isfinite(self.death_time):
            if not self.birth_time < self.death_time:
                raise ValueError("birth_time must precede death_time")

    @property
    def alive(self) -> bool:
        return self.position is not None


class PopulationState:
    """Finite map LineageIndex -> CellRecord at a fixed time, array-backed.

    Rows are kept sorted by (line, word length, word bits) so that every
    iteration order, dump, and deposit is deterministic.  Dead cells keep
    their row (genealogy retained) with a NaN position; ``compact()`` drops
    them for long runs.
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

    @classmethod
    def from_records(cls, records: dict[LineageIndex, CellRecord], time: float,
                     d: int) -> "PopulationState":
        n = len(records)
        lines = np.empty(n, dtype=np.int64)
        word_lens = np.empty(n, dtype=np.int64)
        word_bits = np.empty(n, dtype=np.uint64)
        births = np.empty(n)
        deaths = np.empty(n)
        positions = np.full((n, d), np.nan)
        for row, (idx, rec) in enumerate(records.items()):
            lines[row] = idx.line
            word_lens[row] = idx.word_len
            word_bits[row] = idx.word_bits
            births[row] = rec.birth_time
            deaths[row] = rec.death_time
            if rec.position is not None:
                pos = np.asarray(rec.position, dtype=np.float64)
                if pos.shape != (d,):
                    raise DimensionMismatch(f"position has shape {pos.shape}, expected ({d},)")
                positions[row] = pos
        return cls(time, d, lines, word_lens, word_bits, births, deaths, positions)

    def _rows(self):
        if self._key_to_row is None:
            self._key_to_row = {
                (int(l), int(wl), int(wb)): r
                for r, (l, wl, wb) in enumerate(zip(self.lines, self.word_lens, self.word_bits))
            }
        return self._key_to_row

    def __len__(self) -> int:
        return len(self.lines)

    def __contains__(self, idx: LineageIndex) -> bool:
        return (idx.line, idx.word_len, idx.word_bits) in self._rows()

    def record(self, idx: LineageIndex) -> CellRecord:
        row = self._rows()[(idx.line, idx.word_len, idx.word_bits)]
        pos = self.positions[row]
        return CellRecord(
            position=None if np.isnan(pos[0]) else pos.copy(),
            birth_time=float(self.births[row]),
            death_time=float(self.deaths[row]),
        )

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

    def compact(self) -> "PopulationState":
        """Drop dead rows (genealogy no longer reconstructible)."""
        keep = self.live_mask
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

    @property
    def d(self) -> int:
        return self.positions.shape[1]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))


def empirical(pop: PopulationState, n0: int) -> EmpiricalMeasure:
    """Empirical measure of all live cells: one atom of weight 1/n0 each."""
    live = pop.live_positions()
    return EmpiricalMeasure(live.reshape(len(live), pop.d),
                            np.full(len(live), 1.0 / n0))


def integrate(measure: EmpiricalMeasure,
              phi: Callable[[np.ndarray], np.ndarray]) -> float:
    """Pairing <phi, measure> = Σ weight · phi(position).

    ``phi`` receives an (n_atoms, d) array and must return per-atom values;
    scalar returns broadcast (constant test functions).
    """
    if len(measure.weights) == 0:
        return 0.0
    values = np.asarray(phi(measure.positions), dtype=np.float64)
    values = np.broadcast_to(values, measure.weights.shape)
    return float(np.sum(measure.weights * values))


def mean_se(values) -> tuple[float, float]:
    """Sample mean and its standard error std(ddof=1)/sqrt(n) over replicas.

    A single value has standard error 0.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    se = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(values)), se


# ---------------------------------------------------------------------------
# Line-oriented text serialization (used for CLI trajectory dumps)

def _fmt(x: float) -> str:
    return repr(float(x))


def population_to_lines(pop: PopulationState) -> list[str]:
    out = [f"# population t={_fmt(pop.time)} d={pop.d}"]
    for row in range(len(pop)):
        head = (f"{pop.lines[row]} {pop.word_bits[row]} {pop.word_lens[row]} "
                f"{_fmt(pop.births[row])} {_fmt(pop.deaths[row])}")
        pos = pop.positions[row]
        if np.isnan(pos[0]):
            out.append(head + " dead")
        else:
            out.append(head + " " + " ".join(_fmt(x) for x in pos))
    return out


def population_from_lines(lines: Iterable[str]) -> PopulationState:
    it = iter(lines)
    header = next(it).split()
    if header[:2] != ["#", "population"]:
        raise ValueError("not a population block")
    t = float(header[2].split("=")[1])
    d = int(header[3].split("=")[1])
    recs: dict[LineageIndex, CellRecord] = {}
    for raw in it:
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            break
        parts = raw.split()
        idx = LineageIndex(int(parts[0]), int(parts[2]), int(parts[1]))
        birth, death = float(parts[3]), float(parts[4])
        if parts[5] == "dead":
            pos = None
        else:
            pos = np.array([float(x) for x in parts[5:5 + d]])
        recs[idx] = CellRecord(pos, birth, death)
    return PopulationState.from_records(recs, t, d)


def measure_to_lines(measure: EmpiricalMeasure, time: float = 0.0) -> list[str]:
    out = [f"# measure t={_fmt(time)} d={measure.d}"]
    for w, pos in zip(measure.weights, measure.positions):
        out.append(_fmt(w) + " " + " ".join(_fmt(x) for x in pos))
    return out


def measure_from_lines(lines: Iterable[str]) -> EmpiricalMeasure:
    it = iter(lines)
    header = next(it).split()
    if header[:2] != ["#", "measure"]:
        raise ValueError("not a measure block")
    weights, positions = [], []
    for raw in it:
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            break
        parts = raw.split()
        weights.append(float(parts[0]))
        positions.append([float(x) for x in parts[1:]])
    return EmpiricalMeasure(np.array(positions, dtype=np.float64),
                            np.array(weights, dtype=np.float64))
