"""Depth-truncated resampling tables and their deterministic sampler.

A table holds, for every variable, a column of `depth` labels; row n is the
label the variable takes after its n-th resampling. Every reader of a table
(the resampling loop, the locality search, the witness checks) goes through
`get(v, row)` and `depth` only, the `CellSource` protocol. Two sources
implement it:

- stored: `Table` keeps whole columns, as loaded from JSON or drawn at once
  by `sample_table`;
- keyed: `KeyedTable` draws a cell the first time it is read and caches it.
  A loop that reads a few rows of a few variables draws only those.

Both draw every cell independently from blake2b(seed || trial || variable
|| row) through one `CellSampler`, so a cell does not depend on evaluation
order, and a keyed table, or a restriction to fewer variables, reads
exactly what the corresponding full sample holds.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Protocol

from .errors import (
    DepthExceededError,
    InvalidInputError,
    InvalidParameterError,
    MissingVariableError,
)
from .exact import parse_int

_SCALE = 1 << 64
# derive_u64's packing of (trial, variable, row).
_CELL_KEY = struct.Struct("<qqq")


class CellSource(Protocol):
    """What a reader of a table needs: its depth and one cell at a time."""

    depth: int

    def get(self, v: int, row: int) -> int: ...


@dataclass
class Table:
    depth: int
    columns: dict[int, tuple[int, ...]]

    def __post_init__(self):
        if self.depth < 1:
            raise InvalidInputError("table depth must be >= 1")
        for v, col in self.columns.items():
            if len(col) != self.depth:
                raise InvalidInputError(f"column of variable {v} has wrong length")

    def get(self, v: int, row: int) -> int:
        if v not in self.columns:
            raise MissingVariableError(f"table has no column for variable {v}")
        if not 0 <= row < self.depth:
            raise DepthExceededError(f"row {row} outside depth {self.depth}")
        return self.columns[v][row]


def table_from_json(obj) -> Table:
    try:
        depth = parse_int(obj["depth"])
        vs = [parse_int(v) for v in obj["variables"]]
        rows = obj["rows"]
        if len(set(vs)) != len(vs):
            raise InvalidInputError("table variables must be distinct")
        if len(rows) != depth:
            raise InvalidInputError("row count must equal depth")
        if not all(isinstance(row, list) and len(row) == len(vs) for row in rows):
            raise InvalidInputError("each row must list one label per variable")
        columns = {
            v: tuple(parse_int(rows[r][i]) for r in range(depth)) for i, v in enumerate(vs)
        }
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InvalidInputError(f"malformed table JSON: {exc}") from exc
    return Table(depth, columns)


def _keyed_hasher(seed: int):
    key = (seed & (_SCALE - 1)).to_bytes(8, "little")
    return hashlib.blake2b(digest_size=8, key=key)


def derive_u64(seed: int, *parts: int) -> int:
    """Keyed 64-bit derivation; the counter is the packed part tuple."""
    h = _keyed_hasher(seed)
    h.update(struct.pack("<" + "q" * len(parts), *parts))
    return int.from_bytes(h.digest(), "little")


def weight_thresholds(weights: tuple[Fraction, ...]) -> list[int]:
    """Cumulative weights scaled to 2**64 for integer inverse-CDF lookup.

    Interior thresholds round down, the last is exact, so each label's
    selection probability differs from its weight by less than 2**-64.
    """
    acc = Fraction(0)
    out = []
    for w in weights:
        acc += w
        out.append((acc.numerator * _SCALE) // acc.denominator)
    out[-1] = _SCALE
    return out


def sample_label(thresholds: list[int], u: int) -> int:
    return bisect_right(thresholds, u)


class CellSampler:
    """Keyed cell draws for one weight vector and seed.

    The label of cell (trial, v, row) is
    `sample_label(weight_thresholds(weights), derive_u64(seed, trial, v, row))`.
    The thresholds and the keyed hasher are built once here and the hasher
    is copied per cell, so a caller that draws many tables of one seed
    builds this once.
    """

    def __init__(self, weights: tuple[Fraction, ...], seed: int):
        self._thresholds = weight_thresholds(weights)
        self._hasher = _keyed_hasher(seed)

    def label(self, trial: int, v: int, row: int) -> int:
        h = self._hasher.copy()
        h.update(_CELL_KEY.pack(trial, v, row))
        return sample_label(self._thresholds, int.from_bytes(h.digest(), "little"))


class KeyedTable:
    """A table of `variables` x `depth` whose cells are drawn on first read.

    `get` checks the variable and the row first and raises what `Table.get`
    raises, so no cell outside the table is ever drawn. A drawn cell is
    cached; it equals the same cell of `sample_table` with the sampler's
    weights and seed, whatever the order of reads.
    """

    def __init__(self, cells: CellSampler, variables, depth: int, trial: int):
        if depth < 1:
            raise InvalidParameterError("depth must be >= 1")
        self.depth = depth
        self._trial = trial
        self._cells = cells
        self._columns: dict[int, dict[int, int]] = {v: {} for v in variables}

    def get(self, v: int, row: int) -> int:
        column = self._columns.get(v)
        if column is None:
            raise MissingVariableError(f"table has no column for variable {v}")
        if not 0 <= row < self.depth:
            raise DepthExceededError(f"row {row} outside depth {self.depth}")
        label = column.get(row)
        if label is None:
            label = column[row] = self._cells.label(self._trial, v, row)
        return label


def sample_table(
    weights: tuple[Fraction, ...],
    variables,
    depth: int,
    seed: int,
    trial: int = 0,
) -> Table:
    """Independent per-cell table draw keyed by (seed, trial, variable, row)."""
    if depth < 1:
        raise InvalidParameterError("depth must be >= 1")
    label = CellSampler(weights, seed).label
    return Table(
        depth,
        {v: tuple(label(trial, v, row) for row in range(depth)) for v in variables},
    )
