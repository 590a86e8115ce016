"""Depth-truncated resampling tables and their deterministic sampler.

A table holds, for every variable, a column of `depth` labels; row n is the
label the variable takes after its n-th resampling. Sampling derives every
cell independently from blake2b(seed || trial || variable || row), so cells
do not depend on evaluation order and a restriction to fewer variables is
bit-identical to the corresponding slice of a full sample.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DepthExceededError,
    InvalidInputError,
    InvalidParameterError,
    MissingVariableError,
)

_SCALE = 1 << 64


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

    def variables(self) -> tuple[int, ...]:
        return tuple(sorted(self.columns))

    def to_json(self) -> dict:
        vs = self.variables()
        return {
            "depth": self.depth,
            "variables": list(vs),
            "rows": [[self.columns[v][r] for v in vs] for r in range(self.depth)],
        }


def table_from_json(obj) -> Table:
    try:
        depth = int(obj["depth"])
        vs = [int(v) for v in obj["variables"]]
        rows = obj["rows"]
        if len(rows) != depth:
            raise InvalidInputError("row count must equal depth")
        columns = {
            v: tuple(int(rows[r][i]) for r in range(depth)) for i, v in enumerate(vs)
        }
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InvalidInputError(f"malformed table JSON: {exc}") from exc
    return Table(depth, columns)


def derive_u64(seed: int, *parts: int) -> int:
    """Keyed 64-bit derivation; the counter is the packed part tuple."""
    key = (seed & (_SCALE - 1)).to_bytes(8, "little")
    h = hashlib.blake2b(digest_size=8, key=key)
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
    thresholds = weight_thresholds(weights)
    columns = {}
    for v in variables:
        columns[v] = tuple(
            sample_label(thresholds, derive_u64(seed, trial, v, row))
            for row in range(depth)
        )
    return Table(depth, columns)
