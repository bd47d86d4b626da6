"""Columnar batch layout of the vectorized execution engine.

A :class:`ColumnBatch` holds one batch of physical rows decomposed into
per-column value sequences — the classic columnar (a.k.a. vectorized)
batch layout. The engine's one operator contract
(:meth:`~repro.engine.operators.Operator.column_batches`) streams these
between operators instead of row-tuple lists:

* join probes on a single key column read the key *vector* directly —
  no per-row key tuple is ever built;
* join outputs assemble per column (one C-speed list comprehension per
  column over a selection vector) instead of per row;
* the head-image deduplication at the top of ``evaluate`` folds whole
  batches into the answer set through ``set.update(zip(*columns))``.

Iteration and :meth:`ColumnBatch.rows` give the row view wherever a
consumer wants tuples. A batch is never empty; its width may be zero
(boolean heads), which is why the row count is stored explicitly
instead of being derived from a first column that may not exist.

>>> batch = ColumnBatch.from_rows([(1, 10), (2, 20), (3, 30)], 2)
>>> batch.columns
((1, 2, 3), (10, 20, 30))
>>> len(batch)
3
>>> batch.rows()
[(1, 10), (2, 20), (3, 30)]
"""

from __future__ import annotations

from typing import Iterator, Sequence

#: A column: any sequence of values (tuple from a ``zip`` transpose,
#: list from a per-column comprehension — both index and iterate fast).
Column = Sequence


class ColumnBatch:
    """One batch of rows in columnar layout.

    ``columns`` is a tuple with one value sequence per schema column;
    all sequences share the same length, stored in ``length`` (columns
    may be empty for zero-width schemas). Instances are treated as
    immutable by the engine: consumers may alias the column sequences
    (zero-copy projection) but never mutate them.
    """

    __slots__ = ("columns", "length")

    def __init__(self, columns: tuple[Column, ...], length: int) -> None:
        self.columns = columns
        self.length = length

    @classmethod
    def from_rows(cls, rows: Sequence[tuple], width: int) -> "ColumnBatch":
        """Transpose a row list into a column batch (one ``zip`` pass)."""
        if width == 0:
            return cls((), len(rows))
        return cls(tuple(zip(*rows)), len(rows))

    # -- row view ------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[tuple]:
        if not self.columns:
            empty = ()
            return iter([empty] * self.length)
        return zip(*self.columns)

    def rows(self) -> list[tuple]:
        """The batch as a row-tuple list."""
        if not self.columns:
            return [()] * self.length
        return list(zip(*self.columns))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnBatch(width={len(self.columns)}, rows={self.length})"
