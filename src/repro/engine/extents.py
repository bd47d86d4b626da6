"""Hash-indexed materialized view extents.

A :class:`ViewExtent` is a ``list`` of rows (tuples of decoded RDF
terms) that lazily builds and caches hash indexes keyed on column
positions. Rewriting plans probe view extents on their join attributes
over and over — once per join execution in the seed, once per *workload
lifetime* here: the first hash join keyed on a position tuple builds the
index, every later execution reuses it.

Extents subclass ``list`` so every existing consumer (``len``,
iteration, ``sorted``, equality against plain lists) keeps working.
Extents are write-once: mutating the row list after an index was built
is unsupported and would desynchronize the cached indexes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

#: One materialized row: a tuple of decoded RDF terms.
Row = tuple


class ViewExtent(list):
    """A materialized view extent with cached hash indexes."""

    def __init__(self, rows: Iterable[Row] = ()) -> None:
        super().__init__(rows)
        self._tails: dict[tuple, dict[tuple, list[tuple]]] = {}

    def tails_on(
        self, positions: Sequence[int], keep: Sequence[int]
    ) -> dict[tuple, list[tuple]]:
        """Pre-projected join tails grouped by key (dict-of-lists).

        Rows are grouped by their values at ``positions`` and each
        bucket holds them already projected to the ``keep`` positions —
        exactly what a hash join appends to matching probe rows, so
        repeated workload executions skip both the build phase *and*
        the per-probe projection. Built once per ``(positions, keep)``
        pair and cached; the empty position tuple maps every row under
        ``()``, which makes keyless (cross) joins fall out of the same
        code path. Bucket order is row order, preserving the seed's
        join output order.
        """
        cache_key = (tuple(positions), tuple(keep))
        tails = self._tails.get(cache_key)
        if tails is None:
            key_positions, keep_positions = cache_key
            tails = {}
            for row in self:
                key = tuple(row[p] for p in key_positions)
                tail = tuple(row[p] for p in keep_positions)
                tails.setdefault(key, []).append(tail)
            self._tails[cache_key] = tails
        return tails
