"""The in-memory hexastore backend (the seed's structures, extracted).

Exhaustive one- and two-column hash indexes over a set of encoded
triples, exactly as the paper describes for its PostgreSQL substrate
(Section 6: "we indexed the encoded triple table on s, p, o, and all
two- and three-column combinations"). Extracting the structures behind
:class:`~repro.storage.base.StorageBackend` changed no behavior: every
method body is the seed store's, minus dictionary encoding (which stays
in :class:`~repro.rdf.store.TripleStore`).
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Iterable, Iterator

from repro.storage.base import (
    DEFAULT_BATCH_SIZE,
    EncodedPattern,
    EncodedTriple,
    StorageBackend,
)


class MemoryBackend(StorageBackend):
    """Dict-of-sets hexastore indexes over Python object memory."""

    name = "memory"

    def __init__(self) -> None:
        self._triples: set[EncodedTriple] = set()
        # One-column indexes: value -> set of triples.
        self._idx_s: dict[int, set[EncodedTriple]] = {}
        self._idx_p: dict[int, set[EncodedTriple]] = {}
        self._idx_o: dict[int, set[EncodedTriple]] = {}
        # Two-column indexes: (value, value) -> set of triples.
        self._idx_sp: dict[tuple[int, int], set[EncodedTriple]] = {}
        self._idx_so: dict[tuple[int, int], set[EncodedTriple]] = {}
        self._idx_po: dict[tuple[int, int], set[EncodedTriple]] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, encoded: EncodedTriple) -> bool:
        if encoded in self._triples:
            return False
        self._triples.add(encoded)
        s, p, o = encoded
        self._idx_s.setdefault(s, set()).add(encoded)
        self._idx_p.setdefault(p, set()).add(encoded)
        self._idx_o.setdefault(o, set()).add(encoded)
        self._idx_sp.setdefault((s, p), set()).add(encoded)
        self._idx_so.setdefault((s, o), set()).add(encoded)
        self._idx_po.setdefault((p, o), set()).add(encoded)
        return True

    def remove(self, encoded: EncodedTriple) -> bool:
        if encoded not in self._triples:
            return False
        self._triples.discard(encoded)
        s, p, o = encoded
        # Drop buckets that empty out: under churn, keeping them alive
        # would grow all six indexes without bound.
        for index, key in (
            (self._idx_s, s),
            (self._idx_p, p),
            (self._idx_o, o),
            (self._idx_sp, (s, p)),
            (self._idx_so, (s, o)),
            (self._idx_po, (p, o)),
        ):
            bucket = index[key]
            bucket.discard(encoded)
            if not bucket:
                del index[key]
        return True

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, encoded: EncodedTriple) -> bool:
        return encoded in self._triples

    def __iter__(self) -> Iterator[EncodedTriple]:
        return iter(self._triples)

    def match(self, pattern: EncodedPattern) -> Iterable[EncodedTriple]:
        s, p, o = pattern
        if s is not None and p is not None and o is not None:
            triple = (s, p, o)
            return (triple,) if triple in self._triples else ()
        if s is not None and p is not None:
            return self._idx_sp.get((s, p), ())
        if s is not None and o is not None:
            return self._idx_so.get((s, o), ())
        if p is not None and o is not None:
            return self._idx_po.get((p, o), ())
        if s is not None:
            return self._idx_s.get(s, ())
        if p is not None:
            return self._idx_p.get(p, ())
        if o is not None:
            return self._idx_o.get(o, ())
        return self._triples

    def match_columns(self, pattern, positions, size=DEFAULT_BATCH_SIZE):
        # One C-speed pass over the whole index bucket, then yield column
        # slices: no per-row tuple is ever built, and the common
        # bucket-fits-one-batch case hands the columns out without any
        # further copying. One position is projected alone (half the
        # cost of a transpose); several share one transpose.
        matches = self.match(pattern)
        if not matches:
            return
        if len(positions) == 1:
            columns = (list(map(itemgetter(positions[0]), matches)),)
        else:
            transposed = tuple(zip(*matches))
            columns = tuple(transposed[position] for position in positions)
        length = len(columns[0])
        if length <= size:
            yield columns
            return
        for start in range(0, length, size):
            yield tuple(column[start : start + size] for column in columns)

    def match_many(self, patterns):
        # The dict indexes already hold each answer as a collection:
        # hand the buckets out as-is (callers must not mutate them)
        # instead of copying every bucket into a fresh list.
        match = self.match
        return [match(pattern) for pattern in patterns]

    def count(self, pattern: EncodedPattern) -> int:
        matches = self.match(pattern)
        if matches is self._triples:
            return len(self._triples)
        return (
            len(matches)
            if isinstance(matches, (set, tuple))
            else sum(1 for _ in matches)
        )

    # ------------------------------------------------------------------
    # Column statistics
    # ------------------------------------------------------------------

    def distinct_values(self, column: str) -> int:
        index = (self._idx_s, self._idx_p, self._idx_o)[self._column_index(column)]
        return len(index)

    def column_value_counts(self, column: str) -> Counter:
        index = (self._idx_s, self._idx_p, self._idx_o)[self._column_index(column)]
        return Counter({value: len(bucket) for value, bucket in index.items()})

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def copy(self) -> "MemoryBackend":
        clone = MemoryBackend()
        clone._triples = set(self._triples)
        clone._idx_s = {key: set(bucket) for key, bucket in self._idx_s.items()}
        clone._idx_p = {key: set(bucket) for key, bucket in self._idx_p.items()}
        clone._idx_o = {key: set(bucket) for key, bucket in self._idx_o.items()}
        clone._idx_sp = {key: set(bucket) for key, bucket in self._idx_sp.items()}
        clone._idx_so = {key: set(bucket) for key, bucket in self._idx_so.items()}
        clone._idx_po = {key: set(bucket) for key, bucket in self._idx_po.items()}
        return clone
