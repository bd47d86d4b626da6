"""The in-memory hexastore backend.

Exhaustive one- and two-column hash indexes over a set of encoded
triples, exactly as the paper describes for its PostgreSQL substrate
(Section 6: "we indexed the encoded triple table on s, p, o, and all
two- and three-column combinations"). Dictionary encoding stays in
:class:`~repro.rdf.store.TripleStore`.

A bucket -- the triples one index key selects -- is a tuple while it
holds at most ``_SMALL`` triples and a set beyond that. Most two-column
keys select one triple, and a one-triple tuple takes a quarter of the
bytes of the emptiest set, so the store holds each triple in about 40 %
fewer bytes than with set buckets only. Either form is an iterable,
``len``-able collection of distinct triples that :meth:`match` hands
out without a copy; callers must not mutate it. A set bucket stays a
set until it empties, and a bucket that empties is deleted.
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

# The triples one index key selects: a tuple while small, else a set.
Bucket = tuple | set

# Largest bucket kept as a tuple. A tuple bucket grows by copying and is
# searched linearly, so only small ones stay tuples. In the saturated
# 58 k-triple benchmark store, 47 k of the 52 k (s, o) buckets, 25 k of
# the 27 k (p, o) buckets and 18 k of the 27 k (s, p) buckets hold one
# triple, and most one-column (s) and (p) buckets hold more than eight.
_SMALL = 8


def _copy_index(index: dict) -> dict:
    """A copy of ``index`` that shares its (immutable) tuple buckets."""
    return {
        key: bucket.copy() if bucket.__class__ is set else bucket
        for key, bucket in index.items()
    }


class MemoryBackend(StorageBackend):
    """Hexastore dict indexes whose buckets are tuples while small and
    sets beyond :data:`_SMALL` triples, over Python object memory."""

    name = "memory"

    def __init__(self) -> None:
        self._triples: set[EncodedTriple] = set()
        # One-column indexes: value -> bucket of triples.
        self._idx_s: dict[int, Bucket] = {}
        self._idx_p: dict[int, Bucket] = {}
        self._idx_o: dict[int, Bucket] = {}
        # Two-column indexes: (value, value) -> bucket of triples.
        self._idx_sp: dict[tuple[int, int], Bucket] = {}
        self._idx_so: dict[tuple[int, int], Bucket] = {}
        self._idx_po: dict[tuple[int, int], Bucket] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, encoded: EncodedTriple) -> bool:
        if encoded in self._triples:
            return False
        self._triples.add(encoded)
        s, p, o = encoded
        # The six updates are unrolled: this is the write path's hot
        # loop, and a loop over (index, key) pairs measurably slows it.
        index = self._idx_s
        bucket = index.get(s)
        if bucket is None:
            index[s] = (encoded,)
        elif bucket.__class__ is set:
            bucket.add(encoded)
        else:
            index[s] = bucket + (encoded,) if len(bucket) < _SMALL else {*bucket, encoded}
        index = self._idx_p
        bucket = index.get(p)
        if bucket is None:
            index[p] = (encoded,)
        elif bucket.__class__ is set:
            bucket.add(encoded)
        else:
            index[p] = bucket + (encoded,) if len(bucket) < _SMALL else {*bucket, encoded}
        index = self._idx_o
        bucket = index.get(o)
        if bucket is None:
            index[o] = (encoded,)
        elif bucket.__class__ is set:
            bucket.add(encoded)
        else:
            index[o] = bucket + (encoded,) if len(bucket) < _SMALL else {*bucket, encoded}
        index, key = self._idx_sp, (s, p)
        bucket = index.get(key)
        if bucket is None:
            index[key] = (encoded,)
        elif bucket.__class__ is set:
            bucket.add(encoded)
        else:
            index[key] = bucket + (encoded,) if len(bucket) < _SMALL else {*bucket, encoded}
        index, key = self._idx_so, (s, o)
        bucket = index.get(key)
        if bucket is None:
            index[key] = (encoded,)
        elif bucket.__class__ is set:
            bucket.add(encoded)
        else:
            index[key] = bucket + (encoded,) if len(bucket) < _SMALL else {*bucket, encoded}
        index, key = self._idx_po, (p, o)
        bucket = index.get(key)
        if bucket is None:
            index[key] = (encoded,)
        elif bucket.__class__ is set:
            bucket.add(encoded)
        else:
            index[key] = bucket + (encoded,) if len(bucket) < _SMALL else {*bucket, encoded}
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
            if len(bucket) == 1:
                del index[key]
            elif bucket.__class__ is set:
                bucket.remove(encoded)
            else:
                at = bucket.index(encoded)
                index[key] = bucket[:at] + bucket[at + 1 :]
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
        # Every match is a bucket, the master set or a tuple: len-able.
        return len(self.match(pattern))

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
        clone._idx_s = _copy_index(self._idx_s)
        clone._idx_p = _copy_index(self._idx_p)
        clone._idx_o = _copy_index(self._idx_o)
        clone._idx_sp = _copy_index(self._idx_sp)
        clone._idx_so = _copy_index(self._idx_so)
        clone._idx_po = _copy_index(self._idx_po)
        return clone
