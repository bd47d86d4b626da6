"""Dictionary-encoded triple store over a pluggable storage backend.

This is the storage substrate replacing the paper's PostgreSQL back-end.
Following Section 6 ("we indexed the encoded triple table on s, p, o, and
all two- and three-column combinations"), the store answers any triple
pattern — any subset of the three attributes bound to constants — through
an index, and provides *exact* counts for such patterns. Those counts are
precisely the statistics gathered by the cost model (Section 3.3).

The physical triple table lives behind a
:class:`~repro.storage.base.StorageBackend` (``repro.storage``):

* ``backend="memory"`` (default) — the hexastore-style dict indexes,
  each bucket a tuple while small and a set past that;
* ``backend="sqlite"`` — a disk-backed SQLite table with SPO/POS/OSP
  B-tree indexes, for datasets beyond Python object memory.

The store itself keeps what is backend-independent: the term
dictionary, the monotonic ``version`` counter, and the incrementally
maintained statistics catalog (``store.stats``). ``save(path)`` writes
a single-file snapshot (triples + dictionary + statistics);
``TripleStore.open(path)`` brings it back on either backend.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.obs import metrics, tracing

from repro.rdf.dictionary import Dictionary
from repro.rdf.terms import Term, term_from_parts, term_to_parts
from repro.rdf.triples import Triple
from repro.stats.catalog import StatisticsCatalog
from repro.storage.base import (
    DEFAULT_BATCH_SIZE,
    EncodedPattern,
    EncodedTriple,
    StorageBackend,
    create_backend,
)
from repro.storage.memory import MemoryBackend
from repro.storage.snapshot import (
    SnapshotError,
    read_snapshot,
    synced_term_count,
    write_aux_tables,
    write_snapshot,
)
from repro.storage.sqlite import SqliteBackend

__all__ = [
    "EncodedPattern",
    "EncodedTriple",
    "TripleStore",
]


def _term_row(code: int, term: Term) -> tuple:
    """Serialize one dictionary entry to a structured snapshot row."""
    return (code, *term_to_parts(term))


class TripleStore:
    """A set of well-formed RDF triples with exhaustive pattern indexing.

    Triples are dictionary-encoded on insertion. The public API accepts
    and returns :class:`~repro.rdf.triples.Triple` objects; the encoded
    layer (the ``*_encoded`` methods) is used by the evaluation engine
    and served by the storage backend.
    """

    def __init__(self, backend: str | StorageBackend = "memory") -> None:
        self.dictionary = Dictionary()
        if isinstance(backend, str):
            backend = create_backend(backend)
        if len(backend):
            backend.close()
            raise ValueError(
                "cannot attach a fresh TripleStore to a non-empty backend "
                "(its dictionary and statistics would be out of sync); "
                "use TripleStore.open(path) for saved stores"
            )
        self._attach_backend(backend)
        # Monotonic mutation counter: lets the engine detect staleness
        # of anything derived from the store (e.g. cached query plans).
        self.version = 0
        # Version at the last in-place snapshot sync (None = never):
        # lets flush()/close() skip rewriting an up-to-date sidecar.
        self._saved_version: int | None = None
        # Incrementally maintained statistics (repro.stats): column
        # value multiplicities, predicate counts, pattern-count memo.
        # The mutation paths below keep it in sync via O(1) hooks.
        self.stats = StatisticsCatalog(self)

    def _attach_backend(self, backend: StorageBackend) -> None:
        self._backend = backend
        # The read paths below are the engine's innermost loops (one
        # probe per joined row): binding the backend methods onto the
        # instance removes a forwarding frame per call, keeping the
        # memory backend at seed speed. A method a subclass overrides
        # is left alone — the override keeps winning through the MRO.
        cls = type(self)
        for name, fast in (
            ("match_encoded", backend.match),
            ("count_encoded", backend.count),
            ("match_encoded_columns", backend.match_columns),
            ("match_many_encoded", backend.match_many),
        ):
            if getattr(cls, name) is getattr(TripleStore, name):
                setattr(self, name, fast)

    @property
    def backend(self) -> StorageBackend:
        """The physical storage backend serving this store."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Short name of the storage backend ("memory", "sqlite", ...)."""
        return self._backend.name

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, triple: Triple) -> bool:
        """Insert a triple. Returns True if it was not already present."""
        encoded = (
            self.dictionary.encode(triple.s),
            self.dictionary.encode(triple.p),
            self.dictionary.encode(triple.o),
        )
        return self._add_encoded(encoded)

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; returns the number of new ones."""
        return sum(1 for triple in triples if self.add(triple))

    def remove(self, triple: Triple) -> bool:
        """Remove a triple. Returns True if it was present."""
        codes = tuple(self.dictionary.lookup(term) for term in triple)
        if None in codes:
            return False
        encoded: EncodedTriple = codes  # type: ignore[assignment]
        if not self._backend.remove(encoded):
            return False
        self.stats.on_remove(encoded)
        self.version += 1
        return True

    def _add_encoded(self, encoded: EncodedTriple) -> bool:
        if not self._backend.add(encoded):
            return False
        self.stats.on_add(encoded)
        self.version += 1
        return True

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._backend)

    def __contains__(self, triple: Triple) -> bool:
        codes = tuple(self.dictionary.lookup(term) for term in triple)
        return None not in codes and codes in self._backend

    def __iter__(self) -> Iterator[Triple]:
        return (self._decode(encoded) for encoded in self._backend)

    def encode_term(self, term: Term) -> int | None:
        """Code for ``term`` or None when the term never occurs in the data."""
        return self.dictionary.lookup(term)

    def _decode(self, encoded: EncodedTriple) -> Triple:
        s, p, o = encoded
        return Triple(
            self.dictionary.decode(s),
            self.dictionary.decode(p),
            self.dictionary.decode(o),
        )

    def match(
        self,
        s: Term | None = None,
        p: Term | None = None,
        o: Term | None = None,
    ) -> Iterator[Triple]:
        """Iterate over triples matching a pattern of bound terms / wildcards."""
        pattern = self._encode_pattern(s, p, o)
        if pattern is None:
            return iter(())
        return (self._decode(encoded) for encoded in self.match_encoded(pattern))

    def count(
        self,
        s: Term | None = None,
        p: Term | None = None,
        o: Term | None = None,
    ) -> int:
        """Exact number of triples matching the pattern (index lookup)."""
        pattern = self._encode_pattern(s, p, o)
        if pattern is None:
            return 0
        return self.count_encoded(pattern)

    def _encode_pattern(
        self, s: Term | None, p: Term | None, o: Term | None
    ) -> EncodedPattern | None:
        """Encode a term pattern; None result means "cannot match anything"."""
        encoded: list[int | None] = []
        for term in (s, p, o):
            if term is None:
                encoded.append(None)
            else:
                code = self.dictionary.lookup(term)
                if code is None:
                    return None
                encoded.append(code)
        return tuple(encoded)  # type: ignore[return-value]

    def match_encoded(self, pattern: EncodedPattern) -> Iterable[EncodedTriple]:
        """Triples matching an encoded pattern, via the tightest index."""
        return self._backend.match(pattern)

    def count_encoded(self, pattern: EncodedPattern) -> int:
        """Exact count of triples matching an encoded pattern."""
        return self._backend.count(pattern)

    def match_encoded_columns(
        self,
        pattern: EncodedPattern,
        positions: Sequence[int],
        size: int = DEFAULT_BATCH_SIZE,
    ):
        """Matches of an encoded pattern in columnar layout, projected
        to the triple ``positions`` the caller keeps.

        The union scan's input: one column per requested position, at
        most ``size`` values each, read natively by the backend (see
        :meth:`repro.storage.base.StorageBackend.match_columns`).
        """
        return self._backend.match_columns(pattern, positions, size)

    def match_many_encoded(self, patterns):
        """Matches of a whole batch of encoded patterns, input-aligned.

        The engine's batched probe path: the SQLite backend
        answers the batch with one SQL statement instead of one SELECT
        per probe (see :meth:`repro.storage.base.StorageBackend.match_many`).
        """
        return self._backend.match_many(patterns)

    # ------------------------------------------------------------------
    # Statistics (Section 3.3 of the paper; maintained by repro.stats)
    # ------------------------------------------------------------------

    def distinct_values(self, column: str) -> int:
        """Number of distinct values appearing in column ``s``/``p``/``o``."""
        return self.stats.distinct_values(column)

    def column_value_counts(self, column: str) -> Counter:
        """Multiplicity of each value in the given column (a copy)."""
        return self.stats.column_value_counts(column)

    def average_term_size(self) -> float:
        """Average rendered term size; the width unit of the cost model."""
        return self.dictionary.average_term_size()

    # ------------------------------------------------------------------
    # Copying
    # ------------------------------------------------------------------

    def copy(self, backend: str | StorageBackend | None = None) -> "TripleStore":
        """An independent deep copy (shares no storage structures).

        Encoded triples and the dictionary are cloned directly; no
        triple is decoded or re-encoded, so codes stay identical between
        original and clone. With ``backend`` set, the clone lives on a
        *different* backend (e.g. ``store.copy(backend="memory")`` pulls
        a SQLite-backed store into RAM); by default the clone uses a
        deep copy of the current backend.
        """
        clone = object.__new__(TripleStore)
        clone.dictionary = self.dictionary.copy()
        if backend is None:
            clone._attach_backend(self._backend.copy())
        else:
            target = create_backend(backend) if isinstance(backend, str) else backend
            if len(target):
                raise ValueError("the target backend of a copy must be empty")
            target.add_bulk(iter(self._backend))
            clone._attach_backend(target)
        clone.version = 0
        clone._saved_version = None
        clone.stats = self.stats.copy_for(clone)
        return clone

    # ------------------------------------------------------------------
    # Persistence (single-file snapshots; repro.storage.snapshot)
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        """Write a single-file snapshot of this store to ``path``.

        The snapshot holds the encoded triple table, the serialized
        dictionary and the statistics catalog. When the store already
        runs on a file-backed SQLite backend at ``path``, the triple
        table *is* the file: saving commits pending writes and syncs
        the dictionary/statistics sidecar tables in place — with the
        dictionary appended incrementally (it is append-only), so a
        re-save costs O(new terms), not O(dictionary).

        Round-trip: build, save, reopen on any backend —

        >>> import os, tempfile
        >>> from repro.rdf.terms import URI
        >>> from repro.rdf.triples import Triple
        >>> store = TripleStore()
        >>> store.add(Triple(URI("http://e/s"), URI("http://e/p"),
        ...                  URI("http://e/o")))
        True
        >>> directory = tempfile.mkdtemp()
        >>> path = os.path.join(directory, "snapshot.db")
        >>> store.save(path)
        >>> reopened = TripleStore.open(path, backend="memory")
        >>> len(reopened)
        1
        >>> next(iter(reopened)).p.n3()
        '<http://e/p>'
        >>> reopened.close(); os.remove(path); os.rmdir(directory)
        """
        if not metrics.enabled and tracing.sink is None:
            self._save(path)
            return
        with tracing.span("storage.snapshot.save", path=str(path)):
            started = time.perf_counter()
            self._save(path)
            if metrics.enabled:
                metrics.observe(
                    "storage.snapshot.save_ms",
                    (time.perf_counter() - started) * 1000.0,
                )

    def _save(self, path) -> None:
        stats_rows = list(self.stats.export_column_counts())
        meta = {"triples": str(len(self))}
        backend = self._backend
        if (
            isinstance(backend, SqliteBackend)
            and backend.path is not None
            and Path(backend.path).resolve() == Path(path).resolve()
        ):
            backend.flush()
            start = synced_term_count(backend.connection)
            term_rows = [
                _term_row(code, term)
                for code, term in self.dictionary.items(start)
            ]
            write_aux_tables(
                backend.connection,
                term_rows,
                stats_rows,
                meta,
                incremental_terms=True,
            )
            self._saved_version = self.version
        else:
            term_rows = [
                _term_row(code, term) for code, term in self.dictionary.items()
            ]
            write_snapshot(path, iter(backend), term_rows, stats_rows, meta)

    @classmethod
    def open(
        cls, path, backend: str = "sqlite", read_only: bool | None = None
    ) -> "TripleStore":
        """Reopen a snapshot written by :meth:`save`.

        With ``backend="sqlite"`` (the default) the store attaches to
        the snapshot file directly — no triple is loaded into Python
        memory, and subsequent mutations write to the file (call
        :meth:`save` again to sync the dictionary sidecar before
        handing the file to another process). With ``backend="memory"``
        the triples are bulk-loaded into the in-memory structures.

        ``read_only=True`` serves the snapshot through a read-only
        SQLite connection: opening performs **zero writes** (no WAL
        conversion, no schema script, no dictionary sync on close) and
        mutations raise — the mode every server-mode worker uses so N
        processes can share one snapshot file. The default (``None``)
        auto-detects files the process cannot write, such as a
        chmod-0444 snapshot.
        """
        if not metrics.enabled and tracing.sink is None:
            return cls._open(path, backend, read_only)
        with tracing.span(
            "storage.snapshot.open", path=str(path), backend=backend
        ):
            started = time.perf_counter()
            store = cls._open(path, backend, read_only)
            if metrics.enabled:
                metrics.observe(
                    "storage.snapshot.open_ms",
                    (time.perf_counter() - started) * 1000.0,
                )
        return store

    @classmethod
    def _open(
        cls, path, backend: str = "sqlite", read_only: bool | None = None
    ) -> "TripleStore":
        if backend not in ("sqlite", "memory"):
            raise ValueError(
                f"unknown backend {backend!r} for open(); "
                "pick 'sqlite' or 'memory'"
            )
        term_rows, stats_rows, meta, triples = read_snapshot(
            path, include_triples=(backend == "memory")
        )
        store = object.__new__(cls)
        store.dictionary = Dictionary()
        # code -> the dictionary's own int object for it (see below).
        shared: dict[int, int] = {}
        for code, kind, value, datatype, language in term_rows:
            try:
                term = term_from_parts(kind, value, datatype, language)
            except ValueError as exc:
                raise SnapshotError(
                    f"corrupt snapshot {path}: bad term row for code "
                    f"{code}: {exc}"
                ) from exc
            assigned = store.dictionary.encode(term)
            if assigned != code:
                raise SnapshotError(
                    f"corrupt snapshot {path}: term {term!r} maps to "
                    f"code {assigned}, expected {code}"
                )
            shared[assigned] = assigned
        if backend == "sqlite":
            store._attach_backend(SqliteBackend(path, read_only=read_only))
        else:
            # The memory backend loads via the snapshot reader's own
            # read-only connection; read_only needs no further plumbing.
            # sqlite3 builds a fresh int for every code above 256, so
            # each row is rebuilt over the dictionary's one int per code
            # (in place, so the old rows are freed as it goes). A code
            # the dictionary lacks stays as read: the guards below
            # report it.
            get = shared.get
            for at, (s, p, o) in enumerate(triples):
                triples[at] = (get(s, s), get(p, p), get(o, o))
            del shared, get
            memory = MemoryBackend()
            memory.add_bulk(triples)
            store._attach_backend(memory)
        try:
            expected = meta.get("triples")
            if expected is not None and int(expected) != len(store._backend):
                raise SnapshotError(
                    f"snapshot {path} sidecar is out of sync with its "
                    f"triple table ({expected} recorded vs "
                    f"{len(store._backend)} stored); reopen the store "
                    "that wrote it and call save()"
                )
            # Second integrity guard: every stored code must decode.
            # Catches a sidecar gone stale without moving the triple
            # count (e.g. a crash after committing triples but before
            # re-saving the dictionary). Index-only MAX lookups for
            # SQLite; the memory path scans the triples it just loaded.
            if backend == "sqlite":
                maxima = store._backend.connection.execute(
                    "SELECT MAX(s), MAX(p), MAX(o) FROM triples"
                ).fetchone()
                codes = [code for code in maxima if code is not None]
                highest = max(codes) if codes else None
            else:
                highest = max((max(t) for t in triples), default=None)
            if highest is not None and highest >= len(store.dictionary):
                raise SnapshotError(
                    f"snapshot {path} stores code {highest} but its "
                    f"dictionary only holds {len(store.dictionary)} terms; "
                    "reopen the store that wrote it and call save()"
                )
        except SnapshotError:
            store._backend.close()
            raise
        store.version = 0
        # The sidecar matches what is on disk right now.
        store._saved_version = 0
        store.stats = StatisticsCatalog(store)
        store.stats.load_column_counts(stats_rows)
        return store

    def flush(self) -> None:
        """Make pending writes durable (no-op for memory).

        A file-backed SQLite store whose sidecar is out of date — never
        written for a fresh file, or older than the current ``version``
        — syncs the full snapshot, so the on-disk file is a reopenable
        snapshot even if the process never reaches :meth:`close`; a
        stale sidecar next to committed triples would poison the next
        :meth:`open`. An up-to-date store flushes without rewriting
        anything (and never writes to a read-only snapshot it only
        read).
        """
        backend = self._backend
        if (
            self._saved_version != self.version
            and isinstance(backend, SqliteBackend)
            and backend.path is not None
        ):
            self.save(backend.path)
        else:
            backend.flush()

    def close(self) -> None:
        """Release backend resources.

        A file-backed SQLite store that was mutated syncs its full
        snapshot first (via :meth:`flush`), so the file on disk stays a
        complete, reopenable snapshot. Unmutated stores close without
        writing — a read-only snapshot file stays untouched.
        """
        self.flush()
        self._backend.close()
