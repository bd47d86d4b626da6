"""The storage backend contract of the triple store.

A :class:`StorageBackend` holds the *encoded* triple table — three
dictionary codes per triple — and answers exactly the physical
operations :class:`~repro.rdf.store.TripleStore` needs: mutations,
pattern matches through the tightest available index, exact pattern
counts, and the per-column figures the statistics catalog verifies
against.

The execution engine pulls through two *batched* fetch paths:
:meth:`StorageBackend.match_columns` delivers one pattern's matches as
columns of only the triple positions the caller keeps (the scan input —
SQLite answers it with one aggregate statement, not one row per
match), and
:meth:`StorageBackend.match_many` answers a whole batch of patterns at
once (the union probe path — SQLite folds it into a single statement
per batch). The base class derives both from :meth:`match`,
so third-party backends only implement the abstract core; the built-in
backends override them natively.

Backends speak *only* integer codes: no RDF term, query atom or
statistics type appears here, so the package sits below ``repro.rdf``
in the layer diagram and every layer above the store — engine, planner,
stats, reformulation, selection — runs unchanged on any backend.

Two implementations ship:

* :class:`~repro.storage.memory.MemoryBackend` — the hexastore dict
  indexes, each bucket a tuple while small and a set past that (the
  default);
* :class:`~repro.storage.sqlite.SqliteBackend` — a disk-backed SQLite
  triple table with SPO/POS/OSP B-tree indexes, for datasets that do
  not fit Python object memory.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from itertools import islice
from typing import Iterable, Iterator, Sequence

#: An encoded triple: three dictionary codes.
EncodedTriple = tuple[int, int, int]

#: Default number of rows per fetched batch (see ``repro.engine``).
DEFAULT_BATCH_SIZE = 1024

#: An encoded pattern: a code, or None for an unbound position.
EncodedPattern = tuple[int | None, int | None, int | None]

#: Column names of the triple table, in position order.
COLUMNS = ("s", "p", "o")


class StorageBackend(ABC):
    """Physical storage of one encoded triple table.

    The contract mirrors what the in-memory store historically did
    against its private dicts; see the module docstring. All methods
    deal in :data:`EncodedTriple` / :data:`EncodedPattern` values.
    """

    #: Short name used by CLIs and benchmarks ("memory", "sqlite", ...).
    name: str = "?"

    # -- mutation ------------------------------------------------------

    @abstractmethod
    def add(self, encoded: EncodedTriple) -> bool:
        """Insert one triple; True when it was not already present."""

    @abstractmethod
    def remove(self, encoded: EncodedTriple) -> bool:
        """Delete one triple; True when it was present."""

    def add_bulk(self, encoded: Iterable[EncodedTriple]) -> int:
        """Insert many triples; returns the number of new ones.

        Backends override this when they have a faster batched path
        (SQLite uses one ``executemany``). Callers that must observe
        each insertion (statistics hooks) use :meth:`add` per triple.
        """
        return sum(1 for triple in encoded if self.add(triple))

    # -- lookup --------------------------------------------------------

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored triples."""

    @abstractmethod
    def __contains__(self, encoded: EncodedTriple) -> bool:
        """Exact membership test."""

    @abstractmethod
    def __iter__(self) -> Iterator[EncodedTriple]:
        """All triples, in no particular order."""

    @abstractmethod
    def match(self, pattern: EncodedPattern) -> Iterable[EncodedTriple]:
        """Triples matching a pattern, via the tightest index."""

    @abstractmethod
    def count(self, pattern: EncodedPattern) -> int:
        """Exact number of triples matching a pattern."""

    # -- batched fetch (the engine's input paths) ----------------------

    def match_columns(
        self,
        pattern: EncodedPattern,
        positions: Sequence[int],
        size: int = DEFAULT_BATCH_SIZE,
    ) -> Iterator[tuple[Sequence[int], ...]]:
        """Matches of a pattern in **columnar** layout, projected to
        ``positions``.

        Yields one tuple of equal-length value sequences per batch of at
        most ``size`` matches: sequence ``k`` holds triple position
        ``positions[k]`` (0 = s, 1 = p, 2 = o) of every match, and a
        position not asked for is never fetched. This is the input of
        the engine's union scan
        (:meth:`repro.engine.operators.UnionScan.partitions`). The base
        derivation chunks :meth:`match` and transposes each chunk with
        one C-speed ``zip``; the built-in backends override it (the
        memory backend projects an index bucket once, SQLite reads each
        position as one aggregated column).
        """
        iterator = iter(self.match(pattern))
        while batch := list(islice(iterator, size)):
            columns = tuple(zip(*batch))
            yield tuple(columns[i] for i in positions)

    def match_many(
        self, patterns: Sequence[EncodedPattern]
    ) -> list[Sequence[EncodedTriple]]:
        """Matches of a whole batch of patterns, aligned with the input.

        ``result[i]`` holds the matches of ``patterns[i]`` (any sequence
        type; callers must not mutate it). This is the probe path of the
        engine's union probes: the engine hands over one batch
        of probe patterns and the backend answers them in as few
        round-trips as it can — the SQLite backend compiles the batch
        into a single SQL statement.
        """
        return [list(self.match(pattern)) for pattern in patterns]

    # -- whole-plan SQL pushdown (optional capability) -----------------

    #: True when :meth:`execute_sql_plan` is implemented — i.e. the
    #: backend can evaluate a whole compiled query plan itself. The
    #: engine checks this flag before choosing the pushdown route.
    supports_sql_plans: bool = False

    def execute_sql_plan(
        self, sql: str, params: Sequence[int] = ()
    ) -> Iterable[tuple]:
        """Execute one compiled SQL plan over the triple table.

        The pushdown contract: ``sql`` only references the ``triples``
        table (self-joined under aliases) and its three code columns,
        ``params`` are dictionary codes bound to its placeholders, and
        the result rows are tuples of codes (or the literal ``1`` for
        existence tests). Only backends that *are* SQL engines implement
        this — :class:`~repro.storage.sqlite.SqliteBackend` runs the
        statement on its connection; everything else (the memory
        backend included) refuses, and the execution engine falls back
        to the interpreted operator tree.
        """
        raise NotImplementedError(
            f"the {self.name!r} backend cannot execute SQL plans"
        )

    # -- column statistics (ground truth for the stats catalog) --------

    @abstractmethod
    def distinct_values(self, column: str) -> int:
        """Distinct values in column ``'s'``/``'p'``/``'o'``."""

    @abstractmethod
    def column_value_counts(self, column: str) -> Counter:
        """Multiplicity of each value in the given column (a copy)."""

    # -- lifecycle -----------------------------------------------------

    @abstractmethod
    def copy(self) -> "StorageBackend":
        """An independent deep copy sharing no mutable state."""

    def flush(self) -> None:
        """Make pending writes durable (no-op for volatile backends)."""

    def close(self) -> None:
        """Release any held resources (no-op by default)."""

    @staticmethod
    def _column_index(column: str) -> int:
        try:
            return COLUMNS.index(column)
        except ValueError:
            raise ValueError(
                f"unknown column {column!r}; pick from {COLUMNS}"
            ) from None


def create_backend(name: str, *, path=None) -> StorageBackend:
    """Instantiate a backend by short name.

    ``path`` only applies to disk-capable backends (SQLite); the memory
    backend rejects it.

    Backends speak encoded triples only — three dictionary codes in,
    three codes out — through the :class:`StorageBackend` contract:

    >>> backend = create_backend("memory")
    >>> backend.add((1, 2, 3))
    True
    >>> backend.add((1, 2, 3))          # already present
    False
    >>> _ = backend.add((1, 2, 4))
    >>> sorted(backend.match((1, 2, None)))
    [(1, 2, 3), (1, 2, 4)]
    >>> backend.count((None, None, 4))
    1
    >>> [sorted(m) for m in backend.match_many([(1, 2, None), (9, None, None)])]
    [[(1, 2, 3), (1, 2, 4)], []]
    >>> [sorted(column) for column in next(backend.match_columns((1, 2, None), (2, 0)))]
    [[3, 4], [1, 1]]
    """
    from repro.storage.memory import MemoryBackend
    from repro.storage.sqlite import SqliteBackend

    if name == "memory":
        if path is not None:
            raise ValueError("the memory backend does not take a path")
        return MemoryBackend()
    if name == "sqlite":
        return SqliteBackend(path)
    raise ValueError(f"unknown storage backend {name!r}; pick from {BACKENDS}")


#: Selectable backend names, in CLI display order.
BACKENDS = ("memory", "sqlite")
