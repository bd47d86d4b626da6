"""The incrementally maintained statistics catalog of one triple store.

One :class:`StatisticsCatalog` is attached to every
:class:`~repro.rdf.store.TripleStore` (as ``store.stats``) and is kept
up to date by the store's mutation paths: ``add``/``remove`` call the
``on_add``/``on_remove`` hooks with the encoded triple, so every
maintained figure — per-column value multiplicities (hence per-predicate
triple counts and per-column distinct counts) — moves by an O(1) counter
update per triple. Nothing is ever recomputed from scratch on the hot
path; derived caches (the constant-pattern count cache) are invalidated
lazily through the store's monotonic ``version`` counter. The catalog
also *keeps* the post-reformulation pattern counts of Section 4.3, one
memo per RDF Schema (:meth:`StatisticsCatalog.reformulated_counts`):
gathered once per store version, whichever selector asks first.

This is the single source of cardinality truth for the whole system:
the view-selection cost model (Section 3.3 of the paper), the engine's
join ordering, and EXPLAIN ANALYZE's estimates all read from here
(via :mod:`repro.stats.provider` / :mod:`repro.stats.estimator`).

The catalog deliberately imports nothing above the ``rdf`` layer: it
speaks dictionary codes and :class:`~repro.rdf.terms.Term` patterns, not
query atoms, so the store can own one without an import cycle.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.rdf.store import EncodedTriple, TripleStore
    from repro.rdf.terms import Term

#: Column names of the triple table, in position order.
COLUMNS = ("s", "p", "o")

#: A constant pattern over decoded terms: a Term, or None for "any".
TermPattern = tuple["Term | None", "Term | None", "Term | None"]

#: Most RDF Schemas with a live post-reformulation memo. A what-if loop
#: holds one schema; the bound only keeps a caller that re-parses its
#: schema per call from growing the catalog without limit.
_SCHEMA_MEMO_LIMIT = 8


class StatisticsCatalog:
    """Per-store statistics, maintained incrementally on every mutation.

    Maintained figures (all O(1) to read *and* to update):

    * ``total_triples()`` — the store size;
    * ``predicate_count(term)`` / ``predicate_count_code(code)`` — the
      number of triples carrying a given predicate;
    * ``distinct_values(column)`` — distinct values per column;
    * ``column_value_counts(column)`` — the full value-multiplicity
      counter of a column (a copy);
    * ``average_term_size()`` — the width unit of the cost model
      (delegated to the dictionary, which tracks it incrementally).

    Exact constant-pattern counts (``pattern_count``) read the store's
    hexastore indexes — an O(1) bucket-length lookup — and are memoized
    per pattern until the store's ``version`` moves. The
    post-reformulation counts (``reformulated_counts``) live beside them
    under the same flush.
    """

    def __init__(self, store: "TripleStore") -> None:
        self._store = store
        # Value multiplicity per column. _col_values[1] doubles as the
        # per-predicate triple count.
        self._col_values: tuple[Counter, Counter, Counter] = (
            Counter(),
            Counter(),
            Counter(),
        )
        # Derived memos, flushed together when the version moves: the
        # constant-pattern counts, and per RDF Schema (by identity) its
        # size when filled and the post-reformulation pattern counts.
        self._pattern_counts: dict[TermPattern, int] = {}
        self._reformulated: dict[object, tuple[int, dict[TermPattern, int]]] = {}
        self._memo_version = store.version

    # ------------------------------------------------------------------
    # Maintenance hooks (called by the store; O(1) per triple)
    # ------------------------------------------------------------------

    def on_add(self, encoded: "EncodedTriple") -> None:
        """Record one inserted triple."""
        for counter, value in zip(self._col_values, encoded):
            counter[value] += 1

    def on_remove(self, encoded: "EncodedTriple") -> None:
        """Record one removed triple."""
        for counter, value in zip(self._col_values, encoded):
            counter[value] -= 1
            if counter[value] <= 0:
                del counter[value]

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """The owning store's mutation counter (staleness token)."""
        return self._store.version

    def total_triples(self) -> int:
        """Size of the data set."""
        return len(self._store)

    def distinct_values(self, column: str) -> int:
        """Number of distinct values in column ``'s'``/``'p'``/``'o'``."""
        return len(self._col_values[COLUMNS.index(column)])

    def column_value_counts(self, column: str) -> Counter:
        """Multiplicity of each value in the given column (a copy)."""
        return Counter(self._col_values[COLUMNS.index(column)])

    def predicate_count_code(self, code: int) -> int:
        """Triples whose predicate has dictionary code ``code``."""
        return self._col_values[1].get(code, 0)

    def predicate_count(self, predicate: "Term") -> int:
        """Triples carrying ``predicate``; 0 when it never occurs."""
        code = self._store.encode_term(predicate)
        if code is None:
            return 0
        return self.predicate_count_code(code)

    def average_term_size(self) -> float:
        """Average rendered term size (the cost model's width unit).

        Delegates to the dictionary, which maintains the running total
        incrementally; an empty dictionary reports a nominal width so
        every downstream division stays well-defined.
        """
        return self._store.dictionary.average_term_size()

    def pattern_count(
        self,
        s: "Term | None" = None,
        p: "Term | None" = None,
        o: "Term | None" = None,
    ) -> int:
        """Exact number of triples matching a constant pattern.

        Reads the store's tightest index (an O(1) bucket length) and
        memoizes per pattern; the memo is flushed lazily when the store's
        ``version`` counter has moved since it was filled.
        """
        self._flush_stale_memos()
        pattern = (s, p, o)
        cached = self._pattern_counts.get(pattern)
        if cached is None:
            cached = self._store.count(s, p, o)
            self._pattern_counts[pattern] = cached
        return cached

    def reformulated_counts(self, schema) -> dict[TermPattern, int]:
        """The memo of post-reformulation pattern counts under ``schema``.

        Section 4.3 gathers ``|Reformulate(v, S)|`` once per workload;
        keeping the numbers here, beside :meth:`pattern_count`'s memo,
        gathers them once per *store version*: every selector over this
        store and schema — another strategy, weight vector or budget —
        reads what the first one counted. The caller
        (:class:`repro.selection.statistics.ReformulationAwareStatistics`)
        fills the returned dictionary; the catalog only owns its
        lifetime. Schemas are told apart by identity; a schema only
        grows, so its size tells whether a statement arrived since the
        memo was filled, and a stale memo is dropped. Flushed lazily
        with the pattern memo when the store's ``version`` moves.
        """
        self._flush_stale_memos()
        size = len(schema)
        entry = self._reformulated.get(schema)
        if entry is None or entry[0] != size:
            if len(self._reformulated) >= _SCHEMA_MEMO_LIMIT:
                self._reformulated.clear()
            entry = self._reformulated[schema] = (size, {})
        return entry[1]

    def _flush_stale_memos(self) -> None:
        version = self._store.version
        if version != self._memo_version:
            self._pattern_counts.clear()
            self._reformulated.clear()
            self._memo_version = version

    # ------------------------------------------------------------------
    # Serialization (store snapshots; repro.storage.snapshot)
    # ------------------------------------------------------------------

    def export_column_counts(self):
        """Serialized ``(column index, code, multiplicity)`` rows.

        The snapshot writer persists these so a reopened store never
        recounts its statistics from the triple table.
        """
        for column, counter in enumerate(self._col_values):
            for code, count in counter.items():
                yield (column, code, count)

    def load_column_counts(self, rows) -> None:
        """Replace the maintained counters with serialized rows.

        Inverse of :meth:`export_column_counts`; used by
        ``TripleStore.open``. Flushes the derived memos — they may hold
        counts from before the store this catalog now describes.
        """
        self._col_values = (Counter(), Counter(), Counter())
        for column, code, count in rows:
            self._col_values[column][code] = count
        self._pattern_counts.clear()
        self._reformulated.clear()
        self._memo_version = self._store.version

    # ------------------------------------------------------------------
    # Cloning
    # ------------------------------------------------------------------

    def copy_for(self, store: "TripleStore") -> "StatisticsCatalog":
        """An independent catalog for a cloned store.

        Counters are copied directly (codes are identical between a
        store and its clone); the derived memos start empty and synced
        to the clone's version.
        """
        clone = StatisticsCatalog(store)
        clone._col_values = tuple(Counter(counter) for counter in self._col_values)
        return clone
