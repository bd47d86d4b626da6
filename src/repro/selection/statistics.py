"""Statistics for the cost model (Sections 3.3 and 4.3) — thin adapters.

Since the ``repro.stats`` refactor, all base figures live in the store's
incrementally maintained :class:`~repro.stats.catalog.StatisticsCatalog`
and the shared providers of :mod:`repro.stats.provider`; this module
keeps the historical import path plus the one provider that genuinely
belongs to the selection layer:

* :class:`StoreStatistics` — exact counts from a (possibly saturated)
  store, now a named alias of
  :class:`~repro.stats.provider.CatalogStatistics` bound to the store's
  catalog;
* :class:`ReformulationAwareStatistics` — the post-reformulation twist
  of Section 4.3: each atom pattern is reformulated against the RDF
  Schema and its cardinality is the number of distinct matches of the
  resulting union on the *non-saturated* store — "the same statistics
  as if the database was saturated", without saturating it. The union
  is *counted*, never answered (:func:`repro.engine.count_union`), and
  the counts are kept on the store's catalog, so they are gathered once
  per store version rather than once per selector. It lives here (not
  in ``repro.stats``) because it builds on the reformulation machinery.

``Statistics`` (the protocol), ``FixedStatistics`` and
``ZipfStatistics`` are re-exported from :mod:`repro.stats` for
compatibility.
"""

from __future__ import annotations

import time

from repro.engine import count_union
from repro.obs import metrics
from repro.query.cq import Atom, ConjunctiveQuery, Variable
from repro.rdf.schema import RDFSchema
from repro.rdf.store import TripleStore
from repro.stats.provider import (
    CatalogStatistics,
    FixedStatistics,
    Statistics,
    ZipfStatistics,
    atom_pattern as _atom_pattern,
)

__all__ = [
    "FixedStatistics",
    "ReformulationAwareStatistics",
    "Statistics",
    "StoreStatistics",
    "ZipfStatistics",
]


class StoreStatistics(CatalogStatistics):
    """Exact pattern counts read straight from a triple store.

    A thin adapter over the store's incrementally maintained catalog
    (``store.stats``): pattern counts are memoized there per constant
    pattern and refreshed through the store's ``version`` counter, so
    the search's repeated lookups stay O(1) without ever recounting
    from scratch (Section 3.3 gathers them once per workload; the
    version-aware memo achieves the same effect lazily).
    """

    def __init__(self, store: TripleStore) -> None:
        super().__init__(store.stats)


class ReformulationAwareStatistics:
    """Post-reformulation statistics (Section 4.3).

    For each atom ``vi``, ``|vi|`` is replaced by
    ``|Reformulate(vi, S)|``: the atom's constant pattern is turned into
    a one-atom query projecting one fresh variable per open position,
    reformulated with Algorithm 1, and the distinct matches of the union
    on the plain (non-saturated) store are counted. Theorem 4.2
    guarantees this equals the pattern's count on the saturated store.
    Column distincts, totals and term sizes come from the store's
    catalog like everywhere else.

    The paper gathers these numbers once per workload and then searches
    on plain numbers. So does this provider: it is a thin view over the
    catalog's :meth:`~repro.stats.catalog.StatisticsCatalog.reformulated_counts`
    memo, which outlives it — a second provider or
    :class:`~repro.selection.recommender.ViewSelector` over the same
    store and schema starts warm, until the store mutates or the schema
    grows. A miss costs one :func:`~repro.engine.count_union`: index
    buckets folded into sets of codes (on SQLite, one statement for a
    pattern with a single alternative), no decoded answer.
    """

    def __init__(self, store: TripleStore, schema: RDFSchema) -> None:
        self._store = store
        self._catalog = store.stats
        self._schema = schema

    @property
    def version(self) -> int:
        """The store's mutation counter — lets downstream memos (the
        shared estimator, the cost model's cross-state price caches)
        detect staleness exactly like every other provider."""
        return self._catalog.version

    def atom_count(self, atom) -> int:
        pattern = _atom_pattern(atom)
        counts = self._catalog.reformulated_counts(self._schema)
        count = counts.get(pattern)
        if count is not None:
            if metrics.enabled:
                metrics.inc("selection.stats.reformulated.hit")
            return count
        timed = metrics.enabled
        started = time.perf_counter() if timed else 0.0
        # Import here: reformulation builds on the query layer, and the
        # selection layer builds on both; this keeps import order acyclic.
        from repro.reformulation.reformulate import reformulate

        # The probe is built from the *pattern* — what the count is
        # memoized under — never from the atom: ``t(X, p, X)`` and
        # ``t(X, p, Y)`` share a pattern and must share a count,
        # whichever is priced first (``atom_pattern`` ignores a
        # repeated variable on purpose).
        probe = Atom(*(
            Variable(f"V{position}") if term is None else term
            for position, term in enumerate(pattern)
        ))
        head = tuple(term for term in probe if isinstance(term, Variable))
        query = ConjunctiveQuery(head, (probe,), name="stat")
        count = count_union(reformulate(query, self._schema), self._store)
        counts[pattern] = count
        if timed:
            metrics.inc("selection.stats.reformulated.miss")
            metrics.observe(
                "selection.stats.reformulated_ms",
                (time.perf_counter() - started) * 1000.0,
            )
        return count

    def distinct_values(self, column: str) -> int:
        return self._catalog.distinct_values(column)

    def total_triples(self) -> int:
        return self._catalog.total_triples()

    def average_term_size(self) -> float:
        return self._catalog.average_term_size()
