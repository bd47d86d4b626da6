"""repro — a reproduction of "View Selection in Semantic Web Databases"
(Goasdoué, Karanasos, Leblay, Manolescu; PVLDB 5(2), 2011).

The library selects a set of materialized views over an RDF database
such that every workload query can be answered from the views alone,
minimizing a combination of query-evaluation, storage and maintenance
costs — with full support for the implicit triples entailed by an RDF
Schema, via saturation, pre-reformulation, or the paper's
post-reformulation technique.

Quick start::

    from repro import TripleStore, Triple, URI, parse_query, ViewSelector

    store = TripleStore()
    store.add(Triple(URI("ex:mona"), URI("ex:paintedBy"), URI("ex:leonardo")))
    q = parse_query("q(X) :- t(X, <ex:paintedBy>, <ex:leonardo>)")
    recommendation = ViewSelector(store).recommend([q])
    extents = recommendation.materialize()
    print(recommendation.answer("q", extents))
"""

from repro.storage import (
    BACKENDS,
    MemoryBackend,
    SqliteBackend,
    StorageBackend,
)
from repro.rdf import (
    BlankNode,
    Dictionary,
    Literal,
    RDFSchema,
    SchemaKind,
    SchemaStatement,
    Triple,
    TripleStore,
    URI,
    parse_ntriples,
    saturate,
    serialize_ntriples,
    vocabulary,
)
from repro.query import (
    Atom,
    ConjunctiveQuery,
    UnionQuery,
    Variable,
    evaluate,
    evaluate_union,
    parse_queries,
    parse_query,
)
from repro.reformulation import reformulate
from repro.stats import (
    CardinalityEstimator,
    CatalogStatistics,
    StatisticsCatalog,
)
from repro.selection import (
    CostModel,
    CostWeights,
    Recommendation,
    SearchBudget,
    SearchStrategy,
    State,
    StoreStatistics,
    ReformulationAwareStatistics,
    TransitionEnumerator,
    ViewSelector,
    initial_state,
    materialize_views,
    run_search,
)

__version__ = "1.0.0"

__all__ = [
    "BACKENDS",
    "MemoryBackend",
    "SqliteBackend",
    "StorageBackend",
    "BlankNode",
    "Dictionary",
    "Literal",
    "RDFSchema",
    "SchemaKind",
    "SchemaStatement",
    "Triple",
    "TripleStore",
    "URI",
    "parse_ntriples",
    "saturate",
    "serialize_ntriples",
    "vocabulary",
    "Atom",
    "ConjunctiveQuery",
    "UnionQuery",
    "Variable",
    "evaluate",
    "evaluate_union",
    "parse_queries",
    "parse_query",
    "reformulate",
    "CardinalityEstimator",
    "CatalogStatistics",
    "StatisticsCatalog",
    "CostModel",
    "CostWeights",
    "Recommendation",
    "SearchBudget",
    "SearchStrategy",
    "run_search",
    "State",
    "StoreStatistics",
    "ReformulationAwareStatistics",
    "TransitionEnumerator",
    "ViewSelector",
    "initial_state",
    "materialize_views",
]
