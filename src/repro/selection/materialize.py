"""Materializing recommended views and answering queries from them.

This closes the loop the paper's Figure 8 measures: after the search
recommends a state, its views are materialized (directly, or through
their reformulations in the post-reformulation scenario) and the
workload queries are answered by executing the state's rewriting plans
over the view extents — with no access to the triple store.
"""

from __future__ import annotations

from typing import Collection, Mapping

from repro.query.algebra import Row, execute
from repro.query.evaluation import Answer, evaluate
from repro.rdf.schema import RDFSchema
from repro.rdf.store import TripleStore
from repro.selection.state import State


def materialize_views(
    state: State,
    store: TripleStore,
    schema: RDFSchema | None = None,
) -> dict[str, list[Row]]:
    """Compute the extent of every view of ``state`` on ``store``.

    With ``schema`` given, each view is reformulated first and the union
    is evaluated on the (non-saturated) store — the post-reformulation
    materialization of Section 4.3. Without a schema, views are
    evaluated directly (appropriate for a plain or saturated store).

    Each extent is a sorted list of distinct rows, so a serialized view
    set (:func:`repro.selection.persist.dumps`) is deterministic.
    """
    extents: dict[str, list[Row]] = {}
    if schema is None:
        for view in state.views:
            extents[view.name] = _sorted_rows(evaluate(view, store))
        return extents
    from repro.reformulation.reformulate import reformulate

    for view in state.views:
        union = reformulate(view, schema)
        extents[view.name] = _sorted_rows(evaluate(union, store))
    return extents


def _sorted_rows(rows) -> list[Row]:
    """Deterministic extent order (terms are not naturally orderable)."""
    return sorted(rows, key=lambda row: tuple(term.n3() for term in row))


def answer_query(
    state: State, query_name: str, extents: Mapping[str, Collection[Row]]
) -> set[Answer]:
    """Answer one workload query purely from materialized view extents.

    >>> from repro.query.parser import parse_query
    >>> from repro.rdf.ntriples import parse_ntriples
    >>> from repro.selection.state import initial_state
    >>> store = TripleStore()
    >>> _ = store.add_all(parse_ntriples('''
    ... <http://e/vanGogh> <http://e/hasPainted> <http://e/starry> .
    ... <http://e/monet> <http://e/hasPainted> <http://e/lilies> .
    ... '''))
    >>> query = parse_query("q(X) :- t(X, <http://e/hasPainted>, <http://e/starry>)")
    >>> state = initial_state([query])
    >>> extents = materialize_views(state, store)
    >>> answer_query(state, "q", extents)
    {(URI('http://e/vanGogh'),)}
    """
    rewriting = state.rewritings.get(query_name)
    if rewriting is None:
        raise KeyError(f"state has no rewriting for query {query_name!r}")
    answers: set[Answer] = set()
    for disjunct in rewriting:
        rows = execute(disjunct.plan, extents)
        answers.update(disjunct.answer_rows(rows))
    return answers


def answer_all(
    state: State, extents: Mapping[str, Collection[Row]]
) -> dict[str, set[Answer]]:
    """Answer every workload query of the state from the extents."""
    return {
        name: answer_query(state, name, extents) for name in state.rewritings
    }


def extent_size(extents: Mapping[str, Collection[Row]]) -> int:
    """Total number of materialized tuples (a storage proxy)."""
    return sum(len(rows) for rows in extents.values())
