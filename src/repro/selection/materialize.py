"""Materializing recommended views and answering queries from them.

This closes the loop the paper's Figure 8 measures: after the search
recommends a state, its views are materialized (directly, or through
their reformulations in the post-reformulation scenario) and the
workload queries are answered by executing the state's rewriting plans
over the view extents — with no access to the triple store.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.engine.extents import ViewExtent
from repro.query.algebra import Row, execute
from repro.query.evaluation import Answer, evaluate, evaluate_union
from repro.rdf.schema import RDFSchema
from repro.rdf.store import TripleStore
from repro.selection.state import State


def materialize_views(
    state: State,
    store: TripleStore,
    schema: RDFSchema | None = None,
    pushdown: bool = True,
) -> dict[str, ViewExtent]:
    """Compute the extent of every view of ``state`` on ``store``.

    With ``schema`` given, each view is reformulated first and the union
    is evaluated on the (non-saturated) store — the post-reformulation
    materialization of Section 4.3. Without a schema, views are
    evaluated directly (appropriate for a plain or saturated store).

    Extents come back as :class:`~repro.engine.extents.ViewExtent`
    (plain ``list`` subclasses): rewriting plans executed over them
    build each view's hash index on its join attributes once and reuse
    it across queries and repeated executions.
    """
    extents: dict[str, ViewExtent] = {}
    if schema is None:
        for view in state.views:
            extents[view.name] = ViewExtent(
                _sorted_rows(evaluate(view, store, pushdown=pushdown))
            )
        return extents
    from repro.reformulation.reformulate import reformulate

    for view in state.views:
        union = reformulate(view, schema)
        extents[view.name] = ViewExtent(
            _sorted_rows(evaluate_union(union, store, pushdown=pushdown))
        )
    return extents


def _sorted_rows(rows) -> list[Row]:
    """Deterministic extent order (terms are not naturally orderable)."""
    return sorted(rows, key=lambda row: tuple(term.n3() for term in row))


def answer_query(
    state: State, query_name: str, extents: Mapping[str, Sequence[Row]]
) -> set[Answer]:
    """Answer one workload query purely from materialized view extents."""
    rewriting = state.rewritings.get(query_name)
    if rewriting is None:
        raise KeyError(f"state has no rewriting for query {query_name!r}")
    answers: set[Answer] = set()
    for disjunct in rewriting:
        rows = execute(disjunct.plan, extents)
        answers.update(disjunct.answer_rows(rows))
    return answers


def answer_all(
    state: State, extents: Mapping[str, Sequence[Row]]
) -> dict[str, set[Answer]]:
    """Answer every workload query of the state from the extents."""
    return {
        name: answer_query(state, name, extents) for name in state.rewritings
    }


def extent_size(extents: Mapping[str, Sequence[Row]]) -> int:
    """Total number of materialized tuples (a storage proxy)."""
    return sum(len(rows) for rows in extents.values())
