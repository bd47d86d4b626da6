"""Workload partitioning — the paper's Section 8 future-work direction.

"As future work, we consider parallelizing our view search algorithms by
identifying workload queries that do not have many commonalities and
running the search in parallel for each group."

Two queries interact during the search only if their views can ever fuse
or share structure, which requires shared constants (properties,
classes, values). :func:`partition_workload` splits the workload into
the connected components of the commonality graph;
:func:`partitioned_search` runs an independent search per group and
merges the recommended states. Since the groups share no vocabulary, no
cross-group fusion opportunity is lost, and the merged state's cost is
the sum of the group costs (the cost function is additive over views and
rewritings).

The searches run sequentially here (pure Python), but each group's
search is independent, so a process pool could run them in parallel
without any algorithmic change.
"""

from __future__ import annotations

from typing import Sequence

from repro.query.cq import ConjunctiveQuery
from repro.rdf.terms import Term
from repro.selection.costs import CostModel
from repro.selection.search import SearchBudget, SearchResult, run_search
from repro.selection.state import State, ViewNamer, initial_state
from repro.selection.transitions import TransitionEnumerator


def partition_workload(
    queries: Sequence[ConjunctiveQuery],
    min_shared_constants: int = 1,
) -> list[list[ConjunctiveQuery]]:
    """Group queries into components of the commonality graph.

    Queries are connected when they share at least
    ``min_shared_constants`` constants. Raising the threshold splits
    more aggressively (weakly related queries stop interacting), at the
    price of possibly missing some fusion opportunities.
    """
    vocabularies: list[set[Term]] = [set(q.constants()) for q in queries]
    parent = list(range(len(queries)))

    def find(index: int) -> int:
        while parent[index] != index:
            parent[index] = parent[parent[index]]
            index = parent[index]
        return index

    for i in range(len(queries)):
        for j in range(i + 1, len(queries)):
            if len(vocabularies[i] & vocabularies[j]) >= min_shared_constants:
                parent[find(i)] = find(j)
    groups: dict[int, list[ConjunctiveQuery]] = {}
    for index, query in enumerate(queries):
        groups.setdefault(find(index), []).append(query)
    # Deterministic group order: by first query's position.
    return [group for _, group in sorted(groups.items())]


def merge_states(states: Sequence[State]) -> State:
    """The union of disjoint partial states (disjoint query coverage)."""
    views: list = []
    rewritings: dict = {}
    for state in states:
        views.extend(state.views)
        for query_name, rewriting in state.rewritings.items():
            if query_name in rewritings:
                raise ValueError(f"query {query_name!r} covered by two groups")
            rewritings[query_name] = rewriting
    return State(tuple(views), rewritings)


def partitioned_search(
    queries: Sequence[ConjunctiveQuery],
    cost_model: CostModel,
    strategy: str = "dfs",
    budget: SearchBudget | None = None,
    enumerator: TransitionEnumerator | None = None,
    min_shared_constants: int = 1,
    **strategy_options,
) -> tuple[State, list[SearchResult]]:
    """Search each commonality group independently and merge the results.

    ``strategy`` names a :func:`~repro.selection.search.run_search`
    strategy; ``strategy_options`` are its flags (``use_avf`` …). The
    time budget is divided evenly across groups. Returns the merged
    recommended state and the per-group search results.
    """
    if not queries:
        raise ValueError("the workload must contain at least one query")
    enumerator = enumerator or TransitionEnumerator(ViewNamer())
    groups = partition_workload(queries, min_shared_constants)
    per_group_budget = budget
    if budget is not None and budget.time_limit is not None and groups:
        per_group_budget = SearchBudget(
            time_limit=budget.time_limit / len(groups),
            max_states=budget.max_states,
        )
    results = []
    partial_states = []
    for group in groups:
        start = initial_state(group, enumerator.namer)
        result = run_search(
            start, cost_model, strategy, enumerator, per_group_budget,
            **strategy_options,
        )
        results.append(result)
        partial_states.append(result.best_state)
    return merge_states(partial_states), results
