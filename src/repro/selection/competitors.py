"""The relational view-selection strategies of Theodoratos et al. [21],
as described in Section 6.1, used as experimental competitors.

All three follow a divide-and-conquer scheme:

1. **Per-query phase** — break the workload into one-query states and
   exhaustively enumerate each query's candidate states (edge removals,
   i.e. SC/JC, then view breaks).
2. **Combination phase** — put states back together, one per workload
   query, fusing views when possible. Every combination is a valid
   state, so the number of combined states explodes combinatorially.

They differ in what they keep:

* **Pruning** keeps all partial combinations, discarding only dominated
  ones (same query coverage, worse cost).
* **Greedy** keeps a single best combination at each step.
* **Heuristic** restricts each per-query pool to the minimal-cost state
  plus states offering view-fusion opportunities with other queries.

The paper reports these strategies exhaust memory before producing any
full candidate view set once queries have ~10 atoms. We reproduce that
failure mode with an explicit state budget: when the number of states
created exceeds it, :class:`MemoryBudgetExceeded` is raised — the
strategy "fails to produce a solution".
"""

from __future__ import annotations


from repro.query.containment import is_isomorphic
from repro.selection.costs import CostModel
from repro.selection.search import (
    SearchBudget,
    SearchCore,
    SearchResult,
    SearchStats,
    avf_closure,
)
from repro.selection.state import State, initial_state
from repro.selection.transitions import STRATIFIED_ORDER, TransitionEnumerator


class MemoryBudgetExceeded(RuntimeError):
    """The strategy outgrew its state budget before finding a solution.

    Models the out-of-memory failures of the relational strategies on
    RDF-sized workloads (Section 6.2).
    """

    def __init__(self, states_created: int) -> None:
        super().__init__(
            f"relational strategy exhausted its memory budget after creating "
            f"{states_created} states without covering the workload"
        )
        self.states_created = states_created


def _states_exceeded(run: SearchCore) -> bool:
    budget = run.budget
    return budget.max_states is not None and run.stats.created > budget.max_states


def _time_exceeded(run: SearchCore) -> bool:
    budget = run.budget
    if budget.time_limit is not None and run.elapsed() > budget.time_limit:
        run.completed = False
        return True
    return False


def _enumerate_query_pool(
    query_state: State,
    run: SearchCore,
    enumerator: TransitionEnumerator,
    max_pool: int,
    max_depth: int,
) -> list[State]:
    """The candidate states of a one-query sub-problem.

    Following [21]'s description ("apply all possible edge removals,
    then all possible view breaks on each such state"), the pool is the
    breadth-``max_depth`` neighbourhood of the one-query initial state
    rather than the full transition closure — the divide-and-conquer
    design banks on per-query pools being small. With RDF-sized queries
    they are not: a 10-atom query has dozens of applicable transitions
    and the pool (and, worse, the cross-product of pools during
    combination) outgrows the memory budget, which raises
    :class:`MemoryBudgetExceeded` — the paper's observed failure mode.
    """
    seen: set[tuple] = {query_state.key}
    pool = [query_state]
    stack: list[tuple[State, int, int]] = [(query_state, 0, 0)]
    while stack:
        if _time_exceeded(run):
            return pool
        state, stage, depth = stack.pop()
        if depth >= max_depth:
            continue
        run.stats.explored += 1
        for kind_index in range(stage, len(STRATIFIED_ORDER)):
            kind = STRATIFIED_ORDER[kind_index]
            for transition in enumerator.transitions(state, [kind]):
                run.stats.created += 1
                run.stats.transitions += 1
                if transition.key in seen:
                    run.stats.duplicates += 1
                    continue
                seen.add(transition.key)
                successor = transition.result
                pool.append(successor)
                stack.append((successor, kind_index, depth + 1))
                if len(pool) > max_pool or _states_exceeded(run):
                    raise MemoryBudgetExceeded(run.stats.created)
            if _time_exceeded(run):
                return pool
    return pool


def _combine(left: State, right: State, run: SearchCore) -> State:
    """Union of two partial states over disjoint query subsets."""
    views = left.views + right.views
    rewritings = dict(left.rewritings)
    for query_name, rewriting in right.rewritings.items():
        if query_name in rewritings:
            raise ValueError(f"query {query_name!r} covered by both sides")
        rewritings[query_name] = rewriting
    run.stats.created += 1
    return State(views, rewritings)


def _relational_search(
    queries,
    cost_model: CostModel,
    keep: str,
    enumerator: TransitionEnumerator | None = None,
    budget: SearchBudget | None = None,
    max_pool_per_query: int = 2_000,
    max_pool_depth: int = 2,
) -> SearchResult:
    enumerator = enumerator or TransitionEnumerator()
    budget = budget or SearchBudget(max_states=200_000)
    whole = initial_state(queries, enumerator.namer)
    run = SearchCore(
        whole, cost_model, enumerator, budget,
        use_avf=False, use_stoptt=False, use_stopvar=False,
    )
    # Phase 1: per-query pools.
    pools: list[list[State]] = []
    for query in queries:
        query_state = initial_state([query], enumerator.namer)
        run.stats.created += 1
        pools.append(
            _enumerate_query_pool(
                query_state, run, enumerator, max_pool_per_query, max_pool_depth
            )
        )
    if keep == "heuristic":
        pools = _heuristic_filter(pools, cost_model)
    # Phase 2: combine pools query by query.
    combined: list[State] = pools[0]
    if keep == "greedy":
        combined = [min(combined, key=cost_model.total_cost)]
    for pool in pools[1:]:
        next_round: list[State] = []
        for partial in combined:
            for candidate in pool:
                if _states_exceeded(run):
                    raise MemoryBudgetExceeded(run.stats.created)
                if _time_exceeded(run):
                    break
                merged = _combine(partial, candidate, run)
                merged = avf_closure(merged, enumerator, run)
                next_round.append(merged)
        if keep == "greedy":
            next_round = [min(next_round, key=cost_model.total_cost)]
        else:
            next_round = _discard_dominated(next_round, cost_model, run.stats)
        combined = next_round
    for state in combined:
        # Only full candidate view sets (covering every query) count.
        if len(state.rewritings) == len(list(queries)):
            run.offer(state, cost_model.total_cost(state))
    return run.result(strategy=keep)


def _discard_dominated(
    states: list[State], cost_model: CostModel, stats: SearchStats
) -> list[State]:
    """Pruning's dominance test: "comparing two states and discarding the
    less interesting one" (Section 6.1).

    Two partial states covering the same queries are compared on
    estimated cost and on total view atoms (a space proxy); a state
    worse or equal on both is dominated and dropped. The survivors form
    a small Pareto frontier, which is what lets Pruning combine pools at
    all — and why it still dies when the per-query pools themselves
    outgrow memory.
    """
    scored = sorted(
        ((cost_model.total_cost(state), state.total_atoms(), state) for state in states),
        key=lambda entry: (entry[0], entry[1]),
    )
    frontier: list[tuple[float, int, State]] = []
    seen_keys: set[tuple] = set()
    best_atoms = None
    for cost, atoms, state in scored:
        if state.key in seen_keys:
            stats.discarded += 1
            continue
        if best_atoms is not None and atoms >= best_atoms:
            stats.discarded += 1  # dominated: worse cost, no smaller
            continue
        seen_keys.add(state.key)
        frontier.append((cost, atoms, state))
        best_atoms = atoms if best_atoms is None else min(best_atoms, atoms)
    return [state for _, _, state in frontier]


def _heuristic_filter(
    pools: list[list[State]], cost_model: CostModel
) -> list[list[State]]:
    """Heuristic of [21]: keep each query's minimal-cost state plus any
    state containing a view isomorphic to a view of another query."""
    kept: list[list[State]] = []
    for index, pool in enumerate(pools):
        best = min(pool, key=cost_model.total_cost)
        other_views = [
            view
            for other_index, other_pool in enumerate(pools)
            if other_index != index
            for view in other_pool[0].views  # the other query's initial views
        ]
        fusable = [
            state
            for state in pool
            if any(
                is_isomorphic(view, other)
                for view in state.views
                for other in other_views
            )
        ]
        filtered = [best]
        seen = {best.key}
        for state in fusable:
            if state.key not in seen:
                seen.add(state.key)
                filtered.append(state)
        kept.append(filtered)
    return kept


def pruning_relational_search(
    queries, cost_model: CostModel, enumerator=None, budget=None, **kwargs
) -> SearchResult:
    """The Pruning strategy of [21] (keeps non-dominated combinations)."""
    return _relational_search(
        queries, cost_model, "pruning", enumerator, budget, **kwargs
    )


def greedy_relational_search(
    queries, cost_model: CostModel, enumerator=None, budget=None, **kwargs
) -> SearchResult:
    """The Greedy strategy of [21] (keeps one best combination)."""
    return _relational_search(
        queries, cost_model, "greedy", enumerator, budget, **kwargs
    )


def heuristic_relational_search(
    queries, cost_model: CostModel, enumerator=None, budget=None, **kwargs
) -> SearchResult:
    """The Heuristic strategy of [21] (min-cost + fusable states)."""
    return _relational_search(
        queries, cost_model, "heuristic", enumerator, budget, **kwargs
    )
