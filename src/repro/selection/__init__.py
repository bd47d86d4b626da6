"""View selection: the paper's primary contribution.

The search space of candidate view sets is modeled by states
(:mod:`repro.selection.state`) connected by the four transitions SC, JC,
VB, VF (:mod:`repro.selection.transitions`), weighted by the cost model
of Section 3.3 (:mod:`repro.selection.costs` over
:mod:`repro.selection.statistics`), and explored by the strategies of
Section 5 (:mod:`repro.selection.search`) or the relational competitors
of Section 6.1 (:mod:`repro.selection.competitors`).
"""

from repro.selection.state import (
    State,
    Rewriting,
    RewritingDisjunct,
    initial_state,
)
from repro.selection.statistics import (
    Statistics,
    StoreStatistics,
    ReformulationAwareStatistics,
)
from repro.selection.costs import CostModel, CostWeights, CostBreakdown
from repro.selection.transitions import (
    Transition,
    TransitionKind,
    TransitionEnumerator,
)
from repro.selection.search import (
    STRATEGY_FACTORIES,
    SearchBudget,
    SearchCore,
    SearchNode,
    SearchResult,
    SearchStrategy,
    run_search,
)
from repro.selection.competitors import (
    MemoryBudgetExceeded,
    greedy_relational_search,
    heuristic_relational_search,
    pruning_relational_search,
)
from repro.selection.materialize import materialize_views, answer_query
from repro.selection.maintenance import MaterializedViewSet
from repro.selection import persist
from repro.selection.partition import (
    merge_states,
    partition_workload,
    partitioned_search,
)
from repro.selection.recommender import Recommendation, ViewSelector

__all__ = [
    "State",
    "Rewriting",
    "RewritingDisjunct",
    "initial_state",
    "Statistics",
    "StoreStatistics",
    "ReformulationAwareStatistics",
    "CostModel",
    "CostWeights",
    "CostBreakdown",
    "Transition",
    "TransitionKind",
    "TransitionEnumerator",
    "STRATEGY_FACTORIES",
    "SearchBudget",
    "SearchCore",
    "SearchNode",
    "SearchResult",
    "SearchStrategy",
    "run_search",
    "MemoryBudgetExceeded",
    "greedy_relational_search",
    "heuristic_relational_search",
    "pruning_relational_search",
    "materialize_views",
    "merge_states",
    "MaterializedViewSet",
    "persist",
    "partition_workload",
    "partitioned_search",
    "answer_query",
    "Recommendation",
    "ViewSelector",
]
