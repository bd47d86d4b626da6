"""Figure 4 — strategy comparison on small workloads.

Paper setup: workloads of 5 queries with 5 or 10 atoms each, star and
chain shapes, high and low commonality; the three relational strategies
of [21] (Greedy, Heuristic, Pruning) against DFS-AVF-STV and
GSTR-AVF-STV under a stoptime condition.

Expected shape (Section 6.2): on the 5-atom workloads all strategies
produce solutions, with DFS-AVF-STV and GSTR-AVF-STV the best; on the
10-atom workloads the relational strategies exhaust memory before
producing any full candidate view set ("OOM"), while DFS and GSTR keep
running and achieve interesting cost reductions.
"""

from __future__ import annotations

import pytest

from benchmarks.support import (
    barton_statistics,
    budget,
    report,
    satisfiable_workload,
    search_setup,
)
from repro.selection.competitors import (
    MemoryBudgetExceeded,
    greedy_relational_search,
    heuristic_relational_search,
    pruning_relational_search,
)
from repro.selection.costs import CostModel, calibrate_maintenance_weight
from repro.selection.search import run_search
from repro.selection.state import initial_state
from repro.workload import QueryShape

WORKLOAD_KINDS = [
    ("star-high", QueryShape.STAR, "high"),
    ("star-low", QueryShape.STAR, "low"),
    ("chain-high", QueryShape.CHAIN, "high"),
    ("chain-low", QueryShape.CHAIN, "low"),
]

#: Models [21]'s memory limit (Section 6.2's out-of-memory failures).
COMPETITOR_STATE_CAP = 40_000


def _run_ours(strategy, queries):
    state, model, enumerator = search_setup(queries)
    return run_search(state, model, strategy, enumerator, budget(1.5)).rcr


def _run_competitor(search, queries):
    statistics = barton_statistics()
    weights = calibrate_maintenance_weight(
        initial_state(queries), statistics, ratio=2.0
    )
    model = CostModel(statistics, weights)
    try:
        result = search(
            queries, model, budget=budget(3.0, max_states=COMPETITOR_STATE_CAP)
        )
        return result.rcr
    except MemoryBudgetExceeded:
        return None  # "fails to produce a solution"


STRATEGIES = {
    "Greedy[21]": lambda queries: _run_competitor(greedy_relational_search, queries),
    "Heuristic[21]": lambda queries: _run_competitor(heuristic_relational_search, queries),
    "Pruning[21]": lambda queries: _run_competitor(pruning_relational_search, queries),
    "DFS-AVF-STV": lambda queries: _run_ours("dfs", queries),
    "GSTR-AVF-STV": lambda queries: _run_ours("gstr", queries),
}


@pytest.mark.parametrize("atoms", [5, 10])
@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_fig4_strategy_rcr(benchmark, strategy, atoms):
    runner = STRATEGIES[strategy]
    workloads = {
        label: satisfiable_workload(5, atoms, shape, commonality, seed=4)
        for label, shape, commonality in WORKLOAD_KINDS
    }

    def run_all():
        return {label: runner(queries) for label, queries in workloads.items()}

    rcrs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for label, _, _ in WORKLOAD_KINDS:
        value = rcrs[label]
        rendered = f"{value:.3f}" if value is not None else "OOM (no solution)"
        report(
            "Figure 4: strategy comparison on small workloads "
            "(relative cost reduction; OOM = memory budget exhausted)",
            f"{atoms:>2} atoms/query  {label:<11} {strategy:<13} rcr={rendered}",
        )
