"""Figure 5 — impact of the AVF and STV heuristics on the search space.

Paper setup: a tiny workload of 2 star queries with 4 atoms each, low
commonality, DFS strategy, with heuristics NONE / AVF / STV / AVF-STV.
Reported: created, duplicate, discarded and explored state counts.

Expected shape: duplicates are a large fraction of created states; AVF
lowers the duplicate count (states with identical views are fused away
immediately); STV discards a significant number of states; AVF-STV
combines both. All configurations reach the same best state.

The paper ran each configuration to completion (~9M created states on a
cluster); the full space does not complete at Python speed, so every
configuration gets the same created-states budget and the counts are
compared at equal budget — the relative shape is preserved.
"""

from __future__ import annotations

import pytest

from benchmarks.support import full_scale, report, satisfiable_workload, search_setup
from repro.selection.search import SearchBudget, run_search
from repro.workload import QueryShape

CONFIGURATIONS = {
    "NONE": dict(use_avf=False, use_stopvar=False),
    "AVF": dict(use_avf=True, use_stopvar=False),
    "STV": dict(use_avf=False, use_stopvar=True),
    "AVF-STV": dict(use_avf=True, use_stopvar=True),
}

EXPERIMENT = (
    "Figure 5: impact of heuristics on the search "
    "(2 star queries x 4 atoms, low commonality, DFS)"
)


@pytest.fixture(scope="module")
def workload():
    return satisfiable_workload(2, 4, QueryShape.STAR, "low", seed=5)


@pytest.mark.parametrize("label", list(CONFIGURATIONS))
def test_fig5_heuristic_state_counts(benchmark, label, workload):
    flags = CONFIGURATIONS[label]
    state_budget = SearchBudget(
        max_states=120_000 if full_scale() else 25_000
    )

    def run():
        state, model, enumerator = search_setup(workload, vb_mode="overlapping")
        return run_search(state, model, "dfs", enumerator, state_budget, **flags)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = result.stats
    report(
        EXPERIMENT,
        f"{label:<8} created={stats.created:>7} duplicates={stats.duplicates:>7} "
        f"discarded={stats.discarded:>7} explored={stats.explored:>7} "
        f"best_cost={result.best_cost:.1f}",
    )
