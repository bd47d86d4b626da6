"""Figure 6 — relative cost reduction on large workloads.

Paper setup: workloads of 5/10/20/50/100/200 queries with 10 atoms each;
shapes chain, random-sparse, random-dense, star, mixed; high and low
commonality; DFS-AVF-STV and GSTR-AVF-STV under a stoptime condition.
Also reports the average atoms per recommended view (Section 6.4 quotes
~3.2 for DFS and ~6.5 for GSTR).

Expected shape: DFS reaches high rcr overall; GSTR's rcr is generally
smaller; "easier" shapes (chains, sparse graphs) get higher rcr than
stars and dense graphs; high commonality beats low commonality.

The paper's runs had a 3-hour stoptime each; at Python speed the eager
searches cannot even expand the 200-query initial state, so both
strategies run in their work-queue scaling mode: DFS as the
first-improvement descent (``DescentStrategy``), GSTR as the same descent
constrained to one stratum at a time (VB*, then SC*, then JC*, fusions
folded in) — keeping GSTR's defining trait of carrying a single state
between strata. Time budgets scale mildly with the workload.
"""

from __future__ import annotations

import pytest

from benchmarks.support import (
    bench_statistics,
    budget,
    full_scale,
    report,
    search_setup,
    synthetic_workload,
)
from repro.selection.search import DescentStrategy, SearchBudget, run_search
from repro.selection.transitions import TransitionKind
from repro.workload import QueryShape


def _dfs_descent(state, model, enumerator, run_budget):
    return run_search(state, model, "descent", enumerator, run_budget)


def _gstr_descent(state, model, enumerator, run_budget):
    """Stratified greedy: one stratum at a time, single carried state."""
    remaining = run_budget.time_limit or 0.0
    result = None
    for kind in (TransitionKind.VB, TransitionKind.SC, TransitionKind.JC):
        slice_budget = SearchBudget(time_limit=max(remaining / 3.0, 0.1))
        step = run_search(
            state, model, DescentStrategy(kinds=(kind,)), enumerator, slice_budget
        )
        state = step.best_state
        if result is None:
            result = step
        else:
            result.best_state = step.best_state
            result.best_cost = min(result.best_cost, step.best_cost)
            result.stats.created += step.stats.created
            result.stats.explored += step.stats.explored
    return result


STRATEGIES = {
    "DFS-AVF-STV": _dfs_descent,
    "GSTR-AVF-STV": _gstr_descent,
}

SHAPES = [
    ("chain", QueryShape.CHAIN),
    ("random-sparse", QueryShape.RANDOM_SPARSE),
    ("random-dense", QueryShape.RANDOM_DENSE),
    ("star", QueryShape.STAR),
    ("mixed", QueryShape.MIXED),
]

EXPERIMENT = (
    "Figure 6: relative cost reduction on large workloads "
    "(10 atoms/query, stoptime search)"
)


def workload_sizes():
    return (5, 10, 20, 50, 100, 200) if full_scale() else (5, 20, 50, 200)


@pytest.mark.parametrize("commonality", ["high", "low"])
@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_fig6_rcr(benchmark, strategy, commonality):
    search = STRATEGIES[strategy]

    def run():
        rows = []
        for label, shape in SHAPES:
            for size in workload_sizes():
                queries = synthetic_workload(size, 10, shape, commonality, seed=6)
                # Dataset-free workloads are priced with the skewed
                # synthetic statistics (their vocabulary is not Barton's).
                state, model, enumerator = search_setup(
                    queries, statistics=bench_statistics()
                )
                result = search(
                    state, model, enumerator, budget(0.5 + 0.04 * size)
                )
                rows.append((label, size, result.rcr, result.average_view_atoms()))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for label, size, rcr, atoms in rows:
        report(
            EXPERIMENT,
            f"{strategy:<13} {commonality:<4} {label:<14} |Q|={size:>3} "
            f"rcr={rcr:.3f} avg_atoms/view={atoms:.1f}",
        )
