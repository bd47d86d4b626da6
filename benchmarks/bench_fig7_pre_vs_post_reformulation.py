"""Figure 7 — view-set search under pre- vs post-reformulation.

Paper setup: the Q1 and Q2 workloads of Table 3 on the Barton dataset;
DFS-AVF-STV searches either the pre-reformulated workload (one view per
reformulated disjunct, statistics from the plain store) or the original
workload with reformulation-aware statistics (post-reformulation); the
evolution of the best cost over time is plotted.

Expected shape: the pre-reformulation initial state costs more than the
post-reformulation one; the post-reformulation best cost drops faster
and ends lower — with the gap widening on the larger workload Q2 (the
paper reports final-cost ratios of 2.7x on Q1 and 22x on Q2).
"""

from __future__ import annotations

import time

import pytest

from benchmarks.bench_table3_reformulation_workloads import reformulation_workloads
from benchmarks.support import barton, budget, report
from repro.query.evaluation import evaluate_union
from repro.reformulation.reformulate import reformulate
from repro.reformulation.workflows import pre_reformulation_initial_state
from repro.selection.costs import CostModel, calibrate_maintenance_weight
from repro.selection.search import run_search
from repro.selection.state import ViewNamer, initial_state
from repro.selection.statistics import ReformulationAwareStatistics, StoreStatistics
from repro.selection.transitions import TransitionEnumerator

EXPERIMENT = (
    "Figure 7: best cost over time, pre- vs post-reformulation (DFS-AVF-STV)"
)


def _search(initial_builder, statistics):
    namer = ViewNamer()
    enumerator = TransitionEnumerator(namer)
    state = initial_builder(namer)
    weights = calibrate_maintenance_weight(state, statistics, ratio=2.0)
    model = CostModel(statistics, weights)
    return run_search(state, model, "dfs", enumerator, budget(4.0))


@pytest.mark.parametrize("name", ["Q1", "Q2"])
@pytest.mark.parametrize("mode", ["pre-reform", "post-reform"])
def test_fig7_cost_over_time(benchmark, name, mode):
    store, schema = barton()
    queries = reformulation_workloads()[name]

    if mode == "pre-reform":
        statistics = StoreStatistics(store)

        def run():
            return _search(
                lambda namer: pre_reformulation_initial_state(queries, schema, namer),
                statistics,
            )

    else:
        statistics = ReformulationAwareStatistics(store, schema)

        def run():
            return _search(lambda namer: initial_state(queries, namer), statistics)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    trace = "  ".join(f"{t:.2f}s:{c:.0f}" for t, c in result.cost_history[-6:])
    report(
        EXPERIMENT,
        f"{name} {mode:<11} initial={result.initial_cost:>12.0f} "
        f"best={result.best_cost:>12.0f} views={len(result.best_state.views):>3} "
        f"trace[{trace}]",
    )


@pytest.mark.parametrize("name", ["Q1", "Q2"])
def test_fig7_union_shared_vs_independent(benchmark, name):
    """The evaluation cost the post-reformulation search actually pays:
    ``ReformulationAwareStatistics`` answers every reformulation union
    on the plain store, so the multi-query optimizer's shared execution
    (vs the independent per-disjunct baseline) directly shortens its
    statistics-gathering phase."""
    store, schema = barton()
    queries = reformulation_workloads()[name]
    unions = [reformulate(query, schema) for query in queries]

    def shared_run():
        return [evaluate_union(union, store) for union in unions]

    shared_answers = benchmark.pedantic(shared_run, rounds=1, iterations=1)
    start = time.perf_counter()
    independent = [
        evaluate_union(union, store, shared=False) for union in unions
    ]
    independent_ms = (time.perf_counter() - start) * 1000.0
    assert shared_answers == independent
    start = time.perf_counter()
    shared_run()
    shared_ms = (time.perf_counter() - start) * 1000.0
    disjuncts = sum(len(union.disjuncts) for union in unions)
    ratio = independent_ms / shared_ms if shared_ms else float("inf")
    report(
        EXPERIMENT,
        f"{name} union eval ({disjuncts} disjuncts) "
        f"shared={shared_ms:.2f} ms independent={independent_ms:.2f} ms "
        f"({ratio:.2f}x)",
    )
