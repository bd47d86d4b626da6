"""Ablation — sensitivity of the recommended state to the cost weights.

Section 3.3 makes the weights user-facing knobs: "if storage space is
cheap cs can be set very low, if the triple table is rarely updated cm
can be reduced etc." This ablation runs the same workload under four
weightings and reports how the recommended view set changes:

* balanced (the Section 6 defaults, cm calibrated),
* storage-dominated (cs high): fewer/more selective views,
* maintenance-dominated (cm high): many small views (low f^len),
* evaluation-dominated (cr high): views close to the queries themselves.
"""

from __future__ import annotations

import pytest

from benchmarks.support import (
    barton_statistics,
    budget,
    report,
    satisfiable_workload,
)
from repro.selection.costs import CostModel, CostWeights, calibrate_maintenance_weight
from repro.selection.search import run_search
from repro.selection.state import ViewNamer, initial_state
from repro.selection.transitions import TransitionEnumerator
from repro.workload import QueryShape

EXPERIMENT = "Ablation: cost-weight sensitivity (DFS-AVF-STV, same workload)"


def weightings(statistics, initial):
    balanced = calibrate_maintenance_weight(initial, statistics, ratio=2.0)
    return {
        "balanced": balanced,
        "storage-heavy": CostWeights(cs=100.0, cr=1.0, cm=balanced.cm),
        "maintenance-heavy": CostWeights(cs=1.0, cr=1.0, cm=balanced.cm * 100.0),
        "evaluation-heavy": CostWeights(cs=0.01, cr=100.0, cm=balanced.cm * 0.01),
    }


@pytest.mark.parametrize(
    "label", ["balanced", "storage-heavy", "maintenance-heavy", "evaluation-heavy"]
)
def test_ablation_cost_weights(benchmark, label):
    queries = satisfiable_workload(4, 6, QueryShape.STAR, "high", seed=12)
    statistics = barton_statistics()
    weights = weightings(statistics, initial_state(queries))[label]

    def run():
        namer = ViewNamer()
        enumerator = TransitionEnumerator(namer)
        state = initial_state(queries, namer)
        model = CostModel(statistics, weights)
        return run_search(state, model, "dfs", enumerator, budget(2.0))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        EXPERIMENT,
        f"{label:<18} rcr={result.rcr:.3f} views={len(result.best_state.views):>2} "
        f"avg_atoms/view={result.average_view_atoms():.1f} "
        f"total_atoms={result.best_state.total_atoms():>3}",
    )
