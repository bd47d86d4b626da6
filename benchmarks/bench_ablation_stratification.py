"""Ablation — stratified vs naive exhaustive search (Theorem 5.3).

EXSTR restricts every path to the regular language VB* SC* JC* VF*;
Theorem 5.3 states any EXSTR strategy applies at most as many
transitions as any EXNAÏVE one while remaining exhaustive. We run both
on a small workload under an equal state budget and compare transition
and duplicate counts, and the best cost found.
"""

from __future__ import annotations

import pytest

from benchmarks.support import full_scale, report, satisfiable_workload, search_setup
from repro.selection.search import SearchBudget, run_search
from repro.workload import QueryShape

EXPERIMENT = "Ablation: stratification (EXNAIVE vs EXSTR, Theorem 5.3)"

STRATEGIES = {"EXNAIVE": "exnaive", "EXSTR": "exstr"}


@pytest.mark.parametrize("label", list(STRATEGIES))
def test_ablation_stratification(benchmark, label):
    queries = satisfiable_workload(2, 3, QueryShape.CHAIN, "high", seed=9)
    state_budget = SearchBudget(max_states=60_000 if full_scale() else 15_000)

    def run():
        state, model, enumerator = search_setup(queries, vb_mode="overlapping")
        # Algorithm 2 as the paper states it: no AVF, no STV.
        return run_search(
            state, model, STRATEGIES[label], enumerator, state_budget,
            use_avf=False, use_stopvar=False,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        EXPERIMENT,
        f"{label:<8} transitions={result.stats.transitions:>7} "
        f"duplicates={result.stats.duplicates:>7} "
        f"explored={result.stats.explored:>6} best_cost={result.best_cost:.1f} "
        f"completed={result.completed}",
    )
