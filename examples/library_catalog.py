"""View selection on a Barton-like library catalog at realistic scale.

Generates the synthetic library catalog (same schema shape as the
paper's Barton dataset: 39 classes, 61 properties, 106 RDFS statements),
derives a satisfiable workload, compares the search strategies, and
demonstrates the speedup of answering from views instead of the triple
table.

Run with: python examples/library_catalog.py
"""

import time

from repro.datagen import BartonConfig, generate_barton
from repro.query.evaluation import evaluate, evaluate_nested_loop
from repro.selection.costs import CostModel, calibrate_maintenance_weight
from repro.selection.materialize import answer_query, extent_size, materialize_views
from repro.selection.search import SearchBudget, run_search
from repro.selection.state import ViewNamer, initial_state
from repro.selection.statistics import StoreStatistics
from repro.selection.transitions import TransitionEnumerator
from repro.workload import QueryShape, SatisfiableWorkloadGenerator, WorkloadSpec


def main() -> None:
    print("generating the library catalog ...")
    store, schema = generate_barton(
        BartonConfig(num_triples=25_000, num_entities=4_000, seed=11)
    )
    print(f"  {len(store)} triples, schema: {len(schema)} RDFS statements, "
          f"{len(schema.classes)} classes, {len(schema.properties)} properties\n")

    generator = SatisfiableWorkloadGenerator(store, seed=17)
    workload = generator.generate(
        WorkloadSpec(8, 8, QueryShape.MIXED, "high", constant_probability=0.4)
    )
    print("workload (satisfiable on the catalog):")
    for query in workload:
        print(f"  {query.name}: {len(query)} atoms, "
              f"{len(evaluate(query, store))} answers")
    print()

    statistics = StoreStatistics(store)
    weights = calibrate_maintenance_weight(initial_state(workload), statistics, ratio=2.0)

    strategies = {
        "DFS-AVF-STV": "dfs",
        "GSTR-AVF-STV": "gstr",
        "descent (scaling mode)": "descent",
    }
    best = None
    for name, strategy in strategies.items():
        namer = ViewNamer()
        enumerator = TransitionEnumerator(namer)
        state = initial_state(workload, namer)
        model = CostModel(statistics, weights)
        result = run_search(
            state, model, strategy, enumerator, SearchBudget(time_limit=4.0)
        )
        print(f"{name:<24} rcr={result.rcr:.3f} "
              f"views={len(result.best_state.views)} "
              f"avg atoms/view={result.average_view_atoms():.1f} "
              f"states created={result.stats.created}")
        if best is None or result.best_cost < best.best_cost:
            best = result
    print()

    print("materializing the best state's views ...")
    extents = materialize_views(best.best_state, store)
    print(f"  total view storage: {extent_size(extents)} tuples "
          f"({extent_size(extents) / len(store):.1%} of the database)\n")

    print("query evaluation: triple-table scan vs recommended views")
    for query in workload[:4]:
        start = time.perf_counter()
        scan_answers = evaluate_nested_loop(query, store)
        scan_ms = (time.perf_counter() - start) * 1000
        start = time.perf_counter()
        view_answers = answer_query(best.best_state, query.name, extents)
        view_ms = (time.perf_counter() - start) * 1000
        assert view_answers == scan_answers
        speedup = scan_ms / view_ms if view_ms > 0 else float("inf")
        print(f"  {query.name}: scan {scan_ms:8.1f} ms   views {view_ms:6.2f} ms "
              f"  ({speedup:,.0f}x)")


if __name__ == "__main__":
    main()
