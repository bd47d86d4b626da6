"""Figure 8 — execution times for queries with RDFS entailment.

Paper setup: the five queries of workload Q1, answered several ways —

* **saturated-tt**: scan-based evaluation on the saturated store (the
  role of the plain PostgreSQL triple-table plan);
* **restricted-tt**: the same, on a table restricted to the triples
  relevant to the workload;
* **pre-reform**: rewritings over views selected from the
  pre-reformulated workload;
* **post-reform**: rewritings over reformulated views;
* **initial-state**: the workload queries themselves materialized;
* **engine**: the physical-operator engine on the saturated store (the
  RDF-3X role).

Expected shape: views beat the triple-table plans by one or more orders
of magnitude and land in the same range as the native engine; the
initial state (a plain view scan) is the fastest; pre- and post-
reformulation views answer identically.

Timings depend on PYTHONHASHSEED (the synthetic Barton generator walks
hash-ordered dicts), so cross-process comparisons must pin it (see
``docs/benchmarks.md``). Engine throughput itself is measured by the
``adhoc-*`` workloads of ``benchmarks/e2e/``; this file keeps the
paper's figure.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.bench_table3_reformulation_workloads import reformulation_workloads
from benchmarks.support import barton, budget, report
from repro.query.cq import Variable
from repro.query.evaluation import evaluate, evaluate_nested_loop
from repro.rdf.entailment import saturate
from repro.rdf.store import TripleStore
from repro.reformulation.reformulate import reformulate
from repro.reformulation.workflows import pre_reformulation_initial_state
from repro.selection.costs import CostModel, calibrate_maintenance_weight
from repro.selection.materialize import answer_query, extent_size, materialize_views
from repro.selection.search import run_search
from repro.selection.state import ViewNamer, initial_state
from repro.selection.statistics import ReformulationAwareStatistics, StoreStatistics
from repro.selection.transitions import TransitionEnumerator

EXPERIMENT = "Figure 8: execution times for queries with RDFS (ms per query)"


def _recommend(initial_builder, statistics):
    namer = ViewNamer()
    enumerator = TransitionEnumerator(namer)
    state = initial_builder(namer)
    weights = calibrate_maintenance_weight(state, statistics, ratio=2.0)
    model = CostModel(statistics, weights)
    return run_search(state, model, "dfs", enumerator, budget(3.0)).best_state


def _restricted_store(store: TripleStore, schema, queries) -> TripleStore:
    """Only the triples matching some reformulated workload atom."""
    restricted = TripleStore()
    for query in queries:
        for disjunct in reformulate(query, schema):
            for atom in disjunct.atoms:
                pattern = [
                    None if isinstance(term, Variable) else term for term in atom
                ]
                restricted.add_all(store.match(*pattern))
    return restricted


@pytest.fixture(scope="module")
def setup():
    store, schema = barton()
    queries = reformulation_workloads()["Q1"]
    saturated = saturate(store, schema)
    restricted = _restricted_store(saturated, schema, queries)
    # Post-reformulation: search the plain workload, materialize
    # reformulated views on the plain store.
    post_state = _recommend(
        lambda namer: initial_state(queries, namer),
        ReformulationAwareStatistics(store, schema),
    )
    post_extents = materialize_views(post_state, store, schema)
    # Pre-reformulation: search the reformulated workload.
    pre_state = _recommend(
        lambda namer: pre_reformulation_initial_state(queries, schema, namer),
        StoreStatistics(store),
    )
    pre_extents = materialize_views(pre_state, store)
    # Initial state: the workload queries themselves, materialized.
    initial = initial_state(queries)
    initial_extents = materialize_views(initial, saturated)
    return {
        "queries": queries,
        "saturated": saturated,
        "restricted": restricted,
        "post-reform": (post_state, post_extents),
        "pre-reform": (pre_state, pre_extents),
        "initial-state": (initial, initial_extents),
    }


def _from_views(series: str):
    def answer(setup, query):
        state, extents = setup[series]
        return answer_query(state, query.name, extents)

    return answer


SERIES = {
    "saturated-tt": lambda s, q: evaluate_nested_loop(q, s["saturated"]),
    "restricted-tt": lambda s, q: evaluate_nested_loop(q, s["restricted"]),
    "pre-reform": _from_views("pre-reform"),
    "post-reform": _from_views("post-reform"),
    "initial-state": _from_views("initial-state"),
    "engine": lambda s, q: evaluate(q, s["saturated"]),
}


@pytest.mark.parametrize("series", list(SERIES))
def test_fig8_execution_times(benchmark, setup, series):
    answer = SERIES[series]

    def run():
        rows = []
        for query in setup["queries"]:
            started = time.perf_counter()
            answers = answer(setup, query)
            rows.append((answers, (time.perf_counter() - started) * 1000.0))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    # Every route returns the complete (entailment-aware) answers.
    for query, (answers, _ms) in zip(setup["queries"], rows):
        assert answers == evaluate(query, setup["saturated"])
    rendered = "  ".join(
        f"{query.name}={ms:9.2f}" for query, (_, ms) in zip(setup["queries"], rows)
    )
    report(EXPERIMENT, f"{series:<13} {rendered}")


def test_fig8_view_storage(setup):
    report(
        EXPERIMENT,
        f"view storage: post-reform={extent_size(setup['post-reform'][1])} tuples, "
        f"pre-reform={extent_size(setup['pre-reform'][1])} tuples, "
        f"database={len(setup['saturated'])} triples",
    )
