"""Table 3 — workloads used for the reformulation experiments.

Paper setup: two satisfiable workloads on Barton, Q1 (5 queries) and Q2
(10 queries, a superset of Q1), characterized by the number of queries
|Q|, atoms #a(Q) and constants #c(Q), before and after reformulation
(Qr). The paper reports Q1: 5/33/35 → 20/143/157 and Q2: 10/76/77 →
231/1436/1651.

Expected shape: reformulation multiplies queries, atoms and constants,
and the blow-up grows sharply with the workload (|Qr|/|Q| much larger
for Q2 than for Q1).
"""

from __future__ import annotations

import pytest

from benchmarks.support import barton, report, satisfiable_workload
from repro.reformulation.workflows import reformulate_workload
from repro.workload import QueryShape

EXPERIMENT = "Table 3: workloads used for reformulation experiments"


def reformulation_workloads():
    """Q1 (5 queries) and Q2 (10 queries, superset of Q1), as in §6.5."""
    q2 = satisfiable_workload(10, 7, QueryShape.MIXED, "high", seed=65)
    q1 = q2[:5]
    return {"Q1": q1, "Q2": q2}


@pytest.mark.parametrize("name", ["Q1", "Q2"])
def test_table3_workload_statistics(benchmark, name):
    _, schema = barton()
    queries = reformulation_workloads()[name]

    def run():
        # Reading ``disjuncts`` runs Algorithm 1: unions are deferred.
        unions = reformulate_workload(queries, schema)
        for union in unions:
            union.disjuncts
        return unions

    unions = benchmark.pedantic(run, rounds=1, iterations=1)
    atoms = sum(len(q) for q in queries)
    constants = sum(len(q.constant_occurrences()) for q in queries)
    reformulated_count = sum(len(u) for u in unions)
    reformulated_atoms = sum(u.total_atoms() for u in unions)
    reformulated_constants = sum(u.total_constants() for u in unions)
    report(
        EXPERIMENT,
        f"{name}: |Q|={len(queries):>3} #a(Q)={atoms:>4} #c(Q)={constants:>4}"
        f"   |Qr|={reformulated_count:>4} #a(Qr)={reformulated_atoms:>5} "
        f"#c(Qr)={reformulated_constants:>5}",
    )
