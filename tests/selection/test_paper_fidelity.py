"""Paper claims pinned as gates (ROADMAP item 5d).

Section 4.3: post-reformulation view selection needs "the same
statistics as if the database was saturated" — and obtains them without
saturating it. So a search priced on post-reformulation statistics and
one priced on the saturated store must be the *same* search: equal
initial cost, equal best cost, equal number of states created, under
the same state budget. And the database handed in stays as it was.
"""

import pytest

from repro.selection import SearchBudget, ViewSelector
from repro.workload import QueryShape, SatisfiableWorkloadGenerator, WorkloadSpec


@pytest.fixture(scope="module")
def workloads(barton_store):
    generator = SatisfiableWorkloadGenerator(barton_store, seed=0)
    return [
        generator.generate(WorkloadSpec(4, 3, shape, "high"))
        for shape in (QueryShape.STAR, QueryShape.MIXED)
    ]


@pytest.mark.parametrize("strategy", ["dfs", "gstr"])
def test_post_reformulation_search_equals_saturated_search(
    barton_store, barton_schema, workloads, strategy
):
    size, version = len(barton_store), barton_store.version
    for queries in workloads:
        outcomes = []
        for entailment in ("post_reformulation", "saturation"):
            result = ViewSelector(
                barton_store, barton_schema, strategy=strategy,
                entailment=entailment, budget=SearchBudget(max_states=150),
            ).recommend(queries).result
            outcomes.append(
                (result.initial_cost, result.best_cost, result.stats.created)
            )
        assert outcomes[0] == outcomes[1]
    # Neither mode saturates, or otherwise touches, the input store.
    assert (len(barton_store), barton_store.version) == (size, version)
