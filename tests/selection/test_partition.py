"""Unit tests for workload partitioning (the Section 8 extension)."""

import pytest

from repro.query.evaluation import evaluate
from repro.query.parser import parse_query
from repro.selection.costs import CostModel
from repro.selection.materialize import answer_query, materialize_views
from repro.selection.partition import (
    merge_states,
    partition_workload,
    partitioned_search,
)
from repro.selection.search import SearchBudget, run_search
from repro.selection.state import initial_state
from repro.selection.statistics import StoreStatistics


@pytest.fixture()
def disjoint_workload():
    """Two query groups with no shared vocabulary."""
    return [
        parse_query("q1(X) :- t(X, hasPainted, starryNight)"),
        parse_query("q2(X, Y) :- t(X, hasPainted, Y)"),
        parse_query("q3(A) :- t(A, isLocatedIn, moma)"),
        parse_query("q4(A, B) :- t(A, isLocatedIn, B)"),
    ]


class TestPartitionWorkload:
    def test_groups_by_shared_constants(self, disjoint_workload):
        groups = partition_workload(disjoint_workload)
        assert len(groups) == 2
        names = sorted(tuple(sorted(q.name for q in g)) for g in groups)
        assert names == [("q1", "q2"), ("q3", "q4")]

    def test_fully_connected_workload_is_one_group(self):
        queries = [
            parse_query("q1(X) :- t(X, p, c)"),
            parse_query("q2(X) :- t(X, p, d)"),
            parse_query("q3(X) :- t(X, q, d)"),
        ]
        assert len(partition_workload(queries)) == 1

    def test_threshold_splits_weak_links(self):
        queries = [
            parse_query("q1(X) :- t(X, p, c1), t(X, r1, d1)"),
            parse_query("q2(X) :- t(X, p, c2), t(X, r2, d2)"),  # shares only p
        ]
        assert len(partition_workload(queries, min_shared_constants=1)) == 1
        assert len(partition_workload(queries, min_shared_constants=2)) == 2

    def test_singleton_queries(self):
        queries = [parse_query("q1(X) :- t(X, p, c)")]
        assert partition_workload(queries) == [queries]


class TestMergeStates:
    def test_merge_disjoint(self, disjoint_workload):
        state_a = initial_state(disjoint_workload[:2])
        state_b = initial_state(disjoint_workload[2:])
        # Rename views apart (initial_state numbering collides).
        from repro.selection.state import ViewNamer

        namer = ViewNamer()
        state_a = initial_state(disjoint_workload[:2], namer)
        state_b = initial_state(disjoint_workload[2:], namer)
        merged = merge_states([state_a, state_b])
        assert len(merged.views) == 4
        assert set(merged.rewritings) == {"q1", "q2", "q3", "q4"}

    def test_overlapping_coverage_rejected(self, disjoint_workload):
        from repro.selection.state import ViewNamer

        namer = ViewNamer()
        state_a = initial_state(disjoint_workload[:2], namer)
        state_b = initial_state(disjoint_workload[:2], namer)
        with pytest.raises(ValueError):
            merge_states([state_a, state_b])


class TestPartitionedSearch:
    @pytest.mark.parametrize("strategy", ["dfs", "descent"])
    def test_covers_all_queries_and_answers(
        self, disjoint_workload, museum_store, strategy
    ):
        model = CostModel(StoreStatistics(museum_store))
        merged, results = partitioned_search(
            disjoint_workload,
            model,
            strategy=strategy,
            budget=SearchBudget(time_limit=4.0),
        )
        assert len(results) == 2
        assert set(merged.rewritings) == {q.name for q in disjoint_workload}
        extents = materialize_views(merged, museum_store)
        for query in disjoint_workload:
            assert answer_query(merged, query.name, extents) == evaluate(
                query, museum_store
            )

    def test_merged_cost_is_sum_of_groups(self, disjoint_workload, museum_store):
        model = CostModel(StoreStatistics(museum_store))
        merged, results = partitioned_search(
            disjoint_workload, model, budget=SearchBudget(time_limit=4.0)
        )
        assert model.total_cost(merged) == pytest.approx(
            sum(result.best_cost for result in results)
        )

    def test_empty_workload_rejected(self, museum_store):
        model = CostModel(StoreStatistics(museum_store))
        with pytest.raises(ValueError):
            partitioned_search([], model)

    def test_matches_joint_search_on_disjoint_groups(
        self, disjoint_workload, museum_store
    ):
        """With disjoint vocabulary, partitioned search finds a state at
        least as good as the joint search under the same total budget."""
        model = CostModel(StoreStatistics(museum_store))
        merged, _ = partitioned_search(
            disjoint_workload, model, budget=SearchBudget(time_limit=4.0)
        )
        from repro.selection.state import ViewNamer
        from repro.selection.transitions import TransitionEnumerator

        namer = ViewNamer()
        joint = run_search(
            initial_state(disjoint_workload, namer),
            model,
            "dfs",
            TransitionEnumerator(namer),
            SearchBudget(time_limit=4.0),
        )
        assert model.total_cost(merged) <= joint.best_cost * 1.001
