"""Unit tests for the search strategies (Section 5)."""

import pytest

from repro.query.evaluation import evaluate
from repro.query.parser import parse_query
from repro.selection.costs import CostModel
from repro.selection.materialize import answer_query, materialize_views
from repro.selection.search import (
    SearchBudget,
    avf_closure,
    run_search,
    view_is_all_variables,
    view_is_triple_table,
)
from repro.selection.state import ViewNamer, initial_state
from repro.selection.statistics import StoreStatistics
from repro.selection.transitions import TransitionEnumerator


@pytest.fixture()
def setup(museum_store):
    queries = [
        parse_query("q1(X) :- t(X, hasPainted, starryNight)"),
        parse_query("q2(X, Y) :- t(X, hasPainted, Y), t(X, rdf:type, painter)"),
    ]
    namer = ViewNamer()
    enum = TransitionEnumerator(namer, vb_mode="overlapping")
    model = CostModel(StoreStatistics(museum_store))
    state = initial_state(queries, namer)
    return queries, state, enum, model


#: The exhaustive strategies run without AVF and STV here, as the
#: paper's Algorithm 2 states them.
EXHAUSTIVE = dict(use_avf=False, use_stopvar=False)

#: (strategy name, flags) pairs.
ALL_STRATEGIES = [
    ("dfs", {}),
    ("gstr", {}),
    ("exnaive", EXHAUSTIVE),
    ("exstr", EXHAUSTIVE),
]


def strategy_id(case):
    return case[0]


def _run(case, state, model, enum, budget):
    name, flags = case
    return run_search(state, model, name, enum, budget, **flags)


class TestStopConditionPredicates:
    def test_triple_table_view(self):
        assert view_is_triple_table(parse_query("v(X, Y, Z) :- t(X, Y, Z)"))
        assert not view_is_triple_table(parse_query("v(X, Y) :- t(X, p, Y)"))
        assert not view_is_triple_table(parse_query("v(X) :- t(X, Y, X)"))

    def test_all_variable_view(self):
        assert view_is_all_variables(parse_query("v(X, Z) :- t(X, Y, Z)"))
        assert not view_is_all_variables(parse_query("v(X) :- t(X, p, Y)"))


@pytest.mark.parametrize("search", ALL_STRATEGIES, ids=strategy_id)
class TestStrategyContracts:
    def test_best_never_worse_than_initial(self, setup, search):
        queries, state, enum, model = setup
        result = _run(search, state, model, enum, SearchBudget(time_limit=3.0))
        assert result.best_cost <= result.initial_cost
        assert 0.0 <= result.rcr <= 1.0

    def test_best_state_rewritings_are_sound(self, setup, museum_store, search):
        queries, state, enum, model = setup
        result = _run(search, state, model, enum, SearchBudget(time_limit=3.0))
        extents = materialize_views(result.best_state, museum_store)
        for query in queries:
            assert answer_query(result.best_state, query.name, extents) == evaluate(
                query, museum_store
            )

    def test_stats_are_populated(self, setup, search):
        queries, state, enum, model = setup
        result = _run(search, state, model, enum, SearchBudget(time_limit=3.0))
        assert result.stats.created > 0
        assert result.stats.transitions >= result.stats.created

    def test_cost_history_is_decreasing(self, setup, search):
        queries, state, enum, model = setup
        result = _run(search, state, model, enum, SearchBudget(time_limit=3.0))
        costs = [cost for _, cost in result.cost_history]
        assert costs == sorted(costs, reverse=True)
        assert costs[0] == result.initial_cost

    def test_state_budget_stops_search(self, setup, search):
        queries, state, enum, model = setup
        result = _run(search, state, model, enum, SearchBudget(max_states=5))
        assert not result.completed
        assert result.stats.created <= 5 + 10  # small overshoot allowed


class TestAvfClosure:
    def test_fuses_all_isomorphic_views(self, museum_store):
        queries = [
            parse_query("q1(X) :- t(X, hasPainted, Y)"),
            parse_query("q2(Z) :- t(Z, hasPainted, W)"),
            parse_query("q3(A) :- t(A, hasPainted, B)"),
        ]
        namer = ViewNamer()
        enum = TransitionEnumerator(namer)
        state = initial_state(queries, namer)
        fused = avf_closure(state, enum)
        assert len(fused.views) == 1

    def test_noop_when_nothing_to_fuse(self, setup):
        queries, state, enum, model = setup
        assert avf_closure(state, enum) is state


class TestStratificationAblation:
    def test_exstr_no_more_transitions_than_exnaive(self, setup):
        """Theorem 5.3(ii), observed on a small instance."""
        queries, state, enum_a, model = setup
        namer_b = ViewNamer("w")
        enum_b = TransitionEnumerator(namer_b, vb_mode="overlapping")
        budget = SearchBudget(time_limit=10.0)
        naive = run_search(state, model, "exnaive", enum_a, budget, **EXHAUSTIVE)
        stratified = run_search(
            state, model, "exstr", enum_b, budget, **EXHAUSTIVE
        )
        if naive.completed and stratified.completed:
            assert stratified.stats.transitions <= naive.stats.transitions
            # Both exhaustive searches find the same best cost.
            assert stratified.best_cost == pytest.approx(naive.best_cost)


class TestDfsSpecifics:
    def test_avf_reduces_created_states(self, museum_store):
        queries = [
            parse_query("q1(X) :- t(X, hasPainted, starryNight)"),
            parse_query("q2(Z) :- t(Z, hasPainted, babel)"),
        ]
        model = CostModel(StoreStatistics(museum_store))

        def run(use_avf):
            namer = ViewNamer()
            enum = TransitionEnumerator(namer, vb_mode="overlapping")
            state = initial_state(queries, namer)
            return run_search(
                state, model, "dfs", enum, SearchBudget(time_limit=10.0),
                use_avf=use_avf,
            )

        with_avf = run(True)
        without_avf = run(False)
        assert with_avf.completed and without_avf.completed
        assert with_avf.stats.created <= without_avf.stats.created
        assert with_avf.best_cost <= without_avf.best_cost + 1e-9

    def test_stopvar_discards_states(self, setup):
        queries, state, enum, model = setup
        result = run_search(
            state, model, "dfs", enum, SearchBudget(time_limit=5.0), use_stopvar=True
        )
        assert result.stats.discarded > 0
        for view in result.best_state.views:
            assert view.constants(), "stopvar must keep constants in views"

    def test_average_view_atoms(self, setup):
        queries, state, enum, model = setup
        result = run_search(state, model, "dfs", enum, SearchBudget(time_limit=2.0))
        assert result.average_view_atoms() >= 1.0


class TestGstrSpecifics:
    def test_gstr_explores_fewer_states_than_dfs(self, setup, museum_store):
        queries, state, enum, model = setup
        dfs = run_search(state, model, "dfs", enum, SearchBudget(time_limit=10.0))
        namer = ViewNamer("g")
        enum2 = TransitionEnumerator(namer, vb_mode="overlapping")
        state2 = initial_state(queries, namer)
        gstr = run_search(state2, model, "gstr", enum2, SearchBudget(time_limit=10.0))
        if dfs.completed and gstr.completed:
            assert gstr.stats.created <= dfs.stats.created
