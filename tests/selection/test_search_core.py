"""Unit tests for the unified search core: the strategy protocol and
registry, one search per strategy name (``ViewSelector`` == ``run_search``),
memo-only incremental pricing == full pricing per successor and over a
whole run, and the key-first successor pipeline == the eager one it
replaced (kept here, and only here, as the oracle)."""

import pytest

from repro.query.parser import parse_query
from repro.selection.costs import CostModel, calibrate_maintenance_weight
from repro.selection.recommender import ViewSelector
from repro.selection.search import (
    STRATEGY_FACTORIES,
    DfsStrategy,
    SearchBudget,
    SearchCore,
    SearchStrategy,
    run_search,
)
from repro.selection.state import ViewNamer, canonical_token, initial_state
from repro.selection.statistics import StoreStatistics
from repro.selection.transitions import TransitionEnumerator, TransitionKind
from repro.workload import QueryShape, SatisfiableWorkloadGenerator, WorkloadSpec

#: Small workloads on which every strategy — greedy ones included —
#: reaches the global optimum, so their best states must coincide.
AGREEMENT_WORKLOADS = {
    "two-query": [
        "q1(X) :- t(X, hasPainted, starryNight)",
        "q2(X, Y) :- t(X, hasPainted, Y), t(X, rdf:type, painter)",
    ],
    "fusable": [
        "q1(X) :- t(X, hasPainted, Y)",
        "q2(Z) :- t(Z, hasPainted, W)",
    ],
    "three-atoms": [
        "q1(X, Y) :- t(X, hasPainted, Y), t(Y, rdf:type, painting), "
        "t(X, rdf:type, painter)",
    ],
}


def _run(museum_store, strategy, queries, **options):
    namer = ViewNamer()
    enumerator = TransitionEnumerator(namer, vb_mode="overlapping")
    model = CostModel(StoreStatistics(museum_store))
    state = initial_state([parse_query(q) for q in queries], namer)
    return run_search(
        state,
        model,
        strategy,
        enumerator,
        SearchBudget(time_limit=10.0),
        use_avf=True,
        use_stoptt=True,
        use_stopvar=True,
        **options,
    )


class TestStrategyRegistry:
    def test_factories_cover_the_paper_strategies(self):
        assert sorted(STRATEGY_FACTORIES) == [
            "descent", "dfs", "exnaive", "exstr", "gstr",
        ]

    def test_factories_satisfy_the_protocol(self):
        for factory in STRATEGY_FACTORIES.values():
            assert isinstance(factory(), SearchStrategy)

    def test_unknown_strategy_name_raises(self, museum_store):
        with pytest.raises(ValueError, match="unknown strategy"):
            _run(museum_store, "simulated-annealing",
                 AGREEMENT_WORKLOADS["fusable"])

    def test_strategy_objects_are_accepted(self, museum_store):
        result = _run(museum_store, DfsStrategy(),
                      AGREEMENT_WORKLOADS["fusable"])
        assert result.strategy == "dfs"
        assert result.best_cost <= result.initial_cost

    def test_result_records_the_strategy_name(self, museum_store):
        for name in STRATEGY_FACTORIES:
            result = _run(museum_store, name, AGREEMENT_WORKLOADS["fusable"])
            assert result.strategy == name


@pytest.mark.parametrize("label", sorted(AGREEMENT_WORKLOADS))
def test_all_strategies_agree_on_small_workloads(museum_store, label):
    """Satellite (b): on workloads small enough for the greedy
    strategies to reach the optimum, every strategy recommends the same
    canonical view set at the same cost."""
    queries = AGREEMENT_WORKLOADS[label]
    results = {
        name: _run(museum_store, name, queries) for name in STRATEGY_FACTORIES
    }
    assert all(result.completed for result in results.values())
    keys = {result.best_state.key for result in results.values()}
    assert len(keys) == 1, {n: r.best_state.key for n, r in results.items()}
    costs = {result.best_cost for result in results.values()}
    assert max(costs) == pytest.approx(min(costs))


def test_budget_states_stops_every_strategy(museum_store):
    for name in STRATEGY_FACTORIES:
        namer = ViewNamer()
        enumerator = TransitionEnumerator(namer, vb_mode="overlapping")
        model = CostModel(StoreStatistics(museum_store))
        state = initial_state(
            [parse_query(q) for q in AGREEMENT_WORKLOADS["two-query"]], namer
        )
        result = run_search(
            state, model, name, enumerator, SearchBudget(max_states=5)
        )
        assert not result.completed
        assert result.stats.created <= 5 + 10  # small overshoot allowed


def rewritten_plans(transition):
    """The rewriting plans of a transition's result that are not its
    source's (by identity): what the substitution rewrote."""
    before = {
        id(disjunct.plan)
        for rewriting in transition.source.rewritings.values()
        for disjunct in rewriting
    }
    return [
        disjunct.plan
        for rewriting in transition.result.rewritings.values()
        for disjunct in rewriting
        if id(disjunct.plan) not in before
    ]


class TestTransitionCost:
    @pytest.fixture()
    def setup(self, museum_store):
        namer = ViewNamer()
        enumerator = TransitionEnumerator(namer, vb_mode="overlapping")
        model = CostModel(StoreStatistics(museum_store))
        state = initial_state(
            [parse_query(q) for q in AGREEMENT_WORKLOADS["two-query"]], namer
        )
        return state, enumerator, model

    def test_breakdown_matches_full_recompute_exactly(self, setup, museum_store):
        state, enumerator, model = setup
        model.cost(state)
        for transition in enumerator.transitions(state):
            oracle = CostModel(
                StoreStatistics(museum_store), incremental=False
            ).cost(transition.result)
            assert model.cost(transition.result) == oracle  # bitwise, not approx

    def test_only_touched_views_are_repriced(self, setup):
        state, enumerator, model = setup
        model.cost(state)
        transition = next(iter(enumerator.transitions(state)))
        counters = model.counters
        views, plans = counters["view_misses"], counters["plan_misses"]
        breakdown = model.cost(transition.result)
        assert counters["view_misses"] - views <= len(transition.added)
        assert counters["plan_misses"] - plans <= len(rewritten_plans(transition))
        # Pricing the same successor again re-prices nothing at all.
        views, plans = counters["view_misses"], counters["plan_misses"]
        assert model.cost(transition.result) == breakdown
        assert (counters["view_misses"], counters["plan_misses"]) == (views, plans)

    def test_transition_names_exactly_the_swapped_views(self, setup):
        state, enumerator, model = setup
        transition = next(iter(enumerator.transitions(state)))
        removed = {view.name for view in transition.removed}
        added = {view.name for view in transition.added}
        before = {view.name for view in state.views}
        after = {view.name for view in transition.result.views}
        assert removed == before - after
        assert added == after - before
        assert rewritten_plans(transition)  # the rewriting was rewritten

    def test_baseline_model_prices_identically(self, setup, museum_store):
        state, enumerator, model = setup
        baseline = CostModel(StoreStatistics(museum_store), incremental=False)
        assert baseline.cost(state) == model.cost(state)


@pytest.mark.parametrize("strategy", ["exstr", "gstr"])
def test_incremental_and_full_pricing_run_the_same_search(barton_store, strategy):
    """Whole-run form of the per-transition equality above: under a
    pure state budget the memo-less reference model and the default
    incremental one explore the same frontier, so they end at the
    bitwise-same best cost with identical state accounting."""
    spec = WorkloadSpec(3, 4, QueryShape.STAR, "high", constant_probability=0.4)
    queries = SatisfiableWorkloadGenerator(barton_store, seed=11).generate(spec)
    statistics = StoreStatistics(barton_store)

    def search(incremental):
        namer = ViewNamer()
        state = initial_state(queries, namer)
        weights = calibrate_maintenance_weight(state, statistics, ratio=2.0)
        return run_search(
            state,
            CostModel(statistics, weights, incremental=incremental),
            strategy,
            TransitionEnumerator(namer),
            SearchBudget(max_states=1_500),
        )

    reference, incremental = search(False), search(True)
    assert reference.stats.created > 0
    assert incremental.best_cost == reference.best_cost
    assert incremental.best_cost <= incremental.initial_cost
    assert incremental.stats == reference.stats


class FreshMoves(TransitionEnumerator):
    """The oracle's enumerator: every application builds its move anew
    (new views, names, fresh variables and plans), as if no move memo
    existed."""

    def _move(self, kind, views, candidate, build):
        return build(*views, *candidate)


class EagerCore(SearchCore):
    """The oracle's successor pipeline: build every successor, close it
    under AVF state by state, key it from scratch, and test the stop
    conditions on all of its views."""

    def consider(self, transition):
        self.stats.created += 1
        self.stats.transitions += 1
        successor = transition.result
        if self.use_avf and transition.kind is not TransitionKind.VF:
            while pairs := self.enumerator.vf_candidates(successor):
                successor = self.enumerator.apply_vf(successor, *pairs[0]).result
                self.count_fusions(1)
        key = tuple(sorted(canonical_token(view) for view in successor.views))
        if key in self.seen:
            self.stats.duplicates += 1
            return None
        self.seen.add(key)
        if self.rejected(successor.views):
            self.stats.discarded += 1
            return None
        return successor


class CheckedCore(SearchCore):
    """The shipped pipeline, with every survivor's invariants checked:
    memoized views are shared across states, so a state holding one
    twice would show up as duplicate view names."""

    def consider(self, transition):
        survivor = super().consider(transition)
        if survivor is not None:
            survivor._check_invariants()
        return survivor


#: (generator seed, spec): S0 of the first holds a fusable pair, so AVF
#: closes successors of an unclosed parent.
ORACLE_WORKLOADS = {
    "mixed-high": (0, WorkloadSpec(4, 3, QueryShape.MIXED, "high")),
    "star-constants": (
        11, WorkloadSpec(3, 4, QueryShape.STAR, "high", constant_probability=0.4)
    ),
}


@pytest.fixture(scope="module")
def oracle_workloads(barton_store):
    return {
        label: SatisfiableWorkloadGenerator(barton_store, seed=seed).generate(spec)
        for label, (seed, spec) in ORACLE_WORKLOADS.items()
    }


@pytest.mark.parametrize("use_avf", [True, False], ids=["avf", "no-avf"])
@pytest.mark.parametrize("use_stopvar", [True, False], ids=["stopvar", "no-stopvar"])
@pytest.mark.parametrize("workload", sorted(ORACLE_WORKLOADS))
@pytest.mark.parametrize("strategy", sorted(STRATEGY_FACTORIES))
def test_key_first_search_equals_the_eager_oracle(
    barton_store, oracle_workloads, strategy, workload, use_avf, use_stopvar
):
    """Deriving keys from the parent's, memoizing moves and building
    only survivors changes no decision of any strategy: the same states
    are created, deduplicated, discarded and explored, and the run ends
    at the same best state and cost trace as the eager pipeline."""
    statistics = StoreStatistics(barton_store)

    def search(core_class, enumerator_class):
        namer = ViewNamer()
        state = initial_state(oracle_workloads[workload], namer)
        core = core_class(
            state,
            CostModel(statistics),
            enumerator_class(namer),
            SearchBudget(max_states=500),
            use_avf=use_avf,
            use_stoptt=True,
            use_stopvar=use_stopvar,
        )
        STRATEGY_FACTORIES[strategy]().run(core)
        return core.result(strategy)

    oracle = search(EagerCore, FreshMoves)
    shipped = search(CheckedCore, TransitionEnumerator)
    assert oracle.stats.created > 1
    assert shipped.stats == oracle.stats
    assert shipped.initial_cost == oracle.initial_cost
    assert shipped.best_cost == oracle.best_cost
    assert [cost for _, cost in shipped.cost_history] == [
        cost for _, cost in oracle.cost_history
    ]
    assert shipped.best_state.key == oracle.best_state.key


@pytest.mark.parametrize("use_avf", [True, False], ids=["avf", "no-avf"])
@pytest.mark.parametrize("use_stopvar", [True, False], ids=["stopvar", "no-stopvar"])
@pytest.mark.parametrize("strategy", sorted(STRATEGY_FACTORIES))
def test_selector_runs_the_search_its_strategy_names(
    barton_store, oracle_workloads, strategy, use_avf, use_stopvar
):
    """One name, one search: ``ViewSelector(strategy=name)`` and
    ``run_search(..., name, ...)`` with the same flags make the same
    decisions and end at the same state."""
    queries = oracle_workloads["mixed-high"]
    budget = SearchBudget(max_states=300)
    selected = ViewSelector(
        barton_store, strategy=strategy, budget=budget,
        use_avf=use_avf, use_stopvar=use_stopvar,
    ).recommend(queries).result
    namer = ViewNamer()
    direct = run_search(
        initial_state(queries, namer),
        CostModel(StoreStatistics(barton_store)),
        strategy,
        TransitionEnumerator(namer),
        budget,
        use_avf=use_avf,
        use_stoptt=True,
        use_stopvar=use_stopvar,
    )
    assert direct.stats.created > 1
    assert selected.stats == direct.stats
    assert selected.best_cost == direct.best_cost
    assert selected.best_state.key == direct.best_state.key
