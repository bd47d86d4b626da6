"""Unit tests for the descent strategy and the calibration helpers added
for the large-workload experiments."""

import pytest

from repro.query.evaluation import evaluate
from repro.query.parser import parse_query
from repro.selection.costs import CostModel, calibrate_maintenance_weight
from repro.selection.materialize import answer_query, materialize_views
from repro.selection.search import DescentStrategy, SearchBudget, run_search
from repro.selection.state import ViewNamer, initial_state
from repro.selection.statistics import StoreStatistics, ZipfStatistics
from repro.selection.transitions import TransitionEnumerator, TransitionKind


@pytest.fixture()
def setup(museum_store):
    queries = [
        parse_query("q1(X) :- t(X, hasPainted, starryNight)"),
        parse_query(
            "q2(X, Y) :- t(X, hasPainted, Y), t(X, rdf:type, painter), "
            "t(X, isParentOf, Z)"
        ),
    ]
    namer = ViewNamer()
    enumerator = TransitionEnumerator(namer)
    model = CostModel(StoreStatistics(museum_store))
    state = initial_state(queries, namer)
    return queries, state, enumerator, model


class TestDescentSearch:
    def test_never_worse_than_initial(self, setup):
        queries, state, enumerator, model = setup
        result = run_search(
            state, model, "descent", enumerator, SearchBudget(time_limit=3.0)
        )
        assert result.best_cost <= result.initial_cost

    def test_rewritings_stay_sound(self, setup, museum_store):
        queries, state, enumerator, model = setup
        result = run_search(
            state, model, "descent", enumerator, SearchBudget(time_limit=3.0)
        )
        extents = materialize_views(result.best_state, museum_store)
        for query in queries:
            assert answer_query(result.best_state, query.name, extents) == evaluate(
                query, museum_store
            )

    def test_cost_history_strictly_decreasing(self, setup):
        queries, state, enumerator, model = setup
        result = run_search(
            state, model, "descent", enumerator, SearchBudget(time_limit=3.0)
        )
        costs = [cost for _, cost in result.cost_history]
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_kind_restriction(self, setup):
        queries, state, enumerator, model = setup
        result = run_search(
            state,
            model,
            DescentStrategy(kinds=(TransitionKind.SC,)),
            enumerator,
            SearchBudget(time_limit=2.0),
        )
        # SC never improves the cost, so a pure-SC descent stays at S0
        # modulo fusions.
        assert result.best_cost <= result.initial_cost

    def test_scales_with_many_queries(self, museum_store):
        queries = [
            parse_query(f"q{i}(X) :- t(X, hasPainted, Y), t(X, p{i}, c{i})")
            for i in range(30)
        ]
        namer = ViewNamer()
        enumerator = TransitionEnumerator(namer)
        model = CostModel(ZipfStatistics(seed=3))
        state = initial_state(queries, namer)
        result = run_search(
            state, model, "descent", enumerator, SearchBudget(time_limit=3.0)
        )
        # The descent must at least examine candidates for every query's
        # view without timing out (S0 may legitimately be locally optimal).
        assert result.stats.created >= len(queries)
        assert result.best_cost <= result.initial_cost


class TestZipfStatistics:
    def test_deterministic(self):
        a, b = ZipfStatistics(seed=1), ZipfStatistics(seed=1)
        from repro.query.cq import Atom, Variable
        from repro.rdf.terms import URI

        atom = Atom(Variable("X"), URI("http://p"), Variable("Y"))
        assert a.atom_count(atom) == b.atom_count(atom)

    def test_skew_across_constants(self):
        from repro.query.cq import Atom, Variable
        from repro.rdf.terms import URI

        stats = ZipfStatistics(seed=1)
        counts = {
            stats.atom_count(Atom(Variable("X"), URI(f"http://p{i}"), Variable("Y")))
            for i in range(30)
        }
        assert max(counts) > min(counts) * 10

    def test_constants_reduce_counts(self):
        from repro.query.cq import Atom, Variable
        from repro.rdf.terms import URI

        stats = ZipfStatistics(seed=1)
        loose = stats.atom_count(Atom(Variable("X"), Variable("P"), Variable("Y")))
        bound = stats.atom_count(Atom(Variable("X"), URI("http://p"), Variable("Y")))
        assert bound < loose


class TestCalibration:
    def test_calibrated_vmc_is_comparable(self, museum_store, q_painters):
        statistics = StoreStatistics(museum_store)
        state = initial_state([q_painters])
        weights = calibrate_maintenance_weight(state, statistics, ratio=1.0)
        model = CostModel(statistics, weights)
        breakdown = model.cost(state)
        assert breakdown.vmc * weights.cm == pytest.approx(
            max(breakdown.vso, breakdown.rec), rel=1e-6
        )

    def test_preserves_other_weights(self, museum_store, q_painters):
        from repro.selection.costs import CostWeights

        statistics = StoreStatistics(museum_store)
        state = initial_state([q_painters])
        base = CostWeights(cs=3.0, cr=5.0, f=4.0)
        weights = calibrate_maintenance_weight(state, statistics, weights=base)
        assert (weights.cs, weights.cr, weights.f) == (3.0, 5.0, 4.0)
        assert weights.cm != base.cm
