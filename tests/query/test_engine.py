"""Unit tests for the physical-operator engine (repro.engine)."""

import pytest

from repro.engine import (
    HashJoin,
    IndexScan,
    UnionProbe,
    UnionScan,
    plan_query,
    run_query,
)
from repro.query.cq import Atom, ConjunctiveQuery, Variable
from repro.query.evaluation import evaluate, evaluate_nested_loop
from repro.query.parser import parse_query
from repro.rdf.store import TripleStore
from repro.rdf.terms import Literal
from repro.rdf.triples import Triple

from tests.conftest import ex

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def _operators(root):
    yield root
    for child in root._children():
        yield from _operators(child)


class TestRunQuery:
    def test_single_atom(self, museum_store):
        query = parse_query("q(X, Y) :- t(X, hasPainted, Y)")
        answers = run_query(query, museum_store)
        assert (ex("vanGogh"), ex("starryNight")) in answers
        assert len(answers) == 6

    def test_join_matches_oracle(self, museum_store, q_painters):
        assert run_query(q_painters, museum_store) == evaluate_nested_loop(
            q_painters, museum_store
        )

    def test_chain_join(self, museum_store):
        query = parse_query(
            "q(X, W) :- t(X, isParentOf, Y), t(Y, hasPainted, Z), "
            "t(Z, rdf:type, W)"
        )
        assert run_query(query, museum_store) == evaluate_nested_loop(
            query, museum_store
        )

    def test_self_join_atom(self):
        store = TripleStore()
        store.add(Triple(ex("a"), ex("p"), ex("a")))
        store.add(Triple(ex("a"), ex("p"), ex("b")))
        query = ConjunctiveQuery((X,), (Atom(X, ex("p"), X),))
        assert run_query(query, store) == {(ex("a"),)}

    def test_cartesian_product(self, museum_store):
        query = parse_query(
            "q(X, Z) :- t(X, hasPainted, starryNight), t(Z, rdf:type, sketch)"
        )
        assert run_query(query, museum_store) == {
            (ex("vanGogh"), ex("sketch1"))
        }

    def test_unknown_constant_yields_empty(self, museum_store):
        query = parse_query("q(X) :- t(X, neverSeenProperty, Y)")
        assert run_query(query, museum_store) == set()

    def test_constant_and_duplicate_head(self, museum_store):
        query = ConjunctiveQuery(
            (X, ex("marker"), X), (Atom(X, ex("hasPainted"), ex("starryNight")),)
        )
        assert run_query(query, museum_store) == {
            (ex("vanGogh"), ex("marker"), ex("vanGogh"))
        }

    def test_boolean_head(self, museum_store):
        query = ConjunctiveQuery((), (Atom(X, ex("hasPainted"), ex("starryNight")),))
        assert run_query(query, museum_store) == {()}

    def test_non_literal_restriction(self, museum_store):
        # starryNight has both a URI-valued and a literal-valued property;
        # restricting Y must drop the literal binding.
        unrestricted = ConjunctiveQuery((Y,), (Atom(ex("starryNight"), X, Y),))
        restricted = unrestricted.with_non_literal([Y])
        all_values = run_query(unrestricted, museum_store)
        non_literal = run_query(restricted, museum_store)
        assert (Literal("The Starry Night"),) in all_values
        assert (Literal("The Starry Night"),) not in non_literal
        assert non_literal == {v for v in all_values if not isinstance(v[0], Literal)}


class TestPlanQuery:
    def test_schema_is_head_and_join_variables(self, museum_store):
        # W occurs in one atom only and not in the head: projected away.
        query = parse_query(
            "q(X, Z) :- t(X, hasPainted, W), t(X, isParentOf, Y), "
            "t(Y, hasPainted, Z)"
        )
        root = plan_query(query, museum_store)
        assert sorted(root.schema) == ["X", "Y", "Z"]

    def test_explain_renders_tree(self, museum_store, q_painters):
        rendered = plan_query(q_painters, museum_store).explain()
        assert rendered.splitlines()[-1].lstrip().startswith("UnionScan(")
        assert "UnionProbe(" in rendered

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_star_leaf_with_a_local_variable_is_a_semi_join(
        self, museum_store, backend
    ):
        store = museum_store if backend == "memory" else museum_store.copy(
            backend=backend
        )
        try:
            # isParentOf is the rarer atom, so hasPainted is the probed
            # leaf; its only new variable, Z, is local to it.
            query = parse_query(
                "q(X, Y) :- t(X, isParentOf, Y), t(X, hasPainted, Z)"
            )
            root = plan_query(query, store)
            assert isinstance(root, UnionProbe)
            assert root.schema == root.child.schema == ("X", "Y")
            answers = run_query(query, store, pushdown=False)
            assert answers == evaluate_nested_loop(query, store)
            assert len(answers) == 2
        finally:
            if store is not museum_store:
                store.backend.close()


class TestOperators:
    def test_index_scan_columns_in_spo_order(self, museum_store):
        scan = IndexScan(museum_store, Atom(X, ex("hasPainted"), Y))
        assert scan.schema == ("X", "Y")
        assert sum(map(len, scan.column_batches())) == 6


class TestPlanCache:
    def test_plans_are_reused_until_mutation(self):
        store = TripleStore()
        store.add(Triple(ex("a"), ex("p"), ex("b")))
        query = parse_query("q(X, Y) :- t(X, p, Y)")
        first = plan_query(query, store)
        assert plan_query(query, store) is first
        stale_entry = store._engine_plan_cache
        store.add(Triple(ex("b"), ex("p"), ex("c")))
        assert plan_query(query, store) is not first
        # The stale entry is discarded wholesale, not patched.
        assert store._engine_plan_cache is not stale_entry
        assert store._engine_plan_cache["version"] == store.version

    def test_cache_does_not_miss_new_constants(self):
        # A constant absent at first compile must be seen after insertion.
        store = TripleStore()
        store.add(Triple(ex("a"), ex("p"), ex("b")))
        query = parse_query("q(X) :- t(X, later, Y)")
        assert run_query(query, store) == set()
        store.add(Triple(ex("a"), ex("later"), ex("b")))
        assert run_query(query, store) == {(ex("a"),)}


class TestCostBasedSelection:
    """The one plan shape: joins in the estimator's order from a union
    scan, a connected step as a union probe, a Cartesian step as a hash
    join over a union scan."""

    def test_connected_join_prefers_index_probes(self, museum_store):
        query = parse_query(
            "q(X, W) :- t(X, isParentOf, Y), t(Y, hasPainted, Z), "
            "t(Z, rdf:type, W)"
        )
        kinds = [type(op) for op in _operators(plan_query(query, museum_store))]
        assert kinds == [UnionProbe, UnionProbe, UnionScan]

    def test_cartesian_product_avoids_per_row_rescans(self, museum_store):
        query = parse_query("q(X, Z) :- t(X, hasPainted, Y), t(Z, rdf:type, W)")
        kinds = [type(op) for op in _operators(plan_query(query, museum_store))]
        assert kinds == [HashJoin, UnionScan, UnionScan]

    def test_mixed_query_selects_hybrid(self):
        # A selective connected prefix (union probes) feeding a
        # Cartesian step (one hash build instead of per-row rescans).
        store = TripleStore()
        store.add(Triple(ex("s0"), ex("p"), ex("c")))
        for i in range(10):
            for j in range(10):
                store.add(Triple(ex(f"s{i}"), ex("q"), ex(f"o{j}")))
        for k in range(20):
            store.add(Triple(ex(f"u{k}"), ex("r"), ex(f"w{k}")))
        query = parse_query(
            "q(X, Y, Z) :- t(X, p, c), t(X, q, Y), t(Z, r, W)"
        )
        kinds = {type(op) for op in _operators(plan_query(query, store))}
        assert kinds == {HashJoin, UnionProbe, UnionScan}
        answers = run_query(query, store)
        assert len(answers) == 200  # 10 paintings x 20 Cartesian rows
        assert answers == evaluate_nested_loop(query, store)

    def test_empty_store_selection_is_safe(self):
        query = parse_query("q(X, Z) :- t(X, p, Y), t(Y, q, Z)")
        store = TripleStore()
        assert list(plan_query(query, store).column_batches()) == []
        assert run_query(query, store) == set()


def test_evaluate_delegates_to_engine(museum_store, q_painters):
    assert evaluate(q_painters, museum_store) == {(ex("vanGogh"), ex("sketch1"))}
