"""Unit tests for the physical-operator engine (repro.engine)."""

import pytest

from repro.engine import (
    Distinct,
    ExtentScan,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    ViewExtent,
    plan_query,
    plan_rewriting,
    run_plan,
    run_query,
)
from repro.query.algebra import (
    EqualsConstant,
    Join,
    Project,
    Rename,
    Scan,
    Select,
    execute,
)
from repro.query.cq import Atom, ConjunctiveQuery, Variable
from repro.query.evaluation import evaluate, evaluate_nested_loop
from repro.query.parser import parse_query
from repro.rdf.store import TripleStore
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.selection.statistics import FixedStatistics

from tests.conftest import ex

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
A, B, C, D = URI("http://a"), URI("http://b"), URI("http://c"), URI("http://d")


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

    def test_statistics_provider_is_honored(self, museum_store):
        query = parse_query("q(X, Y) :- t(X, hasPainted, Y), t(X, rdf:type, painter)")
        answers = run_query(query, museum_store, statistics=FixedStatistics())
        assert answers == evaluate_nested_loop(query, museum_store)


class TestPlanQuery:
    def test_schema_covers_all_variables(self, museum_store, q_painters):
        root = plan_query(q_painters, museum_store)
        assert set(root.schema) == {v.name for v in q_painters.variables()}

    def test_explain_renders_tree(self, museum_store, q_painters):
        rendered = plan_query(q_painters, museum_store).explain()
        assert "IndexScan" in rendered


class TestOperators:
    def test_index_scan_columns_in_spo_order(self, museum_store):
        scan = IndexScan(museum_store, Atom(X, ex("hasPainted"), Y))
        assert scan.schema == ("X", "Y")
        assert len(scan.rows()) == 6

    def test_hash_join_uses_prebuilt_extent_index(self):
        extent = ViewExtent([(A, B), (A, C), (B, C)])
        left = ExtentScan("l", extent, ("x", "y"))
        right = ExtentScan("r", extent, ("y", "z"))
        join = HashJoin(left, right, pairs=[(1, 0)], keep_right=[1])
        assert join.rows() == [(A, B, C)]
        # The extent cached the join tails the join asked for.
        assert ((0,), (1,)) in extent._tails

    def test_distinct_preserves_first_occurrence_order(self):
        child = ExtentScan("v", [(A,), (B,), (A,), (B,)], ("x",))
        assert Distinct(child).rows() == [(A,), (B,)]


class TestPlanRewriting:
    EXTENTS = {"v1": [(A, B), (A, C), (B, C)], "v2": [(B, D), (C, A)]}

    def test_execute_matches_engine_default(self):
        plan = Project(
            Select(
                Join(Scan("v1", ("x", "y")), Scan("v2", ("y", "z"))),
                (EqualsConstant("x", A),),
            ),
            ("z",),
        )
        assert execute(plan, self.EXTENTS) == run_plan(plan, self.EXTENTS)

    def test_join_returns_the_matching_rows(self):
        plan = Join(Scan("v1", ("x", "y")), Scan("v2", ("y", "z")))
        assert run_plan(plan, self.EXTENTS) == [(A, B, D), (A, C, A), (B, C, A)]

    def test_rename_relabels_schema(self):
        plan = Rename(Scan("v1", ("x", "y")), ("a", "b"))
        root = plan_rewriting(plan, self.EXTENTS)
        assert root.schema == ("a", "b")
        assert root.rows() == self.EXTENTS["v1"]

    def test_missing_extent_raises_keyerror(self):
        with pytest.raises(KeyError, match="no extent provided"):
            run_plan(Scan("zzz", ("x",)), self.EXTENTS)


class TestViewExtent:
    def test_behaves_like_a_list(self):
        extent = ViewExtent([(A,), (B,)])
        assert extent == [(A,), (B,)]
        assert len(extent) == 2

    def test_index_is_cached(self):
        extent = ViewExtent([(A, B), (A, C)])
        first = extent.tails_on((0,), (1,))
        second = extent.tails_on((0,), (1,))
        assert first is second
        assert first[(A,)] == [(B,), (C,)]

    def test_empty_key_groups_all_rows(self):
        extent = ViewExtent([(A,), (B,)])
        assert extent.tails_on((), (0,))[()] == [(A,), (B,)]


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

    def test_statistics_bypass_the_cache(self, museum_store):
        query = parse_query("q(X) :- t(X, hasPainted, Y)")
        baseline = plan_query(query, museum_store)
        with_stats = plan_query(query, museum_store, statistics=FixedStatistics())
        assert with_stats is not baseline


class TestCostBasedSelection:
    """The one plan shape: joins in the estimator's order, a connected
    step as an index probe, a Cartesian step as a hash join."""

    def test_connected_join_prefers_index_probes(self, museum_store):
        query = parse_query(
            "q(X, W) :- t(X, isParentOf, Y), t(Y, hasPainted, Z), "
            "t(Z, rdf:type, W)"
        )
        kinds = [type(op) for op in _operators(plan_query(query, museum_store))]
        assert kinds == [IndexNestedLoopJoin, IndexNestedLoopJoin, IndexScan]

    def test_cartesian_product_avoids_per_row_rescans(self, museum_store):
        query = parse_query("q(X, Z) :- t(X, hasPainted, Y), t(Z, rdf:type, W)")
        kinds = [type(op) for op in _operators(plan_query(query, museum_store))]
        assert kinds == [HashJoin, IndexScan, IndexScan]

    def test_mixed_query_selects_hybrid(self):
        # A selective connected prefix (index probes) feeding a
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
        assert kinds == {HashJoin, IndexNestedLoopJoin, IndexScan}
        answers = run_query(query, store)
        assert len(answers) == 200  # 10 paintings x 20 Cartesian rows
        assert answers == evaluate_nested_loop(query, store)

    def test_empty_store_selection_is_safe(self):
        query = parse_query("q(X, Z) :- t(X, p, Y), t(Y, q, Z)")
        store = TripleStore()
        assert plan_query(query, store).rows() == []
        assert run_query(query, store) == set()


def test_evaluate_delegates_to_engine(museum_store, q_painters):
    assert evaluate(q_painters, museum_store) == {(ex("vanGogh"), ex("sketch1"))}
