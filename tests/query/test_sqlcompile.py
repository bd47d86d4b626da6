"""Unit tests for whole-plan SQL pushdown (repro.engine.sqlcompile).

Covers the compilation scheme (statement text, bound parameters, head
slots), the join order (the estimator's, spelled ``CROSS JOIN`` so
SQLite keeps it), the fallback shapes that must stay on the interpreted
operator tree, and the prepared-SQL cache lifecycle across store
mutations.
"""

import pytest

from repro.engine import (
    compile_query,
    plan_pushdown,
    run_query,
)
from repro.engine import sqlcompile
from repro.engine.planner import _estimator
from repro.obs.analyze import _query_plan_rows, visited_aliases
from repro.query.cq import Atom, ConjunctiveQuery, Variable
from repro.query.evaluation import evaluate, evaluate_nested_loop
from repro.query.parser import parse_query
from repro.rdf.store import TripleStore
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.rdf.vocabulary import RDF_TYPE

from tests.conftest import ex

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


@pytest.fixture
def sqlite_museum(museum_store):
    store = museum_store.copy(backend="sqlite")
    yield store
    store.backend.close()


def _two_hop():
    return parse_query(
        "q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)",
        namespace="http://example.org/",
    )


class TestCompileQuery:
    def test_statement_text_and_params(self, sqlite_museum):
        compiled = compile_query(_two_hop(), sqlite_museum)
        assert compiled.sql == (
            "SELECT DISTINCT t0.s, t1.o\n"
            "FROM triples t0 CROSS JOIN triples t1\n"
            "WHERE t0.p = ? AND t1.s = t0.o AND t1.p = ?"
        )
        assert compiled.params == (
            sqlite_museum.encode_term(ex("isParentOf")),
            sqlite_museum.encode_term(ex("hasPainted")),
        )
        assert compiled.head_slots == (0, 1)
        assert compiled.head_constants == (None, None)
        assert compiled.restricted_slots == ()

    def test_execution_matches_reference(self, sqlite_museum):
        compiled = compile_query(_two_hop(), sqlite_museum)
        assert compiled.execute(sqlite_museum) == evaluate_nested_loop(
            _two_hop(), sqlite_museum
        )

    def test_describe_inlines_the_codes(self, sqlite_museum):
        compiled = compile_query(_two_hop(), sqlite_museum)
        text = compiled.describe()
        assert "?" not in text
        assert str(compiled.params[0]) in text

    def test_unknown_constant_is_provably_empty(self, sqlite_museum):
        query = parse_query(
            "q(X) :- t(X, <http://example.org/neverSeen>, Y)"
        )
        compiled = compile_query(query, sqlite_museum)
        assert compiled.sql is None
        assert compiled.execute(sqlite_museum) == set()
        assert "EMPTY" in compiled.describe()

    def test_constant_head_terms_are_reattached(self, sqlite_museum):
        query = ConjunctiveQuery(
            (ex("tag"), X),
            (Atom(X, ex("hasPainted"), Y),),
            name="q",
        )
        compiled = compile_query(query, sqlite_museum)
        assert compiled.head_slots == (None, 0)
        assert compiled.head_constants[0] == ex("tag")
        assert compiled.execute(sqlite_museum) == evaluate_nested_loop(
            query, sqlite_museum
        )

    def test_boolean_query_compiles_to_existence_test(self, sqlite_museum):
        query = ConjunctiveQuery((), (Atom(X, ex("hasPainted"), Y),), name="q")
        compiled = compile_query(query, sqlite_museum)
        assert compiled.sql.startswith("SELECT 1\n")
        assert compiled.sql.endswith("LIMIT 1")
        assert compiled.execute(sqlite_museum) == {()}

    def test_self_join_atom_becomes_intra_row_equality(self, sqlite_museum):
        query = ConjunctiveQuery((X,), (Atom(X, ex("isParentOf"), X),), name="q")
        compiled = compile_query(query, sqlite_museum)
        assert "t0.o = t0.s" in compiled.sql
        assert compiled.execute(sqlite_museum) == set()

    def test_restricted_object_variable_widens_projection(self, sqlite_museum):
        # Y only occurs in object position, so SQL cannot prove it
        # non-literal: it is appended to the SELECT and filtered here.
        query = ConjunctiveQuery(
            (X,),
            (Atom(X, ex("title"), Y),),
            name="q",
            non_literal=frozenset({Y}),
        )
        compiled = compile_query(query, sqlite_museum)
        assert compiled.restricted_slots == (1,)
        assert compiled.execute(sqlite_museum) == set()  # titles are literals
        assert compiled.execute(sqlite_museum) == evaluate_nested_loop(
            query, sqlite_museum
        )

    def test_subject_occurrence_implies_non_literal(self, sqlite_museum):
        # X also occurs as a subject: well-formed RDF already keeps it
        # off literals, so the projection is not widened.
        query = ConjunctiveQuery(
            (Y,),
            (Atom(Y, ex("isParentOf"), X), Atom(X, ex("hasPainted"), Z)),
            name="q",
            non_literal=frozenset({X}),
        )
        compiled = compile_query(query, sqlite_museum)
        assert compiled.restricted_slots == ()
        assert compiled.execute(sqlite_museum) == evaluate_nested_loop(
            query, sqlite_museum
        )


@pytest.fixture
def skewed_store():
    """Many ``rdf:type`` triples, a handful of ``rare`` ones: body order
    and the estimator's order disagree on every query below."""
    store = TripleStore(backend="sqlite")
    for i in range(200):
        store.add(Triple(ex(f"e{i}"), RDF_TYPE, ex(f"c{i % 7}")))
        store.add(Triple(ex(f"e{i}"), ex("linksTo"), ex(f"e{(i * 3) % 200}")))
    for i in range(3):
        store.add(Triple(ex(f"e{i}"), ex("rare"), ex(f"e{i + 10}")))
    yield store
    store.backend.close()


def _from_aliases(sql):
    """Body indexes of the aliases in the statement's ``FROM`` clause."""
    line = next(text for text in sql.splitlines() if text.startswith("FROM "))
    return [
        int(table.removeprefix("triples t"))
        for table in line.removeprefix("FROM ").split(" CROSS JOIN ")
    ]


#: Shapes whose body order starts on the *widest* atom: a chain ending
#: in an unbound ``rdf:type`` atom written type-first, and a star that
#: joins one.
_CHAIN_TO_TYPE = (
    "q(X, Z) :- t(Y, rdf:type, Z), t(X, linksTo, Y), t(W, rare, X)"
)
_STAR_WITH_TYPE = (
    "q(X, C) :- t(X, rdf:type, C), t(X, linksTo, Y), t(X, rare, Z)"
)


class TestJoinOrder:
    @pytest.mark.parametrize("text", [_CHAIN_TO_TYPE, _STAR_WITH_TYPE])
    def test_from_clause_is_the_estimators_order(self, skewed_store, text):
        query = parse_query(text, namespace="http://example.org/")
        order = _estimator(skewed_store).join_order(query.atoms)
        assert order != sorted(order)  # the shape really reorders
        compiled = plan_pushdown(query, skewed_store)
        assert _from_aliases(compiled.sql) == order
        # SQLite visits the aliases as written, rarest atom outermost.
        assert visited_aliases(_query_plan_rows(compiled, skewed_store)) == order
        assert query.atoms[order[0]].p == ex("rare")
        assert compiled.execute(skewed_store) == evaluate_nested_loop(
            query, skewed_store
        )
        assert compiled.execute(skewed_store) == evaluate(
            query, skewed_store, pushdown=False
        )

    def test_explicit_order_keeps_body_aliases(self, sqlite_museum):
        compiled = compile_query(_two_hop(), sqlite_museum, order=[1, 0])
        assert compiled.sql == (
            "SELECT DISTINCT t0.s, t1.o\n"
            "FROM triples t1 CROSS JOIN triples t0\n"
            "WHERE t1.p = ? AND t0.p = ? AND t0.o = t1.s"
        )
        # Parameters follow the text: t1's constant comes first now.
        assert compiled.params == (
            sqlite_museum.encode_term(ex("hasPainted")),
            sqlite_museum.encode_term(ex("isParentOf")),
        )
        assert compiled.execute(sqlite_museum) == evaluate_nested_loop(
            _two_hop(), sqlite_museum
        )

    def test_cartesian_body_compiles_and_agrees(self, skewed_store):
        query = parse_query(
            "q(X, A) :- t(X, rare, Y), t(A, rdf:type, c1)",
            namespace="http://example.org/",
        )
        assert not query.is_connected()
        compiled = plan_pushdown(query, skewed_store)
        assert compiled is not None and "CROSS JOIN" in compiled.sql
        answers = compiled.execute(skewed_store)
        assert len(answers) == 3 * len(
            evaluate_nested_loop(
                parse_query("q(A) :- t(A, rdf:type, c1)",
                            namespace="http://example.org/"),
                skewed_store,
            )
        )
        assert answers == evaluate_nested_loop(query, skewed_store)
        assert answers == evaluate(query, skewed_store, pushdown=False)


class TestFallbackShapes:
    def test_too_many_atoms_fall_back(self, sqlite_museum):
        atom = Atom(X, ex("hasPainted"), Y)
        body = (atom,) * (sqlcompile.MAX_PUSHDOWN_TABLES + 1)
        query = ConjunctiveQuery((X,), body, name="q")
        assert compile_query(query, sqlite_museum) is None
        assert plan_pushdown(query, sqlite_museum) is None
        # The interpreted fallback still answers it.
        assert run_query(query, sqlite_museum) == evaluate_nested_loop(
            query, sqlite_museum
        )

    def test_too_many_params_fall_back(self, sqlite_museum, monkeypatch):
        # The 60-table ceiling caps constants at 180, so the parameter
        # budget is defensive; lift the table limit to exercise it.
        monkeypatch.setattr(sqlcompile, "MAX_PUSHDOWN_TABLES", 10_000)
        atom = Atom(ex("vanGogh"), ex("hasPainted"), ex("starryNight"))
        body = (atom,) * (sqlcompile.MAX_PUSHDOWN_PARAMS // 3 + 1)
        query = ConjunctiveQuery((), body, name="q")
        assert compile_query(query, sqlite_museum) is None

    def test_memory_backend_refuses_sql_plans(self, museum_store):
        assert not museum_store.backend.supports_sql_plans
        with pytest.raises(NotImplementedError):
            museum_store.backend.execute_sql_plan("SELECT 1")
        assert plan_pushdown(_two_hop(), museum_store) is None

    def test_routes_that_must_stay_interpreted(self, sqlite_museum, monkeypatch):
        query = _two_hop()
        expected = evaluate_nested_loop(query, sqlite_museum)
        monkeypatch.setattr(
            sqlite_museum.backend,
            "execute_sql_plan",
            lambda *a, **k: pytest.fail("pushdown route taken"),
        )
        # pushdown=False is the reference switch.
        assert evaluate(query, sqlite_museum, pushdown=False) == expected

    def test_auto_route_uses_pushdown(self, sqlite_museum, monkeypatch):
        query = _two_hop()
        expected = evaluate_nested_loop(query, sqlite_museum)
        statements = []
        execute = sqlite_museum.backend.execute_sql_plan
        monkeypatch.setattr(
            sqlite_museum.backend,
            "execute_sql_plan",
            lambda sql, *a, **k: statements.append(sql) or execute(sql, *a, **k),
        )
        assert evaluate(query, sqlite_museum) == expected
        assert len(statements) == 1


class TestPreparedSqlCache:
    def test_compiled_plan_is_cached(self, sqlite_museum):
        query = _two_hop()
        first = plan_pushdown(query, sqlite_museum)
        assert first is not None
        assert plan_pushdown(query, sqlite_museum) is first

    def test_ineligible_shape_is_cached(self, sqlite_museum):
        atom = Atom(X, ex("hasPainted"), Y)
        body = (atom,) * (sqlcompile.MAX_PUSHDOWN_TABLES + 1)
        query = ConjunctiveQuery((X,), body, name="q")
        assert plan_pushdown(query, sqlite_museum) is None
        assert plan_pushdown(query, sqlite_museum) is None

    def test_mutation_invalidates_compiled_plans(self, sqlite_museum):
        query = _two_hop()
        first = plan_pushdown(query, sqlite_museum)
        sqlite_museum.add(Triple(ex("x"), ex("isParentOf"), ex("y")))
        second = plan_pushdown(query, sqlite_museum)
        assert second is not None and second is not first

    def test_empty_compilation_revalidated_after_mutation(self):
        # A provably-empty plan (unknown constant) must not outlive the
        # insertion that introduces the constant.
        store = TripleStore(backend="sqlite")
        try:
            prop = URI("http://e/p")
            query = ConjunctiveQuery((X,), (Atom(X, prop, Y),), name="q")
            store.add(Triple(URI("http://e/a"), URI("http://e/q"), Literal("v")))
            assert evaluate(query, store) == set()
            store.add(Triple(URI("http://e/a"), prop, URI("http://e/b")))
            assert evaluate(query, store) == {(URI("http://e/a"),)}
            assert evaluate(query, store) == evaluate_nested_loop(query, store)
        finally:
            store.backend.close()

    def test_removal_invalidates_compiled_plans(self, sqlite_museum):
        query = _two_hop()
        before = evaluate(query, sqlite_museum)
        assert before == evaluate_nested_loop(query, sqlite_museum)
        sqlite_museum.remove(
            Triple(ex("vanGogh"), ex("isParentOf"), ex("vincentW"))
        )
        after = evaluate(query, sqlite_museum)
        assert after == evaluate_nested_loop(query, sqlite_museum)
        assert after < before
