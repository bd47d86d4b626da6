"""Unit tests for flat unions, batches and the route decision.

Covers join-order prefix fingerprinting (:mod:`repro.engine.mqo`:
isomorphic prefixes unify, distinct ones never collide) and which
prefixes are shared, union and served-batch parity with independent
evaluation, the flat form's branches on SQL backends (provably-empty
branches, per-disjunct statement caching, mutation invalidation), and
the route :func:`repro.engine.plan` gives a reformulation union on
SQLite — factorised, or one statement per distinct disjunct — with the
traffic each sends.
"""

import math
from collections import Counter

import pytest

from repro.engine import (
    FACTORISED,
    INTERPRETED,
    SQL_PUSHDOWN,
    CompiledQuery,
    Operator,
    count_union,
    decode_images,
    evaluate,
    plan,
    plan_batch,
    plan_pushdown,
    plan_query,
    plan_union_pushdown,
)
from repro.obs import metrics
from repro.query.containment import canonical_form
from repro.query.cq import Atom, ConjunctiveQuery, Variable
from repro.query.evaluation import evaluate_nested_loop, evaluate_union
from repro.query.parser import parse_query
from repro.rdf.triples import Triple
from repro.reformulation import reformulate
from repro.reformulation.reformulate import factorise
from repro.workload import SatisfiableWorkloadGenerator

from tests.conftest import ex

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


@pytest.fixture
def sqlite_museum(museum_store):
    store = museum_store.copy(backend="sqlite")
    yield store
    store.backend.close()


def _chain():
    return parse_query("qa(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)")


def _chain_renamed():
    return parse_query("qr(A, C) :- t(A, isParentOf, B), t(B, hasPainted, C)")


def _chain_typed():
    return parse_query(
        "qb(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z), "
        "t(Z, rdf:type, painting)"
    )


def _headless_key(body, non_literal=frozenset()):
    sub = ConjunctiveQuery((), tuple(body), name="k", non_literal=non_literal)
    return canonical_form(sub, include_head=False)


def _union_reference(disjuncts, store):
    answers = set()
    for disjunct in disjuncts:
        answers |= evaluate_nested_loop(disjunct, store)
    return answers


def _per_disjunct(disjuncts, store):
    """The union evaluated one disjunct at a time."""
    answers = set()
    for disjunct in disjuncts:
        answers |= evaluate(disjunct, store)
    return answers


def _answer_batch(queries, store):
    """The served batch path on ``queries``' texts: one answer set per
    text, in order."""
    from repro.server.pool import _answer_batch

    entries = _answer_batch([str(query) for query in queries], store, {})
    assert all(status == "ok" for status, _ in entries)
    return [answers for _, answers in entries]


class TestFingerprints:
    def test_isomorphic_prefixes_unify(self, museum_store):
        batch = plan_batch([_chain(), _chain_renamed()], museum_store)
        assert len(batch.queries) == 2
        first, second = batch.keys
        assert first[-1] == second[-1]
        (shared,) = batch.shared
        assert shared.key == first[-1]
        assert len(shared.atoms) == 2

    def test_different_constants_do_not_collide(self):
        a = _headless_key([Atom(X, ex("hasPainted"), ex("starryNight"))])
        b = _headless_key([Atom(X, ex("hasPainted"), ex("sunflowers"))])
        assert a != b

    def test_different_restrictions_do_not_collide(self):
        body = [Atom(X, ex("isParentOf"), Y), Atom(Y, ex("hasPainted"), Z)]
        assert _headless_key(body) != _headless_key(
            body, non_literal=frozenset({Z})
        )

    def test_different_structure_does_not_collide(self):
        path = [Atom(X, ex("isParentOf"), Y), Atom(Y, ex("isParentOf"), Z)]
        fork = [Atom(X, ex("isParentOf"), Y), Atom(X, ex("isParentOf"), Z)]
        assert _headless_key(path) != _headless_key(fork)

    def test_isomorphic_bodies_collide_regardless_of_names(self):
        a = [Atom(X, ex("isParentOf"), Y), Atom(Y, ex("hasPainted"), Z)]
        b = [
            Atom(Variable("P"), ex("isParentOf"), Variable("Q")),
            Atom(Variable("Q"), ex("hasPainted"), Variable("R")),
        ]
        assert _headless_key(a) == _headless_key(b)

    def test_keys_fingerprint_the_estimator_join_order(self, museum_store):
        """``keys[i][k - 1]`` is the first ``k`` atoms in the order the
        single-query plans join them, not in the query's written order."""
        from repro.engine.planner import _estimator

        query = _chain_typed()
        (keys,) = plan_batch([query], museum_store).keys
        order = _estimator(museum_store).join_order(query.atoms)
        atoms = [query.atoms[index] for index in order]
        assert keys == tuple(
            _headless_key(atoms[:k]) for k in range(1, len(atoms) + 1)
        )


class TestSharedPrefixes:
    """Each query names its longest join-order prefix that another
    distinct query shares."""

    def test_a_scan_two_queries_share_is_shared(self, museum_store):
        body = (Atom(X, ex("isParentOf"), Y),)
        queries = [
            ConjunctiveQuery((X,), body, name="qc"),
            ConjunctiveQuery((Y,), body, name="qd"),
        ]
        (shared,) = plan_batch(queries, museum_store).shared
        assert shared.atoms == body
        assert shared.shorter == ()

    def test_unshared_queries_share_nothing(self, museum_store):
        queries = [_chain(), parse_query("qs(X) :- t(X, rdf:type, painter)")]
        assert plan_batch(queries, museum_store).shared == ()

    def test_longest_shared_prefix_is_named_shortest_first(self, museum_store):
        batch = plan_batch([_chain(), _chain_typed(), _chain_renamed()], museum_store)
        (shared,) = batch.shared
        assert len(shared.atoms) == 2
        assert len(shared.shorter) == 1
        assert all(shared.key in keys for keys in batch.keys)

    def test_duplicates_are_one_query(self, museum_store):
        batch = plan_batch([_chain(), _chain()], museum_store)
        assert batch.queries == (_chain(),)
        assert batch.shared == ()


class TestSharedExecution:
    def test_union_parity_on_memory(self, museum_store):
        disjuncts = [_chain(), _chain_typed(), _chain_renamed()]
        expected = _union_reference(disjuncts, museum_store)
        assert evaluate_union(disjuncts, museum_store) == expected
        assert _per_disjunct(disjuncts, museum_store) == expected

    def test_union_parity_on_sqlite(self, sqlite_museum):
        disjuncts = [_chain(), _chain_typed()]
        expected = _union_reference(disjuncts, sqlite_museum)
        assert evaluate_union(disjuncts, sqlite_museum) == expected
        memory = sqlite_museum.copy(backend="memory")
        assert evaluate_union(disjuncts, memory) == expected
        assert _per_disjunct(disjuncts, sqlite_museum) == expected

    def test_batch_matches_individual_runs(self, museum_store):
        queries = [
            _chain(),
            _chain_typed(),
            parse_query("qs(X) :- t(X, rdf:type, painter)"),
        ]
        expected = [evaluate(query, museum_store) for query in queries]
        assert _answer_batch(queries, museum_store) == expected

    def test_batch_matches_individual_runs_on_sqlite(self, sqlite_museum):
        queries = [_chain(), _chain_typed()]
        expected = [evaluate(query, sqlite_museum) for query in queries]
        assert _answer_batch(queries, sqlite_museum) == expected
        memory = sqlite_museum.copy(backend="memory")
        assert [evaluate(query, memory) for query in queries] == expected

    def test_duplicate_queries_are_answered_once(self, museum_store):
        query = _chain()
        results = _answer_batch([query, _chain_typed(), query], museum_store)
        assert results[0] is results[2]
        assert results[0] == evaluate(query, museum_store)

    def test_empty_batch(self, museum_store):
        assert _answer_batch([], museum_store) == []

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_empty_union_counts_zero(self, backend, museum_store, sqlite_museum):
        store = {"memory": museum_store, "sqlite": sqlite_museum}[backend]
        assert evaluate_union([], store) == set()
        assert count_union([], store) == 0

    def test_decode_images_mixes_codes_and_constants(self, museum_store):
        code = museum_store.encode_term(ex("vanGogh"))
        images = {(code, ex("moma"))}
        assert decode_images(images, museum_store) == {
            (ex("vanGogh"), ex("moma"))
        }

    def test_each_distinct_code_decoded_once(self, museum_store, monkeypatch):
        disjuncts = [_chain(), _chain_renamed()]
        expected = _union_reference(disjuncts, museum_store)
        calls = []
        original = museum_store.dictionary.decode

        def counting(code):
            calls.append(code)
            return original(code)

        monkeypatch.setattr(museum_store.dictionary, "decode", counting)
        assert evaluate(disjuncts, museum_store) == expected
        assert len(calls) == len(set(calls))


def _statements(disjuncts, store):
    return [branch for _, branch in plan_union_pushdown(disjuncts, store)]


def _cached_statements(disjuncts, store):
    route, branches = plan(disjuncts, store)
    assert route == SQL_PUSHDOWN
    return [branch for _, branch in branches]


class TestUnionPushdown:
    """The flat form on SQL: one prepared statement per distinct
    disjunct, cached per store version in the question's plan."""

    def test_memory_backend_has_no_union_pushdown(self, museum_store):
        branches = plan_union_pushdown(
            [_chain(), _chain_typed(), _chain()], museum_store
        )
        assert [query for query, _ in branches] == [_chain(), _chain_typed()]
        assert all(
            branch.explain() == plan_query(query, museum_store).explain()
            for query, branch in branches
        )

    def test_branch_statements_are_cached(self, sqlite_museum):
        disjuncts = [_chain(), _chain_typed()]
        first = _cached_statements(disjuncts, sqlite_museum)
        assert all(branch.sql is not None for branch in first)
        second = _cached_statements(tuple(disjuncts), sqlite_museum)
        assert all(a is b for a, b in zip(first, second))
        assert [branch.sql for branch in first] == [
            plan_pushdown(query, sqlite_museum).sql for query in disjuncts
        ]

    def test_mutation_invalidates_union_plans(self, sqlite_museum):
        disjuncts = [_chain(), _chain_typed()]
        first = _cached_statements(disjuncts, sqlite_museum)
        sqlite_museum.add(Triple(ex("x"), ex("isParentOf"), ex("y")))
        second = _cached_statements(disjuncts, sqlite_museum)
        assert not any(a is b for a, b in zip(first, second))
        assert evaluate_union(disjuncts, sqlite_museum) == _union_reference(
            disjuncts, sqlite_museum
        )

    def test_zero_arity_union_runs_existence_statements(self, sqlite_museum):
        disjuncts = [
            ConjunctiveQuery((), (Atom(X, ex("hasPainted"), Y),), name="ask")
        ]
        (branch,) = _statements(disjuncts, sqlite_museum)
        assert branch.sql.startswith("SELECT 1\n")
        assert evaluate_union(disjuncts, sqlite_museum) == {()}
        assert count_union(disjuncts, sqlite_museum) == 1

    def test_absent_constant_branch_is_skipped(self, sqlite_museum):
        bad = ConjunctiveQuery(
            (X, Y), (Atom(X, ex("neverSeen"), Y),), name="bad"
        )
        chain, empty = _statements([_chain(), bad], sqlite_museum)
        assert chain.sql is not None and empty.sql is None
        assert evaluate_union([_chain(), bad], sqlite_museum) == (
            evaluate_nested_loop(_chain(), sqlite_museum)
        )

    def test_all_branches_empty_compiles_to_the_empty_union(
        self, sqlite_museum, monkeypatch
    ):
        bad = ConjunctiveQuery(
            (X, Y), (Atom(X, ex("neverSeen"), Y),), name="bad"
        )
        (branch,) = _statements([bad], sqlite_museum)
        assert "EMPTY" in branch.describe()
        monkeypatch.setattr(
            sqlite_museum.backend,
            "execute_sql_plan",
            lambda *a, **k: pytest.fail("an empty union ran a statement"),
        )
        assert evaluate_union([bad], sqlite_museum) == set()

    def test_second_evaluation_hits_each_branch_statement(self, sqlite_museum):
        """The statements live in the question's cached plan: the same
        union evaluated again is one ``engine.plan_cache.hit`` — one
        lookup per question, not per distinct disjunct — and no miss."""
        disjuncts = (_chain(), _chain_typed(), _chain())
        evaluate_union(disjuncts, sqlite_museum)
        _, dump = metrics.collect(evaluate_union, disjuncts, sqlite_museum)
        counters = dump["counters"]
        assert counters.get("engine.plan_cache.hit") == 1
        assert "engine.plan_cache.miss" not in counters
        assert counters.get("mqo.route.per_branch") == 1

    def test_branches_over_an_empty_prefix_run(self, sqlite_museum, monkeypatch):
        """The museum's located-in targets (moma, vienna) are nobody's
        parent, so both branches share an empty 2-atom prefix: each
        still runs its own statement, and a write that fills the prefix
        shows in the next answer."""
        located = "t(X, isLocatedIn, Y), t(Y, isParentOf, Z)"
        disjuncts = (
            parse_query(f"q1(X, A) :- {located}, t(Z, hasPainted, A)"),
            parse_query(f"q2(X, Z) :- {located}, t(Z, rdf:type, painter)"),
        )
        statements = []
        execute = sqlite_museum.backend.execute_sql_plan

        def spy(sql, params=()):
            statements.append(sql)
            return execute(sql, params)

        monkeypatch.setattr(sqlite_museum.backend, "execute_sql_plan", spy)
        assert evaluate_union(disjuncts, sqlite_museum) == set()
        assert len(statements) == 2
        assert all(sql.startswith("SELECT DISTINCT ") for sql in statements)
        sqlite_museum.add(Triple(ex("vienna"), ex("isParentOf"), ex("bruegelJr")))
        expected = _union_reference(disjuncts, sqlite_museum)
        assert expected
        assert evaluate_union(disjuncts, sqlite_museum) == expected


@pytest.fixture(scope="module")
def adhoc_smoke_pool():
    """``(plain store, schema, queries)``: the ad-hoc benchmark's 24
    queries on its catalog at smoke scale. One-atom scans, stars, chains
    and selective stars: some reformulate to 1–2 disjuncts, others to
    hundreds, so both sides of the SQLite route rule are taken."""
    from benchmarks.e2e.base import POOL_SEED, SCALES, generate_catalog
    from benchmarks.e2e.wl_adhoc import CLASSES

    plain, schema = generate_catalog(SCALES["smoke"])
    generator = SatisfiableWorkloadGenerator(plain, seed=POOL_SEED)
    pool = [query for spec in CLASSES.values() for query in generator.generate(spec)]
    return plain, schema, pool


class TestUnionTraffic:
    """What a reformulation union sends to SQLite. When it has one atom,
    or the product of its atoms' alternative counts exceeds its atom
    count, it runs factorised and sends nothing; otherwise it sends one
    ``SELECT DISTINCT`` (``SELECT 1 … LIMIT 1`` for a boolean head) per
    distinct disjunct — never a ``WITH``, a ``UNION`` or a ``SELECT
    EXISTS``."""

    def test_each_union_takes_its_route(self, adhoc_smoke_pool, monkeypatch):
        plain, schema, pool = adhoc_smoke_pool
        store = plain.copy(backend="sqlite")
        statements = []
        execute = store.backend.execute_sql_plan

        def spy(sql, params=()):
            statements.append(sql)
            return execute(sql, params)

        routes = Counter()
        try:
            monkeypatch.setattr(store.backend, "execute_sql_plan", spy)
            for query in pool:
                union = reformulate(query, schema)
                product = math.prod(
                    len(part.alternatives) for part in factorise(query, schema)
                )
                del statements[:]
                answers, dump = metrics.collect(evaluate_union, union, store)
                counters = dump["counters"]
                if len(query.atoms) == 1 or product > len(query.atoms):
                    routes["factorised"] += 1
                    assert statements == [], query
                    assert counters.get("engine.route.factorised") == 1
                else:
                    routes["flat"] += 1
                    assert "engine.route.factorised" not in counters
                    assert len(statements) == len(set(union.disjuncts)), query
                    for sql in statements:
                        assert not sql.startswith("WITH"), sql
                        assert "UNION" not in sql and "EXISTS" not in sql, sql
                        assert sql.startswith("SELECT DISTINCT ") or (
                            sql.startswith("SELECT 1\n") and sql.endswith("LIMIT 1")
                        ), sql
                    assert answers == _per_disjunct(union.disjuncts, store)
                assert answers == evaluate_union(union, plain)
            assert routes["factorised"] and routes["flat"], routes
        finally:
            store.backend.close()


class TestPlan:
    """What :func:`repro.engine.plan` gives a question: its route and
    one branch per distinct disjunct, or one factorised tree."""

    def test_interpreted_branches(self, museum_store):
        route, branches = plan([_chain(), _chain_renamed(), _chain()], museum_store)
        assert route == INTERPRETED
        assert [query for query, _ in branches] == [_chain(), _chain_renamed()]
        assert all(isinstance(branch, Operator) for _, branch in branches)

    def test_pushdown_branches(self, sqlite_museum):
        route, branches = plan([_chain(), _chain_typed()], sqlite_museum)
        assert route == SQL_PUSHDOWN
        assert all(isinstance(branch, CompiledQuery) for _, branch in branches)

    def test_sqlite_plans_the_route_taken(
        self, sqlite_museum, museum_schema, q_painters, q_pictures
    ):
        """A reformulation with more alternative combinations than atoms
        plans factorised on SQLite too, one tree over its source query;
        one with no more stays flat, a statement per distinct disjunct."""
        large = reformulate(q_pictures, museum_schema)
        route, ((query, tree),) = plan(large, sqlite_museum)
        assert route == FACTORISED and query is large.source
        assert isinstance(tree, Operator)
        route, ((query, branch),) = plan(
            reformulate(q_painters, museum_schema), sqlite_museum
        )
        assert route == SQL_PUSHDOWN and isinstance(branch, CompiledQuery)


class TestRouteRule:
    """The route rule :func:`repro.engine.plan` applies: the backend and
    the union's own factorised shape decide, nothing else. On SQLite
    only a multi-atom union whose alternative counts multiply to at
    most its atom count stays flat."""

    @pytest.mark.parametrize(
        "text, factorised",
        [
            # One atom, one alternative: its one scan is the union.
            ("q(X, Y) :- t(X, isParentOf, Y)", True),
            # One atom, isExposedIn ⊑ isLocatedIn: two alternatives.
            ("q(X, Y) :- t(X, isLocatedIn, Y)", True),
            # Two atoms, 1 × 1 alternatives.
            ("q(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)", False),
            # Two atoms, 2 × 1 alternatives: no more than the atoms.
            ("q(X, Z) :- t(X, isLocatedIn, Y), t(X, isParentOf, Z)", False),
            # Two atoms, ≥ 4 × 2 alternatives.
            ("q(X, Y) :- t(X, rdf:type, picture), t(X, isLocatedIn, Y)", True),
        ],
    )
    def test_sqlite_factorises_past_the_atom_count(
        self, text, factorised, museum_store, sqlite_museum, museum_schema
    ):
        query = parse_query(text)
        union = reformulate(query, museum_schema)
        product = math.prod(
            len(part.alternatives) for part in factorise(query, museum_schema)
        )
        one_atom = len(query.atoms) == 1
        assert (one_atom or product > len(query.atoms)) is factorised
        assert (plan(union, sqlite_museum)[0] == FACTORISED) is factorised
        # A backend without SQL always factorises; a disjunct list never.
        assert plan(union, museum_store)[0] == FACTORISED
        assert plan(union.disjuncts, museum_store)[0] == INTERPRETED

    def test_count_union_on_sqlite_follows_the_route(
        self, sqlite_museum, museum_schema, q_painters, q_pictures, monkeypatch
    ):
        """Counting takes the answer's route: a factorised count sends
        SQLite nothing, a flat one a statement per distinct disjunct."""
        statements = []
        execute = sqlite_museum.backend.execute_sql_plan

        def spy(sql, params=()):
            statements.append(sql)
            return execute(sql, params)

        monkeypatch.setattr(sqlite_museum.backend, "execute_sql_plan", spy)
        for query, sent in ((q_pictures, 0), (q_painters, 1)):
            union = reformulate(query, museum_schema)
            del statements[:]
            count = count_union(union, sqlite_museum)
            assert len(statements) == sent
            assert count == len(evaluate_union(union, sqlite_museum)) >= 1
