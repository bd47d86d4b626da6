"""Unit tests for flat unions and query batches (repro.engine.mqo).

Covers join-order prefix fingerprinting (isomorphic prefixes unify,
distinct ones never collide) and which shared prefixes are probed,
union and batch parity with independent evaluation, the per-branch
union route on SQL backends (provably-empty branches, empty-prefix
pruning and its probe count, the traffic a union sends to SQLite), and
the union-level prepared-plan cache lifecycle — identity, plan-cache
accounting and mutation invalidation mirroring the single-query
pushdown cache tests.
"""

import pytest

from repro.datagen import BartonConfig, generate_barton
from repro.engine import (
    count_union,
    describe_union_sharing,
    evaluate_union_shared,
    plan_batch,
    plan_union_pushdown,
    run_query,
    run_query_batch,
)
from repro.engine.mqo import decode_images
from repro.query.containment import canonical_form
from repro.query.cq import Atom, ConjunctiveQuery, Variable
from repro.query.evaluation import evaluate_nested_loop, evaluate_union
from repro.query.parser import parse_query
from repro.rdf.triples import Triple
from repro.reformulation import reformulate
from repro.workload import QueryShape, SatisfiableWorkloadGenerator, WorkloadSpec

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
        order = _estimator(museum_store, None).join_order(query.atoms)
        atoms = [query.atoms[index] for index in order]
        assert keys == tuple(
            _headless_key(atoms[:k]) for k in range(1, len(atoms) + 1)
        )


class TestSharedPrefixes:
    """Each query names its longest join-order prefix that another
    distinct query shares — the prefixes the SQL union route probes."""

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
        assert evaluate_union(disjuncts, museum_store, shared=False) == expected

    def test_union_parity_on_sqlite(self, sqlite_museum):
        disjuncts = [_chain(), _chain_typed()]
        expected = _union_reference(disjuncts, sqlite_museum)
        assert evaluate_union(disjuncts, sqlite_museum) == expected
        assert (
            evaluate_union(disjuncts, sqlite_museum, pushdown=False) == expected
        )
        assert (
            evaluate_union(disjuncts, sqlite_museum, shared=False) == expected
        )

    def test_batch_matches_individual_runs(self, museum_store):
        queries = [
            _chain(),
            _chain_typed(),
            parse_query("qs(X) :- t(X, rdf:type, painter)"),
        ]
        expected = [run_query(query, museum_store) for query in queries]
        assert run_query_batch(queries, museum_store) == expected

    def test_batch_matches_individual_runs_on_sqlite(self, sqlite_museum):
        queries = [_chain(), _chain_typed()]
        expected = [run_query(query, sqlite_museum) for query in queries]
        assert run_query_batch(queries, sqlite_museum) == expected
        assert (
            run_query_batch(queries, sqlite_museum, pushdown=False) == expected
        )

    def test_duplicate_queries_are_answered_once(self, museum_store):
        query = _chain()
        results = run_query_batch([query, _chain_typed(), query], museum_store)
        assert results[0] is results[2]
        assert results[0] == run_query(query, museum_store)

    def test_empty_batch(self, museum_store):
        assert run_query_batch([], museum_store) == []

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
        assert evaluate_union_shared(disjuncts, museum_store) == expected
        assert len(calls) == len(set(calls))


class TestUnionPushdown:
    """The per-branch route: one prepared statement per distinct
    disjunct, cached per store version."""

    def test_memory_backend_has_no_union_pushdown(self, museum_store):
        distinct, branches = plan_union_pushdown(
            [_chain(), _chain_typed()], museum_store
        )
        assert distinct == (_chain(), _chain_typed())
        assert branches == (None, None)

    def test_union_plan_is_cached(self, sqlite_museum):
        disjuncts = [_chain(), _chain_typed()]
        first = plan_union_pushdown(disjuncts, sqlite_museum)
        _, branches = first
        assert all(branch.sql is not None for branch in branches)
        assert plan_union_pushdown(disjuncts, sqlite_museum) is first

    def test_mutation_invalidates_union_plans(self, sqlite_museum):
        disjuncts = [_chain(), _chain_typed()]
        first = plan_union_pushdown(disjuncts, sqlite_museum)
        sqlite_museum.add(Triple(ex("x"), ex("isParentOf"), ex("y")))
        second = plan_union_pushdown(disjuncts, sqlite_museum)
        assert second is not first
        assert evaluate_union(disjuncts, sqlite_museum) == _union_reference(
            disjuncts, sqlite_museum
        )

    def test_zero_arity_union_runs_existence_statements(self, sqlite_museum):
        disjuncts = [
            ConjunctiveQuery((), (Atom(X, ex("hasPainted"), Y),), name="ask")
        ]
        _, (branch,) = plan_union_pushdown(disjuncts, sqlite_museum)
        assert branch.sql.startswith("SELECT 1\n")
        assert evaluate_union(disjuncts, sqlite_museum) == {()}
        assert count_union(disjuncts, sqlite_museum) == 1

    def test_absent_constant_branch_is_skipped(self, sqlite_museum):
        bad = ConjunctiveQuery(
            (X, Y), (Atom(X, ex("neverSeen"), Y),), name="bad"
        )
        _, (chain, empty) = plan_union_pushdown([_chain(), bad], sqlite_museum)
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
        _, (branch,) = plan_union_pushdown([bad], sqlite_museum)
        assert "EMPTY" in branch.describe()
        monkeypatch.setattr(
            sqlite_museum.backend,
            "execute_sql_plan",
            lambda *a, **k: pytest.fail("an empty union ran a statement"),
        )
        assert evaluate_union([bad], sqlite_museum) == set()

    def test_second_evaluation_is_one_plan_cache_hit(self, sqlite_museum):
        """The route lives in the prepared-plan cache, and its lookup is
        counted as one: the same union evaluated again adds exactly one
        ``engine.plan_cache.hit`` and no miss."""
        from repro.obs import metrics

        disjuncts = (_chain(), _chain_typed())
        evaluate_union(disjuncts, sqlite_museum)
        _, counters = metrics.collect(evaluate_union, disjuncts, sqlite_museum)
        counters = counters["counters"]
        assert counters.get("engine.plan_cache.hit") == 1
        assert counters.get("mqo.route.hit") == 1
        assert "engine.plan_cache.miss" not in counters


@pytest.fixture(scope="module")
def barton_star_unions():
    """``(plain store, unions)``: the star queries of the ad-hoc
    benchmark's pool on its catalog at smoke scale, reformulated, that
    have 2 to 200 disjuncts — most of them 93–186 disjuncts sharing a
    wide prefix beside a ``t(X, rdf:type, C)`` atom. Which queries the
    pool holds varies with hash randomization; that shape was among them
    under every hash seed tried (0–39)."""
    plain, schema = generate_barton(
        BartonConfig(num_triples=12_000, num_entities=2_000, seed=3)
    )
    spec = WorkloadSpec(6, 4, QueryShape.STAR, "low", constant_probability=0.0)
    unions = [
        reformulate(query, schema)
        for query in SatisfiableWorkloadGenerator(plain, seed=0).generate(spec)
    ]
    return plain, [u for u in unions if 1 < len(u.disjuncts) <= 200]


class TestUnionTraffic:
    """What a union sends to SQLite: one ``SELECT DISTINCT`` per branch
    (``SELECT 1 … LIMIT 1`` for a boolean head) and ``SELECT EXISTS``
    prefix probes — never a ``WITH`` statement or arms joined by
    ``UNION``."""

    def test_star_unions_run_only_single_statements(
        self, barton_star_unions, monkeypatch
    ):
        plain, unions = barton_star_unions
        assert unions
        store = plain.copy(backend="sqlite")
        statements = []
        execute = store.backend.execute_sql_plan

        def spy(sql, params=()):
            statements.append(sql)
            return execute(sql, params)

        try:
            monkeypatch.setattr(store.backend, "execute_sql_plan", spy)
            for union in unions:
                del statements[:]
                answers = evaluate_union(union, store)
                for sql in statements:
                    assert not sql.startswith("WITH"), sql
                    assert "UNION" not in sql, sql
                    assert sql.startswith(
                        ("SELECT DISTINCT ", "SELECT EXISTS (")
                    ) or (
                        sql.startswith("SELECT 1\n") and sql.endswith("LIMIT 1")
                    ), sql
                assert statements
                assert answers == evaluate_union(union, store, pushdown=False)
                assert answers == evaluate_union(union, store, shared=False)
        finally:
            store.backend.close()


_LOCATED_PARENT = "t(X, isLocatedIn, Y), t(Y, isParentOf, Z)"


def _empty_prefix_union():
    """Two queries sharing a 2-atom prefix with no matches: the
    museum's located-in targets (moma, vienna) are nobody's parent, yet
    both predicates are individually present — only the
    ``SELECT EXISTS`` probe finds the prefix empty."""
    return (
        parse_query(f"q1(X, A) :- {_LOCATED_PARENT}, t(Z, hasPainted, A)"),
        parse_query(f"q2(X, Z) :- {_LOCATED_PARENT}, t(Z, rdf:type, painter)"),
    )


class TestEmptyPrefixPruning:
    """Branches over a probed-empty shared prefix are skipped outright."""

    def test_empty_shared_prefix_prunes_every_consumer(self, sqlite_museum):
        from repro.engine.mqo import _EMPTY_BRANCH

        disjuncts = _empty_prefix_union()
        batch = plan_batch(disjuncts, sqlite_museum)
        assert batch.shared, "the 2-atom prefix must be shared"
        _, branches = plan_union_pushdown(disjuncts, sqlite_museum)
        assert all(branch is _EMPTY_BRANCH for branch in branches)
        assert evaluate_union(disjuncts, sqlite_museum) == set()
        assert evaluate_union(disjuncts, sqlite_museum) == _union_reference(
            disjuncts, sqlite_museum
        )

    def test_nonempty_prefixes_are_never_pruned(self, sqlite_museum):
        from repro.engine.mqo import _EMPTY_BRANCH

        disjuncts = (_chain(), _chain_typed())
        _, branches = plan_union_pushdown(disjuncts, sqlite_museum)
        assert all(branch is not _EMPTY_BRANCH for branch in branches)

    def test_pruning_decision_invalidates_on_mutation(self, sqlite_museum):
        from repro.engine.mqo import _EMPTY_BRANCH

        disjuncts = _empty_prefix_union()
        assert evaluate_union(disjuncts, sqlite_museum) == set()
        # Making vienna a parent of a painter fills the probed prefix:
        # the flushed route must re-probe and execute the branches.
        sqlite_museum.add(Triple(ex("vienna"), ex("isParentOf"), ex("bruegelJr")))
        _, branches = plan_union_pushdown(disjuncts, sqlite_museum)
        assert all(branch is not _EMPTY_BRANCH for branch in branches)
        expected = _union_reference(disjuncts, sqlite_museum)
        assert expected
        assert evaluate_union(disjuncts, sqlite_museum) == expected

    def test_prefix_over_an_empty_prefix_is_not_probed(
        self, sqlite_museum, monkeypatch
    ):
        """q1 and q2 share a 3-atom prefix that extends the empty 2-atom
        one q3 shares with them: one probe proves all three empty."""
        from repro.engine.mqo import _EMPTY_BRANCH

        disjuncts = (
            parse_query(f"q1(X, A) :- {_LOCATED_PARENT}, t(Z, hasPainted, A)"),
            parse_query(f"q2(X) :- {_LOCATED_PARENT}, t(Z, hasPainted, A)"),
            parse_query(f"q3(X, Z) :- {_LOCATED_PARENT}, t(Z, rdf:type, painter)"),
        )
        shared = plan_batch(disjuncts, sqlite_museum).shared
        assert [len(prefix.atoms) for prefix in shared] == [2, 3]
        assert shared[0].key in shared[1].shorter
        statements = []
        execute = sqlite_museum.backend.execute_sql_plan

        def spy(sql, params=()):
            statements.append(sql)
            return execute(sql, params)

        monkeypatch.setattr(sqlite_museum.backend, "execute_sql_plan", spy)
        _, branches = plan_union_pushdown(disjuncts, sqlite_museum)
        assert all(branch is _EMPTY_BRANCH for branch in branches)
        assert sum(sql.startswith("SELECT EXISTS") for sql in statements) == 1

    def test_pruned_branches_are_counted(self, sqlite_museum):
        """Building the route counts the branches it prunes; running it
        counts them as skipped and runs no branch statement."""
        from repro.obs import metrics

        disjuncts = _empty_prefix_union()
        _, dump = metrics.collect(evaluate_union, disjuncts, sqlite_museum)
        counters = dump["counters"]
        assert counters.get("mqo.route.pruned_empty") == 2
        assert counters.get("mqo.route.branch_pruned") == 2
        assert "mqo.route.per_branch" not in counters

    def test_describe_reports_pruned_branches(self, sqlite_museum):
        line = describe_union_sharing(_empty_prefix_union(), sqlite_museum)
        assert "2 branches pruned empty" in line


class TestDescribeUnionSharing:
    def test_interpreted_summary(self, museum_store):
        line = describe_union_sharing(
            [_chain(), _chain_renamed(), _chain()], museum_store
        )
        assert line == "3 disjuncts (2 distinct), one interpreted plan each"

    def test_pushdown_summary(self, sqlite_museum):
        line = describe_union_sharing(
            [_chain(), _chain_typed()], sqlite_museum
        )
        assert "pushdown union: 2 branch statements" in line
        assert "CTE" not in line
