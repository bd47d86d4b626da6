"""Answer-set parity of flat unions and query batches.

``evaluate`` on a union and the server's batch path must return
exactly what fully independent evaluation returns, on every configuration the route
can take: random unions of random conjunctive queries (overlapping,
isomorphic-but-renamed, and unrelated disjuncts alike), both storage
backends, pushdown on and off, and stores mutated between evaluations
(the cached per-disjunct statements must invalidate). The reference
is the naive oracle, disjunct by disjunct. The shared join-order
prefixes must be each query's longest one, and on SQLite every
distinct disjunct is one statement, one provably empty branch or one
interpreted plan.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import CompiledQuery, plan_batch, plan_union_pushdown
from repro.query.containment import canonical_form
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import evaluate, evaluate_nested_loop, evaluate_union
from repro.server.pool import _answer_batch

from tests.property.strategies import (
    data_triples,
    queries,
    restricted_unions,
    stores,
    unions,
)


def _reference(disjuncts, store):
    answers = set()
    for disjunct in disjuncts:
        answers |= evaluate_nested_loop(disjunct, store)
    return answers


def _per_disjunct(disjuncts, store):
    answers = set()
    for disjunct in disjuncts:
        answers |= evaluate(disjunct, store)
    return answers


def _same_arity(disjuncts):
    return len({len(q.head) for q in disjuncts}) == 1


@settings(max_examples=50, deadline=None)
@given(data=st.data(), backend=st.sampled_from(["memory", "sqlite"]))
def test_shared_union_matches_independent(data, backend):
    store = data.draw(stores(backend=backend), label="store")
    disjuncts = data.draw(unions(), label="union")
    try:
        expected = _reference(disjuncts, store)
        assert evaluate_union(disjuncts, store) == expected
        assert _per_disjunct(disjuncts, store) == expected
    finally:
        store.backend.close()


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    backend=st.sampled_from(["memory", "sqlite"]),
    pushdown=st.booleans(),
)
def test_shared_union_across_the_configuration_matrix(data, backend, pushdown):
    store = data.draw(stores(backend=backend), label="store")
    disjuncts = data.draw(unions(), label="union")
    try:
        assert evaluate_union(
            disjuncts, store, pushdown=pushdown
        ) == _reference(disjuncts, store)
    finally:
        store.backend.close()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), backend=st.sampled_from(["memory", "sqlite"]))
def test_query_batch_matches_individual_runs(data, backend):
    store = data.draw(stores(backend=backend), label="store")
    batch = data.draw(
        st.lists(queries(), min_size=1, max_size=4), label="batch"
    )
    texts = [f"text {index}" for index in range(len(batch))]
    try:
        expected = [("ok", evaluate(query, store)) for query in batch]
        # A primed parse cache hands the batch its queries as they are.
        assert _answer_batch(texts, store, dict(zip(texts, batch))) == expected
    finally:
        store.backend.close()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_shared_union_parity_survives_mutation(data):
    """Evaluate, mutate (adds and removes), evaluate again: cached
    union plans and shared DAGs of the first round must not leak."""
    store = data.draw(stores(backend="sqlite"), label="store")
    disjuncts = data.draw(unions(), label="union")
    try:
        assert evaluate_union(disjuncts, store) == _reference(disjuncts, store)
        stored = sorted(store, key=lambda t: (t.s.n3(), t.p.n3(), t.o.n3()))
        if stored:
            victims = data.draw(
                st.lists(st.sampled_from(stored), max_size=3, unique=True),
                label="removals",
            )
            for triple in victims:
                store.remove(triple)
        for triple in data.draw(
            data_triples(min_size=0, max_size=5), label="additions"
        ):
            store.add(triple)
        assert evaluate_union(disjuncts, store) == _reference(disjuncts, store)
    finally:
        store.backend.close()


@settings(max_examples=30, deadline=None)
@given(data=st.data(), backend=st.sampled_from(["memory", "sqlite"]))
def test_shared_union_with_non_literal_restrictions(data, backend):
    store = data.draw(stores(backend=backend), label="store")
    restricted = data.draw(restricted_unions(), label="union")
    try:
        expected = _reference(restricted, store)
        assert evaluate_union(restricted, store) == expected
        assert _per_disjunct(restricted, store) == expected
    finally:
        store.backend.close()


def _mutate(data, store):
    """A few removals of stored triples, then a few additions."""
    stored = sorted(store, key=lambda t: (t.s.n3(), t.p.n3(), t.o.n3()))
    if stored:
        for triple in data.draw(
            st.lists(st.sampled_from(stored), max_size=3, unique=True),
            label="removals",
        ):
            store.remove(triple)
    for triple in data.draw(data_triples(min_size=0, max_size=5), label="additions"):
        store.add(triple)


def _assert_one_route_per_branch(disjuncts, store):
    """Every branch that compiled to no statement (a constant the
    dictionary lacks) is empty, and every distinct disjunct is exactly
    one of: a statement run, a branch known empty, an interpreted plan."""
    branches = plan_union_pushdown(disjuncts, store)
    for disjunct, branch in branches:
        if getattr(branch, "sql", "") is None:
            assert evaluate_nested_loop(disjunct, store) == set()
    statements = []
    execute = store.backend.execute_sql_plan

    def spy(sql, params=()):
        statements.append(sql)
        return execute(sql, params)

    store.backend.execute_sql_plan = spy
    try:
        assert evaluate_union(disjuncts, store) == _reference(disjuncts, store)
    finally:
        del store.backend.execute_sql_plan
    empty = sum(getattr(branch, "sql", "") is None for _, branch in branches)
    interpreted = sum(
        not isinstance(branch, CompiledQuery) for _, branch in branches
    )
    assert len(statements) + empty + interpreted == len(branches)


def _with_sibling(disjuncts):
    """The union plus the first disjunct's body under another head of
    the same arity: the two share every join-order prefix, so every
    union has a shared prefix."""
    first = disjuncts[0]
    head = first.head[::-1]
    if head == first.head and len(head) == 1:
        others = sorted(first.variables() - set(head), key=lambda v: v.name)
        head = tuple(others[:1]) or head
    sibling = ConjunctiveQuery(
        head, first.atoms, name="sibling", non_literal=first.non_literal
    )
    return [*disjuncts, sibling]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_each_query_names_its_longest_shared_prefix(data):
    """The shared prefixes are exactly each distinct query's longest
    join-order prefix key that another distinct query also has, each
    recorded with the atoms and shorter keys of a query it belongs to."""
    store = data.draw(stores(), label="store")
    batch = plan_batch(
        _with_sibling(data.draw(restricted_unions(), label="union")), store
    )
    votes = Counter(key for keys in batch.keys for key in keys)
    longest = set()
    for keys in batch.keys:
        shared_keys = [key for key in keys if votes[key] >= 2]
        if shared_keys:
            longest.add(shared_keys[-1])
    assert {prefix.key for prefix in batch.shared} == longest
    lengths = [len(prefix.atoms) for prefix in batch.shared]
    assert lengths == sorted(lengths)
    for prefix in batch.shared:
        k = len(prefix.atoms)
        assert any(
            len(keys) >= k
            and keys[k - 1] == prefix.key
            and keys[: k - 1] == prefix.shorter
            for keys in batch.keys
        )
        headless = ConjunctiveQuery(
            (), prefix.atoms, name="prefix", non_literal=prefix.non_literal
        )
        assert canonical_form(headless, include_head=False) == prefix.key


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_flat_route_runs_one_statement_per_branch(data):
    store = data.draw(stores(backend="sqlite"), label="store")
    disjuncts = _with_sibling(data.draw(restricted_unions(), label="union"))
    try:
        _assert_one_route_per_branch(disjuncts, store)
        _mutate(data, store)
        _assert_one_route_per_branch(disjuncts, store)
    finally:
        store.backend.close()
