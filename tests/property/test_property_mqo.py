"""Answer-set parity of the multi-query optimizer's shared execution.

``evaluate_union(shared=True)`` and ``run_query_batch(shared=True)``
must return exactly what fully independent evaluation returns, on every
configuration the route can take: random unions of random conjunctive
queries (overlapping, isomorphic-but-renamed, and unrelated disjuncts
alike), both storage backends, pushdown on and off, and stores mutated
between evaluations (the union-level prepared-plan cache must
invalidate). The reference is the naive oracle, disjunct by disjunct.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import run_query, run_query_batch
from repro.query.evaluation import evaluate_nested_loop, evaluate_union

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
        assert evaluate_union(disjuncts, store, shared=False) == expected
    finally:
        store.backend.close()


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    backend=st.sampled_from(["memory", "sqlite"]),
    pushdown=st.booleans(),
    shared=st.booleans(),
)
def test_shared_union_across_the_configuration_matrix(
    data, backend, pushdown, shared
):
    store = data.draw(stores(backend=backend), label="store")
    disjuncts = data.draw(unions(), label="union")
    try:
        assert evaluate_union(
            disjuncts, store, pushdown=pushdown, shared=shared
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
    try:
        expected = [run_query(query, store) for query in batch]
        assert run_query_batch(batch, store) == expected
        assert run_query_batch(batch, store, shared=False) == expected
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
        assert evaluate_union(restricted, store, shared=False) == expected
    finally:
        store.backend.close()
