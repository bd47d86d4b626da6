"""Answer-set parity of the whole-plan SQL pushdown route.

``evaluate`` on a SQLite-backed store runs eligible queries as one
pushed-down SQL statement; these properties pin it to the interpreted
operator tree and the naive oracle across the matrix the route must
survive: random conjunctive queries (self-joins, Cartesian products,
constants the data never mentions), the rule-4 ``non_literal``
restriction, and fresh stores versus stores mutated after the first
evaluation (the prepared-SQL cache must invalidate). The statement
joins in the estimator's
order (``CROSS JOIN``), so the shapes that order matters most for — an
unbound predicate, a Cartesian product — are pinned explicitly on top
of the random ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import plan_pushdown
from repro.query.evaluation import evaluate, evaluate_nested_loop

from tests.conftest import interpreted_answers
from tests.property.strategies import data_triples, queries, stores


@pytest.fixture
def fig8_workload():
    from repro.query.parser import parse_queries

    return parse_queries(
        """
        q1(X, Z) :- t(X, <http://u/p0>, Y), t(Y, <http://u/p1>, Z)
        q2(X) :- t(X, rdf:type, <http://u/c0>), t(X, <http://u/p0>, Y)
        q3(X, Y) :- t(X, <http://u/p0>, Y)
        """
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pushdown_matches_oracle_and_interpreted(data):
    store = data.draw(stores(backend="sqlite"), label="store")
    query = data.draw(queries(), label="query")
    try:
        expected = evaluate_nested_loop(query, store)
        # on sqlite = pushdown whenever the shape is eligible ...
        assert evaluate(query, store) == expected
        # ... and the interpreted operator tree agrees.
        assert interpreted_answers(query, store) == expected
    finally:
        store.backend.close()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pushdown_parity_with_non_literal_restriction(data):
    store = data.draw(stores(backend="sqlite"), label="store")
    query = data.draw(queries(), label="query")
    try:
        body_vars = sorted(query.variables(), key=lambda v: v.name)
        if body_vars:
            restricted = data.draw(
                st.sets(st.sampled_from(body_vars)), label="non_literal"
            )
            query = query.with_non_literal(restricted)
        assert evaluate(query, store) == evaluate_nested_loop(query, store)
    finally:
        store.backend.close()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_pushdown_parity_survives_mutation(data):
    """Evaluate, mutate (adds and removes), evaluate again: the cached
    SQL plans of the first round must not leak into the second."""
    store = data.draw(stores(backend="sqlite"), label="store")
    query = data.draw(queries(), label="query")
    try:
        assert evaluate(query, store) == evaluate_nested_loop(query, store)
        stored = sorted(store, key=lambda t: (t.s.n3(), t.p.n3(), t.o.n3()))
        if stored:
            victims = data.draw(
                st.lists(st.sampled_from(stored), max_size=3, unique=True),
                label="removals",
            )
            for triple in victims:
                store.remove(triple)
        for triple in data.draw(data_triples(min_size=0, max_size=5),
                                label="additions"):
            store.add(triple)
        assert evaluate(query, store) == evaluate_nested_loop(query, store)
    finally:
        store.backend.close()


#: Shapes the random generator reaches only now and then, where a fixed
#: join order could go wrong: atoms with an unbound predicate (no
#: constant to start from), and disconnected bodies (every step after
#: the first component is a Cartesian product).
_ORDER_SENSITIVE_SHAPES = """
    unbound(X, P, C) :- t(X, P, Y), t(X, rdf:type, C)
    unbound_chain(X, Z) :- t(X, P, Y), t(Y, Q, Z), t(Z, rdf:type, <http://u/c0>)
    cartesian(X, A) :- t(X, <http://u/p0>, Y), t(A, rdf:type, B)
    cartesian_unbound(P, Q) :- t(<http://u/e0>, P, X), t(Y, Q, <http://u/e1>)
"""


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pushdown_parity_on_order_sensitive_shapes(data):
    from repro.query.parser import parse_queries

    store = data.draw(stores(backend="sqlite"), label="store")
    try:
        for query in parse_queries(_ORDER_SENSITIVE_SHAPES):
            assert plan_pushdown(query, store) is not None
            expected = evaluate_nested_loop(query, store)
            assert evaluate(query, store) == expected, query.name
            assert interpreted_answers(query, store) == expected, query.name
    finally:
        store.backend.close()


def test_fig8_shapes_take_the_pushdown_route(fig8_workload):
    """The benchmark workload shapes all compile; parity on a populated
    store, fresh and after removals."""
    from hypothesis import find

    store = find(stores(backend="sqlite", min_size=20, max_size=25),
                 lambda s: len(s) >= 20)
    try:
        for query in fig8_workload:
            assert plan_pushdown(query, store) is not None
            assert evaluate(query, store) == evaluate_nested_loop(query, store)
        for triple in list(store)[:5]:
            store.remove(triple)
        for query in fig8_workload:
            assert evaluate(query, store) == evaluate_nested_loop(query, store)
    finally:
        store.backend.close()
