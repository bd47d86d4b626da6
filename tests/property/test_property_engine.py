"""Answer-set parity of every execution route (the engine's safety net).

The unindexed full-scan evaluator (`evaluate_nested_loop`, the oracle:
it shares no index, plan or batch code with the engine) and both routes
of the engine — the default one, which is whole-plan SQL pushdown on a
SQL-capable backend, and the interpreted operator tree run on the same
store — must agree on the answer set of any conjunctive
query, including self-join atoms like ``t(X, p, X)``, Cartesian
products, and the rule-4 ``non_literal`` restriction.

The whole matrix runs once per storage backend (``repro.storage``): the
backend swap must be invisible to every evaluator, so a memory-backed
and a SQLite-backed store loaded with the same triples answer every
query identically.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.cq import Atom, ConjunctiveQuery, Variable
from repro.query.evaluation import evaluate, evaluate_nested_loop
from repro.rdf.store import TripleStore
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.storage import BACKENDS

from tests.conftest import interpreted_answers
from tests.property.strategies import queries, stores

X = Variable("X")

backends = pytest.mark.parametrize("backend", BACKENDS)


#: The engine's two routes: the plan ``evaluate`` runs, and the
#: operator tree on any backend.
ROUTES = (evaluate, interpreted_answers)


@backends
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_route_matches_the_oracle(backend, data):
    store = data.draw(stores(backend=backend), label="store")
    query = data.draw(queries(), label="query")
    expected = evaluate_nested_loop(query, store)
    for route in ROUTES:
        assert route(query, store) == expected, route.__name__


@backends
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_non_literal_restriction_parity(backend, data):
    store = data.draw(stores(backend=backend), label="store")
    query = data.draw(queries(), label="query")
    body_vars = sorted(query.variables(), key=lambda v: v.name)
    if body_vars:
        restricted = data.draw(
            st.sets(st.sampled_from(body_vars)), label="non_literal"
        )
        query = query.with_non_literal(restricted)
    expected = evaluate_nested_loop(query, store)
    for route in ROUTES:
        assert route(query, store) == expected, route.__name__


@backends
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_self_join_atom_parity(backend, data):
    # t(X, p, X) forces the intra-atom equality filter on every route.
    store = data.draw(stores(backend=backend), label="store")
    prop = URI("http://u/p0")
    store.add(Triple(URI("http://u/e0"), prop, URI("http://u/e0")))
    query = ConjunctiveQuery((X,), (Atom(X, prop, X),))
    expected = evaluate_nested_loop(query, store)
    assert (URI("http://u/e0"),) in expected
    for route in ROUTES:
        assert route(query, store) == expected, route.__name__


@backends
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cross_backend_answer_parity(backend, data):
    """A cross-backend copy answers every query exactly like the source.

    In particular ``copy(backend="memory")`` of a SQLite-backed store
    yields an equivalent memory-backed store (and vice versa).
    """
    store = data.draw(stores(backend=backend), label="store")
    query = data.draw(queries(), label="query")
    expected = evaluate(query, store)
    for target in BACKENDS:
        clone = store.copy(backend=target)
        assert set(clone) == set(store)
        assert evaluate(query, clone) == expected, target


@backends
def test_non_literal_never_binds_literals_deterministic(backend):
    store = TripleStore(backend=backend)
    prop = URI("http://u/p")
    store.add(Triple(URI("http://u/s"), prop, Literal("text")))
    store.add(Triple(URI("http://u/s"), prop, URI("http://u/o")))
    query = ConjunctiveQuery((X,), (Atom(URI("http://u/s"), prop, X),))
    restricted = query.with_non_literal([X])
    for route in ROUTES:
        assert route(query, store) == {
            (Literal("text"),),
            (URI("http://u/o"),),
        }
        assert route(restricted, store) == {(URI("http://u/o"),)}
