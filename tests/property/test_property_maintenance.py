"""Property-based check: incremental view maintenance always agrees with
re-materialization from scratch, with and without entailment."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.query.cq import Atom, ConjunctiveQuery
from repro.query.evaluation import evaluate, evaluate_nested_loop, evaluate_union
from repro.reformulation.reformulate import reformulate
from repro.rdf.store import TripleStore
from repro.rdf.vocabulary import RDF_TYPE
from repro.selection.maintenance import MaterializedViewSet
from repro.selection.state import initial_state
from repro.storage import BACKENDS

from tests.property import strategies as us

COMMON = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@COMMON
@given(
    initial=us.data_triples(max_size=12),
    updates=us.data_triples(min_size=1, max_size=8),
    removal_flags=st.lists(st.booleans(), min_size=8, max_size=8),
    query=us.connected_queries(max_atoms=2, allow_property_variable=False),
)
def test_maintenance_equals_rematerialization(
    initial, updates, removal_flags, query
):
    store = TripleStore()
    store.add_all(initial)
    state = initial_state([query.with_name("q")])
    maintained = MaterializedViewSet(state, store)
    for triple, remove in zip(updates, removal_flags):
        if remove:
            maintained.remove(triple)
        else:
            maintained.insert(triple)
    view = state.views[0]
    assert maintained.extent(view.name) == evaluate(view, store)
    assert maintained.answer("q") == evaluate(query, store)


@COMMON
@given(
    initial=us.data_triples(max_size=10),
    updates=us.data_triples(min_size=1, max_size=6),
    removal_flags=st.lists(st.booleans(), min_size=6, max_size=6),
    schema=us.schemas(max_statements=4),
    query=us.connected_queries(max_atoms=2, allow_property_variable=False),
)
def test_entailment_aware_maintenance(
    initial, updates, removal_flags, schema, query
):
    store = TripleStore()
    store.add_all(initial)
    state = initial_state([query.with_name("q")])
    maintained = MaterializedViewSet(state, store, schema=schema)
    for triple, remove in zip(updates, removal_flags):
        if remove:
            maintained.remove(triple)
        else:
            maintained.insert(triple)
    view = state.views[0]
    expected = evaluate_union(reformulate(view, schema), store)
    assert maintained.extent(view.name) == expected


# ----------------------------------------------------------------------
# What the indexed, prepared, factorised rules branch on
# ----------------------------------------------------------------------

@st.composite
def view_states(draw):
    """2–3 connected views of up to 4 atoms, property variables allowed;
    half the time one view gains an atom repeating a variable of its,
    and half the time one is a typed star — the shape whose rules share
    atoms: rules 1–4 rewrite the type atom and keep the rest."""
    views = [
        draw(us.connected_queries(max_atoms=4)).with_name(f"q{index}")
        for index in range(draw(st.integers(2, 3)))
    ]
    if draw(st.booleans()):
        x, y = us.VARIABLES[:2]
        body = [Atom(x, RDF_TYPE, draw(us.klass)), Atom(x, draw(us.prop), y)]
        if draw(st.booleans()):
            body.append(Atom(y, draw(us.prop), draw(st.one_of(us.variable, us.entity))))
        head = draw(st.sampled_from([(x,), (y,), (x, y)]))
        views[-1] = ConjunctiveQuery(head, tuple(body), name=views[-1].name)
    body_vars = sorted(views[0].variables(), key=lambda v: v.name)
    if body_vars and draw(st.booleans()):
        repeated = draw(st.sampled_from(body_vars))
        first = views[0]
        views[0] = ConjunctiveQuery(
            first.head,
            first.atoms + (Atom(repeated, draw(us.prop), repeated),),
            name=first.name,
        )
    return initial_state(views)


def assert_current(maintained, state, schema, store):
    for view in state.views:
        expected = set()
        for disjunct in reformulate(view, schema).disjuncts:
            expected |= evaluate_nested_loop(disjunct, store)
        assert maintained.extent(view.name) == expected, view


@pytest.mark.parametrize("backend", BACKENDS)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    initial=us.data_triples(min_size=0, max_size=10),
    updates=us.data_triples(min_size=1, max_size=8),
    removal_flags=st.lists(st.booleans(), min_size=8, max_size=8),
    schema=us.schemas(max_statements=6),
    state=view_states(),
)
def test_view_states_under_schemas_on_every_backend(
    backend, initial, updates, removal_flags, schema, state
):
    """Several views at once, maintained through reformulations whose
    rules 1–6 fire on the small universe (``rdf:type`` updates under
    subclass/domain/range statements, property variables in the
    ``None``-predicate bucket of the rule index), starting from stores
    small enough that view constants are unknown when a tree is first
    compiled and show up in a later update."""
    store = TripleStore(backend=backend)
    store.add_all(initial)
    maintained = MaterializedViewSet(state, store, schema=schema)
    for triple, remove in zip(updates, removal_flags):
        if remove:
            maintained.remove(triple)
        else:
            maintained.insert(triple)
        assert_current(maintained, state, schema, store)
    # Every triple removed, then put back: the same extents again.
    settled = {view.name: maintained.extent(view.name) for view in state.views}
    contents = sorted(store, key=lambda triple: triple.n3())
    for triple in contents:
        maintained.remove(triple)
    assert len(store) == 0
    assert all(not maintained.extent(view.name) for view in state.views)
    for triple in reversed(contents):
        maintained.insert(triple)
    assert {view.name: maintained.extent(view.name) for view in state.views} == settled
    assert_current(maintained, state, schema, store)
