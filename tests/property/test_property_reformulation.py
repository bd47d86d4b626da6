"""Property-based checks of the reformulation algorithm.

The central one is Theorem 4.2: for *any* database, schema, and query
over the small universe,

    evaluate(q, saturate(D, S)) == evaluate(Reformulate(q, S), D).
"""

from hypothesis import HealthCheck, given, settings

from repro.query.containment import is_isomorphic
from repro.query.evaluation import evaluate, evaluate_union
from repro.rdf.entailment import saturation_triples
from repro.rdf.store import TripleStore
from repro.reformulation.reformulate import reformulate, reformulation_bound

from tests.property import strategies as us

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@COMMON
@given(store=us.stores(), schema=us.schemas(), query=us.queries())
def test_theorem_42_equivalence(store, schema, query):
    """Reformulation on the plain store == query on the saturated store."""
    saturated = TripleStore()
    for triple in saturation_triples(iter(store), schema):
        saturated.add(triple)
    union = reformulate(query, schema)
    assert evaluate_union(union, store) == evaluate(query, saturated)


@COMMON
@given(schema=us.schemas(), query=us.queries())
def test_original_query_is_a_disjunct(schema, query):
    union = reformulate(query, schema)
    assert any(is_isomorphic(query, cq, match_heads=True) for cq in union)


@COMMON
@given(schema=us.schemas(), query=us.queries())
def test_theorem_41_bound(schema, query):
    union = reformulate(query, schema)
    assert len(union) <= reformulation_bound(schema, query)


@COMMON
@given(schema=us.schemas(), query=us.queries())
def test_all_disjuncts_share_arity(schema, query):
    union = reformulate(query, schema)
    assert union.arity == len(query.head)


@COMMON
@given(store=us.stores(), schema=us.schemas(), query=us.queries())
def test_reformulation_only_adds_answers(store, schema, query):
    """The union is a superset of the plain evaluation (q ∈ ucq)."""
    union = reformulate(query, schema)
    assert evaluate(query, store) <= evaluate_union(union, store)


@COMMON
@given(schema=us.schemas(), query=us.queries())
def test_reformulation_is_deterministic(schema, query):
    """Two reformulations of one query are *equal*, variable names
    included: every engine cache is keyed on disjuncts by value."""
    assert reformulate(query, schema) == reformulate(query, schema)
