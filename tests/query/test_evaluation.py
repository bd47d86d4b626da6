"""Unit tests for conjunctive-query evaluation over the store."""

from repro.query.cq import Atom, ConjunctiveQuery, UnionQuery, Variable
from repro.engine import count_union
from repro.query.evaluation import evaluate, evaluate_union
from repro.query.parser import parse_query
from repro.rdf.store import TripleStore
from repro.rdf.triples import Triple

from tests.conftest import ex

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


class TestSingleAtom:
    def test_all_variables_scans_everything(self, museum_store):
        query = ConjunctiveQuery((X, Y, Z), (Atom(X, Y, Z),))
        assert len(evaluate(query, museum_store)) == len(museum_store)

    def test_bound_property(self, museum_store):
        query = parse_query("q(X, Y) :- t(X, hasPainted, Y)")
        answers = evaluate(query, museum_store)
        assert (ex("vanGogh"), ex("starryNight")) in answers
        assert len(answers) == 6

    def test_fully_bound_pattern(self, museum_store):
        query = parse_query("q(X) :- t(X, hasPainted, starryNight)")
        assert evaluate(query, museum_store) == {(ex("vanGogh"),)}

    def test_unknown_constant_yields_empty(self, museum_store):
        query = parse_query("q(X) :- t(X, neverSeenProperty, Y)")
        assert evaluate(query, museum_store) == set()


class TestJoins:
    def test_running_example(self, museum_store, q_painters):
        answers = evaluate(q_painters, museum_store)
        assert answers == {(ex("vanGogh"), ex("sketch1"))}

    def test_two_hop_chain(self, museum_store):
        query = parse_query(
            "q(X, W) :- t(X, isParentOf, Y), t(Y, hasPainted, Z), "
            "t(Z, rdf:type, W)"
        )
        answers = evaluate(query, museum_store)
        assert (ex("vanGogh"), ex("sketch")) in answers
        assert (ex("bruegelSr"), ex("painting")) in answers

    def test_star_join(self, museum_store):
        query = parse_query(
            "q(X) :- t(X, hasPainted, Y), t(X, isParentOf, Z), "
            "t(X, rdf:type, painter)"
        )
        answers = evaluate(query, museum_store)
        assert answers == {(ex("vanGogh"),), (ex("bruegelSr"),)}

    def test_repeated_variable_in_atom(self):
        store = TripleStore()
        store.add(Triple(ex("a"), ex("p"), ex("a")))  # self loop
        store.add(Triple(ex("a"), ex("p"), ex("b")))
        query = ConjunctiveQuery((X,), (Atom(X, ex("p"), X),))
        assert evaluate(query, store) == {(ex("a"),)}

    def test_existential_projection(self, museum_store):
        query = parse_query("q(X) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)")
        answers = evaluate(query, museum_store)
        assert answers == {(ex("vanGogh"),), (ex("bruegelSr"),)}

    def test_empty_join(self, museum_store):
        query = parse_query("q(X) :- t(X, isParentOf, Y), t(Y, isParentOf, Z)")
        assert evaluate(query, museum_store) == set()


class TestHeadShapes:
    def test_constant_in_head(self, museum_store):
        query = ConjunctiveQuery(
            (X, ex("marker")), (Atom(X, ex("hasPainted"), ex("starryNight")),)
        )
        assert evaluate(query, museum_store) == {(ex("vanGogh"), ex("marker"))}

    def test_empty_head_boolean_semantics(self, museum_store):
        query = ConjunctiveQuery((), (Atom(X, ex("hasPainted"), ex("starryNight")),))
        assert evaluate(query, museum_store) == {()}
        empty = ConjunctiveQuery((), (Atom(X, ex("hasPainted"), ex("nothing")),))
        assert evaluate(empty, museum_store) == set()

    def test_duplicate_head_variable(self, museum_store):
        query = ConjunctiveQuery((X, X), (Atom(X, ex("hasPainted"), ex("starryNight")),))
        assert evaluate(query, museum_store) == {(ex("vanGogh"), ex("vanGogh"))}


class TestUnion:
    def test_union_dedups(self, museum_store):
        q1 = parse_query("q(X) :- t(X, hasPainted, Y)")
        q2 = parse_query("q(X) :- t(X, rdf:type, painter)")
        union = UnionQuery((q1, q2))
        answers = evaluate_union(union, museum_store)
        direct = evaluate(q1, museum_store) | evaluate(q2, museum_store)
        assert answers == direct

    def test_union_accepts_plain_iterable(self, museum_store):
        q1 = parse_query("q(X) :- t(X, hasPainted, Y)")
        assert evaluate_union([q1], museum_store) == evaluate(q1, museum_store)


def test_count_union_counts_a_query(museum_store):
    """A conjunctive query is a one-disjunct question: ``count_union``
    counts its answers without decoding them."""
    query = parse_query("q(X, Y) :- t(X, hasPainted, Y)")
    assert count_union(query, museum_store) == 6 == len(evaluate(query, museum_store))
