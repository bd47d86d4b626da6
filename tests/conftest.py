"""Shared fixtures: a hand-built museum micro-dataset (the paper's running
example), a seeded synthetic Barton-like catalog, and reference queries.
"""

from __future__ import annotations

import pytest

from repro.datagen import BartonConfig, generate_barton
from repro.query.parser import parse_query
from repro.rdf.schema import RDFSchema
from repro.rdf.store import TripleStore
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.rdf.vocabulary import RDF_TYPE

EX = "http://example.org/"


def ex(name: str) -> URI:
    """A URI in the example namespace."""
    return URI(EX + name)


def tree_answers(query, root, store) -> set:
    """``query``'s answers read off the operator tree ``root`` the way
    ``evaluate`` reads a tree branch, on any backend."""
    from repro.engine.planner import _tree_images, decode_images

    return decode_images(_tree_images(query.head, root, store), store)


def interpreted_answers(query, store) -> set:
    """``query``'s answers from its operator tree (``plan_query``) on
    any backend: the interpreted route, which a SQLite store's plan
    replaces by a statement and ``--analyze`` runs beside it."""
    from repro.engine import plan_query

    return tree_answers(query, plan_query(query, store), store)


@pytest.fixture(scope="session")
def museum_store() -> TripleStore:
    """The paper's museum running example: painters, paintings, families."""
    store = TripleStore()
    facts = [
        # van Gogh painted Starry Night; his child Vincent Willem
        # "painted" a sketch (fictional, for join coverage).
        (ex("vanGogh"), ex("hasPainted"), ex("starryNight")),
        (ex("vanGogh"), ex("hasPainted"), ex("sunflowers")),
        (ex("vanGogh"), ex("isParentOf"), ex("vincentW")),
        (ex("vincentW"), ex("hasPainted"), ex("sketch1")),
        # Bruegel the Elder and the Younger, both painters.
        (ex("bruegelSr"), ex("hasPainted"), ex("babel")),
        (ex("bruegelSr"), ex("isParentOf"), ex("bruegelJr")),
        (ex("bruegelJr"), ex("hasPainted"), ex("birdTrap")),
        (ex("bruegelJr"), ex("hasPainted"), ex("flowers")),
        # Types and locations.
        (ex("starryNight"), RDF_TYPE, ex("painting")),
        (ex("babel"), RDF_TYPE, ex("painting")),
        (ex("birdTrap"), RDF_TYPE, ex("painting")),
        (ex("sketch1"), RDF_TYPE, ex("sketch")),
        (ex("starryNight"), ex("isLocatedIn"), ex("moma")),
        (ex("babel"), ex("isLocatedIn"), ex("vienna")),
        (ex("birdTrap"), ex("isExposedIn"), ex("brussels")),
        (ex("vanGogh"), RDF_TYPE, ex("painter")),
        (ex("bruegelSr"), RDF_TYPE, ex("painter")),
        (ex("bruegelJr"), RDF_TYPE, ex("painter")),
    ]
    for s, p, o in facts:
        store.add(Triple(s, p, o))
    store.add(Triple(ex("starryNight"), ex("title"), Literal("The Starry Night")))
    return store


@pytest.fixture(scope="session")
def museum_schema() -> RDFSchema:
    """The Section 4.3 example schema: painting ⊑ picture,
    isExposedIn ⊑ isLocatedIn — plus a sketch ⊑ picture branch."""
    schema = RDFSchema()
    schema.add_subclass(ex("painting"), ex("picture"))
    schema.add_subclass(ex("sketch"), ex("picture"))
    schema.add_subclass(ex("picture"), ex("work"))
    schema.add_subproperty(ex("isExposedIn"), ex("isLocatedIn"))
    schema.add_domain(ex("hasPainted"), ex("painter"))
    schema.add_range(ex("hasPainted"), ex("painting"))
    return schema


@pytest.fixture(scope="session")
def q_painters():
    """The paper's running example query q1."""
    return parse_query(
        "q1(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), "
        "t(Y, hasPainted, Z)"
    )


@pytest.fixture(scope="session")
def q_pictures():
    """The Section 3.3 statistics example query."""
    return parse_query(
        "q(X1, X2) :- t(X1, rdf:type, picture), t(X1, isLocatedIn, X2)"
    )


@pytest.fixture(scope="session")
def barton():
    """A small seeded synthetic Barton catalog: (store, schema)."""
    return generate_barton(BartonConfig(num_triples=6_000, num_entities=1_200, seed=7))


@pytest.fixture(scope="session")
def barton_store(barton):
    return barton[0]


@pytest.fixture(scope="session")
def barton_schema(barton):
    return barton[1]
