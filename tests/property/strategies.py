"""Hypothesis strategies over small RDF universes.

The universes are deliberately tiny (a handful of entities, classes and
properties) so random queries join, random schemas entail, and shrunk
counterexamples stay readable.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.query.cq import Atom, ConjunctiveQuery, Variable
from repro.rdf.schema import RDFSchema
from repro.rdf.store import TripleStore
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.rdf.vocabulary import RDF_TYPE

NS = "http://u/"

ENTITIES = [URI(f"{NS}e{i}") for i in range(5)]
CLASSES = [URI(f"{NS}c{i}") for i in range(4)]
PROPERTIES = [URI(f"{NS}p{i}") for i in range(3)]
LITERALS = [Literal("alpha"), Literal("beta")]
VARIABLES = [Variable(f"V{i}") for i in range(5)]

entity = st.sampled_from(ENTITIES)
klass = st.sampled_from(CLASSES)
prop = st.sampled_from(PROPERTIES)
literal = st.sampled_from(LITERALS)
variable = st.sampled_from(VARIABLES)


@st.composite
def data_triples(draw, min_size=1, max_size=25):
    """A list of well-formed data triples over the small universe.

    Property assertions may have literal objects — entailment rule 4
    must skip them while reformulation rule 4 must not over-answer on
    them, which only shows up when literals are present.
    """
    size = draw(st.integers(min_size, max_size))
    triples = []
    for _ in range(size):
        choice = draw(st.integers(0, 3))
        if choice == 0:
            triples.append(Triple(draw(entity), RDF_TYPE, draw(klass)))
        elif choice == 1:
            triples.append(Triple(draw(entity), draw(prop), draw(literal)))
        else:
            triples.append(Triple(draw(entity), draw(prop), draw(entity)))
    return triples


@st.composite
def stores(draw, backend="memory", **kwargs):
    """A store populated with random data triples.

    ``backend`` selects the storage backend; the engine-parity tests
    run their matrix over every backend in ``repro.storage.BACKENDS``.
    """
    store = TripleStore(backend=backend)
    store.add_all(draw(data_triples(**kwargs)))
    return store


@st.composite
def schemas(draw, max_statements=6):
    """A random RDFS over the small universe (all four statement kinds)."""
    schema = RDFSchema()
    size = draw(st.integers(0, max_statements))
    for _ in range(size):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            schema.add_subclass(draw(klass), draw(klass))
        elif kind == 1:
            schema.add_subproperty(draw(prop), draw(prop))
        elif kind == 2:
            schema.add_domain(draw(prop), draw(klass))
        else:
            schema.add_range(draw(prop), draw(klass))
    return schema


@st.composite
def atoms(draw, allow_property_variable=True, allow_type=True):
    """One triple atom mixing variables and universe constants."""
    subject = draw(st.one_of(variable, entity))
    choices = [prop]
    if allow_property_variable:
        choices.append(variable)
    predicate = draw(st.one_of(*choices))
    if allow_type and draw(st.booleans()):
        predicate = RDF_TYPE
        obj = draw(st.one_of(variable, klass))
    else:
        obj = draw(st.one_of(variable, entity))
    return Atom(subject, predicate, obj)


@st.composite
def queries(draw, max_atoms=3, allow_property_variable=True):
    """A safe conjunctive query over the universe (possibly disconnected —
    callers that need connectivity should filter)."""
    size = draw(st.integers(1, max_atoms))
    body = tuple(
        draw(atoms(allow_property_variable=allow_property_variable))
        for _ in range(size)
    )
    query = ConjunctiveQuery((), body, name="q")
    body_vars = sorted(query.variables(), key=lambda v: v.name)
    if body_vars:
        head_size = draw(st.integers(1, len(body_vars)))
        head = tuple(body_vars[:head_size])
    else:
        head = ()
    return ConjunctiveQuery(head, body, name="q")


@st.composite
def connected_queries(draw, max_atoms=3, **kwargs):
    """Queries whose join graph is connected (the paper's assumption)."""
    query = draw(
        queries(max_atoms=max_atoms, **kwargs).filter(
            lambda q: q.is_connected()
        )
    )
    return query


@st.composite
def unions(draw, max_disjuncts=4, max_atoms=3):
    """A same-arity list of random queries; renamings of earlier
    disjuncts are mixed in so shared fingerprints actually occur."""
    first = draw(queries(max_atoms=max_atoms))
    disjuncts = [first]
    for _ in range(draw(st.integers(0, max_disjuncts - 1))):
        disjuncts.append(draw(
            queries(max_atoms=max_atoms).filter(
                lambda q: len(q.head) == len(first.head)
            )
        ))
    return disjuncts


@st.composite
def restricted_unions(draw, **kwargs):
    """:func:`unions` with a random rule-4 ``non_literal`` restriction
    on any subset of each disjunct's variables."""
    restricted = []
    for disjunct in draw(unions(**kwargs)):
        body_vars = sorted(disjunct.variables(), key=lambda v: v.name)
        picked = draw(
            st.sets(st.sampled_from(body_vars)) if body_vars else st.just(set())
        )
        restricted.append(disjunct.with_non_literal(picked))
    return restricted
