"""``UnionScan`` partitions against its rows and the flat union.

A :class:`~repro.engine.operators.UnionScan` keeps its output per head
template (an alternative's head with its constants in place and
``None`` at each column), and ``decode_images`` decodes those
partitions as they are. On random one-atom unions — ``restricted_unions``
re-headed with constants the data may never mention, repeated head
variables and boolean heads — decoding the partitions must equal
decoding ``distinct()``, which must equal the flat union's answers, on
memory and on SQLite. A one-atom reformulation (the ``rdf:type`` scan)
answers through the partitions and never builds ``distinct()``.

Alternatives share a read when they match one index pattern with the
same repeated-variable equalities — a property's domain and range
alternatives under ``rdf:type`` read one bucket, each with its own
rule-4 filter. Sharing must not change an answer: the decoded
partitions equal the union of every alternative evaluated alone by the
nested-loop oracle. On the benchmark's smoke-scale Barton catalog the
type scan makes exactly one read per distinct (pattern, equalities).
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datagen import BartonConfig, generate_barton
from repro.engine.operators import UnionScan, fill_template, template_columns
from repro.engine.planner import decode_images
from repro.query.cq import Atom, ConjunctiveQuery, Variable
from repro.query.evaluation import evaluate, evaluate_nested_loop, evaluate_union
from repro.rdf.terms import URI
from repro.rdf.vocabulary import RDF_TYPE
from repro.reformulation.reformulate import reformulate

from tests.property import strategies as us

#: A head constant no generated triple mentions.
ABSENT = URI(f"{us.NS}absent")

constants = st.sampled_from(us.ENTITIES + us.CLASSES + us.LITERALS + [ABSENT])


def _per_disjunct(disjuncts, store, evaluator):
    """The union's answers, one disjunct at a time."""
    answers = set()
    for disjunct in disjuncts:
        answers |= evaluator(disjunct, store)
    return answers


@st.composite
def one_atom_unions(draw):
    """``restricted_unions`` of one-atom disjuncts, each re-headed to a
    common width (0 is a boolean head): every head position is one of
    the disjunct's variables (repeats allowed) or a constant."""
    disjuncts = draw(us.restricted_unions(max_atoms=1))
    width = draw(st.integers(0, 3))
    out = []
    for disjunct in disjuncts:
        body_vars = sorted(disjunct.variables(), key=lambda v: v.name)
        position = (
            st.one_of(st.sampled_from(body_vars), constants)
            if body_vars else constants
        )
        head = tuple(draw(position) for _ in range(width))
        out.append(ConjunctiveQuery(
            head, disjunct.atoms, name="q", non_literal=disjunct.non_literal
        ))
    return out


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    data=st.data(),
    store=st.sampled_from(["memory", "sqlite"]).flatmap(
        lambda backend: us.stores(backend=backend, max_size=20)
    ),
)
def test_partitions_decode_to_the_flat_union(data, store):
    alternatives = data.draw(one_atom_unions(), label="alternatives")
    try:
        width = len(alternatives[0].head)
        scan = UnionScan(store, tuple(f"c{j}" for j in range(width)), alternatives)
        partitions = scan.partitions()
        rows = scan.distinct()
        for template, values in partitions.items():
            assert len(template) == width and values
            if template.count(None) == 1:
                # One column: bare values, no tuple per row.
                assert not any(type(value) is tuple for value in values)
        assert rows == {
            row
            for template, values in partitions.items()
            for row in fill_template(template, template_columns(template, values))
        }
        answers = decode_images(partitions, store)
        assert answers == decode_images(rows, store)
        assert answers == evaluate_union(alternatives, store)
        assert answers == _per_disjunct(alternatives, store, evaluate_nested_loop)
    finally:
        store.backend.close()


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_type_scan_answers_through_partitions(
    museum_store, museum_schema, backend, monkeypatch
):
    """``evaluate_union`` of a reformulated ``t(X, rdf:type, Y)`` reads
    its scan's partitions once and never calls ``distinct()``."""
    store = museum_store.copy(backend=backend)
    X, Y = Variable("X"), Variable("Y")
    union = reformulate(
        ConjunctiveQuery((X, Y), (Atom(X, RDF_TYPE, Y),), name="q"), museum_schema
    )
    expected = _per_disjunct(union.disjuncts, store, evaluate_nested_loop)
    calls = []
    partitions = UnionScan.partitions

    def counting(self):
        calls.append(self)
        return partitions(self)

    def refuse(self):
        raise AssertionError("the one-atom union built its rows")

    monkeypatch.setattr(UnionScan, "partitions", counting)
    monkeypatch.setattr(UnionScan, "distinct", refuse)
    try:
        assert len(union.source.atoms) == 1
        assert evaluate_union(union, store) == expected
        assert len(calls) == 1 and expected
    finally:
        store.backend.close()


X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


@st.composite
def shared_read_unions(draw):
    """The alternatives of a reformulated one-atom query, over a random
    schema in which one property has both a domain and a range (so the
    ``rdf:type`` atoms' domain and range alternatives read one bucket),
    or over an atom with a repeated variable."""
    schema = draw(us.schemas(max_statements=4))
    prop = draw(us.prop)
    schema.add_domain(prop, draw(us.klass))
    schema.add_range(prop, draw(us.klass))
    atom = draw(st.sampled_from([
        Atom(X, RDF_TYPE, Y),
        Atom(X, RDF_TYPE, draw(us.klass)),
        Atom(X, prop, X),
        Atom(X, Y, X),
        Atom(X, X, Y),
        Atom(X, Y, Y),
        Atom(X, X, X),
    ]))
    variables = list(dict.fromkeys(t for t in atom if isinstance(t, Variable)))
    head = tuple(draw(st.lists(st.sampled_from(variables), max_size=3)))
    query = ConjunctiveQuery(head, (atom,), name="q")
    return reformulate(query, schema).disjuncts


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    data=st.data(),
    store=st.sampled_from(["memory", "sqlite"]).flatmap(
        lambda backend: us.stores(backend=backend, max_size=25)
    ),
)
def test_shared_reads_answer_each_alternative_alone(data, store):
    alternatives = data.draw(shared_read_unions(), label="alternatives")
    try:
        width = len(alternatives[0].head)
        scan = UnionScan(store, tuple(f"c{j}" for j in range(width)), alternatives)
        expected = set()
        for alternative in alternatives:
            expected |= evaluate_nested_loop(alternative, store)
        assert decode_images(scan.partitions(), store) == expected
        assert decode_images(scan.distinct(), store) == expected
    finally:
        store.backend.close()


def _read_key(atom: Atom, store) -> tuple | None:
    """An atom's (encoded pattern, repeated-variable equalities), or
    None when a constant of it is absent from the data."""
    pattern, eqs, first = [], [], {}
    for position, term in enumerate(atom):
        if isinstance(term, Variable):
            pattern.append(None)
            if term in first:
                eqs.append((first[term], position))
            else:
                first[term] = position
        else:
            code = store.encode_term(term)
            if code is None:
                return None
            pattern.append(code)
    return tuple(pattern), tuple(eqs)


@pytest.fixture(scope="module")
def smoke_barton():
    """The benchmark's smoke-scale catalog (12 000 triples)."""
    return generate_barton(
        BartonConfig(num_triples=12_000, num_entities=2_000, seed=3)
    )


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_type_scan_reads_each_pattern_once(smoke_barton, backend, monkeypatch):
    """The reformulated ``t(X0, rdf:type, X1)`` calls ``match_columns``
    exactly once per distinct (pattern, equalities) among its
    alternatives — a property with a domain and a range is read once,
    not once per restriction — and EXPLAIN counts those reads."""
    plain, schema = smoke_barton
    store = plain if backend == "memory" else plain.copy(backend=backend)
    X0, X1 = Variable("X0"), Variable("X1")
    union = reformulate(
        ConjunctiveQuery((X0, X1), (Atom(X0, RDF_TYPE, X1),), name="q"), schema
    )
    reads = {
        key
        for alternative in union.disjuncts
        for key in (_read_key(alternative.atoms[0], store),)
        if key is not None
    }
    expected = _per_disjunct(union.disjuncts, store, evaluate)
    calls = []
    fetch = store.match_encoded_columns

    def counting(pattern, *args, **kwargs):
        calls.append(pattern)
        return fetch(pattern, *args, **kwargs)

    monkeypatch.setattr(store, "match_encoded_columns", counting)
    try:
        assert evaluate_union(union, store) == expected
        assert Counter(calls) == Counter(pattern for pattern, _ in reads)
        scan = UnionScan(store, ("X0", "X1"), union.disjuncts, union.source.atoms[0])
        assert f"{len(union.disjuncts)} alternatives, {len(reads)} reads)" in (
            scan.explain()
        )
    finally:
        if store is not plain:
            store.backend.close()
