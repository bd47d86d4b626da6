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
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.operators import UnionScan, fill_template, template_columns
from repro.engine.planner import decode_images
from repro.query.cq import Atom, ConjunctiveQuery, Variable
from repro.query.evaluation import evaluate_union
from repro.rdf.terms import URI
from repro.rdf.vocabulary import RDF_TYPE
from repro.reformulation.reformulate import reformulate

from tests.property import strategies as us

#: A head constant no generated triple mentions.
ABSENT = URI(f"{us.NS}absent")

constants = st.sampled_from(us.ENTITIES + us.CLASSES + us.LITERALS + [ABSENT])


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
        assert answers == evaluate_union(alternatives, store, shared=False)
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
    expected = evaluate_union(union, store, shared=False)
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
