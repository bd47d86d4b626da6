"""The post-reformulation count kernel against three oracles.

``ReformulationAwareStatistics.atom_count`` counts a reformulated
one-atom union without answering it (``repro.engine.count_union``: the
distinct rows of one union scan, index buckets folded into sets of
codes, nothing decoded — or, on SQLite, one statement when the pattern
has a single alternative). On random stores (literal objects included) × random
RDF Schemas (sub-class and sub-property chains, domains *and* ranges so
the rule-4 ``non_literal`` restriction bites, classes and properties the
data never mentions) × all eight constant patterns, on both backends,
the count must equal

* the size of the evaluated union — the answers the kernel never builds;
* the pattern's exact count on the saturated store (Theorem 4.2).

``count_union`` itself is held to ``len(evaluate_union(...))`` on
arbitrary unions too: several atoms, constant heads, restrictions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import count_union
from repro.query.cq import Atom, ConjunctiveQuery, Variable
from repro.query.evaluation import evaluate_union
from repro.rdf.entailment import saturate
from repro.rdf.vocabulary import RDF_TYPE
from repro.reformulation.reformulate import reformulate
from repro.selection.statistics import (
    ReformulationAwareStatistics,
    StoreStatistics,
)

from tests.property.strategies import (
    entity,
    klass,
    literal,
    prop,
    queries,
    restricted_unions,
    schemas,
    stores,
)

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")

BACKENDS = st.sampled_from(["memory", "sqlite"])


@st.composite
def pattern_atoms(draw):
    """One atom per constant pattern: each position open or constant."""
    subject = draw(entity)
    predicate = draw(st.one_of(prop, st.just(RDF_TYPE)))
    obj = draw(st.one_of(entity, klass, literal))
    return [
        Atom(
            subject if mask & 1 else X,
            predicate if mask & 2 else Y,
            obj if mask & 4 else Z,
        )
        for mask in range(8)
    ]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), backend=BACKENDS)
def test_count_equals_evaluated_union_and_saturated_store(data, backend):
    store = data.draw(stores(backend=backend), label="store")
    schema = data.draw(schemas(), label="schema")
    try:
        aware = ReformulationAwareStatistics(store, schema)
        saturated = StoreStatistics(saturate(store, schema))
        for atom in data.draw(pattern_atoms(), label="atoms"):
            head = tuple(t for t in atom if isinstance(t, Variable))
            union = reformulate(ConjunctiveQuery(head, (atom,)), schema)
            count = aware.atom_count(atom)
            assert count == len(evaluate_union(union, store)), atom
            assert count == saturated.atom_count(atom), atom
    finally:
        store.backend.close()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), backend=BACKENDS)
def test_count_union_matches_evaluated_reformulation(data, backend):
    """Reformulating a multi-atom query binds head variables to
    constants: the count meets the general union routes (factorised,
    per-branch statements)."""
    store = data.draw(stores(backend=backend), label="store")
    schema = data.draw(schemas(), label="schema")
    union = reformulate(data.draw(queries(max_atoms=2), label="query"), schema)
    try:
        assert count_union(union, store) == len(evaluate_union(union, store))
    finally:
        store.backend.close()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), backend=BACKENDS)
def test_count_union_matches_evaluated_random_union(data, backend):
    """Unrelated disjuncts and restrictions on any variable."""
    store = data.draw(stores(backend=backend), label="store")
    disjuncts = data.draw(restricted_unions(), label="union")
    try:
        assert count_union(disjuncts, store) == len(
            evaluate_union(disjuncts, store)
        )
    finally:
        store.backend.close()
