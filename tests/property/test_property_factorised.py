"""The factorised route against the flat union and the saturated store.

``evaluate_union(reformulate(q, S), store)`` on its factorised route
never builds the flat union: each atom of ``q`` is reformulated alone
and the per-atom unions are joined once. The factorised tree runs here
on both backends, whatever route the union's plan takes. On random stores × schemas ×
queries it must answer exactly what the flat union answers disjunct by
disjunct (an ``evaluate`` loop) and what ``q`` answers on the saturated
store (Theorem 4.2, by the unindexed :func:`evaluate_nested_loop`) —
and so must the default route, which on SQLite is factorised or flat
by the union's shape.

The queries go beyond :mod:`tests.property.strategies`' on purpose:
variables in property and class positions shared across atoms,
repeated variables, literal subjects (rule 4 must skip them), source
``non_literal`` restrictions, boolean and constant heads, and constants
— in the body, the head and the schema — that the data never mentions.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import count_union
from repro.engine.planner import _factorised_tree
from repro.query.cq import Atom, ConjunctiveQuery
from repro.query.evaluation import evaluate_nested_loop, evaluate_union
from repro.rdf.entailment import saturate
from repro.rdf.schema import RDFSchema
from repro.rdf.store import TripleStore
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.rdf.vocabulary import RDF_TYPE
from repro.reformulation.reformulate import factorise, reformulate

from tests.conftest import interpreted_answers, tree_answers
from tests.property import strategies as us

ABSENT_ENTITY = URI(f"{us.NS}absent")
ABSENT_CLASS = URI(f"{us.NS}cAbsent")
ABSENT_PROPERTY = URI(f"{us.NS}pAbsent")

COMMON = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BACKENDS = st.sampled_from(["memory", "sqlite"])
classes = st.sampled_from(us.CLASSES + [ABSENT_CLASS])
properties = st.sampled_from(us.PROPERTIES + [ABSENT_PROPERTY])


@st.composite
def queries(draw, triples, max_atoms=3):
    """A safe query grounded in the data, so it mostly has answers.

    The body is a connected walk over data triples whose terms are
    replaced by variables — one variable per term, so a shared term
    becomes a join (on a class or a property as well) and a triple
    with equal subject and object a repeated variable. Now and then an
    atom leaves the data: a literal or absent subject, another class,
    an absent property. The head mixes variables and constants
    (possibly empty, possibly repeating); ``non_literal`` is random.
    """
    walk = [draw(st.sampled_from(triples))]
    for _ in range(draw(st.integers(0, max_atoms - 1))):
        seen = {term for triple in walk for term in triple}
        walk.append(draw(st.sampled_from(
            [triple for triple in triples if seen & set(triple)]
        )))
    names: dict = {}
    body = []
    for s, p, o in walk:
        if draw(st.integers(0, 9)) == 0:
            s = draw(st.one_of(us.literal, st.just(ABSENT_ENTITY)))
        if p == RDF_TYPE and draw(st.integers(0, 3)) == 0:
            o = draw(classes)
        elif draw(st.integers(0, 9)) == 0:
            p = ABSENT_PROPERTY
        terms = []
        for term in (s, p, o):
            if term not in names:
                names[term] = (
                    us.VARIABLES[len(names) % len(us.VARIABLES)]
                    if draw(st.booleans()) else term
                )
            terms.append(names[term])
        body.append(Atom(*terms))
    body_vars = sorted(
        {t for atom in body for t in atom.variables()}, key=lambda v: v.name
    )
    head = [v for v in body_vars if draw(st.integers(0, 3))]
    if draw(st.integers(0, 3)) == 0:
        constant = draw(st.one_of(us.entity, classes, st.just(ABSENT_ENTITY)))
        head.insert(draw(st.integers(0, len(head))), constant)
    if head and draw(st.integers(0, 5)) == 0:
        head.append(head[0])
    restricted = {v for v in body_vars if draw(st.booleans())}
    return ConjunctiveQuery(tuple(head), tuple(body), non_literal=frozenset(restricted))


@st.composite
def schemas(draw):
    """A random schema, sometimes naming a class or property the data
    never mentions."""
    schema = draw(us.schemas())
    if draw(st.booleans()):
        schema.add_subclass(ABSENT_CLASS, draw(classes))
    if draw(st.booleans()):
        schema.add_domain(draw(properties), draw(classes))
    return schema


def _oracle(query, store, schema):
    return evaluate_nested_loop(query, saturate(store, schema))


def _per_disjunct(union, store):
    """The flat union, one disjunct's operator tree at a time."""
    answers = set()
    for disjunct in union.disjuncts:
        answers |= interpreted_answers(disjunct, store)
    return answers


def _factorised(union, store):
    """The union's factorised tree, run on any backend."""
    source = union.source
    tree = _factorised_tree(factorise(source, union.schema), store)
    return tree_answers(source, tree, store)


def _routes_agree(query, store, schema):
    union = reformulate(query, schema)
    factorised = _factorised(union, store)
    assert factorised == _oracle(query, store, schema)
    assert factorised == _per_disjunct(reformulate(query, schema), store)
    # The default route: on SQLite factorised or flat by the union's
    # shape, so generated queries reach both sides of the rule.
    assert evaluate_union(union, store) == factorised
    assert count_union(union, store) == len(factorised)


@COMMON
@given(data=st.data(), backend=BACKENDS)
def test_factorised_equals_flat_and_saturated(data, backend):
    triples = data.draw(us.data_triples(min_size=4, max_size=30), label="data")
    store = TripleStore(backend=backend)
    store.add_all(triples)
    try:
        _routes_agree(
            data.draw(queries(triples), label="query"),
            store,
            data.draw(schemas(), label="schema"),
        )
    finally:
        store.backend.close()


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    triple=st.builds(Triple, us.entity, st.sampled_from(us.PROPERTIES), us.entity),
    sub=classes,
    sup=classes,
)
def test_answers_follow_store_and_schema_changes(data, triple, sub, sup):
    """Cached plans and memoised alternatives never serve a stale
    answer: a write bumps the store version, a schema statement its
    size, and a union evaluated before either follows both."""
    triples = data.draw(us.data_triples(min_size=4, max_size=30), label="data")
    store = TripleStore()
    store.add_all(triples)
    schema = data.draw(schemas(), label="schema")
    query = data.draw(queries(triples + [triple]), label="query")
    union = reformulate(query, schema)
    assert evaluate_union(union, store) == _oracle(query, store, schema)
    store.add(triple)
    schema.add_subclass(sub, sup)
    schema.add_range(triple.p, sup)
    expected = _oracle(query, store, schema)
    assert evaluate_union(union, store) == expected
    assert evaluate_union(reformulate(query, schema), store) == expected
    assert _per_disjunct(union, store) == expected


def test_literal_subject_and_unknown_head_constant():
    """Rule 4 never types a literal, and a head constant the data never
    mentions rides through the join as a term."""
    a, b = URI(f"{us.NS}e0"), URI(f"{us.NS}e1")
    p, c = us.PROPERTIES[0], us.CLASSES[0]
    alpha = Literal("alpha")
    store = TripleStore()
    store.add_all([Triple(a, p, alpha), Triple(a, p, b)])
    schema = RDFSchema()
    schema.add_range(p, c)
    schema.add_subclass(ABSENT_CLASS, c)
    for query in (
        ConjunctiveQuery((), (Atom(alpha, RDF_TYPE, c),)),
        ConjunctiveQuery((us.VARIABLES[0],), (Atom(us.VARIABLES[0], RDF_TYPE, c),)),
        ConjunctiveQuery(
            (us.VARIABLES[0], ABSENT_ENTITY, us.VARIABLES[1]),
            (Atom(a, p, us.VARIABLES[0]), Atom(us.VARIABLES[0], RDF_TYPE, us.VARIABLES[1])),
        ),
    ):
        _routes_agree(query, store, schema)
    boolean = reformulate(ConjunctiveQuery((), (Atom(alpha, RDF_TYPE, c),)), schema)
    assert evaluate_union(boolean, store) == set()


def test_repeated_variable_in_a_probed_atom():
    """A variable repeated inside an atom the join probes (bound or
    not) filters the matches, and rule 2 keeps the filter."""
    a, b, c = (URI(f"{us.NS}e{i}") for i in range(3))
    p, q, r = us.PROPERTIES
    X, Y = us.VARIABLES[:2]
    store = TripleStore()
    store.add_all([
        Triple(a, p, b), Triple(a, p, c), Triple(b, q, q),
        Triple(b, r, c), Triple(c, r, c), Triple(c, q, b),
    ])
    schema = RDFSchema()
    schema.add_subproperty(q, r)
    for query in (
        ConjunctiveQuery((X, Y), (Atom(a, p, X), Atom(X, Y, Y))),
        ConjunctiveQuery((X,), (Atom(a, p, X), Atom(X, r, X))),
        ConjunctiveQuery((X,), (Atom(a, p, X), Atom(X, Y, Y))),
    ):
        _routes_agree(query, store, schema)


def test_semi_join_reads_every_lookup_a_key_needs():
    """A bound ``rdf:type`` atom is a semi-join: a typed entity whose
    class matches no alternative must still reach the domain lookup."""
    a, x, y = (URI(f"{us.NS}e{i}") for i in range(3))
    p, q = us.PROPERTIES[:2]
    typed, sub, other = us.CLASSES[:3]
    X = us.VARIABLES[0]
    store = TripleStore()
    store.add_all([
        Triple(a, p, x), Triple(x, RDF_TYPE, other), Triple(x, q, y),
        Triple(a, RDF_TYPE, typed), Triple(y, RDF_TYPE, sub),
    ])
    schema = RDFSchema()
    schema.add_subclass(sub, typed)
    schema.add_domain(q, typed)
    query = ConjunctiveQuery((X,), (Atom(a, p, X), Atom(X, RDF_TYPE, typed)))
    _routes_agree(query, store, schema)
    assert evaluate_union(reformulate(query, schema), store) == {(x,)}
