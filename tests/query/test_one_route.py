"""The route of a question is decided once, by :func:`repro.engine.plan`.

``--explain`` prints the plan's route, :func:`repro.obs.analyze.analyze`
reports it and :func:`repro.engine.evaluate` counts it: for every
question shape, on both backends, the three must name the same route,
and the answers must equal the unindexed oracle's.
"""

import pytest

from repro.cli import _explain_plan
from repro.engine import FACTORISED, INTERPRETED, SQL_PUSHDOWN, evaluate
from repro.engine.planner import ROUTE_COUNTERS
from repro.obs import metrics
from repro.obs.analyze import analyze
from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import evaluate_nested_loop
from repro.query.parser import parse_query
from repro.rdf.entailment import saturate
from repro.reformulation import reformulate

CHAIN = "qa(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)"
CHAIN_TYPED = f"qb(X, Z) :- {CHAIN.split(':- ')[1]}, t(Z, rdf:type, painting)"

#: ``(shape, build, memory route, sqlite route)``; ``build`` takes the
#: schema and returns the question.
SHAPES = [
    ("conjunctive query", lambda schema: parse_query(CHAIN),
     INTERPRETED, SQL_PUSHDOWN),
    ("one-atom union",
     lambda schema: reformulate(parse_query("q(X, Y) :- t(X, rdf:type, Y)"), schema),
     FACTORISED, FACTORISED),
    # 4 × 2 alternatives over 2 atoms.
    ("union, product > atoms",
     lambda schema: reformulate(parse_query(
         "q(X, Y) :- t(X, rdf:type, picture), t(X, isLocatedIn, Y)"), schema),
     FACTORISED, FACTORISED),
    # 1 × 1 alternatives over 2 atoms.
    ("union, product <= atoms",
     lambda schema: reformulate(parse_query(CHAIN), schema),
     FACTORISED, SQL_PUSHDOWN),
    ("disjunct tuple",
     lambda schema: (parse_query(CHAIN), parse_query(CHAIN_TYPED), parse_query(CHAIN)),
     INTERPRETED, SQL_PUSHDOWN),
]


def _oracle(question, store, schema):
    if isinstance(question, ConjunctiveQuery):
        return evaluate_nested_loop(question, store)
    source = getattr(question, "source", None)
    if source is not None:  # Theorem 4.2: the query on the saturated store
        return evaluate_nested_loop(source, saturate(store, schema))
    answers = set()
    for disjunct in question:
        answers |= evaluate_nested_loop(disjunct, store)
    return answers


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize(
    "shape, build, memory_route, sqlite_route",
    SHAPES,
    ids=[shape for shape, *_ in SHAPES],
)
def test_explain_analyze_and_evaluate_agree_on_the_route(
    backend, shape, build, memory_route, sqlite_route, museum_store, museum_schema
):
    store = museum_store if backend == "memory" else museum_store.copy(backend="sqlite")
    try:
        question = build(museum_schema)
        route = {"memory": memory_route, "sqlite": sqlite_route}[backend]
        explained = _explain_plan("q", question, store).annotations["route"]
        report = analyze(question, store)
        answers, dump = metrics.collect(evaluate, question, store)
        counted = {
            name for name in dump["counters"] if name in ROUTE_COUNTERS.values()
        }
        assert explained == report.route == report.tree.annotations["route"] == route
        assert counted == {ROUTE_COUNTERS[route]}
        expected = _oracle(question, store, museum_schema)
        assert expected, shape
        assert answers == report.answers == expected
    finally:
        if store is not museum_store:
            store.backend.close()
