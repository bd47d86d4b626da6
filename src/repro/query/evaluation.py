"""Evaluation of conjunctive queries and unions over a triple store.

The evaluator is the "standard query evaluation for plain RDF" the paper
relies on (its ``evaluate`` function in Theorem 4.2). :func:`evaluate`
delegates to the physical-operator engine (:mod:`repro.engine`): atoms
are ordered once by estimated pattern cardinality (RDF-3X-style
selectivity ordering) and joined through index probes, or the whole
query runs as one SQL statement on a SQL-capable backend.

One reference implementation is kept alongside:
:func:`evaluate_nested_loop`, the unindexed full-scan evaluator playing
the paper's "plain triple table" role in Figure 8. It shares no index,
plan or batch code with the engine, which makes it the oracle every
engine route is property-tested against
(``tests/property/test_property_engine.py``); both enforce the
``non_literal`` rule-4 semantics.
"""

from __future__ import annotations

from typing import Iterable

from repro.engine import evaluate_union_shared, run_query
from repro.obs import tracing
from repro.query.cq import Atom, ConjunctiveQuery, UnionQuery, Variable
from repro.rdf.store import TripleStore
from repro.rdf.terms import Term

#: A query answer: one RDF term per head position.
Answer = tuple[Term, ...]


def _match_binding(
    atom: Atom,
    triple: tuple[int, int, int],
    binding: dict[Variable, int],
    store: TripleStore | None = None,
    non_literal: frozenset[Variable] = frozenset(),
) -> dict[Variable, int] | None:
    """Extend ``binding`` so the atom's variables match an encoded triple.

    Bindings of restricted variables (``non_literal``) to literal codes
    are rejected — the rule-4 reformulation semantics.
    """
    extended = binding
    copied = False
    for term, code in zip(atom, triple):
        if not isinstance(term, Variable):
            continue
        bound = extended.get(term)
        if bound is None:
            if (
                store is not None
                and term in non_literal
                and store.dictionary.is_literal_code(code)
            ):
                return None
            if not copied:
                extended = dict(extended)
                copied = True
            extended[term] = code
        elif bound != code:
            return None
    return extended


def evaluate(
    query: ConjunctiveQuery, store: TripleStore, pushdown: bool = True
) -> set[Answer]:
    """All answers of a conjunctive query on the store (set semantics).

    Delegates to the physical-operator engine
    (:func:`repro.engine.run_query`). On a SQL-capable backend (SQLite)
    an eligible query runs as one pushed-down SQL statement inside the
    backend; ``pushdown=False`` keeps the interpreted operator tree (the
    reference tests compare against).
    """
    return run_query(query, store, pushdown=pushdown)


def evaluate_union(
    union: UnionQuery | Iterable[ConjunctiveQuery],
    store: TripleStore,
    pushdown: bool = True,
    shared: bool = True,
) -> set[Answer]:
    """All answers of a union of conjunctive queries (duplicates removed).

    Reformulation unions overlap heavily — every rule rewrites one atom
    and keeps the rest. The union :func:`repro.reformulation.reformulate`
    returns therefore runs **factorised**: each atom of its source query
    is the union of that atom's own reformulation, and the atoms join
    once — the disjuncts are never built. It does so always on the
    interpreted route (a backend without SQL, or ``pushdown=False``),
    and on a SQL-capable backend when it has one atom or the product of
    its atoms' alternative counts exceeds its atom count
    (:func:`repro.engine.planner.factorised_route`). Any other union
    runs its distinct disjuncts one by one (:mod:`repro.engine.mqo`): on
    a SQL-capable backend each as its own pushed-down statement,
    elsewhere each through its cached interpreted plan. Every route
    deduplicates encoded answer images across the whole union and
    decodes each distinct answer exactly once.

    ``shared=False`` evaluates every disjunct independently through
    :func:`evaluate` and merges decoded answers (the reference the
    union and factorised tests compare against).
    """
    if not isinstance(union, UnionQuery):
        union = tuple(union)
    if shared:
        return evaluate_union_shared(union, store, pushdown=pushdown)
    disjuncts = union.disjuncts if isinstance(union, UnionQuery) else union
    with tracing.span(
        "query.evaluate_union", disjuncts=len(disjuncts), shared=False
    ):
        results: set[Answer] = set()
        for disjunct in disjuncts:
            results |= evaluate(disjunct, store, pushdown=pushdown)
        return results


def count_answers(query: ConjunctiveQuery, store: TripleStore) -> int:
    """Number of distinct answers; convenience for statistics collection."""
    return len(evaluate(query, store))


def evaluate_nested_loop(query: ConjunctiveQuery, store: TripleStore) -> set[Answer]:
    """Scan-based nested-loop evaluation: no index selection, fixed atom
    order, full-table scan per atom.

    This is the benchmarks' "plain triple table" baseline (the role the
    unindexed relational plan plays in the paper's Figure 8) and the
    tests' oracle; production callers should use :func:`evaluate`.
    """
    triples = list(store.match_encoded((None, None, None)))
    results: set[Answer] = set()

    def extend(index: int, binding: dict[Variable, int]) -> None:
        if index == len(query.atoms):
            answer = tuple(
                store.dictionary.decode(binding[t]) if isinstance(t, Variable) else t
                for t in query.head
            )
            results.add(answer)
            return
        atom = query.atoms[index]
        constants: list[tuple[int, int | None]] = []
        for position, term in enumerate(atom):
            if isinstance(term, Variable):
                constants.append((position, None))
            else:
                code = store.encode_term(term)
                if code is None:
                    return
                constants.append((position, code))
        for triple in triples:
            ok = True
            for position, code in constants:
                if code is not None and triple[position] != code:
                    ok = False
                    break
            if not ok:
                continue
            extended = _match_binding(atom, triple, binding, store, query.non_literal)
            if extended is not None:
                extend(index + 1, extended)

    extend(0, {})
    return results
