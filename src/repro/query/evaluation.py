"""Evaluation of conjunctive queries and unions over a triple store.

The evaluator is the "standard query evaluation for plain RDF" the paper
relies on (its ``evaluate`` function in Theorem 4.2). :func:`evaluate`
is the physical-operator engine's one entry
(:func:`repro.engine.planner.evaluate`) for every question — a
conjunctive query, a union or a sequence of disjuncts: atoms are
ordered once by estimated pattern cardinality (RDF-3X-style selectivity
ordering) and joined through index probes, a reformulation union runs
factorised, and on a SQL-capable backend a flat branch runs as one SQL
statement.

One reference implementation is kept alongside:
:func:`evaluate_nested_loop`, the unindexed full-scan evaluator playing
the paper's "plain triple table" role in Figure 8. It shares no index,
plan or batch code with the engine, which makes it the oracle every
engine route is property-tested against
(``tests/property/test_property_engine.py``); both enforce the
``non_literal`` rule-4 semantics.
"""

from __future__ import annotations

from repro.engine import evaluate
from repro.query.cq import Atom, ConjunctiveQuery, Variable
from repro.rdf.store import TripleStore
from repro.rdf.terms import Term

#: A query answer: one RDF term per head position.
Answer = tuple[Term, ...]

#: :func:`evaluate` under the name ``benchmarks/e2e/`` imports; it
#: exists only for that harness until the benchmark is next
#: re-baselined (ROADMAP item 1).
evaluate_union = evaluate


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
