"""Algorithm 1: ``Reformulate(q, S)``.

Reformulates a conjunctive RDF query against an RDF Schema into a union
of conjunctive queries whose evaluation on the *plain* database equals
the original query's evaluation on the *saturated* database
(Theorem 4.2). The six rules of Figure 2 are applied backward to a
fixpoint:

1. ``t(s, rdf:type, c2)``  ⇐ ``t(s, rdf:type, c1)`` for ``c1 ⊑ c2``
2. ``t(s, p2, o)``         ⇐ ``t(s, p1, o)`` for ``p1 ⊑p p2``
3. ``t(s, rdf:type, c)``   ⇐ ``∃X t(s, p, X)`` for ``domain(p) = c``
4. ``t(o, rdf:type, c)``   ⇐ ``∃X t(X, p, o)`` for ``range(p) = c``
5. ``t(s, rdf:type, X)``   ⇐ ``t(s, rdf:type, ci)``, binding ``X = ci``
   for every class ``ci`` of S
6. ``t(s, X, o)``          ⇐ ``t(s, pi, o)`` binding ``X = pi`` for
   every property ``pi`` of S, plus ``t(s, rdf:type, o)`` binding
   ``X = rdf:type``

Rules 5 and 6 substitute the bound variable *everywhere* in the query
(the σ of Algorithm 1), so joins on that variable are retained and head
variables may become constants (as in Table 2).

Generated queries are deduplicated by canonical form, which both keeps
the output small and guarantees termination in the presence of the fresh
existential variables introduced by rules 3 and 4.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from repro.query.cq import Atom, ConjunctiveQuery, UnionQuery, Variable
from repro.query.containment import canonical_form
from repro.rdf import vocabulary
from repro.rdf.schema import RDFSchema
from repro.rdf.terms import URI


def reformulation_bound(schema: RDFSchema, query: ConjunctiveQuery) -> int:
    """An upper bound on the reformulation size, after Theorem 4.1.

    The paper states ``(2|S|²)^m``. For degenerate schema sizes (one or
    two statements) that asymptotic form undercounts by a constant — one
    statement already mentions two classes, and the original query is a
    disjunct too — so we use ``(2(|S|+1)²)^m``, which dominates the
    paper's bound for all |S| ≥ 2 and is safe for tiny schemas.
    """
    size = len(schema) + 1
    return (2 * size * size) ** len(query.atoms)


def _fresh_variables(query: ConjunctiveQuery) -> Iterator[Variable]:
    """The existential variables of one :func:`reformulate` call:
    ``R0, R1, …``, skipping names ``query`` already uses.

    Numbered per call, not from the process-global counter of
    :func:`repro.query.cq.fresh_variable`: reformulating the same query
    twice must yield *equal* unions, because every engine cache is keyed
    on disjuncts by value.
    """
    taken = {variable.name for variable in query.variables()}
    for number in itertools.count():
        name = f"R{number}"
        if name not in taken:
            yield Variable(name)


def _rule_consequences(
    query: ConjunctiveQuery, schema: RDFSchema, fresh: Iterator[Variable]
):
    """All one-step backward rule applications on ``query``; rules 3
    and 4 draw their existential variables from ``fresh``."""
    rdf_type = vocabulary.RDF_TYPE
    for index, atom in enumerate(query.atoms):
        s, p, o = atom
        if isinstance(p, Variable):
            # Rule 6: bind the property variable to every schema property
            # and to rdf:type (σ retains the joins on that variable).
            for prop in sorted(schema.properties, key=lambda u: u.value):
                yield query.substitute({p: prop})
            yield query.substitute({p: rdf_type})
            continue
        if p == rdf_type:
            if isinstance(o, Variable):
                # Rule 5: bind the class variable to every schema class.
                for cls in sorted(schema.classes, key=lambda u: u.value):
                    yield query.substitute({o: cls})
                continue
            if isinstance(o, URI):
                # Rule 1: a subclass instance is an instance of the class.
                for sub in sorted(schema.direct_subclasses(o), key=lambda u: u.value):
                    yield query.replace_atom(index, Atom(s, rdf_type, sub))
                # Rule 3: a subject of p is typed by p's domain.
                for prop in sorted(
                    schema.properties_with_domain(o), key=lambda u: u.value
                ):
                    yield query.replace_atom(index, Atom(s, prop, next(fresh)))
                # Rule 4: an object of p is typed by p's range. The typed
                # term moves to the object position of the new atom; a
                # literal there could never have been a triple subject,
                # so variables carry a non-literal binding restriction.
                if not _is_literal(s):
                    for prop in sorted(
                        schema.properties_with_range(o), key=lambda u: u.value
                    ):
                        rewritten = query.replace_atom(
                            index, Atom(next(fresh), prop, s)
                        )
                        if isinstance(s, Variable):
                            rewritten = rewritten.with_non_literal([s])
                        yield rewritten
            continue
        if isinstance(p, URI):
            # Rule 2: a subproperty assertion implies the superproperty's.
            for sub in sorted(schema.direct_subproperties(p), key=lambda u: u.value):
                yield query.replace_atom(index, Atom(s, sub, o))


def _is_literal(term) -> bool:
    from repro.rdf.terms import Literal

    return isinstance(term, Literal)


def reformulate(query: ConjunctiveQuery, schema: RDFSchema) -> UnionQuery:
    """Algorithm 1: the full reformulation of ``query`` w.r.t. ``schema``.

    The output always contains the original query; evaluation of the
    union on a plain store equals evaluation of ``query`` on the
    saturated store (Theorem 4.2, property-tested in the test suite).
    """
    fresh = _fresh_variables(query)
    seen: dict[tuple, ConjunctiveQuery] = {canonical_form(query): query}
    worklist: list[ConjunctiveQuery] = [query]
    while worklist:
        current = worklist.pop()
        for candidate in _rule_consequences(current, schema, fresh):
            key = canonical_form(candidate)
            if key in seen:
                continue
            seen[key] = candidate
            worklist.append(candidate)
    disjuncts = tuple(seen.values())
    return UnionQuery(disjuncts, name=query.name)
