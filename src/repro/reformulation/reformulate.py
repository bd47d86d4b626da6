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

Because rules 1–4 rewrite one atom at a time, the union is, after the
rule-5/6 bindings, a cross product of per-atom alternatives. The union
:func:`reformulate` returns therefore has two forms. The *flat* form —
the disjunct tuple of the fixpoint above — is built on first access to
``disjuncts``. The *factorised* form is :func:`factorise`: per atom, the
reformulation of that atom alone, memoised per atom shape and schema.
By Theorem 4.2 applied to each atom, joining the per-atom unions on
the plain store answers the query on the saturated store, which is how
the engine's interpreted route evaluates a reformulation without ever
building the flat form.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Iterator, NamedTuple

from repro.obs import metrics
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
    The union is deferred (:meth:`UnionQuery.deferred`): it carries
    ``query`` and ``schema``, and its disjuncts are the fixpoint's,
    computed on first access.
    """
    return UnionQuery.deferred(query, schema, _fixpoint)


def _fixpoint(query: ConjunctiveQuery, schema: RDFSchema) -> tuple[ConjunctiveQuery, ...]:
    """The disjuncts of Algorithm 1: the rules applied backward to a
    fixpoint, candidates deduplicated by canonical form."""
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
    return tuple(seen.values())


class AtomUnion(NamedTuple):
    """One atom of a query, reformulated alone.

    ``columns`` are the atom's variables the rest of the query sees —
    head variables and join variables, in first-occurrence order;
    variables local to the atom are projected away. ``alternatives``
    are one-atom queries over their own variable names whose head
    position ``j`` stands for ``columns[j]``.
    """

    atom: Atom
    columns: tuple[Variable, ...]
    alternatives: tuple[ConjunctiveQuery, ...]


#: Per-atom alternatives, per schema: ``schema -> (len(schema), memo)``.
#: A schema only grows, so its size tells whether a statement arrived
#: since the memo was filled (as the statistics catalog's
#: post-reformulation memo does); a collected schema drops its memo.
_ATOM_MEMO: "weakref.WeakKeyDictionary[RDFSchema, tuple[int, dict]]" = (
    weakref.WeakKeyDictionary()
)

#: Most atom shapes memoised per schema; past it the memo starts over,
#: so a stream of ever-new constants cannot grow it without bound.
_ATOM_MEMO_LIMIT = 4096


def factorise(query: ConjunctiveQuery, schema: RDFSchema) -> tuple[AtomUnion, ...]:
    """The factorised reformulation of ``query``: one :class:`AtomUnion`
    per body atom, in body order.

    An atom's alternatives are :func:`reformulate` of the one-atom query
    whose head is the atom's :attr:`AtomUnion.columns` and whose
    ``non_literal`` is the query's restriction on the atom's variables.
    They are memoised per (atom up to variable renaming, head, restriction)
    and per schema identity and size, so most evaluations apply no rule.
    """
    occurrences: dict[Variable, int] = {}
    for atom in query.atoms:
        for variable in atom.variables():
            occurrences[variable] = occurrences.get(variable, 0) + 1
    exported = query.head_variables()
    size = len(schema)
    entry = _ATOM_MEMO.get(schema)
    if entry is None or entry[0] != size:
        entry = _ATOM_MEMO[schema] = (size, {})
    memo = entry[1]
    out = []
    for atom in query.atoms:
        names: dict[Variable, Variable] = {}
        for term in atom:
            if isinstance(term, Variable) and term not in names:
                names[term] = Variable(f"A{len(names)}")
        columns = tuple(
            variable for variable in names
            if variable in exported or occurrences[variable] > 1
        )
        key = (
            atom.substitute(names),
            tuple(names[variable] for variable in columns),
            frozenset(names[v] for v in query.non_literal if v in names),
        )
        alternatives = memo.get(key)
        if alternatives is None:
            if metrics.enabled:
                metrics.inc("reformulation.atom_memo.miss")
            shape, head, restricted = key
            one_atom = ConjunctiveQuery(
                head, (shape,), name="atom", non_literal=restricted
            )
            if len(memo) >= _ATOM_MEMO_LIMIT:
                memo.clear()
            alternatives = memo[key] = _fixpoint(one_atom, schema)
        elif metrics.enabled:
            metrics.inc("reformulation.atom_memo.hit")
        out.append(AtomUnion(atom, columns, alternatives))
    return tuple(out)
