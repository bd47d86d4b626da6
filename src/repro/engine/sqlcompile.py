"""Whole-plan SQL pushdown: compile a conjunctive query to one statement.

The interpreted operator tree executes joins in Python above per-probe /
per-batch SELECTs, which on the SQLite backend pays one driver crossing
per batch *per join step*. For a conjunctive query every step is a
self-join of the one ``triples`` table, so the entire plan — joins,
constant selections, head projection, DISTINCT — is expressible as a
single SQL statement:

.. code-block:: sql

    SELECT DISTINCT t0.s, t1.o
    FROM triples t1 CROSS JOIN triples t0
    WHERE t1.p = ? AND t0.p = ? AND t0.o = t1.s

Executed inside the backend, SQLite evaluates the whole join pipeline in
its VM against the SPO/POS/OSP covering indexes (every constant binding
and every join equality is an index-prefix predicate), and Python
touches exactly one row per *distinct head image* — "move the
computation to the data".

**Who orders the join.** We do, SQLite does not. The ``FROM`` clause
lists the aliases in the order it is handed —
:meth:`CardinalityEstimator.join_order
<repro.stats.estimator.CardinalityEstimator.join_order>` as
:func:`repro.engine.planner.plan_pushdown` computes it, the very order
the interpreted operator tree is compiled in — and
joins them with ``CROSS JOIN``, which SQLite documents as its
fixed-order join: the left table is always the outer loop. SQLite's
planner is left one decision per step, which of the three indexes to
probe, and the bound columns decide that. So both routes run the same
plan shape, the estimator is the single thing to fix when a plan is
bad, and the statement does not depend on what SQLite knows about the
data:

* *without* ``sqlite_stat1`` — every snapshot ``store.save`` writes,
  hence every served worker — SQLite orders a comma join blind: the
  six served star texts joining an unbound ``t(X, rdf:type, Y)`` ran
  9–13 ms against 0.1 ms interpreted, 3-atom chains 25–78 ms;
* *with* it SQLite 3.40 adds per-execution bloom filters to the
  plans it runs: the 24-query ad-hoc mix on a writable store took
  1.2 s of ``evaluate_union`` with statistics against 0.42–0.51 s
  without (same emitted order).

Hence the backend never runs ``ANALYZE`` and keeps no staleness
bookkeeping; an in-memory store, a writable file and a read-only
snapshot get byte-identical text and walk the tables identically
(``tests/storage/test_pushdown_plan_parity.py``).

Compilation is pure text generation over dictionary codes:

* each atom becomes one alias of the ``triples`` table, named after its
  *body* index (``t0`` is ``query.atoms[0]`` wherever it joins), so
  ``EXPLAIN QUERY PLAN`` reads against the query text;
* a constant becomes ``tN.col = ?`` with its dictionary code as a bound
  parameter — an index-prefix range predicate on SPO/POS/OSP;
* a repeated variable becomes an equality against its first occurrence
  *in join order* — every equality points at an alias already in the
  loop nest (across atoms: the join condition; within an atom: the
  self-join filter of ``t(X, p, X)``);
* head variables become the ``SELECT DISTINCT`` projection; constant
  head terms are re-attached per answer after decoding.

The rule-4 ``non_literal`` restriction needs the dictionary (only
Python knows which codes encode literals), so it cannot run inside
SQLite. Two cases:

* a restricted variable that occurs in some subject or predicate
  position is *implied* non-literal — stored triples are well-formed
  RDF, so those columns never hold literal codes — and compiles to
  nothing;
* a restricted variable confined to object positions is appended to the
  projection and every fetched row binding it to a literal code is
  dropped before decoding (answers are re-deduplicated by the result
  set, so the widened DISTINCT stays invisible).

:func:`compile_query` returns ``None`` for the shapes one statement
cannot (or should not) express — more joined tables than SQLite's
64-way limit, more constants than the bound-parameter budget — and the
caller falls back to the interpreted operator tree. Plans over
materialized view extents never reach this module: extents live in
Python lists, not in the backend, so the rewriting route
(:func:`repro.engine.planner.run_plan`) is interpreted by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.obs import metrics
from repro.query.cq import Atom, ConjunctiveQuery, Variable
from repro.rdf.store import TripleStore
from repro.rdf.terms import Term

__all__ = [
    "CompiledQuery",
    "compile_query",
    "MAX_PUSHDOWN_TABLES",
]

#: Most atoms one pushed-down statement may join. SQLite refuses joins
#: of more than 64 tables; staying a little below leaves headroom for
#: SQLite-internal rewrites that add tables (flattening, stat4 probes).
MAX_PUSHDOWN_TABLES = 60

#: Bound-parameter budget per statement — one parameter per constant
#: occurrence. Matches the backend's probe budget: below 999, the
#: SQLITE_MAX_VARIABLE_NUMBER default of the oldest supported builds.
MAX_PUSHDOWN_PARAMS = 900

#: Column names of the triple table, in atom-position order.
_COLUMNS = ("s", "p", "o")


@dataclass(frozen=True)
class CompiledQuery:
    """One conjunctive query compiled to a single SQL statement.

    ``sql is None`` marks a query that is *provably empty* on the store
    it was compiled against (a constant the dictionary has never seen):
    execution returns no answers without touching the backend. The
    compiled form is only valid for the store version it was compiled
    on — the prepared-plan cache it lives in is flushed on mutation.
    """

    #: The statement text, or None when the query is provably empty.
    sql: str | None
    #: Dictionary codes bound to the statement's ``?`` placeholders.
    params: tuple[int, ...]
    #: Per head position: index into the fetched row, or None for a
    #: constant head term (re-attached from ``head_constants``).
    head_slots: tuple[int | None, ...]
    #: Per head position: the constant term, or None for a variable.
    head_constants: tuple[Term | None, ...]
    #: Fetched-row indexes that must not hold literal codes (the rule-4
    #: residue SQL cannot check); rows violating any are dropped.
    restricted_slots: tuple[int, ...]

    def describe(self) -> str:
        """The statement with its bound parameters, for ``--explain``.

        Parameters are dictionary codes (plain integers), so inlining
        them for display is unambiguous; the executed statement always
        binds them as parameters.
        """
        if self.sql is None:
            return "EMPTY (a query constant never occurs in the store)"
        text = self.sql
        for code in self.params:
            text = text.replace("?", str(code), 1)
        return text

    def images(self, store: TripleStore) -> set[tuple]:
        """Distinct *encoded* head images: codes for variable positions
        and for constants; a constant the dictionary has never seen
        stays a term.

        A flat union merges images across all its disjuncts before
        decoding, so each distinct answer is decoded
        once per union instead of once per disjunct
        (:func:`repro.engine.planner.decode_images` is the inverse).
        """
        if self.sql is None:
            return set()
        rows = store.backend.execute_sql_plan(self.sql, self.params)
        restricted = self.restricted_slots
        if restricted:
            is_literal = store.dictionary.is_literal_code
            rows = (
                row
                for row in rows
                if not any(is_literal(row[slot]) for slot in restricted)
            )
        slots = self.head_slots
        if all(slot is not None for slot in slots):
            return {tuple(row[slot] for slot in slots) for row in rows}
        # A constant the dictionary knows enters as its code, so the
        # image equals the one a disjunct binding a head *variable* to
        # the same term yields (the union's images are counted as well
        # as decoded).
        constants = []
        for constant in self.head_constants:
            code = None if constant is None else store.encode_term(constant)
            constants.append(constant if code is None else code)
        return {
            tuple(
                constant if slot is None else row[slot]
                for slot, constant in zip(slots, constants)
            )
            for row in rows
        }

    def execute(self, store: TripleStore) -> set[tuple[Term, ...]]:
        """Run the statement in the backend and decode the answers.

        One backend call evaluates the whole plan; Python work is a
        literal-code filter for the restricted slots, then
        :func:`~repro.engine.planner.decode_images` over the distinct
        images.
        """
        from repro.engine.planner import decode_images

        return decode_images(self.images(store), store)


def _implied_non_literal(query: ConjunctiveQuery, variable: Variable) -> bool:
    """True when well-formedness alone keeps ``variable`` off literals.

    Stored triples are well-formed RDF (enforced by
    :class:`~repro.rdf.triples.Triple`): subjects and predicates are
    never literals. A restricted variable occurring in any subject or
    predicate position therefore only ever binds non-literal codes.
    """
    for atom in query.atoms:
        if atom.s == variable or atom.p == variable:
            return True
    return False


def compile_query(
    query: ConjunctiveQuery,
    store: TripleStore,
    order: Sequence[int] | None = None,
) -> CompiledQuery | None:
    """Compile ``query`` into one SQL statement over the triple table.

    ``order`` is the join order — a permutation of the body's atom
    indexes, as :meth:`CardinalityEstimator.join_order
    <repro.stats.estimator.CardinalityEstimator.join_order>` returns it
    (:func:`repro.engine.planner.plan_pushdown` passes exactly that);
    without one the atoms join in body order. Either way the ``FROM``
    clause is a ``CROSS JOIN`` chain SQLite executes as written.

    Returns ``None`` when the query is not expressible within the
    pushdown limits (see the module docstring for the eligibility
    rules); the caller then falls back to the interpreted operator
    tree. Constants are encoded against ``store``'s dictionary — a
    constant the store has never seen yields the provably-empty
    compiled form.

    >>> from repro.query.parser import parse_query
    >>> from repro.rdf.ntriples import parse_ntriples
    >>> from repro.rdf.store import TripleStore
    >>> store = TripleStore(backend="sqlite")
    >>> _ = store.add_all(parse_ntriples('''
    ... <http://e/a> <http://e/knows> <http://e/b> .
    ... <http://e/b> <http://e/knows> <http://e/c> .
    ... '''))
    >>> query = parse_query(
    ...     "q(X, Z) :- t(X, <http://e/knows>, Y), t(Y, <http://e/knows>, Z)")
    >>> compiled = compile_query(query, store)
    >>> print(compiled.sql)
    SELECT DISTINCT t0.s, t1.o
    FROM triples t0 CROSS JOIN triples t1
    WHERE t0.p = ? AND t1.s = t0.o AND t1.p = ?
    >>> print(compile_query(query, store, order=[1, 0]).sql)
    SELECT DISTINCT t0.s, t1.o
    FROM triples t1 CROSS JOIN triples t0
    WHERE t1.p = ? AND t0.p = ? AND t0.o = t1.s
    >>> sorted((s.n3(), o.n3()) for s, o in compiled.execute(store))
    [('<http://e/a>', '<http://e/c>')]
    >>> store.close()
    """
    if not metrics.enabled:
        return _compile_query_statement(query, store, order)
    with metrics.timer("storage.sqlite.pushdown.compile_ms"):
        compiled = _compile_query_statement(query, store, order)
    metrics.inc(
        "storage.sqlite.pushdown.compiled"
        if compiled is not None
        else "storage.sqlite.pushdown.ineligible"
    )
    return compiled


def _join_clauses(
    atoms: Sequence[Atom],
    store: TripleStore,
    order: Sequence[int] | None = None,
) -> tuple[list[str], list[str], list[int], dict[Variable, str], bool]:
    """``(tables, conditions, params, first, empty)`` of one self-join.

    The atoms are walked in ``order`` (body order without one): each
    becomes the alias ``t<body index>`` in ``tables``, a constant
    becomes ``alias.col = ?`` with its code appended to ``params``, a
    variable's first occurrence is recorded in ``first`` (the caller
    projects from it), and a later occurrence becomes an equality
    against it. ``empty`` flags a constant the dictionary has never
    seen: the join is provably empty (until the store mutates, which
    flushes the plan cache).
    """
    tables: list[str] = []
    conditions: list[str] = []
    params: list[int] = []
    first: dict[Variable, str] = {}
    empty = False
    for index in range(len(atoms)) if order is None else order:
        alias = f"t{index}"
        tables.append(f"triples {alias}")
        for column, term in zip(_COLUMNS, atoms[index]):
            expression = f"{alias}.{column}"
            if isinstance(term, Variable):
                known = first.get(term)
                if known is None:
                    first[term] = expression
                else:
                    conditions.append(f"{expression} = {known}")
            else:
                code = store.encode_term(term)
                if code is None:
                    empty = True
                else:
                    conditions.append(f"{expression} = ?")
                    params.append(code)
    return tables, conditions, params, first, empty


def _from_where(tables: list[str], conditions: list[str]) -> str:
    """The ``FROM ... WHERE ...`` text: tables joined in list order.

    ``CROSS JOIN`` is SQLite's fixed-order join — the left table is
    always the outer loop — so the statement runs in exactly the order
    the estimator chose (see the module docstring).
    """
    where = f"\nWHERE {' AND '.join(conditions)}" if conditions else ""
    return f"\nFROM {' CROSS JOIN '.join(tables)}{where}"


def _compile_query_statement(
    query: ConjunctiveQuery,
    store: TripleStore,
    order: Sequence[int] | None = None,
) -> CompiledQuery | None:
    """The uninstrumented compilation behind :func:`compile_query`."""
    if len(query.atoms) > MAX_PUSHDOWN_TABLES:
        return None
    tables, conditions, params, first_occurrence, empty = _join_clauses(
        query.atoms, store, order
    )
    if len(params) > MAX_PUSHDOWN_PARAMS:
        return None

    # Projection: one column per distinct head variable, plus the
    # restricted variables SQL cannot check (object-only occurrences).
    select: list[str] = []
    slot_of: dict[Variable, int] = {}
    head_slots: list[int | None] = []
    head_constants: list[Term | None] = []
    for term in query.head:
        if isinstance(term, Variable):
            slot = slot_of.get(term)
            if slot is None:
                slot = len(select)
                select.append(first_occurrence[term])
                slot_of[term] = slot
            head_slots.append(slot)
            head_constants.append(None)
        else:
            head_slots.append(None)
            head_constants.append(term)
    restricted_slots: list[int] = []
    for variable in sorted(query.non_literal, key=lambda v: v.name):
        if _implied_non_literal(query, variable):
            continue
        slot = slot_of.get(variable)
        if slot is None:
            slot = len(select)
            select.append(first_occurrence[variable])
            slot_of[variable] = slot
        restricted_slots.append(slot)

    if empty:
        return CompiledQuery(
            sql=None,
            params=(),
            head_slots=tuple(head_slots),
            head_constants=tuple(head_constants),
            restricted_slots=(),
        )

    body = _from_where(tables, conditions)
    if select:
        sql = f"SELECT DISTINCT {', '.join(select)}{body}"
    else:
        # No variable to project (an all-constant head): existence test.
        sql = f"SELECT 1{body}\nLIMIT 1"
    return CompiledQuery(
        sql=sql,
        params=tuple(params),
        head_slots=tuple(head_slots),
        head_constants=tuple(head_constants),
        restricted_slots=tuple(restricted_slots),
    )
