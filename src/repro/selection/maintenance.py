"""Incremental maintenance of materialized views.

The cost model's VMCε (Section 3.3) prices the propagation of updates
into the materialized views; this module implements the propagation
itself, so the recommended view sets are *operational* under updates:

* **insertion** — classic delta rules: for every atom of every view that
  the new triple can match, bind that atom to the triple and evaluate
  the remainder of the view on the updated store; the projected rows are
  the view's delta.
* **deletion** — the same binding trick computes the *candidate* rows
  that used the deleted triple; since a row may have alternative
  derivations under set semantics, each candidate is re-checked against
  the updated store and only underivable rows are dropped.

Each view is maintained through its factorised reformulation
(:func:`~repro.reformulation.reformulate.factorise`; an empty schema
when none is given): one union of one-atom alternatives per body atom.
The deltas of one explicit triple then include everything the triple
entails, with no saturation step — Theorem 4.2 at work on updates.

An update costs what it can change. Every alternative is indexed at
construction by its atom's constant predicate and object, so a triple
only meets the alternatives it can match; each one it binds yields a
row over its atom union's columns. The rows of one (view, atom) feed
**one** tree joining the view's other atom unions, and the deletion
re-check is one tree per view joining all of them from the candidate
row. Every tree is the planner's factorised shape
(:func:`repro.engine.planner._factorised_tree`) on top of a swappable
leaf, compiled once, lazily; it stays correct across writes because
index probes read the live store and dictionary codes are append-only.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from repro.engine.operators import ExtentScan, Operator, _head_value
from repro.engine.planner import _factorised_tree, _head_images, decode_images
from repro.obs import metrics, tracing
from repro.query.cq import ConjunctiveQuery, QueryTerm, Variable
from repro.query.evaluation import Answer, evaluate
from repro.rdf.schema import RDFSchema
from repro.rdf.store import TripleStore
from repro.rdf.terms import Literal, Term
from repro.rdf.triples import Triple
from repro.reformulation.reformulate import AtomUnion, factorise, reformulate
from repro.selection.materialize import answer_query
from repro.selection.state import State

#: A prepared join order is re-derived once the store has grown or
#: shrunk by this factor since the order was frozen; between those
#: points only its cost-optimality ages, never its answers.
_REPLAN_FACTOR = 2

#: What one update tallies while it runs, published per update as
#: ``selection.maintain.<name>`` counters when metrics are enabled.
_TALLIED = ("rules_matched", "plans_run", "plans_compiled", "rederive_checks")


class _Binding:
    """How a pattern of query terms — an alternative's atom, or a view
    head — binds to one tuple of RDF terms, and the row ``out`` then
    reads: each variable's value, each constant itself (by default the
    pattern's distinct variables). Compiled once, applied per update:
    the one place both the delta rows and the deletion re-check enforce
    constants, repeated variables and the literal restriction."""

    __slots__ = ("columns", "_out", "_constants", "_equal", "_restricted")

    def __init__(
        self,
        pattern: Sequence[QueryTerm],
        non_literal: frozenset[Variable],
        out: Sequence[QueryTerm] | None = None,
    ) -> None:
        first: dict[Variable, int] = {}
        constants: list[tuple[int, Term]] = []
        equal: list[tuple[int, int]] = []
        for position, term in enumerate(pattern):
            if not isinstance(term, Variable):
                constants.append((position, term))
            elif term in first:
                equal.append((first[term], position))
            else:
                first[term] = position
        #: The pattern's distinct variables, in first-occurrence order.
        self.columns = tuple(variable.name for variable in first)
        self._out = tuple(
            first[term] if isinstance(term, Variable) else term
            for term in (first if out is None else out)
        )
        self._constants = tuple(constants)
        self._equal = tuple(equal)
        self._restricted = tuple(
            position for variable, position in first.items() if variable in non_literal
        )

    def row(self, values: Sequence[Term], store: TripleStore) -> tuple | None:
        """The row ``values`` binds, or None when the pattern does not
        match: a constant differs, a repeated variable disagrees, or a
        ``non_literal`` variable would bind a literal (the
        reformulation's rule-4 semantics). A term enters the row as its
        dictionary code, or as itself when the dictionary lacks it — the
        value a head constant takes in the trees' rows."""
        for position, term in self._constants:
            if values[position] != term:
                return None
        for i, j in self._equal:
            if values[i] != values[j]:
                return None
        for position in self._restricted:
            if isinstance(values[position], Literal):
                return None
        return tuple(
            _head_value(values[part] if type(part) is int else part, store)
            for part in self._out
        )


class _Tree:
    """One prepared factorised tree of ``view``: ``unions`` joined on
    top of a leaf over ``columns`` whose rows an update supplies.

    Compiled on first use. What compilation freezes — the join order,
    and every constant of the alternatives as a code or, when the
    dictionary lacks it, as an impossible lookup or a term — is
    re-derived under :meth:`_stale`.
    """

    def __init__(
        self,
        view: ConjunctiveQuery,
        columns: tuple[str, ...],
        unions: Sequence[AtomUnion],
        store: TripleStore,
        tally: Counter,
    ) -> None:
        self.view = view
        self.unions = tuple(unions)
        self.store = store
        self.tally = tally
        self._leaf = ExtentScan("maintain-bound", (), columns)
        self._root: Operator | None = None
        self._size = 0
        self._terms = 0
        self._unknown: set[Term] = set()

    def _stale(self, size: int) -> bool:
        """Whether what was frozen at compile time must be re-derived:
        a constant the dictionary lacked then has appeared, or the
        store's size has drifted past :data:`_REPLAN_FACTOR` and the
        join order with it."""
        if self._root is None:
            return True
        if self._unknown and len(self.store.dictionary) != self._terms:
            self._terms = len(self.store.dictionary)
            if any(self.store.encode_term(term) is not None for term in self._unknown):
                return True
        return (
            size > self._size * _REPLAN_FACTOR or size * _REPLAN_FACTOR < self._size
        )

    def run(self, rows: Iterable[tuple], size: int) -> Operator:
        """The tree, compiled afresh if stale, with ``rows`` in its leaf."""
        if self._stale(size):
            store = self.store
            self._size = size
            self._terms = len(store.dictionary)
            self._unknown = {
                term
                for part in self.unions
                for alternative in part.alternatives
                for term in (*alternative.head, *alternative.atoms[0])
                if not isinstance(term, Variable) and store.encode_term(term) is None
            }
            self._root = _factorised_tree(self.unions, store, self._leaf)
            self.tally["plans_compiled"] += 1
        self._leaf._rows = list(rows)
        self.tally["plans_run"] += 1
        return self._root


class MaterializedViewSet:
    """A state's views kept materialized and current under updates.

    The instance owns the store: route every ``insert`` / ``remove``
    through it so the extents stay consistent. With ``schema`` given,
    views are maintained through their reformulations, so implicit
    triples are reflected without saturating the store.
    """

    def __init__(
        self,
        state: State,
        store: TripleStore,
        schema: RDFSchema | None = None,
    ) -> None:
        self.state = state
        self.store = store
        schema = RDFSchema() if schema is None else schema
        self._extents: dict[str, set[Answer]] = {}
        #: Work done by the update in flight, published to the metrics
        #: registry per update when it is enabled.
        self._tally: Counter = Counter()
        #: Per constant (predicate, object) of an alternative's atom,
        #: ``None`` standing for a variable: the alternatives' bindings
        #: and the delta tree of their (view, atom).
        self._delta: dict[tuple, list[tuple[_Tree, _Binding]]] = {}
        #: Per view, the binding of its head and the re-check tree.
        self._rederive: dict[str, tuple[_Binding, _Tree]] = {}
        for view in state.views:
            name = view.name
            self._extents[name] = evaluate(reformulate(view, schema), store)
            unions = factorise(view, schema)
            head = _Binding(view.head, view.non_literal)
            self._rederive[name] = (
                head,
                _Tree(view, head.columns, unions, store, self._tally),
            )
            for index, part in enumerate(unions):
                tree = _Tree(
                    view,
                    tuple(variable.name for variable in part.columns),
                    unions[:index] + unions[index + 1 :],
                    store,
                    self._tally,
                )
                for alternative in part.alternatives:
                    atom = alternative.atoms[0]
                    key = tuple(
                        None if isinstance(term, Variable) else term
                        for term in (atom.p, atom.o)
                    )
                    binding = _Binding(atom, alternative.non_literal, alternative.head)
                    self._delta.setdefault(key, []).append((tree, binding))

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert(self, triple: Triple) -> dict[str, int]:
        """Add a triple; returns per-view counts of new rows."""
        if metrics.enabled or tracing.sink is not None:
            return self._observed("insert", "rows_added", self._insert, triple)
        return self._insert(triple)

    def remove(self, triple: Triple) -> dict[str, int]:
        """Remove a triple; returns per-view counts of dropped rows."""
        if metrics.enabled or tracing.sink is not None:
            return self._observed("remove", "rows_dropped", self._remove, triple)
        return self._remove(triple)

    def _observed(self, kind: str, changed_rows: str, update, triple: Triple):
        """One update under a span, its tally published as counters."""
        self._tally.clear()
        with tracing.span("selection.maintain.update", kind=kind):
            changed = update(triple)
        if metrics.enabled:
            metrics.inc("selection.maintain.updates")
            metrics.inc(f"selection.maintain.{changed_rows}", sum(changed.values()))
            for name in _TALLIED:
                metrics.inc(f"selection.maintain.{name}", self._tally[name])
        return changed

    def _insert(self, triple: Triple) -> dict[str, int]:
        added = dict.fromkeys(self._extents, 0)
        if not self.store.add(triple):
            return added
        for name, rows in self._delta_rows(triple).items():
            extent = self._extents[name]
            before = len(extent)
            extent |= rows
            added[name] = len(extent) - before
        return added

    def _remove(self, triple: Triple) -> dict[str, int]:
        dropped = dict.fromkeys(self._extents, 0)
        if triple not in self.store:
            return dropped
        # Candidates must be computed while the triple is still present.
        candidates = self._delta_rows(triple)
        self.store.remove(triple)
        size = len(self.store)
        for name, rows in candidates.items():
            extent = self._extents[name]
            binding, tree = self._rederive[name]
            for answer in rows & extent:
                self._tally["rederive_checks"] += 1
                row = binding.row(answer, self.store)
                if row is None or not _derives(tree.run((row,), size)):
                    extent.discard(answer)
                    dropped[name] += 1
        return dropped

    def _delta_rows(self, triple: Triple) -> dict[str, set[Answer]]:
        """Per view, the rows with a derivation that uses ``triple`` on
        the store as it stands (the delta rows of every (view, atom)
        the triple binds an alternative of, joined with the view's
        other atoms); views it cannot touch are absent."""
        store = self.store
        values = triple.as_tuple()
        _, p, o = values
        bound: dict[_Tree, set[tuple]] = {}
        for key in ((p, o), (p, None), (None, o), (None, None)):
            for tree, binding in self._delta.get(key, ()):
                row = binding.row(values, store)
                if row is not None:
                    self._tally["rules_matched"] += 1
                    bound.setdefault(tree, set()).add(row)
        size = len(store)
        encoded: dict[str, set[tuple]] = {}
        for tree, rows in bound.items():
            view = tree.view
            images = _head_images(view.head, tree.run(rows, size), store)
            if images:
                encoded.setdefault(view.name, set()).update(images)
        return {
            name: decode_images(images, store) for name, images in encoded.items()
        }

    def insert_all(self, triples: Iterable[Triple]) -> None:
        """Insert many triples."""
        for triple in triples:
            self.insert(triple)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def extent(self, name: str) -> set[Answer]:
        """The current extent of one view (a copy)."""
        return set(self._extents[name])

    def answer(self, query_name: str) -> set[Answer]:
        """Answer a workload query from the maintained extents."""
        return answer_query(self.state, query_name, self._extents)


def _derives(root: Operator) -> bool:
    """Whether a tree yields a row; its first batch answers."""
    return next(iter(root.column_batches()), None) is not None
