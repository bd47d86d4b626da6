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

With an RDF Schema, each view is maintained through its reformulation
(a union of conjunctive queries): the deltas of one explicit triple then
include everything the triple entails, with no saturation step —
Theorem 4.2 at work on updates.

An update costs what it can change. Every (view, disjunct, atom) delta
rule is indexed at construction by its atom's constant predicate and
object, so a triple only meets the rules it can match. The rules of one
view matched on the same atom form a :class:`_RuleGroup`: the atoms all
their remainders keep (reformulation rules 1–4 replace one atom and
leave the rest) are joined **once** from the bound triple and the —
usually empty — result fans out to each rule's leftover atoms. Both
levels are ordinary planner trees (:func:`repro.engine.planner._join_tree`)
compiled once, lazily, on top of a swappable one-row leaf; they stay
correct across writes because index probes read the live store and
dictionary codes are append-only. The deletion re-check is the same
structure with the view's head as the bound pattern.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping, Sequence

from repro.engine.operators import ExtentScan, Operator
from repro.engine.planner import (
    _estimator,
    _head_images,
    _join_tree,
    decode_images,
)
from repro.obs import metrics, tracing
from repro.query.cq import Atom, ConjunctiveQuery, QueryTerm, Variable
from repro.query.evaluation import Answer, evaluate
from repro.rdf.schema import RDFSchema
from repro.rdf.store import TripleStore
from repro.rdf.terms import Literal, Term
from repro.rdf.triples import Triple
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
    """How a pattern of query terms — an atom, or a view head — binds to
    one tuple of RDF terms. Compiled once, applied per update: the one
    place both the delta rules and the deletion re-check enforce
    constants, repeated variables and the literal restriction."""

    __slots__ = ("variables", "_picks", "_constants", "_equal", "_restricted")

    def __init__(
        self, pattern: Sequence[QueryTerm], non_literal: frozenset[Variable]
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
        #: The pattern's distinct variables, in first-occurrence order —
        #: the columns of the row :meth:`row` returns.
        self.variables = tuple(first)
        self._picks = tuple(first.values())
        self._constants = tuple(constants)
        self._equal = tuple(equal)
        self._restricted = tuple(
            position for variable, position in first.items() if variable in non_literal
        )

    def row(self, values: Sequence[Term], lookup) -> tuple[int, ...] | None:
        """The dictionary codes ``values`` gives the pattern's variables,
        or None when the pattern does not match: a constant differs, a
        repeated variable disagrees, or a ``non_literal`` variable would
        bind a literal (the reformulation's rule-4 semantics)."""
        for position, term in self._constants:
            if values[position] != term:
                return None
        for i, j in self._equal:
            if values[i] != values[j]:
                return None
        for position in self._restricted:
            if isinstance(values[position], Literal):
                return None
        row = tuple(lookup(values[position]) for position in self._picks)
        # A term the dictionary never saw occurs in no triple (a row can
        # hold one: the head constant of a disjunct whose body uses
        # other constants); as a code it would probe as a wildcard.
        return None if None in row else row


def _reachable(atoms: Iterable[Atom], bound: Iterable[Variable]) -> list[Atom]:
    """The atoms connected to ``bound`` through shared variables — the
    ones a join started from a row over ``bound`` reaches by index
    probes alone, with no Cartesian step."""
    known = set(bound)
    pending = list(atoms)
    reached: list[Atom] = []
    grew = True
    while grew:
        grew = False
        for atom in pending[:]:
            if atom.variables() & known:
                known |= atom.variables()
                reached.append(atom)
                pending.remove(atom)
                grew = True
    return reached


class _RuleGroup:
    """The rules of one view that start from the same bound pattern.

    A rule is ``(head, atoms)``: once ``pattern`` is bound — the atom an
    updated triple matched, or for the deletion re-check the head a
    candidate row matched — ``atoms`` is the conjunction left to join
    and ``head`` what to project. Rules of a group also agree on
    ``non_literal``, so one restriction governs every tree below.

    The atoms every rule keeps, as far as they are reachable from the
    pattern's variables, are the group's *shared* atoms: they are joined
    once per bound row (``_shared_root``), and each rule's tree joins
    only its leftover atoms on top of ``_fan``, a leaf that scans the
    shared result.
    """

    def __init__(
        self,
        view: str,
        pattern: Sequence[QueryTerm],
        non_literal: frozenset[Variable],
        store: TripleStore,
        tally: Counter,
    ) -> None:
        self.view = view
        self.binding = _Binding(pattern, non_literal)
        self.non_literal = non_literal
        self.store = store
        self.tally = tally
        self._rules: dict[tuple, tuple[tuple[QueryTerm, ...], tuple[Atom, ...]]] = {}
        self._leaf = ExtentScan(
            "maintain-bound", (), tuple(v.name for v in self.binding.variables)
        )
        self._shared_root: Operator | None = None  # compiled on first use
        self._fan = self._leaf
        self._shared: frozenset[Atom] = frozenset()
        self._trees: list[Operator | None] = []  # aligned with _rules
        self._size = 0
        self._terms = 0
        self._unknown: set[Term] = set()

    def add(self, head: tuple[QueryTerm, ...], atoms: Sequence[Atom]) -> None:
        """Register one rule; a rule already present (same head, same
        atoms — disjuncts may differ elsewhere) is stored once."""
        atoms = tuple(dict.fromkeys(atoms))
        self._rules.setdefault((head, frozenset(atoms)), (head, atoms))

    def __len__(self) -> int:
        return len(self._rules)

    # -- compilation ---------------------------------------------------

    def _compile(
        self, leaf: Operator, atoms: Sequence[Atom], bound: Iterable[Variable]
    ) -> Operator:
        """The planner's tree joining ``atoms`` on top of ``leaf``, in
        the estimator's order given ``bound`` as already bound."""
        store = self.store
        for atom in atoms:
            for constant in atom.constants():
                if store.encode_term(constant) is None:
                    self._unknown.add(constant)
        order = _estimator(store, None).join_order(atoms, bound)
        self.tally["plans_compiled"] += 1
        return _join_tree(store, leaf, [atoms[i] for i in order], self.non_literal)

    def _prepare(self, size: int) -> None:
        """Freeze the shared level for the store as it stands: which
        atoms are shared, their tree, and the leaf the rules fan out
        from. Rule trees are dropped and recompile on their next use."""
        common = frozenset.intersection(*(atoms for _, atoms in self._rules))
        variables = self.binding.variables
        _, first = next(iter(self._rules.values()))
        shared = _reachable([atom for atom in first if atom in common], variables)
        self._size = size
        self._terms = len(self.store.dictionary)
        self._unknown = set()
        self._trees = [None] * len(self._rules)
        self._shared = frozenset(shared)
        if shared:
            self._shared_root = self._compile(self._leaf, shared, variables)
            self._fan = ExtentScan("maintain-shared", (), self._shared_root.schema)
        else:
            self._shared_root = self._fan = self._leaf

    def _stale(self, size: int) -> bool:
        """Whether what was frozen at compile time must be re-derived:
        a constant the dictionary lacked then (its atoms compiled to
        ``impossible``) has appeared, or the store's size has drifted
        past :data:`_REPLAN_FACTOR` and the join orders with it."""
        if self._shared_root is None:
            return True
        if self._unknown and len(self.store.dictionary) != self._terms:
            self._terms = len(self.store.dictionary)
            if any(self.store.encode_term(term) is not None for term in self._unknown):
                return True
        return (
            size > self._size * _REPLAN_FACTOR or size * _REPLAN_FACTOR < self._size
        )

    # -- execution -----------------------------------------------------

    def _trees_over(self, row: tuple[int, ...], size: int) -> Iterator[tuple]:
        """``(head, tree)`` per rule with ``row`` bound and the shared
        atoms joined; nothing when the shared join comes up empty."""
        if self._stale(size):
            self._prepare(size)
        self._leaf._rows = (row,)
        if self._fan is not self._leaf:
            self.tally["plans_run"] += 1
            shared_rows = self._shared_root.rows()
            if not shared_rows:
                return
            self._fan._rows = shared_rows
        for index, (head, atoms) in enumerate(self._rules.values()):
            tree = self._trees[index]
            if tree is None:
                leftover = [atom for atom in atoms if atom not in self._shared]
                tree = self._fan
                if leftover:
                    bound = [Variable(name) for name in self._fan.schema]
                    tree = self._compile(self._fan, leftover, bound)
                self._trees[index] = tree
            if tree is not self._fan:
                self.tally["plans_run"] += 1
            yield head, tree

    def images(self, row: tuple[int, ...], size: int) -> set[tuple]:
        """Encoded head images of every rule with the pattern bound to
        ``row`` — the rows of the view that have a derivation through
        the bound pattern."""
        images: set[tuple] = set()
        for head, tree in self._trees_over(row, size):
            images |= _head_images(head, tree, self.store)
        return images

    def derives(self, row: tuple[int, ...], size: int) -> bool:
        """True when some rule still has a derivation with the pattern
        bound to ``row``; the first batch of a tree answers."""
        return any(
            next(iter(tree.column_batches()), None) is not None
            for _, tree in self._trees_over(row, size)
        )


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
        self._extents: dict[str, set[Answer]] = {}
        #: Work done by the update in flight, published to the metrics
        #: registry per update when it is enabled.
        self._tally: Counter = Counter()
        #: Delta-rule groups by the constant (predicate, object) of the
        #: atom they match on, ``None`` standing for a variable.
        self._delta: dict[tuple, list[_RuleGroup]] = {}
        #: Per view, the groups of the deletion re-check (one per head).
        self._rederive: dict[str, list[_RuleGroup]] = {}
        for view in state.views:
            if schema is None:
                disjuncts: tuple[ConjunctiveQuery, ...] = (view,)
            else:
                from repro.reformulation.reformulate import reformulate

                disjuncts = reformulate(view, schema).disjuncts
            self._extents[view.name] = set().union(
                *(evaluate(disjunct, store) for disjunct in disjuncts)
            )
            self._index_rules(view.name, disjuncts)

    def _index_rules(self, name: str, disjuncts: Sequence[ConjunctiveQuery]) -> None:
        delta: dict[tuple, _RuleGroup] = {}
        rederive: dict[tuple, _RuleGroup] = {}

        def group(groups: dict, pattern, non_literal) -> _RuleGroup:
            found = groups.get((pattern, non_literal))
            if found is None:
                found = groups[pattern, non_literal] = _RuleGroup(
                    name, tuple(pattern), non_literal, self.store, self._tally
                )
            return found

        for disjunct in disjuncts:
            atoms, restricted = disjunct.atoms, disjunct.non_literal
            group(rederive, disjunct.head, restricted).add(disjunct.head, atoms)
            for index, atom in enumerate(atoms):
                group(delta, atom, restricted).add(
                    disjunct.head, atoms[:index] + atoms[index + 1 :]
                )
        self._rederive[name] = list(rederive.values())
        for (atom, _), found in delta.items():
            key = tuple(
                None if isinstance(term, Variable) else term for term in (atom.p, atom.o)
            )
            self._delta.setdefault(key, []).append(found)

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
        lookup = self.store.dictionary.lookup
        for name, rows in candidates.items():
            extent = self._extents[name]
            for answer in rows & extent:
                self._tally["rederive_checks"] += 1
                for group in self._rederive[name]:
                    row = group.binding.row(answer, lookup)
                    if row is not None and group.derives(row, size):
                        break
                else:
                    extent.discard(answer)
                    dropped[name] += 1
        return dropped

    def _delta_rows(self, triple: Triple) -> dict[str, set[Answer]]:
        """Per view, the rows with a derivation that uses ``triple`` on
        the store as it stands (the delta-rule union over the atoms the
        triple can match); views it cannot touch are absent."""
        store = self.store
        size = len(store)
        lookup = store.dictionary.lookup
        values = triple.as_tuple()
        _, p, o = values
        encoded: dict[str, set[tuple]] = {}
        for key in ((p, o), (p, None), (None, o), (None, None)):
            for group in self._delta.get(key, ()):
                row = group.binding.row(values, lookup)
                if row is None:
                    continue
                self._tally["rules_matched"] += len(group)
                images = group.images(row, size)
                if images:
                    encoded.setdefault(group.view, set()).update(images)
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

    def extents(self) -> Mapping[str, list[Answer]]:
        """All extents, in the shape :func:`answer_query` expects."""
        return {name: list(rows) for name, rows in self._extents.items()}

    def answer(self, query_name: str) -> set[Answer]:
        """Answer a workload query from the maintained extents."""
        return answer_query(self.state, query_name, self.extents())
