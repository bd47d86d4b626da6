"""The four state transitions of Section 3.2: SC, JC, VB, VF.

Each transition replaces one view (or fuses two) and substitutes the old
view symbol in every rewriting with an equivalent expression over the new
views, exactly as Definitions 3.2–3.5 prescribe:

* **Selection Cut (SC)** promotes a constant to a head variable;
  rewritings re-apply the selection: ``π_head(v)(σ_e(v'))``.
* **Join Cut (JC)** renames one occurrence of a join variable; if the
  view stays connected the rewriting re-applies the join predicate as a
  selection, otherwise the view splits in two and the rewriting joins
  them back: ``π_head(v)(v'1 ⋈_e v'2)``.
* **View Break (VB)** splits a view along two connected, covering,
  mutually non-included node sets; the rewriting is a natural join.
  The new heads export, besides the old head variables present in each
  part, *all* variables shared between the two parts (this includes the
  variables of overlap atoms the paper's definition lists, and is what
  the natural join needs to be lossless).
* **View Fusion (VF)** merges two views with isomorphic bodies into one
  whose head is the union of heads (Definition 3.5); rewritings project
  (and rename) the fused view back to each original shape.

All produced plan nodes carry the conjunctive query they compute, so the
cost model prices every intermediate result consistently.

What a move produces — the new views and the replacement expression of
each removed view — depends only on the move's view objects and its
candidate, never on the state it is applied in. The enumerator builds
each move's product once and shares it by identity across every state
the move is applied in; a :class:`Transition` is that product plus its
source state, and builds the successor state only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, Sequence

from repro.query.algebra import (
    EqualsColumn,
    EqualsConstant,
    Join,
    Plan,
    Project,
    Rename,
    Scan,
    Select,
    replace_scan,
)
from repro.query.cq import (
    ATTRIBUTES,
    Atom,
    ConjunctiveQuery,
    Variable,
    fresh_variable,
)
from repro.query.containment import find_isomorphism
from repro.rdf.terms import Term
from repro.selection.state import State, ViewNamer, derive_key

#: Bound on an enumerator's move memo, like its candidate memos.
_MEMO_LIMIT = 500_000


class TransitionKind(Enum):
    """Transition types, in stratification order VB < SC < JC < VF."""

    VB = "VB"
    SC = "SC"
    JC = "JC"
    VF = "VF"


#: The stratified application order of Definition 5.3.
STRATIFIED_ORDER = (
    TransitionKind.VB,
    TransitionKind.SC,
    TransitionKind.JC,
    TransitionKind.VF,
)


@dataclass(frozen=True, slots=True, eq=False)
class Move:
    """The state-independent product of one move.

    ``replacements[i]`` is the expression that replaces every scan of
    ``removed[i]``; each one reads all ``added`` views.
    """

    description: str
    removed: tuple[ConjunctiveQuery, ...]
    added: tuple[ConjunctiveQuery, ...]
    replacements: tuple[Plan, ...]
    _substituted: dict = field(default_factory=dict, init=False, repr=False)

    def substitute(self, plan: Plan) -> Plan:
        """``plan`` with the replacements substituted, in order.

        Memoized per plan object (id-keyed, identity-checked): states
        share untouched rewriting plans by identity, so one plan meets
        the same move on many branches, and the substituted plan is
        then shared too.
        """
        cached = self._substituted.get(id(plan))
        if cached is not None and cached[0] is plan:
            return cached[1]
        result = plan
        for view, replacement in zip(self.removed, self.replacements):
            result = replace_scan(result, view.name, replacement)
        if len(self._substituted) > _MEMO_LIMIT:
            self._substituted.clear()
        self._substituted[id(plan)] = (plan, result)
        return result


class Transition:
    """One applicable transition, held as a delta against its source.

    ``key`` is the successor's state key, derived from the source's;
    ``result`` (the state reached, sharing every untouched view and
    rewriting plan with the source by identity) is built on first
    access.
    """

    __slots__ = ("kind", "source", "move", "_key", "_result")

    def __init__(self, kind: TransitionKind, source: State, move: Move) -> None:
        self.kind = kind
        self.source = source
        self.move = move
        self._key: tuple | None = None
        self._result: State | None = None

    @property
    def description(self) -> str:
        return self.move.description

    @property
    def removed(self) -> tuple[ConjunctiveQuery, ...]:
        return self.move.removed

    @property
    def added(self) -> tuple[ConjunctiveQuery, ...]:
        return self.move.added

    @property
    def key(self) -> tuple:
        if self._key is None:
            self._key = derive_key(self.source.key, self.move.removed, self.move.added)
        return self._key

    @property
    def result(self) -> State:
        if self._result is None:
            move = self.move
            self._result = self.source.replace_views(
                move.removed, move.added, move.substitute
            )
        return self._result


def _scan(view: ConjunctiveQuery) -> Scan:
    """A scan of a view; the schema is the view's head variable names."""
    return Scan(view.name, tuple(term.name for term in view.head), query=view)


def _head_with(
    head: tuple, extra: Sequence[Variable]
) -> tuple[Variable, ...]:
    """Extend a head with new variables, keeping order and uniqueness."""
    result = list(head)
    for variable in extra:
        if variable not in result:
            result.append(variable)
    return tuple(result)


def _ordered_vars(atoms: Sequence[Atom], include: set[Variable]) -> list[Variable]:
    """The subset ``include`` of variables, in first-occurrence order."""
    ordered: list[Variable] = []
    for atom in atoms:
        for term in atom:
            if isinstance(term, Variable) and term in include and term not in ordered:
                ordered.append(term)
    return ordered


class TransitionEnumerator:
    """Enumerates and applies transitions on states.

    ``vb_mode`` selects how View Break candidates are generated:
    ``"disjoint"`` (default) splits the atom set in two connected
    halves; ``"overlapping"`` additionally enumerates covers with shared
    atoms, as in the paper's Figure 1 example (more states, slower).
    ``max_vb_per_view`` caps the number of VB candidates per view.
    """

    def __init__(
        self,
        namer: ViewNamer | None = None,
        vb_mode: str = "disjoint",
        max_vb_per_view: int = 64,
    ) -> None:
        if vb_mode not in ("disjoint", "overlapping"):
            raise ValueError(f"unknown vb_mode {vb_mode!r}")
        self.namer = namer or ViewNamer()
        self.vb_mode = vb_mode
        self.max_vb_per_view = max_vb_per_view
        # Per-view-object candidate memos. A view's applicable SC/JC/VB
        # candidates depend only on the (immutable) view and this
        # enumerator's configuration, and the same view object survives
        # into thousands of states during a search — enumerating its
        # candidates once per search instead of once per state visit is
        # one of the larger wins of the incremental search core.
        self._sc_cache: dict[int, tuple[list, ConjunctiveQuery]] = {}
        self._jc_cache: dict[int, tuple[list, ConjunctiveQuery]] = {}
        self._vb_cache: dict[int, tuple[list, ConjunctiveQuery]] = {}
        # The move memo: (kind, view ids, candidate) -> Move. Branches of
        # one search apply the same move to the same shared view object
        # over and over; its new views (names, fresh variables) and
        # replacement plans are built once.
        self._moves: dict[tuple, Move] = {}

    def _memoized(self, cache: dict, view: ConjunctiveQuery, compute) -> list:
        cached = cache.get(id(view))
        if cached is not None and cached[1] is view:
            return cached[0]
        result = compute(view)
        if len(cache) > _MEMO_LIMIT:
            cache.clear()
        cache[id(view)] = (result, view)
        return result

    def _move(
        self,
        kind: TransitionKind,
        views: tuple[ConjunctiveQuery, ...],
        candidate: tuple,
        build: Callable[..., Move],
    ) -> Move:
        """One move's product, from the memo (id-keyed, identity-checked)
        or ``build``."""
        key = (kind, *map(id, views), *candidate)
        move = self._moves.get(key)
        if move is None or any(a is not b for a, b in zip(move.removed, views)):
            move = build(*views, *candidate)
            if len(self._moves) > _MEMO_LIMIT:
                self._moves.clear()
            self._moves[key] = move
        return move

    # ------------------------------------------------------------------
    # Selection Cut
    # ------------------------------------------------------------------

    def apply_sc(
        self, state: State, view_name: str, atom_index: int, attribute: str
    ) -> Transition:
        """Cut the selection edge at ``(atom_index, attribute)`` of a view."""
        kind = TransitionKind.SC
        view = state.view(view_name)
        move = self._move(kind, (view,), (atom_index, attribute), self._sc_move)
        return Transition(kind, state, move)

    def _sc_move(
        self, view: ConjunctiveQuery, atom_index: int, attribute: str
    ) -> Move:
        view_name = view.name
        constant = view.atoms[atom_index].term_at(attribute)
        if isinstance(constant, Variable):
            raise ValueError(
                f"no constant at {view_name}.n{atom_index}.{attribute} to cut"
            )
        promoted = fresh_variable("C")
        new_atoms = tuple(
            atom.replace_at(attribute, promoted) if index == atom_index else atom
            for index, atom in enumerate(view.atoms)
        )
        new_view = ConjunctiveQuery(
            _head_with(view.head, [promoted]),
            new_atoms,
            name=self.namer.fresh(),
            non_literal=view.non_literal,
        )
        old_schema = tuple(term.name for term in view.head)
        selection = Select(
            _scan(new_view),
            (EqualsConstant(promoted.name, constant),),
            query=view,
        )
        replacement: Plan = Project(selection, old_schema, query=view)
        description = f"SC({view_name}.n{atom_index}.{attribute}={constant.n3()})"
        return Move(description, (view,), (new_view,), (replacement,))

    def sc_candidates(self, view: ConjunctiveQuery) -> list[tuple[int, str, Term]]:
        """All selection edges of a view (memoized per view object)."""
        return self._memoized(
            self._sc_cache, view, lambda v: v.constant_occurrences()
        )

    # ------------------------------------------------------------------
    # Join Cut
    # ------------------------------------------------------------------

    def apply_jc(
        self, state: State, view_name: str, atom_index: int, attribute: str
    ) -> Transition:
        """Cut the join variable occurrence at ``(atom_index, attribute)``."""
        kind = TransitionKind.JC
        view = state.view(view_name)
        move = self._move(kind, (view,), (atom_index, attribute), self._jc_move)
        return Transition(kind, state, move)

    def _jc_move(
        self, view: ConjunctiveQuery, atom_index: int, attribute: str
    ) -> Move:
        view_name = view.name
        variable = view.atoms[atom_index].term_at(attribute)
        if not isinstance(variable, Variable):
            raise ValueError(
                f"no variable at {view_name}.n{atom_index}.{attribute} to cut"
            )
        occurrences = sum(
            1
            for atom in view.atoms
            for term in atom
            if term == variable
        )
        if occurrences < 2:
            raise ValueError(f"{variable} is not a join variable in {view_name}")
        renamed = fresh_variable("J")
        new_atoms = tuple(
            atom.replace_at(attribute, renamed) if index == atom_index else atom
            for index, atom in enumerate(view.atoms)
        )
        probe = ConjunctiveQuery((), new_atoms)
        components = probe.connected_components()
        old_schema = tuple(term.name for term in view.head)
        description = f"JC({view_name}.n{atom_index}.{attribute}:{variable})"
        # A fresh variable standing in for a restricted occurrence keeps
        # the restriction (the position's semantics did not change).
        restriction = view.non_literal
        if variable in restriction:
            restriction = restriction | {renamed}
        if len(components) == 1:
            new_view = ConjunctiveQuery(
                _head_with(view.head, [variable, renamed]),
                new_atoms,
                name=self.namer.fresh(),
                non_literal=restriction,
            )
            selection = Select(
                _scan(new_view),
                (EqualsColumn(renamed.name, variable.name),),
                query=view,
            )
            replacement: Plan = Project(selection, old_schema, query=view)
            return Move(description, (view,), (new_view,), (replacement,))
        if len(components) != 2:
            raise AssertionError(
                f"join cut split {view_name} into {len(components)} components"
            )
        first, second = components
        if atom_index not in first:
            first, second = second, first
        head_vars = set(view.head)
        views = []
        for indices, join_var in ((first, renamed), (second, variable)):
            atoms = tuple(new_atoms[i] for i in indices)
            body_vars = set()
            for atom in atoms:
                body_vars.update(atom.variables())
            head = _ordered_vars(atoms, (head_vars & body_vars) | {join_var})
            # Keep the original head order for old head variables.
            ordered_head = [t for t in view.head if t in body_vars]
            ordered_head = _head_with(tuple(ordered_head), head)
            views.append(
                ConjunctiveQuery(
                    ordered_head,
                    atoms,
                    name=self.namer.fresh(),
                    non_literal=restriction,  # trimmed to body vars on init
                )
            )
        left_view, right_view = views
        join = Join(
            _scan(left_view),
            _scan(right_view),
            pairs=((renamed.name, variable.name),),
            query=view,
        )
        replacement = Project(join, old_schema, query=view)
        return Move(description, (view,), (left_view, right_view), (replacement,))

    def jc_candidates(self, view: ConjunctiveQuery) -> list[tuple[int, str]]:
        """All cuttable join-variable occurrences ``(atom index, attribute)``."""
        return self._memoized(self._jc_cache, view, _jc_candidates)

    # ------------------------------------------------------------------
    # View Break
    # ------------------------------------------------------------------

    def apply_vb(
        self,
        state: State,
        view_name: str,
        part1: Sequence[int],
        part2: Sequence[int],
    ) -> Transition:
        """Break a view along two covering, connected node sets."""
        kind = TransitionKind.VB
        view = state.view(view_name)
        move = self._move(kind, (view,), (tuple(part1), tuple(part2)), self._vb_move)
        return Transition(kind, state, move)

    def _vb_move(
        self,
        view: ConjunctiveQuery,
        part1: tuple[int, ...],
        part2: tuple[int, ...],
    ) -> Move:
        set1, set2 = set(part1), set(part2)
        if set1 | set2 != set(range(len(view.atoms))):
            raise ValueError("view break parts must cover all atoms")
        if set1 <= set2 or set2 <= set1:
            raise ValueError("view break parts must be mutually non-included")
        if len(view.atoms) <= 2:
            raise ValueError("view break requires more than two atoms")
        bodies = []
        variable_sets = []
        for indices in (sorted(set1), sorted(set2)):
            atoms = tuple(view.atoms[i] for i in indices)
            if not ConjunctiveQuery((), atoms).is_connected():
                raise ValueError(f"view break part {indices} is not connected")
            bodies.append(atoms)
            variables: set[Variable] = set()
            for atom in atoms:
                variables.update(atom.variables())
            variable_sets.append(variables)
        shared = variable_sets[0] & variable_sets[1]
        views = []
        for atoms, variables in zip(bodies, variable_sets):
            ordered_head = [t for t in view.head if t in variables]
            extra = _ordered_vars(atoms, shared)
            views.append(
                ConjunctiveQuery(
                    _head_with(tuple(ordered_head), extra),
                    atoms,
                    name=self.namer.fresh(),
                    non_literal=view.non_literal,  # trimmed to body vars
                )
            )
        left_view, right_view = views
        old_schema = tuple(term.name for term in view.head)
        join = Join(_scan(left_view), _scan(right_view), query=view)
        replacement = Project(join, old_schema, query=view)
        description = f"VB({view.name}:{sorted(set1)}|{sorted(set2)})"
        return Move(description, (view,), (left_view, right_view), (replacement,))

    def vb_candidates(
        self, view: ConjunctiveQuery
    ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Candidate (part1, part2) splits for a view (memoized, capped)."""
        return self._memoized(self._vb_cache, view, self._vb_candidates)

    def _vb_candidates(
        self, view: ConjunctiveQuery
    ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        n = len(view.atoms)
        if n <= 2:
            return []
        adjacency = view_adjacency(view)
        connected = _connected_subsets(n, adjacency)
        candidates: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        all_atoms = frozenset(range(n))
        connected_set = set(connected)
        if self.vb_mode == "disjoint":
            for subset in connected:
                if 0 not in subset or len(subset) == n:
                    continue  # fix 0 in part1 to enumerate unordered pairs once
                complement = frozenset(all_atoms - subset)
                if complement in connected_set:
                    candidates.append((tuple(sorted(subset)), tuple(sorted(complement))))
                if len(candidates) >= self.max_vb_per_view:
                    break
            return candidates
        seen_pairs: set[frozenset[frozenset[int]]] = set()
        for subset1 in connected:
            if len(subset1) == n:
                continue
            for subset2 in connected:
                if subset1 | subset2 != all_atoms:
                    continue
                if subset1 <= subset2 or subset2 <= subset1:
                    continue
                pair = frozenset((subset1, subset2))
                if pair in seen_pairs:
                    continue
                seen_pairs.add(pair)
                candidates.append((tuple(sorted(subset1)), tuple(sorted(subset2))))
                if len(candidates) >= self.max_vb_per_view:
                    return candidates
        return candidates

    # ------------------------------------------------------------------
    # View Fusion
    # ------------------------------------------------------------------

    def apply_vf(self, state: State, name1: str, name2: str) -> Transition:
        """Fuse two views with isomorphic bodies (Definition 3.5)."""
        move = self.vf_move(state.view(name1), state.view(name2))
        return Transition(TransitionKind.VF, state, move)

    def vf_move(self, view1: ConjunctiveQuery, view2: ConjunctiveQuery) -> Move:
        """The product of fusing two views, independent of any state."""
        return self._move(TransitionKind.VF, (view1, view2), (), self._vf_move)

    def _vf_move(self, view1: ConjunctiveQuery, view2: ConjunctiveQuery) -> Move:
        name1, name2 = view1.name, view2.name
        mapping = find_isomorphism(view1, view2)
        if mapping is None:
            raise ValueError(f"views {name1} and {name2} are not isomorphic")
        if {mapping[v] for v in view2.non_literal} != set(view1.non_literal):
            raise ValueError(
                f"views {name1} and {name2} differ in non-literal restrictions"
            )
        mapped_head2 = tuple(mapping[term] for term in view2.head)
        fused_head = _head_with(view1.head, mapped_head2)
        fused = ConjunctiveQuery(
            fused_head,
            view1.atoms,
            name=self.namer.fresh(),
            non_literal=view1.non_literal,
        )
        schema1 = tuple(term.name for term in view1.head)
        schema2 = tuple(term.name for term in view2.head)
        replacement1: Plan = Project(_scan(fused), schema1, query=view1)
        projected2 = Project(
            _scan(fused), tuple(term.name for term in mapped_head2), query=view2
        )
        replacement2: Plan = Rename(projected2, schema2, query=view2)
        return Move(
            f"VF({name1},{name2})",
            (view1, view2),
            (fused,),
            (replacement1, replacement2),
        )

    def vf_candidates(self, state: State) -> list[tuple[str, str]]:
        """Name pairs of views with isomorphic bodies (see
        :func:`~repro.selection.state.fusable_pairs`)."""
        return [(view1.name, view2.name) for view1, view2 in state.fusable_pairs()]

    # ------------------------------------------------------------------
    # Uniform enumeration
    # ------------------------------------------------------------------

    def transitions(
        self, state: State, kinds: Sequence[TransitionKind] = STRATIFIED_ORDER
    ) -> Iterator[Transition]:
        """Lazily yield applicable transitions of the given kinds, in order."""
        for kind in kinds:
            if kind is TransitionKind.VB:
                for view in state.views:
                    for part1, part2 in self.vb_candidates(view):
                        yield self.apply_vb(state, view.name, part1, part2)
            elif kind is TransitionKind.SC:
                for view in state.views:
                    for atom_index, attribute, _ in self.sc_candidates(view):
                        yield self.apply_sc(state, view.name, atom_index, attribute)
            elif kind is TransitionKind.JC:
                for view in state.views:
                    for atom_index, attribute in self.jc_candidates(view):
                        yield self.apply_jc(state, view.name, atom_index, attribute)
            else:
                for name1, name2 in self.vf_candidates(state):
                    yield self.apply_vf(state, name1, name2)


def _jc_candidates(view: ConjunctiveQuery) -> list[tuple[int, str]]:
    counts: dict[Variable, int] = {}
    for atom in view.atoms:
        for term in atom:
            if isinstance(term, Variable):
                counts[term] = counts.get(term, 0) + 1
    candidates = []
    for index, atom in enumerate(view.atoms):
        for attribute, term in zip(ATTRIBUTES, atom):
            if isinstance(term, Variable) and counts[term] >= 2:
                candidates.append((index, attribute))
    return candidates


def view_adjacency(view: ConjunctiveQuery) -> dict[int, set[int]]:
    """Atom-index adjacency of one view's join graph (Definition 3.1).

    ``adjacency[i]`` holds the atoms sharing a join variable with atom
    ``i``. The join graph of a view never changes (views are immutable)
    and the same view object appears in many states during a search, so
    the adjacency is memoized on the view object; the View Break
    candidates are the connected covers of this graph.
    """
    adjacency = view.__dict__.get("_adjacency")
    if adjacency is None:
        adjacency = {i: set() for i in range(len(view.atoms))}
        for i, _, j, _ in view.join_graph_edges():
            adjacency[i].add(j)
            adjacency[j].add(i)
        view.__dict__["_adjacency"] = adjacency
    return adjacency


def _connected_subsets(n: int, adjacency: dict[int, set[int]]) -> list[frozenset[int]]:
    """All non-empty connected subsets of atom indices.

    Standard enumeration: grow each subset only with neighbours greater
    than its smallest excluded vertex barrier — here a simple recursive
    expansion with dedup, adequate for the paper's view sizes (≤ ~12
    atoms).
    """
    found: set[frozenset[int]] = set()

    def grow(subset: frozenset[int], frontier: set[int]) -> None:
        found.add(subset)
        for vertex in sorted(frontier):
            extended = subset | {vertex}
            if extended in found:
                continue
            new_frontier = (frontier | adjacency[vertex]) - extended
            grow(extended, new_frontier)

    for start in range(n):
        grow(frozenset({start}), set(adjacency[start]))
    return sorted(found, key=lambda s: (len(s), sorted(s)))
