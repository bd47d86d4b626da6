"""Candidate view sets as search states (Definitions 2.3 and 3.1).

A :class:`State` pairs a set of views (conjunctive queries over the
triple table, with variable-only duplicate-free heads) with one rewriting
per workload query. Rewritings are tuples of
:class:`RewritingDisjunct` — almost always a single disjunct; the
pre-reformulation scenario of Section 4.3 uses genuine unions.

Two states are equivalent iff they have the same view sets; the
:attr:`State.key` is the sorted multiset of per-view canonical forms and
implements exactly that equivalence for duplicate detection.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.query.algebra import Plan, Scan, view_names
from repro.query.cq import ConjunctiveQuery, QueryTerm, UnionQuery, Variable
from repro.query.containment import canonical_form, find_isomorphism


@dataclass(frozen=True)
class RewritingDisjunct:
    """One union term of a rewriting: an executable plan over views.

    ``head_template`` reorders/extends the plan's output into the query's
    answer shape: each entry is either a Variable naming a plan column or
    a constant to emit verbatim. ``None`` means the plan columns already
    are the answer, in order.
    """

    plan: Plan
    head_template: tuple[QueryTerm, ...] | None = None

    def answer_rows(self, rows: Iterable[tuple]) -> list[tuple]:
        """Apply the head template to plan output rows."""
        if self.head_template is None:
            return list(rows)
        schema = self.plan.schema
        positions = [
            schema.index(term.name) if isinstance(term, Variable) else None
            for term in self.head_template
        ]
        answers = []
        for row in rows:
            answers.append(
                tuple(
                    row[position] if position is not None else term
                    for position, term in zip(positions, self.head_template)
                )
            )
        return answers


Rewriting = tuple[RewritingDisjunct, ...]


class ViewNamer:
    """Mints unique view names (``v0``, ``v1``, ...) within one search."""

    def __init__(self, prefix: str = "v") -> None:
        self._prefix = prefix
        self._counter = itertools.count()

    def fresh(self) -> str:
        return f"{self._prefix}{next(self._counter)}"


#: Interns each distinct view canonical form as a small integer, so state
#: keys are tuples of ints (fast to sort, hash and compare) instead of
#: tuples of deeply nested canonical encodings.
_CANONICAL_TOKENS: dict[tuple, int] = {}


def canonical_token(view: ConjunctiveQuery) -> int:
    """A small integer identifying the view's isomorphism class.

    Memoized on the view object, like its hash: views are immutable and
    shared across many states, so after a view is tokenized once every
    later state built around it gets its key component in O(1) — without
    even re-hashing the view (canonical_form's own memo still hashes the
    full query per call) — and the memo lives exactly as long as the
    view does.
    """
    token = view.__dict__.get("_token")
    if token is None:
        form = canonical_form(view)
        token = _CANONICAL_TOKENS.get(form)
        if token is None:
            token = len(_CANONICAL_TOKENS)
            _CANONICAL_TOKENS[form] = token
        view.__dict__["_token"] = token
    return token


def body_signature(view: ConjunctiveQuery) -> tuple:
    """A cheap isomorphism-invariant filter key for a view body.

    Memoized on the view object: views are immutable and shared across
    many states, and View Fusion candidates are grouped by it constantly.
    """
    signature = view.__dict__.get("_body_signature")
    if signature is None:
        signature = tuple(
            sorted(
                tuple(
                    term.n3() if not isinstance(term, Variable) else "?"
                    for term in atom
                )
                for atom in view.atoms
            )
        )
        view.__dict__["_body_signature"] = signature
    return signature


def _signature_groups(
    views: Iterable[ConjunctiveQuery],
) -> dict[tuple, list[ConjunctiveQuery]]:
    groups: dict[tuple, list[ConjunctiveQuery]] = {}
    for view in views:
        groups.setdefault(body_signature(view), []).append(view)
    return groups


def fusable_pairs(
    views: Iterable[ConjunctiveQuery],
) -> list[tuple[ConjunctiveQuery, ConjunctiveQuery]]:
    """Pairs of views View Fusion applies to: isomorphic bodies with the
    same non-literal restrictions. Cheap filters first: only views with
    equal :func:`body_signature` are tested for isomorphism."""
    pairs = []
    for group in _signature_groups(views).values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                mapping = find_isomorphism(group[i], group[j])
                if mapping is None:
                    continue
                mapped = {mapping[v] for v in group[j].non_literal}
                if mapped != set(group[i].non_literal):
                    continue
                pairs.append((group[i], group[j]))
    return pairs


def derive_key(
    key: tuple,
    removed: Iterable[ConjunctiveQuery],
    added: Iterable[ConjunctiveQuery],
) -> tuple:
    """A state key with the ``removed`` views' tokens taken out and the
    ``added`` views' tokens put in — the key of the successor state,
    without building it."""
    tokens = list(key)
    for view in removed:
        tokens.remove(canonical_token(view))
    for view in added:
        insort(tokens, canonical_token(view))
    return tuple(tokens)


@dataclass(frozen=True, eq=False)
class State:
    """A candidate view set with its workload rewritings.

    ``validate=False`` skips the structural invariant checks; the
    transitions use it (they construct states by correctness-preserving
    rewrites, and validation cost scales with the workload).

    The derived structures — :attr:`key`, :meth:`users`,
    :meth:`fusable_pairs` — are computed on first use and cached on the
    instance; :meth:`replace_views` seeds a successor's key and users
    index from this state's instead of recomputing them.
    """

    views: tuple[ConjunctiveQuery, ...]
    rewritings: Mapping[str, Rewriting]
    validate: bool = field(default=True, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.validate:
            self._check_invariants()

    @property
    def key(self) -> tuple:
        """The sorted tuple of the views' :func:`canonical_token`."""
        key = self.__dict__.get("_key")
        if key is None:
            key = tuple(sorted(canonical_token(view) for view in self.views))
            object.__setattr__(self, "_key", key)
        return key

    def _check_invariants(self) -> None:
        names = [view.name for view in self.views]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate view names in state: {names}")
        for view in self.views:
            head_vars = [t for t in view.head if isinstance(t, Variable)]
            if len(head_vars) != len(view.head) or len(set(head_vars)) != len(head_vars):
                raise ValueError(
                    f"state views need variable-only, duplicate-free heads: {view}"
                )
        referenced: set[str] = set()
        for rewriting in self.rewritings.values():
            for disjunct in rewriting:
                referenced |= view_names(disjunct.plan)
        missing = referenced - set(names)
        if missing:
            raise ValueError(f"rewritings reference unknown views: {missing}")
        unused = set(names) - referenced
        if unused:
            raise ValueError(f"views participate in no rewriting: {unused}")

    # ------------------------------------------------------------------

    def view(self, name: str) -> ConjunctiveQuery:
        """The view carrying ``name`` (O(1) after the first lookup)."""
        by_name = self.__dict__.get("_views_by_name")
        if by_name is None:
            by_name = {candidate.name: candidate for candidate in self.views}
            object.__setattr__(self, "_views_by_name", by_name)
        try:
            return by_name[name]
        except KeyError:
            raise KeyError(f"no view named {name!r}") from None

    def total_atoms(self) -> int:
        """Total number of atoms over all views."""
        return sum(len(view) for view in self.views)

    def users(self) -> Mapping[str, frozenset[str]]:
        """View name → names of the queries whose rewriting reads it."""
        users = self.__dict__.get("_users")
        if users is None:
            found: dict[str, set[str]] = {}
            for query_name, rewriting in self.rewritings.items():
                for disjunct in rewriting:
                    for name in view_names(disjunct.plan):
                        found.setdefault(name, set()).add(query_name)
            users = {name: frozenset(queries) for name, queries in found.items()}
            object.__setattr__(self, "_users", users)
        return users

    def fusable_pairs(self) -> list[tuple[ConjunctiveQuery, ConjunctiveQuery]]:
        """The :func:`fusable_pairs` of this state's views."""
        pairs = self.__dict__.get("_fusable_pairs")
        if pairs is None:
            pairs = fusable_pairs(self.views)
            object.__setattr__(self, "_fusable_pairs", pairs)
        return pairs

    def _signature_groups(self) -> dict[tuple, list[ConjunctiveQuery]]:
        groups = self.__dict__.get("_groups")
        if groups is None:
            groups = _signature_groups(self.views)
            object.__setattr__(self, "_groups", groups)
        return groups

    def may_fuse(
        self, removed: Sequence[ConjunctiveQuery], added: Sequence[ConjunctiveQuery]
    ) -> bool:
        """Whether the state ``replace_views(removed, added, …)`` builds
        can hold a fusable pair — without building it.

        ``False`` is exact: a fusable pair either survives from this
        state or involves an added view, whose body signature must then
        occur twice in the successor. ``True`` may be a signature
        collision between non-isomorphic bodies.
        """
        for pair in self.fusable_pairs():
            if not any(view is member for view in removed for member in pair):
                return True
        change: dict[tuple, int] = {}
        for view in added:
            signature = body_signature(view)
            change[signature] = change.get(signature, 0) + 1
        for view in removed:
            signature = body_signature(view)
            if signature in change:
                change[signature] -= 1
        groups = self._signature_groups()
        return any(
            len(groups.get(signature, ())) + count >= 2
            for signature, count in change.items()
        )

    def replace_views(
        self,
        removed: Sequence[ConjunctiveQuery],
        added: Sequence[ConjunctiveQuery],
        substitute: Callable[[Plan], Plan],
    ) -> "State":
        """A new state with ``removed`` views replaced by ``added`` ones.

        ``substitute`` is the transition's symbol substitution, a
        function Plan -> Plan that replaces every scan of a removed view
        by an expression reading all ``added`` views. It is applied only
        to the rewritings the :meth:`users` index names as readers of a
        removed view; the others, and every untouched disjunct, are
        shared by identity (which is what lets the cost model's id-keyed
        memo price them for free).
        """
        users = dict(self.users())
        affected: frozenset[str] = frozenset().union(
            *(users.pop(view.name, ()) for view in removed)
        )
        removed_names = {view.name for view in removed}
        views = tuple(v for v in self.views if v.name not in removed_names) + tuple(added)
        rewritings = dict(self.rewritings)
        for query_name, rewriting in self.rewritings.items():
            if query_name not in affected:
                continue
            disjuncts = []
            changed = False
            for disjunct in rewriting:
                new_plan = substitute(disjunct.plan)
                if new_plan is disjunct.plan:
                    disjuncts.append(disjunct)
                else:
                    disjuncts.append(
                        RewritingDisjunct(new_plan, disjunct.head_template)
                    )
                    changed = True
            if changed:
                rewritings[query_name] = tuple(disjuncts)
        if affected:
            for view in added:
                users[view.name] = affected
        state = State(views, rewritings, validate=False)
        object.__setattr__(state, "_key", derive_key(self.key, removed, added))
        object.__setattr__(state, "_users", users)
        return state

    def describe(self) -> str:
        """A readable multi-line rendering (views then rewritings)."""
        lines = ["views:"]
        for view in self.views:
            lines.append(f"  {view}")
        lines.append("rewritings:")
        for query_name, rewriting in sorted(self.rewritings.items()):
            rendered = " UNION ".join(str(d.plan) for d in rewriting)
            lines.append(f"  {query_name} = {rendered}")
        return "\n".join(lines)


def normalize_view(query: ConjunctiveQuery, name: str) -> tuple[
    ConjunctiveQuery, tuple[QueryTerm, ...] | None
]:
    """Turn a workload query into a view with a variable-only head.

    Returns the view and the head template needed to rebuild the query's
    answers from the view's rows (None when the head was already a
    duplicate-free variable tuple).
    """
    seen: list[Variable] = []
    needs_template = False
    for term in query.head:
        if isinstance(term, Variable):
            if term in seen:
                needs_template = True
            else:
                seen.append(term)
        else:
            needs_template = True
    view_head = tuple(seen)
    view = ConjunctiveQuery(
        view_head, query.atoms, name=name, non_literal=query.non_literal
    )
    return view, (query.head if needs_template else None)


def initial_state(queries: Sequence[ConjunctiveQuery], namer: ViewNamer | None = None) -> State:
    """The search's initial state: one view per workload query (S0).

    Each rewriting is a plain view scan, so S0 has minimal rewriting cost
    but maximal storage/maintenance cost (Section 5.1).
    """
    namer = namer or ViewNamer()
    views = []
    rewritings: dict[str, Rewriting] = {}
    for query in queries:
        if query.name in rewritings:
            raise ValueError(f"duplicate query name {query.name!r} in workload")
        view, template = normalize_view(query, namer.fresh())
        views.append(view)
        scan = Scan(view.name, tuple(t.name for t in view.head), query=view)
        rewritings[query.name] = (RewritingDisjunct(scan, template),)
    return State(tuple(views), rewritings)


def initial_state_from_unions(
    unions: Sequence[UnionQuery], namer: ViewNamer | None = None
) -> State:
    """Pre-reformulation initial state (Section 4.3).

    Every disjunct of every reformulated query becomes a view; each
    query's rewriting is the union of its disjunct scans.
    """
    namer = namer or ViewNamer()
    views = []
    rewritings: dict[str, Rewriting] = {}
    for union in unions:
        if union.name in rewritings:
            raise ValueError(f"duplicate query name {union.name!r} in workload")
        disjuncts = []
        for disjunct_query in union:
            view, template = normalize_view(disjunct_query, namer.fresh())
            views.append(view)
            scan = Scan(view.name, tuple(t.name for t in view.head), query=view)
            disjuncts.append(RewritingDisjunct(scan, template))
        rewritings[union.name] = tuple(disjuncts)
    return State(tuple(views), rewritings)
