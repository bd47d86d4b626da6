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
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.query.algebra import Plan, Scan, view_names
from repro.query.cq import ConjunctiveQuery, QueryTerm, UnionQuery, Variable
from repro.query.containment import canonical_form


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


@dataclass(frozen=True, slots=True)
class StateDelta:
    """The structural difference one transition makes to a state.

    ``removed``/``added`` are the view objects that left/entered the view
    set; ``plan_changes`` pairs every rewriting-disjunct plan the symbol
    substitution rewrote with its replacement (untouched disjuncts are
    shared by identity and do not appear). This is exactly the
    information an incremental cost model needs: every component of a
    state's cost not named here is priced identically in both states.
    """

    removed: tuple[ConjunctiveQuery, ...]
    added: tuple[ConjunctiveQuery, ...]
    plan_changes: tuple[tuple[Plan, Plan], ...]


@dataclass(frozen=True, eq=False)
class State:
    """A candidate view set with its workload rewritings.

    ``validate=False`` skips the structural invariant checks; the
    transitions use it (they construct states by correctness-preserving
    rewrites, and validation cost scales with the workload).
    """

    views: tuple[ConjunctiveQuery, ...]
    rewritings: Mapping[str, Rewriting]
    validate: bool = field(default=True, compare=False, repr=False)
    key: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.validate:
            self._check_invariants()
        object.__setattr__(
            self,
            "key",
            tuple(sorted(canonical_token(view) for view in self.views)),
        )

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

    def replace_views(
        self,
        removed: Sequence[str],
        added: Sequence[ConjunctiveQuery],
        substitute,
    ) -> tuple["State", StateDelta]:
        """A new state with ``removed`` views replaced by ``added`` ones.

        ``substitute`` is a function Plan -> Plan applied to every
        rewriting disjunct plan (the transition's symbol substitution).
        Returns the state together with the :class:`StateDelta` recording
        exactly which views and disjunct plans changed.
        """
        removed_set = set(removed)
        removed_views = tuple(v for v in self.views if v.name in removed_set)
        views = tuple(v for v in self.views if v.name not in removed_set) + tuple(added)
        rewritings = {}
        plan_changes: list[tuple[Plan, Plan]] = []
        for query_name, rewriting in self.rewritings.items():
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
                    plan_changes.append((disjunct.plan, new_plan))
                    changed = True
            rewritings[query_name] = tuple(disjuncts) if changed else rewriting
        delta = StateDelta(removed_views, tuple(added), tuple(plan_changes))
        return State(views, rewritings, validate=False), delta

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
