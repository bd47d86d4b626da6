"""Relational-algebra rewriting plans over view symbols.

Rewritings (Definition 2.2) are represented as algebra trees whose leaves
scan views: ``Scan``, ``Select``, ``Project`` and ``Join`` nodes. The
transitions of Section 3.2 *textually substitute* view symbols with
expressions — :func:`replace_scan` implements exactly that tree rewrite.

Every node optionally carries the conjunctive query it computes
(``query``). Transitions know the semantics of each expression they build
(e.g. after a Selection Cut, the selection over the relaxed view computes
the original view), so the cost model can estimate every intermediate
cardinality with the same estimator used for view sizes.

Plans are executable: :func:`execute` runs a plan over materialized view
extents with hash joins, which is how the benchmarks answer workload
queries from the recommended views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence, Union

from repro.query.cq import ConjunctiveQuery
from repro.rdf.terms import Term

Row = tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class EqualsConstant:
    """Selection condition ``column = constant`` (a selection edge)."""

    column: str
    value: Term

    def __str__(self) -> str:
        return f"{self.column}={self.value.n3()}"


@dataclass(frozen=True, slots=True)
class EqualsColumn:
    """Selection condition ``column = column`` (an intra-view join edge)."""

    left: str
    right: str

    def __str__(self) -> str:
        return f"{self.left}={self.right}"


Condition = Union[EqualsConstant, EqualsColumn]


@dataclass(frozen=True)
class Scan:
    """Leaf: scan a view by name; the schema is the view's head."""

    view: str
    schema: tuple[str, ...]
    query: ConjunctiveQuery | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.schema)) != len(self.schema):
            raise ValueError(f"duplicate columns in scan schema {self.schema}")

    def __str__(self) -> str:
        return self.view


@dataclass(frozen=True)
class Select:
    """Filter rows of ``child`` by equality conditions."""

    child: "Plan"
    conditions: tuple[Condition, ...]
    query: ConjunctiveQuery | None = field(default=None, compare=False)

    @property
    def schema(self) -> tuple[str, ...]:
        return self.child.schema

    def __str__(self) -> str:
        rendered = ",".join(str(c) for c in self.conditions)
        return f"σ[{rendered}]({self.child})"


@dataclass(frozen=True)
class Project:
    """Keep only the given columns of ``child`` (duplicates removed)."""

    child: "Plan"
    columns: tuple[str, ...]
    query: ConjunctiveQuery | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        missing = [c for c in self.columns if c not in self.child.schema]
        if missing:
            raise ValueError(
                f"projection columns {missing} not in child schema {self.child.schema}"
            )

    @property
    def schema(self) -> tuple[str, ...]:
        return self.columns

    def __str__(self) -> str:
        return f"π[{','.join(self.columns)}]({self.child})"


@dataclass(frozen=True)
class Join:
    """Equi-join of two subplans.

    The join condition is the explicit ``pairs`` plus the natural-join
    pairs over columns shared by both schemas. The output schema keeps
    the left schema and appends the right columns not already present
    (shared columns are exported once, as in a natural join).
    """

    left: "Plan"
    right: "Plan"
    pairs: tuple[tuple[str, str], ...] = ()
    query: ConjunctiveQuery | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        for left_col, right_col in self.pairs:
            if left_col not in self.left.schema:
                raise ValueError(f"join column {left_col} not in left schema")
            if right_col not in self.right.schema:
                raise ValueError(f"join column {right_col} not in right schema")

    @property
    def natural_pairs(self) -> tuple[tuple[str, str], ...]:
        """Pairs implied by shared column names (natural-join semantics)."""
        shared = [c for c in self.left.schema if c in self.right.schema]
        return tuple((c, c) for c in shared)

    @property
    def all_pairs(self) -> tuple[tuple[str, str], ...]:
        """Explicit plus natural join pairs."""
        return self.natural_pairs + self.pairs

    @property
    def schema(self) -> tuple[str, ...]:
        extra = tuple(c for c in self.right.schema if c not in self.left.schema)
        return self.left.schema + extra

    def __str__(self) -> str:
        condition = ",".join(f"{lc}={rc}" for lc, rc in self.all_pairs)
        return f"({self.left} ⋈[{condition}] {self.right})"


@dataclass(frozen=True)
class Rename:
    """Rename the columns of ``child`` positionally (zero-cost).

    View Fusion replaces a fused view's scans with projections of the
    surviving view; Rename restores the column names the surrounding
    plan expects.
    """

    child: "Plan"
    columns: tuple[str, ...]
    query: ConjunctiveQuery | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.child.schema):
            raise ValueError(
                f"rename arity {len(self.columns)} differs from child schema "
                f"{self.child.schema}"
            )
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"duplicate columns in rename {self.columns}")

    @property
    def schema(self) -> tuple[str, ...]:
        return self.columns

    def __str__(self) -> str:
        return f"ρ[{','.join(self.columns)}]({self.child})"


Plan = Union[Scan, Select, Project, Join, Rename]


def iter_nodes(plan: Plan) -> Iterator[Plan]:
    """All nodes of the plan, children first."""
    if isinstance(plan, (Select, Project, Rename)):
        yield from iter_nodes(plan.child)
    elif isinstance(plan, Join):
        yield from iter_nodes(plan.left)
        yield from iter_nodes(plan.right)
    yield plan


def scans(plan: Plan) -> list[Scan]:
    """All Scan leaves (``v ∈ r`` in the RECε formula)."""
    return [node for node in iter_nodes(plan) if isinstance(node, Scan)]


def view_names(plan: Plan) -> set[str]:
    """Names of all views the plan reads."""
    return {scan.view for scan in scans(plan)}


def replace_scan(plan: Plan, view: str, replacement: Plan) -> Plan:
    """Substitute every ``Scan(view)`` with ``replacement``.

    The replacement must expose the same schema as the scan it replaces
    (the transitions guarantee this: they wrap new views in projections
    back to the old view's head).
    """
    if isinstance(plan, Scan):
        if plan.view != view:
            return plan
        if tuple(replacement.schema) != tuple(plan.schema):
            raise ValueError(
                f"replacement schema {replacement.schema} differs from "
                f"scan schema {plan.schema} for view {view}"
            )
        return replacement
    if isinstance(plan, Select):
        child = replace_scan(plan.child, view, replacement)
        return Select(child, plan.conditions, query=plan.query) if child is not plan.child else plan
    if isinstance(plan, Project):
        child = replace_scan(plan.child, view, replacement)
        return Project(child, plan.columns, query=plan.query) if child is not plan.child else plan
    if isinstance(plan, Rename):
        child = replace_scan(plan.child, view, replacement)
        return Rename(child, plan.columns, query=plan.query) if child is not plan.child else plan
    left = replace_scan(plan.left, view, replacement)
    right = replace_scan(plan.right, view, replacement)
    if left is plan.left and right is plan.right:
        return plan
    return Join(left, right, plan.pairs, query=plan.query)


def rename_scan(plan: Plan, old: str, new: str) -> Plan:
    """Rename a view symbol in all scans (used by View Fusion)."""
    if isinstance(plan, Scan):
        if plan.view != old:
            return plan
        return Scan(new, plan.schema, query=plan.query)
    if isinstance(plan, Select):
        child = rename_scan(plan.child, old, new)
        return Select(child, plan.conditions, query=plan.query) if child is not plan.child else plan
    if isinstance(plan, Project):
        child = rename_scan(plan.child, old, new)
        return Project(child, plan.columns, query=plan.query) if child is not plan.child else plan
    if isinstance(plan, Rename):
        child = rename_scan(plan.child, old, new)
        return Rename(child, plan.columns, query=plan.query) if child is not plan.child else plan
    left = rename_scan(plan.left, old, new)
    right = rename_scan(plan.right, old, new)
    if left is plan.left and right is plan.right:
        return plan
    return Join(left, right, plan.pairs, query=plan.query)


# ----------------------------------------------------------------------
# Execution over materialized extents
# ----------------------------------------------------------------------


def execute(plan: Plan, extents: Mapping[str, Sequence[Row]]) -> list[Row]:
    """Run the plan over view extents; returns rows (duplicates preserved
    except through Project, which deduplicates, matching set semantics of
    the conjunctive rewritings).

    Delegates to the physical-operator engine (:mod:`repro.engine`).
    Joins probe the extents' cached join tails when the extents are
    :class:`~repro.engine.extents.ViewExtent` instances (as produced by
    :func:`repro.selection.materialize.materialize_views`); plain
    ``list`` extents still work, building a transient hash table per
    join. The row order matches the historical interpreter exactly.

    >>> extents = {"v1": [(1, 2), (1, 2), (4, 5)], "v2": [(2, 3)]}
    >>> join = Join(Scan("v1", ("x", "y")), Scan("v2", ("y", "z")))
    >>> execute(join, extents)          # duplicates preserved
    [(1, 2, 3), (1, 2, 3)]
    >>> execute(Project(join, ("x",)), extents)  # Project deduplicates
    [(1,)]
    """
    # Imported lazily: the engine compiles this module's plan nodes, so
    # a top-level import would be circular.
    from repro.engine.planner import run_plan

    return run_plan(plan, extents)
