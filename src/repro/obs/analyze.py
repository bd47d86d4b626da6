"""EXPLAIN ANALYZE: instrumented execution with per-operator accounting.

:func:`analyze_query` (and :func:`analyze_union` for a union's
routes) executes a query for real while every physical
operator records rows-out, batches and inclusive wall-clock time
through a :class:`_Probe` wrapper, then renders the annotated plan tree
through the shared :mod:`repro.obs.render` renderer — the same shapes
``--explain`` prints, with ``rows=/batches=/time_ms=`` and
actual-vs-estimated cardinalities (``est_rows=``) filled in per join
step.

Probes are only ever inserted into **freshly built** trees: a
conjunctive query and a factorised union alike get a new
:func:`~repro.engine.planner._factorised_tree` — the tree the planner
would cache, built around the store's prepared-plan cache — so the
cached, shared plans stay untouched. On the SQL pushdown route the backend's own
``EXPLAIN QUERY PLAN`` tree is attached, and the interpreted equivalent
runs instrumented alongside it so per-join actuals exist on SQLite too;
``order=kept`` on the header says SQLite visited the aliases in the
order the interpreted tree joins them (:func:`visited_aliases`).
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field

from repro.engine import mqo
from repro.engine.operators import (
    DEFAULT_BATCH_SIZE,
    HashJoin,
    Operator,
    UnionProbe,
)
from repro.engine.planner import (
    FACTORISED,
    INTERPRETED,
    SQL_PUSHDOWN,
    _atom_unions,
    _estimator,
    _factorised_tree,
    _head_images,
    _tree_images,
    decode_images,
    factorised_route,
    plan_pushdown,
)
from repro.obs.render import PlanNode, operator_tree, query_header, render, sql_tree
from repro.query.cq import UnionQuery

_CHILD_ATTRS = ("child", "left", "right")


@dataclass
class OpStats:
    """What one probe saw: output rows, batches, inclusive wall time."""

    rows_out: int = 0
    batches: int = 0
    wall_ms: float = 0.0
    #: Estimator prediction for this operator's output, when one maps.
    est_rows: float | None = None


class _Probe(Operator):
    """Transparent operator wrapper recording its subtree's output.

    Preserves ``schema`` (and a union scan's ``partitions``), so wrapped
    plans execute the exact code paths unwrapped ones do; the recorded
    wall time is inclusive of the subtree below (children are probed
    too, so per-operator self-time is the difference).
    """

    def __init__(self, inner: Operator) -> None:
        self.inner = inner
        self.schema = inner.schema
        self.stats = OpStats()

    def column_batches(self, size=DEFAULT_BATCH_SIZE):
        stats = self.stats
        iterator = self.inner.column_batches(size)
        while True:
            started = time.perf_counter()
            try:
                cb = next(iterator)
            except StopIteration:
                stats.wall_ms += (time.perf_counter() - started) * 1000.0
                return
            stats.wall_ms += (time.perf_counter() - started) * 1000.0
            stats.batches += 1
            stats.rows_out += len(cb)
            yield cb

    def partitions(self) -> dict:
        """A probed :class:`~repro.engine.operators.UnionScan`'s
        partitions: ``rows`` counts their values, ``batches`` their
        head templates."""
        started = time.perf_counter()
        parts = self.inner.partitions()
        self.stats.wall_ms += (time.perf_counter() - started) * 1000.0
        self.stats.batches += len(parts)
        self.stats.rows_out += sum(map(len, parts.values()))
        return parts

    def _describe(self) -> str:
        return self.inner._describe()

    def _children(self):
        return self.inner._children()


def instrument(root: Operator) -> _Probe:
    """Wrap every operator of a (freshly compiled) tree in a probe.

    Mutates the tree's child links in place — never call this on a plan
    that came out of the prepared-plan cache.
    """
    for attr in _CHILD_ATTRS:
        child = getattr(root, attr, None)
        if isinstance(child, Operator) and not isinstance(child, _Probe):
            setattr(root, attr, instrument(child))
    return _Probe(root)


def _annotate_estimates(root: _Probe, estimator, query) -> None:
    """Attach estimator predictions along a conjunctive query's
    left-deep spine.

    ``prefix_cardinalities`` prices the output of every join step in
    the estimator's order — the numbers the join order was decided
    from, and the order the tree joins in — so ``est_rows=`` next to
    ``rows=`` is exactly the actual-vs-estimated comparison that debugs
    the estimator. The estimate is of the bag join over every body
    variable; ``rows`` counts the distinct rows the tree keeps over the
    head and join variables.
    """
    atoms = query.atoms
    order = estimator.join_order(atoms)
    prefix = estimator.prefix_cardinalities(atoms, order)
    node, step = root, len(order) - 1
    while isinstance(node, _Probe):
        node.stats.est_rows = prefix[step]
        inner = node.inner
        if isinstance(inner, HashJoin):
            # A Cartesian step: its right input scans one atom alone.
            right = inner.right
            right.stats.est_rows = float(
                estimator.atom_cardinality(right.inner.source)
            )
            node = inner.left
        elif isinstance(inner, UnionProbe):
            node = inner.child
        else:  # the UnionScan the spine starts from
            return
        step -= 1


def _annotations(probe: _Probe) -> dict:
    stats = probe.stats
    annotations: dict = {}
    children = [c for c in probe._children() if isinstance(c, _Probe)]
    if children:
        annotations["rows_in"] = sum(c.stats.rows_out for c in children)
    annotations["rows"] = stats.rows_out
    annotations["batches"] = stats.batches
    annotations["time_ms"] = round(stats.wall_ms, 2)
    if stats.est_rows is not None:
        annotations["est_rows"] = round(stats.est_rows, 1)
    return annotations


def _annotate(node) -> dict:
    return _annotations(node) if isinstance(node, _Probe) else {}


def _probe_stats(root: _Probe) -> list[tuple[str, OpStats]]:
    out = [(root._describe(), root.stats)]
    for child in root._children():
        if isinstance(child, _Probe):
            out.extend(_probe_stats(child))
    return out


@dataclass
class AnalyzeReport:
    """One analyzed execution: the annotated tree plus its actuals."""

    tree: PlanNode
    answers: set
    #: Distinct encoded head images (== answer count; decode is 1:1).
    distinct_images: int
    #: The plan root's total output rows (pre head-projection).
    root_rows: int
    wall_ms: float
    route: str
    operators: list = field(default_factory=list)

    @property
    def answer_count(self) -> int:
        return len(self.answers)

    def text(self, indent: int = 0) -> str:
        return render(self.tree, indent)


def _instrumented_plan(query, store) -> _Probe:
    """A fresh interpreted tree for ``query``, every operator probed and
    the join spine annotated with estimates."""
    probe = instrument(_factorised_tree(_atom_unions(query), store))
    _annotate_estimates(probe, _estimator(store), query)
    return probe


def _tree_report(
    label, head, probe: _Probe, store, route, **fields
) -> AnalyzeReport:
    """Execute a probed, freshly built tree the way the engine does.

    The images are taken by the engine's own step
    (:func:`~repro.engine.planner._tree_images`: a one-atom tree's
    :class:`~repro.engine.operators.UnionScan` partitions, any other
    tree's head-image fold), so the analyzed answer set equals the
    engine's on every plan. The header splits the time: ``time_ms``
    until the images exist, ``decode_ms`` for
    :func:`~repro.engine.planner.decode_images`.
    """
    started = time.perf_counter()
    images = _tree_images(head, probe.inner, store, probe)
    images_ms = (time.perf_counter() - started) * 1000.0
    started = time.perf_counter()
    answers = decode_images(images, store)
    decode_ms = (time.perf_counter() - started) * 1000.0
    header = query_header(
        label,
        route=route,
        **fields,
        rows=len(answers),
        time_ms=round(images_ms, 2),
        decode_ms=round(decode_ms, 2),
    )
    header.children.append(operator_tree(probe, _annotate))
    return AnalyzeReport(
        tree=header,
        answers=answers,
        distinct_images=len(answers),
        root_rows=probe.stats.rows_out,
        wall_ms=images_ms + decode_ms,
        route=route,
        operators=_probe_stats(probe),
    )


def _interpreted_report(query, store) -> AnalyzeReport:
    return _tree_report(
        query.name, query.head, _instrumented_plan(query, store), store,
        INTERPRETED,
    )


def _query_plan_rows(compiled, store) -> list[tuple[int, int, str]]:
    """SQLite's own ``EXPLAIN QUERY PLAN`` tree for a compiled statement."""
    if compiled.sql is None:
        return []
    try:
        rows = store.backend.execute_sql_plan(
            f"EXPLAIN QUERY PLAN {compiled.sql}", compiled.params
        )
    except Exception:  # pragma: no cover - EQP support varies by build
        return []
    return [(row[0], row[1], row[3]) for row in rows]


#: A table visit in ``EXPLAIN QUERY PLAN`` detail text; SQLite before
#: 3.36 spells it ``SEARCH TABLE triples AS t2``.
_VISIT = re.compile(r"^(?:SEARCH|SCAN) (?:TABLE triples AS )?t(\d+)\b")


def visited_aliases(plan_rows) -> list[int]:
    """Body indexes of the ``tN`` aliases, in the order SQLite's plan
    visits them (outermost loop first).

    ``plan_rows`` are ``EXPLAIN QUERY PLAN`` rows with the detail text
    last, as SQLite returns them and :func:`_query_plan_rows` keeps them.
    """
    matches = (_VISIT.match(row[-1]) for row in plan_rows)
    return [int(match.group(1)) for match in matches if match]


def analyze_query(query, store, pushdown: bool = True) -> AnalyzeReport:
    """EXPLAIN ANALYZE one query: execute it instrumented, return the
    annotated plan tree plus the actual answers.

    Routes exactly like :func:`~repro.engine.planner.run_query`: on a
    SQL-capable backend the pushed-down statement executes (timed, with
    the backend's ``EXPLAIN QUERY PLAN`` attached) *and* the
    interpreted equivalent runs instrumented beneath it, so
    per-operator actuals and estimator comparisons exist on every
    backend. ``parity=yes`` on the header confirms both routes
    agreed on the answer set, ``order=kept`` that SQLite ran the joins
    in the estimator's order (``reordered`` would mean the ``CROSS
    JOIN`` text no longer pins it).
    """
    compiled = plan_pushdown(query, store) if pushdown else None
    if compiled is None:
        return _interpreted_report(query, store)
    started = time.perf_counter()
    answers = compiled.execute(store)
    wall_ms = (time.perf_counter() - started) * 1000.0
    estimator = _estimator(store)
    atoms = query.atoms
    order = estimator.join_order(atoms)
    est_rows = None
    if atoms:
        est_rows = round(estimator.prefix_cardinalities(atoms, order)[-1], 1)
    interpreted = _interpreted_report(query, store)
    plan_rows = _query_plan_rows(compiled, store)
    sql_annotations = {"rows": len(answers), "time_ms": round(wall_ms, 2)}
    if est_rows is not None:
        sql_annotations["est_rows"] = est_rows
    header = query_header(
        query.name,
        route=SQL_PUSHDOWN,
        rows=len(answers),
        time_ms=round(wall_ms, 2),
        parity=answers == interpreted.answers,
    )
    if plan_rows:
        header.annotations["order"] = (
            "kept" if visited_aliases(plan_rows) == order else "reordered"
        )
    header.children.append(sql_tree(compiled, sql_annotations, plan_rows))
    equivalent = PlanNode("interpreted equivalent", header=True)
    equivalent.children.extend(interpreted.tree.children)
    header.children.append(equivalent)
    return AnalyzeReport(
        tree=header,
        answers=answers,
        distinct_images=len(answers),
        root_rows=interpreted.root_rows,
        wall_ms=wall_ms,
        route=SQL_PUSHDOWN,
        operators=interpreted.operators,
    )


def analyze_union(disjuncts, store) -> AnalyzeReport:
    """EXPLAIN ANALYZE a union (its disjuncts, or the union itself).

    A deferred reformulation union on its factorised route
    (:func:`~repro.engine.planner.factorised_route`, any backend) runs
    its factorised tree instrumented: one ``UnionScan`` / ``UnionProbe``
    line per source atom with its rows, batches and time. A flat union
    runs one fresh instrumented interpreted tree per distinct disjunct, its images merged union-wide and decoded
    once. On a SQL-capable backend the flat union's real route — its
    per-branch statements (:func:`repro.engine.mqo.plan_union_pushdown`)
    — executes as well: a ``per-branch statements`` node reports the
    statements run, their time, and parity against the interpreted
    answers.
    """
    if factorised_route(disjuncts, store):
        from repro.reformulation.reformulate import factorise

        source = disjuncts.source
        tree = _factorised_tree(factorise(source, disjuncts.schema), store)
        return _tree_report(
            "union", source.head, instrument(tree), store, FACTORISED,
            atoms=len(source.atoms),
        )
    if isinstance(disjuncts, UnionQuery):
        disjuncts = disjuncts.disjuncts
    distinct, branches = mqo.plan_union_pushdown(disjuncts, store)
    children: list[PlanNode] = []
    operators: list[tuple[str, OpStats]] = []
    images: set = set()
    root_rows = 0
    wall_ms = 0.0
    for query in distinct:
        probe = _instrumented_plan(query, store)
        started = time.perf_counter()
        branch_images = _head_images(query.head, probe, store)
        branch_ms = (time.perf_counter() - started) * 1000.0
        images |= branch_images
        root_rows += len(branch_images)
        wall_ms += branch_ms
        title = query_header(
            f"branch {query.name}",
            images=len(branch_images),
            time_ms=round(branch_ms, 2),
        )
        title.children.append(operator_tree(probe, _annotate))
        children.append(title)
        operators.extend(_probe_stats(probe))
    answers = decode_images(images, store)
    on_sql = getattr(store.backend, "supports_sql_plans", False)
    route = "per-branch-statements" if on_sql else INTERPRETED
    header = query_header(
        "union",
        disjuncts=len(tuple(disjuncts)),
        distinct=len(distinct),
        route=route,
        rows=len(answers),
    )
    if on_sql:
        started = time.perf_counter()
        route_answers = decode_images(
            mqo._branch_images(distinct, branches, store), store
        )
        route_ms = (time.perf_counter() - started) * 1000.0
        statements = sum(
            getattr(branch, "sql", None) is not None for branch in branches
        )
        header.children.append(
            PlanNode(
                "per-branch statements",
                {
                    "statements": statements,
                    "rows": len(route_answers),
                    "time_ms": round(route_ms, 2),
                    "parity": route_answers == answers,
                },
            )
        )
    header.children.extend(children)
    return AnalyzeReport(
        tree=header,
        answers=answers,
        distinct_images=len(images),
        root_rows=root_rows,
        wall_ms=wall_ms,
        route=route,
        operators=operators,
    )
