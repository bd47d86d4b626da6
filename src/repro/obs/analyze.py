"""EXPLAIN ANALYZE: instrumented execution with per-operator accounting.

:func:`analyze` executes a question — a conjunctive query, a union or
its disjuncts — on the plan :func:`~repro.engine.planner.plan` gives
it, the plan ``evaluate`` runs and ``--explain`` prints. Every physical
operator of a tree branch records rows-out, batches and inclusive
wall-clock time through a :class:`_Probe` wrapper, and the annotated
plan renders through the shared :mod:`repro.obs.render` renderer — the
same shapes ``--explain`` prints, with ``rows=/batches=/time_ms=`` and
actual-vs-estimated cardinalities (``est_rows=``) filled in per join
step.

Probes wrap **copies** of the plan's operators (:func:`instrument`), so
the cached, shared plans stay untouched. A statement branch (the SQL
pushdown route) is timed, the backend's own ``EXPLAIN QUERY PLAN`` tree
is attached, and the branch's interpreted equivalent runs instrumented
beside it, so per-join actuals exist on SQLite too: ``parity=yes`` says
both gave the same answers, ``order=kept`` that SQLite visited the
aliases in the order the interpreted tree joins them
(:func:`visited_aliases`).
"""

from __future__ import annotations

import copy
import re
import time
from dataclasses import dataclass, field

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
    _estimator,
    _tree_images,
    decode_images,
    plan,
    plan_query,
)
from repro.engine.sqlcompile import CompiledQuery
from repro.obs.render import PlanNode, operator_tree, query_header, render, sql_tree
from repro.query.cq import ConjunctiveQuery

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
    """A probed copy of the tree ``root``: every operator is copied
    (operators hold no execution state) and wrapped in a probe, so a
    plan out of the prepared-plan cache stays as it was."""
    root = copy.copy(root)
    for attr in _CHILD_ATTRS:
        child = getattr(root, attr, None)
        if isinstance(child, Operator):
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


def _tree_branch(label, query, tree, store, route) -> AnalyzeReport:
    """Run a probed copy of a tree branch the way the engine runs it.

    A factorised union's tree (``route`` :data:`FACTORISED`) reports
    its atom count; a conjunctive query's tree gets its join spine
    annotated with the estimator's predictions. The images are taken by
    the engine's own step (:func:`~repro.engine.planner._tree_images`:
    a one-atom tree's :class:`~repro.engine.operators.UnionScan`
    partitions, any other tree's head-image fold), so the analyzed
    answer set equals the engine's on every plan. The header splits the
    time: ``time_ms`` until the images exist, ``decode_ms`` for
    :func:`~repro.engine.planner.decode_images`.
    """
    probe = instrument(tree)
    if route == FACTORISED:
        fields = {"atoms": len(query.atoms)}
    else:
        route, fields = INTERPRETED, {}
        _annotate_estimates(probe, _estimator(store), query)
    started = time.perf_counter()
    images = _tree_images(query.head, tree, store, probe)
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


def _statement_branch(label, query, compiled, store) -> AnalyzeReport:
    """Run a statement branch timed, with the backend's ``EXPLAIN QUERY
    PLAN`` attached and the query's interpreted equivalent instrumented
    beneath it: ``parity=`` compares their answers, ``order=`` SQLite's
    join order with the estimator's (``reordered`` would mean the
    ``CROSS JOIN`` text no longer pins it)."""
    started = time.perf_counter()
    answers = compiled.execute(store)
    wall_ms = (time.perf_counter() - started) * 1000.0
    estimator = _estimator(store)
    atoms = query.atoms
    order = estimator.join_order(atoms)
    interpreted = _tree_branch(
        label, query, plan_query(query, store), store, INTERPRETED
    )
    plan_rows = _query_plan_rows(compiled, store)
    sql_annotations = {"rows": len(answers), "time_ms": round(wall_ms, 2)}
    if atoms:
        sql_annotations["est_rows"] = round(
            estimator.prefix_cardinalities(atoms, order)[-1], 1
        )
    header = query_header(
        label,
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


def analyze(question, store, pushdown: bool = True) -> AnalyzeReport:
    """EXPLAIN ANALYZE a question: execute its plan
    (:func:`~repro.engine.planner.plan`) instrumented, and return the
    annotated plan tree plus the actual answers.

    A one-branch plan is reported as its branch: a conjunctive query
    under its own name, a union as ``union``. A plan of several
    branches gets a ``union [route=… branches=… rows=…]`` header over
    one ``branch qN`` report per distinct disjunct. A tree branch runs
    probed; a statement branch runs timed beside its probed
    interpreted equivalent (``parity=`` / ``order=``).
    """
    route, branches = plan(question, store, pushdown)
    label = question.name if isinstance(question, ConjunctiveQuery) else "union"
    reports = []
    for query, branch in branches:
        name = label if len(branches) == 1 else f"branch {query.name}"
        if isinstance(branch, CompiledQuery):
            reports.append(_statement_branch(name, query, branch, store))
        else:
            reports.append(_tree_branch(name, query, branch, store, route))
    if len(reports) == 1:
        return reports[0]
    answers = set().union(*(report.answers for report in reports))
    wall_ms = sum(report.wall_ms for report in reports)
    header = query_header(
        label,
        route=route,
        branches=len(reports),
        rows=len(answers),
        time_ms=round(wall_ms, 2),
    )
    header.children.extend(report.tree for report in reports)
    return AnalyzeReport(
        tree=header,
        answers=answers,
        distinct_images=len(answers),
        root_rows=sum(report.root_rows for report in reports),
        wall_ms=wall_ms,
        route=route,
        operators=[op for report in reports for op in report.operators],
    )
