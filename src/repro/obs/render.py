"""The one plan-tree renderer behind ``--explain`` and ``--analyze``.

Historically the CLI printed plans through three disjoint code paths —
``Operator.explain()`` for interpreted trees, ``CompiledQuery.describe()``
for pushed-down SQL, and ``describe_union_sharing`` for union routes.
They now all funnel into :class:`PlanNode`, a plain tree of
``label [key=value ...]`` lines with optional verbatim detail lines
(SQL text, EXPLAIN QUERY PLAN rows), rendered by :func:`render` with
two-space indentation per level. ``--analyze`` reuses the same shapes
with rows/batches/time annotations filled in, so the two modes read
identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PlanNode:
    """One rendered plan line plus its children.

    ``annotations`` become the bracketed ``[key=value ...]`` suffix;
    ``details`` are verbatim lines (e.g. SQL) indented under the node;
    ``header`` nodes (query titles) get a trailing colon, matching the
    CLI's ``q2 [route=interpreted ...]:`` framing.
    """

    label: str
    annotations: dict = field(default_factory=dict)
    children: list = field(default_factory=list)
    details: tuple = ()
    header: bool = False

    def line(self) -> str:
        text = self.label
        if self.annotations:
            rendered = " ".join(
                f"{key}={format_value(value)}"
                for key, value in self.annotations.items()
            )
            text = f"{text} [{rendered}]"
        if self.header:
            text += ":"
        return text

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def format_value(value) -> str:
    """Annotation values: floats trimmed, everything else ``str()``."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN — an estimator should never produce one
            return "nan"
        if value >= 100 or value == int(value):
            return str(int(value))
        return f"{value:.2f}"
    return str(value)


def render(node: PlanNode, indent: int = 0, step: int = 2) -> str:
    """The node and its subtree as indented text (no trailing newline)."""
    pad = " " * indent
    lines = [pad + node.line()]
    for detail in node.details:
        lines.append(" " * (indent + step) + detail)
    for child in node.children:
        lines.append(render(child, indent + step, step))
    return "\n".join(lines)


def operator_tree(op, annotate=None) -> PlanNode:
    """A :class:`PlanNode` mirror of a physical operator tree.

    ``annotate`` maps an operator to its annotation dict — ``--analyze``
    passes the probe-stats lookup; plain ``--explain`` passes nothing
    and reproduces ``Operator.explain()`` labels line for line.
    """
    return PlanNode(
        op._describe(),
        dict(annotate(op)) if annotate is not None else {},
        [operator_tree(child, annotate) for child in op._children()],
    )


def sql_tree(compiled, annotations=None, plan_rows=()) -> PlanNode:
    """A pushed-down statement (a
    :class:`~repro.engine.sqlcompile.CompiledQuery`) as a plan node.

    ``plan_rows`` are SQLite ``EXPLAIN QUERY PLAN`` ``(id, parent,
    detail)`` rows; they reconstruct the backend's own operator tree as
    children, so the pushdown route renders with per-operator structure
    just like the interpreted one.
    """
    node = PlanNode(
        "SQLPushdown",
        dict(annotations or {}),
        details=tuple(compiled.describe().splitlines()),
    )
    by_id: dict[int, PlanNode] = {}
    for row_id, parent, detail in plan_rows:
        child = PlanNode(str(detail))
        by_id[row_id] = child
        (by_id.get(parent) or node).children.append(child)
    return node


def query_header(name: str, **annotations) -> PlanNode:
    """The ``qN [route=... rows=...]:`` framing line."""
    return PlanNode(name, annotations, header=True)
