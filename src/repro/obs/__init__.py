"""Engine-wide observability: metrics, tracing spans, EXPLAIN ANALYZE.

Three cooperating layers (see ``docs/observability.md``):

``repro.obs.metrics``
    A process-wide registry of counters, gauges, and timing histograms
    with a module-level ``enabled`` flag. Call sites guard with
    ``if metrics.enabled:`` so the disabled overhead is one attribute
    load and a branch — unmeasurable on the Figure 8 hot loop.

``repro.obs.tracing``
    Nested spans (``with span("engine.evaluate", query=q):``) emitting
    one JSONL event per span to a configured sink.

``repro.obs.analyze`` / ``repro.obs.render``
    EXPLAIN ANALYZE — instrumented execution where every physical
    operator records rows-in/rows-out/batches/wall-time — plus the one
    plan-tree renderer shared by ``--explain`` and ``--analyze``.

``metrics`` and ``tracing`` are leaf modules (no ``repro`` imports) so
the engine can import them without cycles; ``analyze`` and ``render``
sit above the engine and are imported by the CLI and benchmarks.
"""

from repro.obs import metrics, tracing
from repro.obs.render import PlanNode, operator_tree, render
from repro.obs.tracing import span

__all__ = [
    "PlanNode",
    "metrics",
    "operator_tree",
    "render",
    "span",
    "tracing",
]
