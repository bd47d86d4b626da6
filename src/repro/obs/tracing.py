"""Tracing spans: nested, structured, one JSONL event per span.

Usage::

    from repro.obs import tracing

    tracing.configure("trace.jsonl")          # or any .write()-able
    with tracing.span("engine.run_query", query="q1"):
        ...

Each span closes by appending one JSON line to the sink::

    {"name": "engine.run_query", "span_id": 2, "parent_id": 1,
     "start_ms": 12.031, "duration_ms": 4.118,
     "attrs": {"query": "q1"}}

``span_id``/``parent_id`` reconstruct the nesting; ``start_ms`` is
relative to :func:`configure` so a trace is self-contained. With no
sink configured :func:`span` returns a shared no-op context manager —
the disabled path is one attribute load, a branch, and a constant
``with`` — cheap enough for per-query granularity
(``tests/obs/test_metrics.py`` gates it; see
``metrics.disabled_overhead_ns``).

Spans are process-local and single-threaded by design: server-mode
workers do not trace (their metrics travel back via
``metrics.collect`` dumps instead), so sink lines never interleave.
"""

from __future__ import annotations

import json
import os
import time

#: Destination for span events: anything with ``write(str)``. ``None``
#: disables tracing (the common case).
sink = None

_origin = 0.0
_next_id = 1
_stack: list[int] = []
_owned_handle = None


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("attrs", "name", "parent_id", "span_id", "started")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        global _next_id
        self.parent_id = _stack[-1] if _stack else None
        self.span_id = _next_id
        _next_id += 1
        _stack.append(self.span_id)
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        finished = time.perf_counter()
        if _stack and _stack[-1] == self.span_id:
            _stack.pop()
        out = sink
        if out is not None:
            event = {
                "name": self.name,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "start_ms": round((self.started - _origin) * 1000.0, 3),
                "duration_ms": round((finished - self.started) * 1000.0, 3),
            }
            if self.attrs:
                event["attrs"] = {
                    key: value
                    if isinstance(value, (str, int, float, bool, type(None)))
                    else str(value)
                    for key, value in self.attrs.items()
                }
            out.write(json.dumps(event) + "\n")
        return False


def span(name: str, **attrs):
    """Open a span. No-op (and allocation-free) when no sink is set."""
    if sink is None:
        return _NOOP
    return _Span(name, attrs)


def configure(destination) -> None:
    """Point tracing at ``destination`` (path or writable object).

    Resets the span-id counter and the relative clock so each trace
    file stands alone. Passing ``None`` turns tracing off and closes a
    previously opened path.
    """
    global sink, _origin, _next_id, _owned_handle
    if _owned_handle is not None:
        _owned_handle.close()
        _owned_handle = None
    if destination is None:
        sink = None
        return
    if isinstance(destination, (str, os.PathLike)):
        _owned_handle = open(os.fspath(destination), "w", encoding="utf-8")
        sink = _owned_handle
    else:
        sink = destination
    _origin = time.perf_counter()
    _next_id = 1
    _stack.clear()
