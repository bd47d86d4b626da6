"""Process-wide metrics registry: counters, gauges, timing histograms.

Design constraints, in order:

1. **Disabled must be free.** Every call site in the engine guards with
   ``if metrics.enabled:`` — one module-attribute load and a branch.
   Nothing here may run on the hot path while disabled, and the guard
   sits at per-query / per-plan granularity, never per row or batch.
2. **Mergeable across processes.** Server-mode workers
   (``server/pool``) answer batches in processes whose registry state
   was inherited at fork time. :func:`collect` gives a batch a fresh
   registry and returns a picklable dump the server merges, so worker
   counts neither leak nor double-count (serial totals == merged
   worker totals).
3. **Deterministic and exactly mergeable.** Histograms keep exact
   count/sum/min/max and counts in fixed log-scale buckets — no
   sampling, so a merged histogram's percentiles equal those of one
   histogram that saw every value.

>>> from repro.obs import metrics
>>> metrics.reset()
>>> with metrics.enabled_registry():
...     metrics.inc("engine.plan_cache.hit")
...     metrics.observe("engine.query_ms", 2.5)
>>> metrics.snapshot()["counters"]["engine.plan_cache.hit"]
1
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

#: Global switch read by every instrumented call site. Off by default:
#: library users pay one attribute load + branch per touchpoint.
enabled = False

#: When not ``None``, ``engine.run_query`` logs a warning through the
#: ``repro.engine`` logger for any query slower than this many
#: milliseconds (the CLI sets it; see ``--slow-query-ms``).
slow_query_ms: float | None = None

#: Histogram bucket ratio ``r``: positive bucket ``i`` holds the values
#: in ``(r**(i-1), r**i]``, so reading a percentile as its bucket's
#: upper edge overstates it by at most ``r - 1`` (4.4 %).
BUCKET_RATIO = 2.0 ** (1.0 / 16)
_LOG_BUCKET_RATIO = math.log(BUCKET_RATIO)

#: The bucket of every value ``<= 0``; below the index of the smallest
#: positive float (about -17 200), so bucket order is value order.
_NONPOSITIVE = -(1 << 20)


def _bucket(value: float) -> int:
    if value <= 0.0:
        return _NONPOSITIVE
    return math.ceil(math.log(value) / _LOG_BUCKET_RATIO)


def _upper_edge(bucket: int) -> float:
    return 0.0 if bucket == _NONPOSITIVE else BUCKET_RATIO**bucket


class Histogram:
    """Timing/size distribution: exact count/total/min/max plus counts in
    fixed log-scale buckets.

    The buckets are the same in every process, so merging two histograms
    adds their bucket counts and equals recording both streams into one
    histogram, percentiles included.
    """

    __slots__ = ("buckets", "count", "maximum", "minimum", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        bucket = _bucket(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def merge(self, dump: dict) -> None:
        self.count += dump["count"]
        self.total += dump["total"]
        for bound, pick in (("min", min), ("max", max)):
            other = dump[bound]
            if other is None:
                continue
            ours = self.minimum if bound == "min" else self.maximum
            merged = other if ours is None else pick(ours, other)
            if bound == "min":
                self.minimum = merged
            else:
                self.maximum = merged
        for bucket, count in dump["buckets"].items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + count

    def dump(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "buckets": dict(self.buckets),
        }

    def percentile(self, fraction: float) -> float | None:
        """The upper edge of the bucket holding the order statistic of
        rank ``int(fraction * count)``, clamped to ``[min, max]``."""
        if not self.count:
            return None
        rank = min(self.count - 1, int(fraction * self.count))
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen > rank:
                break
        return min(max(_upper_edge(bucket), self.minimum), self.maximum)

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Counters, gauges, and histograms keyed by dotted metric name."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- recording ------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    # -- snapshot / merge ----------------------------------------------

    def snapshot(self) -> dict:
        """Rendered, JSON-ready view (histograms as percentile summaries)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: self.histograms[name].summary()
                for name in sorted(self.histograms)
            },
        }

    def dump(self) -> dict:
        """Lossless, mergeable, picklable form (histogram bucket counts)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: histogram.dump()
                for name, histogram in self.histograms.items()
            },
        }

    def merge(self, dump: dict) -> None:
        """Fold another registry's :meth:`dump` into this one. Counters
        and histogram totals add; gauges take the incoming value."""
        for name, value in dump.get("counters", {}).items():
            self.inc(name, value)
        self.gauges.update(dump.get("gauges", {}))
        for name, payload in dump.get("histograms", {}).items():
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.merge(payload)

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _REGISTRY


def enable() -> None:
    global enabled
    enabled = True


def disable() -> None:
    global enabled
    enabled = False


# -- module-level conveniences (what instrumented call sites use) -------


def inc(name: str, value: int = 1) -> None:
    _REGISTRY.inc(name, value)


def gauge(name: str, value: float) -> None:
    _REGISTRY.gauge(name, value)


def observe(name: str, value: float) -> None:
    _REGISTRY.observe(name, value)


def snapshot() -> dict:
    return _REGISTRY.snapshot()


def dump() -> dict:
    """Lossless, mergeable form of the process-wide registry."""
    return _REGISTRY.dump()


def reset() -> None:
    _REGISTRY.reset()


def merge(dump: dict) -> None:
    _REGISTRY.merge(dump)


def export_json(path: str | None = None) -> str:
    """Serialize the current snapshot; optionally write it to ``path``."""
    text = json.dumps(snapshot(), indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return text


@contextmanager
def timer(name: str):
    """Record a wall-clock histogram sample (milliseconds) around a block.

    Callers still guard with ``if metrics.enabled:`` — this does not
    re-check, so an unguarded use records even while disabled.
    """
    started = time.perf_counter()
    try:
        yield
    finally:
        _REGISTRY.observe(name, (time.perf_counter() - started) * 1000.0)


@contextmanager
def enabled_registry():
    """Enable metrics for a block, restoring the previous flag after.

    The registry contents persist (tests/benchmarks read them after the
    block); call :func:`reset` first for a clean slate.
    """
    global enabled
    previous = enabled
    enabled = True
    try:
        yield _REGISTRY
    finally:
        enabled = previous


def collect(function, /, *args, **kwargs):
    """Run ``function`` against a fresh, enabled registry.

    Returns ``(result, dump)`` where ``dump`` is the fresh registry's
    picklable :meth:`MetricsRegistry.dump`. This is how a server-mode
    worker (:mod:`repro.server.pool`) answers a batch: whatever registry
    state the worker inherited at fork time is set aside for the
    duration, so the server can merge exactly the counts this one batch
    produced.
    """
    global _REGISTRY, enabled
    outer_registry, outer_enabled = _REGISTRY, enabled
    fresh = MetricsRegistry()
    _REGISTRY, enabled = fresh, True
    try:
        result = function(*args, **kwargs)
    finally:
        _REGISTRY, enabled = outer_registry, outer_enabled
    return result, fresh.dump()


def disabled_overhead_ns(iterations: int = 200_000) -> float:
    """Measure the real per-call-site cost of disabled instrumentation.

    Times the exact guard the engine's instrumentation wrappers use
    (two module attribute loads plus a branch — with both metrics and
    tracing off no call site ever constructs a span or touches the
    registry, they early-return before either) and returns nanoseconds
    per touchpoint. ``tests/obs/test_metrics.py`` multiplies this by the
    touchpoints per query to gate the disabled overhead below 5%.
    """
    from repro.obs import tracing

    global enabled
    previous_enabled = enabled
    previous_sink = tracing.sink
    enabled = False
    tracing.sink = None
    try:
        started = time.perf_counter()
        for _ in range(iterations):
            if enabled or tracing.sink is not None:  # pragma: no cover
                _REGISTRY.inc("obs.overhead.probe")
        elapsed = time.perf_counter() - started
    finally:
        enabled = previous_enabled
        tracing.sink = previous_sink
    return elapsed / iterations * 1e9
