"""Unit tests for the metrics registry (repro.obs.metrics)."""

import json
import math
import time

import pytest

from repro.engine import run_query
from repro.obs import metrics
from repro.obs.metrics import Histogram, MetricsRegistry


@pytest.fixture(autouse=True)
def clean_registry():
    metrics.reset()
    yield
    metrics.disable()
    metrics.reset()


def test_counters_gauges_histograms_roundtrip():
    registry = MetricsRegistry()
    registry.inc("a.hits")
    registry.inc("a.hits", 4)
    registry.gauge("a.size", 7)
    registry.observe("a.ms", 1.0)
    registry.observe("a.ms", 3.0)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"a.hits": 5}
    assert snapshot["gauges"] == {"a.size": 7}
    summary = snapshot["histograms"]["a.ms"]
    assert summary["count"] == 2
    assert summary["sum"] == 4.0
    assert summary["min"] == 1.0 and summary["max"] == 3.0


def test_histogram_percentiles_are_bucketed_order_statistics():
    histogram = Histogram()
    for value in range(100, 0, -1):  # insertion order must not matter
        histogram.observe(float(value))
    # The order statistic's bucket edge: never below it, at most one
    # bucket ratio above it, and clamped to the exact maximum.
    assert 51.0 <= histogram.percentile(0.50) <= 51.0 * metrics.BUCKET_RATIO
    assert 96.0 <= histogram.percentile(0.95) <= 96.0 * metrics.BUCKET_RATIO
    assert histogram.percentile(0.99) == 100.0


def test_histogram_keeps_exact_totals_in_bounded_buckets():
    histogram = Histogram()
    n = 12_288
    for value in range(n):
        histogram.observe(float(value))
    assert histogram.count == n
    assert histogram.total == sum(float(v) for v in range(n))
    assert histogram.minimum == 0.0
    assert histogram.maximum == float(n - 1)
    # One bucket per ratio step between 1 and n, plus the one for <= 0.
    assert len(histogram.buckets) <= math.log(n, metrics.BUCKET_RATIO) + 2
    assert histogram.percentile(0.0) == 0.0


def test_histogram_nonpositive_values_share_the_lowest_bucket():
    histogram = Histogram()
    for value in (-3.0, 0.0, 2.0):
        histogram.observe(value)
    assert histogram.buckets[min(histogram.buckets)] == 2
    assert histogram.percentile(0.0) == 0.0  # the bucket's upper edge
    assert histogram.percentile(0.99) == 2.0  # clamped to the maximum
    below = Histogram()
    below.observe(-1.0)
    assert below.percentile(0.5) == -1.0  # the edge 0, clamped


def test_merge_equals_serial_recording():
    serial = MetricsRegistry()
    parts = [MetricsRegistry() for _ in range(3)]
    for index, part in enumerate(parts):
        for value in range(index + 1, 10):
            serial.inc("m.count")
            serial.observe("m.ms", float(value))
            part.inc("m.count")
            part.observe("m.ms", float(value))
    merged = MetricsRegistry()
    for part in parts:
        merged.merge(part.dump())
    assert merged.counters == serial.counters
    ours, theirs = merged.histograms["m.ms"], serial.histograms["m.ms"]
    assert ours.count == theirs.count
    assert ours.total == theirs.total
    assert ours.minimum == theirs.minimum
    assert ours.maximum == theirs.maximum
    assert ours.buckets == theirs.buckets
    assert ours.summary() == theirs.summary()


def test_collect_isolates_and_restores_the_registry():
    metrics.enable()
    metrics.inc("outer.count")

    def task(x):
        metrics.inc("inner.count", x)
        return x * 2

    result, dump = metrics.collect(task, 21)
    assert result == 42
    assert dump["counters"] == {"inner.count": 21}
    # The outer registry never saw the inner counts, and vice versa.
    assert metrics.registry().counters == {"outer.count": 1}
    assert metrics.enabled


def test_collect_enables_metrics_inside_the_task_even_when_disabled():
    assert not metrics.enabled

    def task():
        assert metrics.enabled
        metrics.inc("inner.count")

    _, dump = metrics.collect(task)
    assert dump["counters"] == {"inner.count": 1}
    assert not metrics.enabled


def test_export_json_writes_a_parseable_snapshot(tmp_path):
    with metrics.enabled_registry():
        metrics.inc("engine.queries", 3)
        metrics.observe("engine.query_ms", 1.5)
    path = tmp_path / "metrics.json"
    text = metrics.export_json(path)
    assert json.loads(text)["counters"]["engine.queries"] == 3
    on_disk = json.loads(path.read_text())
    assert on_disk["histograms"]["engine.query_ms"]["count"] == 1


def test_timer_records_milliseconds():
    with metrics.enabled_registry():
        with metrics.timer("t.ms"):
            pass
    histogram = metrics.registry().histograms["t.ms"]
    assert histogram.count == 1
    assert histogram.total >= 0.0


def test_disabled_overhead_probe_runs_and_stays_disabled():
    nanoseconds = metrics.disabled_overhead_ns(iterations=10_000)
    assert nanoseconds > 0.0
    assert not metrics.enabled
    # The measurement itself must not record anything.
    assert "obs.overhead.probe" not in metrics.registry().counters


#: Disabled-instrumentation guards a single engine query crosses on its
#: hot path (run_query wrapper, plan-cache lookup + insert + size gauge,
#: route counter, slow-query check, pushdown compile + execute on SQL
#: backends) — counted generously so the gate overestimates the
#: projected disabled overhead rather than undercounting it.
OBS_TOUCHPOINTS_PER_QUERY = 16


def test_disabled_instrumentation_stays_under_five_percent(fig8):
    """Disabled instrumentation is a module attribute load plus a
    branch per touchpoint, far below wall-clock A/B resolution — so
    measure one touchpoint directly, project it across the per-query
    touchpoint count, and compare with the measured per-query
    ``run_query`` time on the Figure 8 workload (north-star 4)."""
    queries, saturated = fig8
    for query in queries:
        run_query(query, saturated)  # warm the plan cache
    per_query_ms = None
    for _ in range(9):
        started = time.perf_counter()
        for query in queries:
            run_query(query, saturated)
        elapsed_ms = (time.perf_counter() - started) * 1000.0 / len(queries)
        if per_query_ms is None or elapsed_ms < per_query_ms:
            per_query_ms = elapsed_ms
    projected_ms = metrics.disabled_overhead_ns() * OBS_TOUCHPOINTS_PER_QUERY / 1e6
    assert projected_ms < per_query_ms * 0.05
