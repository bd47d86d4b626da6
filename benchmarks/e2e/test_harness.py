"""Checks of the benchmark's own arithmetic (no workload runs here).

Collected by the tier-1 ``python -m pytest`` run; the whole file takes
well under two seconds.
"""

from __future__ import annotations

import json
import re

import pytest

from .cli import ROOT, load_manifest, validate_result
from .compare import exact_mismatches, verdict
from .harness import (
    OP_DEADLINE_MS, REFERENCE_LOOP_MS, Ops, Tracer, answer_digest, due_offsets,
    open_loop, percentile, reconcile_gap_share, run_passes, schedule_digest,
    screen_deadline, speed_factor, spread_share, supported_percentile, windowed,
)


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# -- the percentile rule ----------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50), (24, 50), (40, 75), (100, 90), (199, 90), (200, 95),
     (600, 95), (1000, 99)],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert supported_percentile(count) == expected


def test_percentile_is_nearest_rank():
    samples = [5, 1, 4, 2, 3]
    assert percentile(samples, 50) == 3
    assert percentile(samples, 95) == 5
    assert percentile(samples, 20) == 1
    assert percentile(range(1, 201), 95) == 190  # ten samples beyond it
    with pytest.raises(ValueError):
        percentile([], 50)


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0]
    assert spread_share(values) == 0.0
    assert spread_share([9.0, 10.0, 11.0]) == pytest.approx(0.2)


# -- digests -----------------------------------------------------------------


def test_answer_digest_ignores_order_and_sees_every_row():
    rows = [("a", "b"), ("c", "d"), ("e", "f")]
    assert answer_digest(rows) == answer_digest(reversed(rows))
    assert answer_digest(set(rows)) == answer_digest(rows)
    assert answer_digest(rows) != answer_digest(rows[:2])
    assert answer_digest(rows) != answer_digest([("a", "b"), ("c", "d"), ("e", "g")])
    # Joining is unambiguous: ("ab", "c") is not ("a", "bc").
    assert answer_digest([("ab", "c")]) != answer_digest([("a", "bc")])


def test_schedule_digest_depends_on_order():
    assert schedule_digest(["q1", "q2"]) == schedule_digest(["q1", "q2"])
    assert schedule_digest(["q1", "q2"]) != schedule_digest(["q2", "q1"])


# -- open-loop pacing -----------------------------------------------------------


def test_open_loop_times_from_the_due_time():
    """Service takes 30 ms, requests are due every 20 ms: each waits for
    the one before, and the wait shows in its latency, not just the
    service time."""
    clock = FakeClock()
    start = clock()
    requests = [(offset, index) for index, offset in enumerate(due_offsets(50.0, 4))]

    def send(_payload):
        clock.sleep(0.030)
        return True

    outcomes = open_loop(requests, send, start, clock=clock, sleep=clock.sleep)
    latencies = [round(latency) for _p, latency, _late, _ok in outcomes]
    lateness = [round(late) for _p, _latency, late, _ok in outcomes]
    assert latencies == [30, 40, 50, 60]
    assert lateness == [0, 10, 20, 30]


def test_open_loop_waits_for_requests_that_are_not_due():
    clock = FakeClock()
    start = clock()

    def send(_payload):
        clock.sleep(0.001)
        return True

    outcomes = open_loop(
        [(0.0, "a"), (0.5, "b")], send, start, clock=clock, sleep=clock.sleep
    )
    assert [round(latency) for _p, latency, _late, _ok in outcomes] == [1, 1]
    assert clock() == pytest.approx(start + 0.501)


def test_due_offsets_split_one_schedule_over_lanes():
    assert due_offsets(10.0, 5) == [0.0, 0.1, 0.2, 0.3, 0.4]
    assert due_offsets(10.0, 5, lanes=2, lane=0) == [0.0, 0.2, 0.4]
    assert due_offsets(10.0, 5, lanes=2, lane=1) == [0.1, 0.3]


# -- failures ---------------------------------------------------------------------


def test_queries_over_the_deadline_at_warm_up_are_screened():
    warm = {"fast": 12.0, "edge": OP_DEADLINE_MS, "slow": OP_DEADLINE_MS + 1}
    assert screen_deadline(warm) == {"slow"}


def test_failed_share_counts_every_way_to_fail():
    ops = Ops()
    for _ in range(6):
        ops.record("q", 10.0, True)
    ops.record("q", 10.0, False)                  # wrong answer or raised
    ops.record("q", OP_DEADLINE_MS + 1, True)     # answered, but too late
    ops.fail_unscheduled(2)                       # screened out, never sent
    assert (len(ops.ms), ops.failed, ops.attempted) == (6, 4, 10)
    assert ops.failed_share() == pytest.approx(0.4)
    ops.fail_last(2)                              # a block check failed
    assert (len(ops.ms), ops.failed, ops.attempted) == (4, 6, 10)
    assert Ops().failed_share() == 0.0


# -- spans ---------------------------------------------------------------------------


def test_layer_spans_reconcile_with_their_op():
    assert reconcile_gap_share(100.0, [10.0, 20.0, 70.0]) == 0.0
    assert reconcile_gap_share(100.0, [10.0, 20.0, 60.0]) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        reconcile_gap_share(0.0, [1.0])


def test_spans_are_found_by_name_and_parent_and_written_out(tmp_path):
    tracer = Tracer()
    op = tracer.add("op.scan", 0.0, 1.0, None, 1)
    tracer.add("query.parse", 0.0, 0.1, op, 1)
    tracer.add("engine.union", 0.1, 0.9, op, 1)
    other = tracer.add("op.star", 1.0, 2.0, None, 2)
    tracer.add("engine.union", 1.0, 2.0, other, 2)
    assert tracer.durations_ms("engine.union") == pytest.approx([800.0, 1000.0])
    assert tracer.durations_ms("engine.union", parent="op.star") == [1000.0]
    tracer.write(tmp_path / "trace.jsonl")
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert json.loads(lines[1]) == {
        "id": 1, "name": "query.parse", "start": 0.0, "end": 0.1, "parent": 0, "op": 1,
    }


# -- windows and the reference speed ---------------------------------------------------


def test_a_window_is_restated_at_the_reference_speed():
    """A window measured while the calibration loop ran 25 % slow is
    scaled back by that much; one never calibrated is left alone."""
    ops = Ops()
    ops._samples = [REFERENCE_LOOP_MS * 1.25] * 3
    ops.record("q", 125.0, True)
    ops.close_window()
    ops.record("q", 100.0, True)
    ops.close_window()
    assert ops.factors == pytest.approx([0.8, 1.0])
    assert ops.windows() == [pytest.approx([100.0]), [100.0]]
    assert ops.ms == [125.0, 100.0]
    assert speed_factor([]) == 1.0


def test_the_median_window_shrugs_off_one_stalled_pass():
    ops = Ops()
    for stall in (0.0, 0.0, 900.0, 0.0, 0.0):
        for ms in (1.0, 2.0, 3.0, 4.0 + stall):
            ops.record("q", ms, True)
        ops.close_window()
    assert windowed(ops.windows(), max) == 4.0
    assert windowed(ops.windows(), lambda window: percentile(window, 50)) == 2.0
    assert ops.windows("other") == []


def test_typical_latency_is_the_median_over_an_ops_runs():
    """Three passes over two distinct ops; a first-touch penalty lands on
    another op each pass and on no op's median."""
    ops = Ops()
    for penalty_on in ("a", "b", None):
        for key, ms in (("a", 10.0), ("b", 30.0)):
            ops.record("q", ms + (50.0 if key == penalty_on else 0.0), True, key)
        ops.close_window()
    ops.record("q", 99.0, False, "c")             # a failed op has no latency
    assert ops.typical() == [10.0, 30.0]
    assert ops.failed == 1


def test_passes_run_whole_until_the_time_is_up():
    clock = FakeClock()
    ops = Ops(clock)

    def one_pass(_index):
        clock.sleep(0.4)
        ops.record("q", 400.0, True)

    assert run_passes(one_pass, ops, 1.0, clock=clock) == 3
    assert len(ops.windows()) == 3 and len(ops.collect_ms) == 3
    assert run_passes(one_pass, Ops(clock), 0.0, clock=clock) == 1


# -- comparing two sets of runs ----------------------------------------------------------


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.0, 100.5]
    assert verdict(steady, [v * 1.02 for v in steady], "lower", 0.10)[0] == "ok"
    assert verdict(steady, [v * 1.20 for v in steady], "lower", 0.10)[0] == "worse"
    assert verdict(steady, [v * 0.80 for v in steady], "higher", 0.10)[0] == "worse"
    assert verdict(steady, [v * 0.80 for v in steady], "lower", 0.10)[0] == "ok"
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    assert verdict(steady, noisy, "lower", 0.10)[0] == "unresolved"


def test_exact_counts_must_be_identical():
    def run(created):
        from .compare import EXACT_COUNTS

        metrics = {name: {"value": 1} for name in EXACT_COUNTS}
        metrics["selection.created"] = {"value": created}
        return {"workload": "select", "seed": 7, "trace": 1, "metrics": metrics}

    assert exact_mismatches([run(6012)], [run(6012)]) == []
    assert exact_mismatches([run(6012)], [run(6013)]) == [
        "select seed 7: selection.created 6012 != 6013"
    ]


# -- the manifest and the output schema ----------------------------------------------------


def test_manifest_meets_the_contract():
    manifest = load_manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["command"][1].startswith("benchmarks/e2e/")
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = []
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for entry in manifest["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in manifest["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        assert unit.match(entry["unit"]) and entry["better"] in ("lower", "higher")
        names.append(entry["name"])
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    setup = next(e for e in manifest["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in manifest["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_result_schema_is_checked_against_the_manifest():
    manifest = load_manifest()
    result = {
        "trace": 0, "attempted": 10, "failed": 0,
        "metrics": {
            entry["name"]: {"value": 1.5, "unit": entry["unit"]}
            for entry in manifest["end_to_end"]
        },
    }
    assert validate_result(result, manifest) == []
    result["metrics"]["setup_s"]["value"] = None
    result["metrics"]["ops_per_s"]["unit"] = "ops"
    result["attempted"] = 0
    assert len(validate_result(result, manifest)) == 3
    del result["metrics"]["setup_s"]
    assert "metric names differ from BENCHMARK.json" in validate_result(result, manifest)
