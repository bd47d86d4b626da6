"""Measurement primitives shared by every workload.

Nothing here imports ``repro``: percentiles, digests, the span recorder,
open-loop pacing, failure accounting and the environment stamp are plain
functions that ``test_harness.py`` checks in well under a second.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

#: Candidate tail percentiles, lowest first.
PERCENTILES = (50, 75, 90, 95, 99)

#: A tail percentile is supported when this many samples lie beyond it.
SAMPLES_BEYOND = 10

#: An op slower than this is a failure; a distinct query whose warm-up
#: run already exceeds it is never scheduled (see :func:`screen_deadline`).
OP_DEADLINE_MS = 5000.0

#: Σ child spans may differ from their op span by at most this share.
RECONCILE_LIMIT = 0.05

#: Iterations of the calibration loop, and how long the loop takes on the
#: reference machine (this 2-core box in its fast mode). See
#: :func:`speed_sample`.
SPEED_LOOP = 25_000
REFERENCE_LOOP_MS = 1.0


# -- statistics ----------------------------------------------------------


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the ``pct`` percentile."""
    return count - max(1, math.ceil(pct / 100.0 * count)) if count else 0


def supported_percentile(count: int) -> int | None:
    """The highest of :data:`PERCENTILES` that still has
    :data:`SAMPLES_BEYOND` samples beyond it, or ``None`` when not even
    the median does (fewer than 20 samples)."""
    supported = None
    for pct in PERCENTILES:
        if samples_beyond(count, pct) >= SAMPLES_BEYOND:
            supported = pct
    return supported


def spread_share(values) -> float:
    """Inter-quartile distance as a share of the median — the steadiness
    figure the benchmark contract bounds (needs at least two values)."""
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else math.inf


def mean(values) -> float:
    """Arithmetic mean; 0.0 for no values (a layer that did no work)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# -- digests -------------------------------------------------------------


def answer_digest(rows) -> str:
    """Order-independent digest of an answer set.

    Each row hashes on its own (terms joined by their ``str``), and the
    row hashes add modulo 2**64, so any iteration order of the same rows
    gives the same digest while a missing, extra or altered row moves it.
    """
    total = 0
    count = 0
    for row in rows:
        text = "\x1f".join(str(term) for term in row)
        total += int.from_bytes(
            hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
        )
        count += 1
    return f"{count}:{total % (1 << 64):016x}"


def schedule_digest(items) -> str:
    """Order-*dependent* digest of a generated schedule: two runs with
    the same seed must print the same one."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(str(item).encode("utf-8"))
        digest.update(b"\x1e")
    return digest.hexdigest()[:16]


# -- spans ---------------------------------------------------------------


class Tracer:
    """In-memory span recorder, written out once at exit.

    The workloads take their timestamps either way; a traced run differs
    from an untraced one only in that the timestamps are kept as spans
    (and that ``repro.obs.metrics`` is enabled beside them).
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []

    def add(self, name, start, end, parent=None, op=None) -> int:
        """Record one span; returns its id (for use as ``parent``)."""
        self.spans.append((name, start, end, parent, op))
        return len(self.spans) - 1

    def durations_ms(self, name: str, parent: str | None = None) -> list[float]:
        """Durations of the spans called ``name`` — with ``parent``, only
        of those whose parent span is called that."""
        spans = self.spans
        return [
            (end - start) * 1000.0
            for span_name, start, end, parent_id, _op in spans
            if span_name == name
            and (
                parent is None
                or (parent_id is not None and spans[parent_id][0] == parent)
            )
        ]

    def write(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


def reconcile_gap_share(op_ms: float, parts_ms) -> float:
    """|Σ parts − op| ÷ op: how far the layer spans are from summing to
    the op they belong to."""
    if op_ms <= 0:
        raise ValueError("op time must be positive")
    return abs(sum(parts_ms) - op_ms) / op_ms


# -- ops and failures ----------------------------------------------------


class Ops:
    """The ops of one measured phase: kind, key, latency, outcome of each.

    ``fail_unscheduled`` books ops that were never sent (their query was
    screened out at warm-up) as attempted and failed, so a slow query
    cannot improve the numbers by disappearing from them. ``close_window``
    ends a window — one pass over the op mix, or a slice of a timed
    phase. ``calibrate`` takes a :func:`speed_sample`; a window's
    latencies are reported scaled by the :func:`speed_factor` of the
    samples taken inside it (``ms`` keeps them as measured).

    Two ways to a steady figure, both medians: :meth:`typical` for a mix
    of distinct ops that every pass repeats, :func:`windowed` for
    traffic that never repeats exactly.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.kinds: list[str] = []
        self.keys: list = []
        self.ms: list[float] = []
        self.failed = 0
        self.window_ends: list[int] = []
        #: One speed factor per closed window (1.0: never calibrated).
        self.factors: list[float] = []
        self._samples: list[float] = []
        #: Durations of the collector runs between windows.
        self.collect_ms: list[float] = []

    def record(self, kind: str, ms: float, ok: bool, key=None) -> None:
        """Book one op; ``key`` names the distinct op it is a run of."""
        if ok and ms <= OP_DEADLINE_MS:
            self.kinds.append(kind)
            self.keys.append(key)
            self.ms.append(ms)
        else:
            self.failed += 1

    def fail_unscheduled(self, count: int = 1) -> None:
        self.failed += count

    def fail_last(self, count: int) -> None:
        """Turn the last ``count`` good ops into failures (a check that
        covers a block of ops found a wrong answer)."""
        count = min(count, len(self.ms))
        if count:
            del self.kinds[-count:]
            del self.keys[-count:]
            del self.ms[-count:]
            self.failed += count

    def calibrate(self) -> None:
        self._samples.append(speed_sample(self.clock))

    def close_window(self) -> None:
        self.window_ends.append(len(self.ms))
        self.factors.append(speed_factor(self._samples))
        self._samples = []

    def _scaled(self) -> list[float]:
        """Every closed window's latencies, each at its window's scale."""
        scaled, start = [], 0
        for end, factor in zip(self.window_ends, self.factors):
            scaled.extend(ms * factor for ms in self.ms[start:end])
            start = end
        return scaled

    def windows(self, kind: str | None = None) -> list[list[float]]:
        """Latencies per closed window (of one kind, if given), empty
        windows left out."""
        scaled = self._scaled()
        windows, start = [], 0
        for end in self.window_ends:
            windows.append([
                ms for k, ms in zip(self.kinds[start:end], scaled[start:end])
                if kind is None or k == kind
            ])
            start = end
        return [window for window in windows if window]

    def typical(self) -> list[float]:
        """One latency per distinct op: the median over its runs.

        Every pass runs the same distinct ops in another order, so an
        op's runs differ only by what the machine and the caches did to
        them; their median drops a stall or a first-touch penalty that
        hit one pass. Percentiles and throughput are then taken over the
        op mix itself.
        """
        runs: dict = {}
        for key, ms in zip(self.keys, self._scaled()):
            runs.setdefault(key, []).append(ms)
        return [statistics.median(values) for values in runs.values()]

    @property
    def attempted(self) -> int:
        return len(self.ms) + self.failed

    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def busy_s(self) -> float:
        return sum(self.ms) / 1000.0

    def ms_of(self, kind: str) -> list[float]:
        return [ms for k, ms in zip(self.kinds, self.ms) if k == kind]


def windowed(windows, statistic) -> float:
    """The median over ``windows`` of ``statistic(window)``."""
    return statistics.median(statistic(window) for window in windows)


def speed_sample(clock=time.perf_counter) -> float:
    """Milliseconds one fixed pure-Python loop takes right now.

    This sandbox's cores run in two speed modes about 1.3× apart that
    last from seconds to minutes; the loop shows the same modes as the
    workloads do (README, "Sizing evidence"). Samples taken between ops
    let a window's times be restated for a machine on which the loop
    takes :data:`REFERENCE_LOOP_MS` — without that, no two runs of the
    same code agree to within any bound the contract allows.
    """
    started = clock()
    total = 0
    for i in range(SPEED_LOOP):
        total += i * i % 7
    return (clock() - started) * 1000.0


def speed_factor(samples) -> float:
    """What to multiply measured times by to restate them for the
    reference machine: below 1 when this machine was running slow."""
    samples = list(samples)
    return REFERENCE_LOOP_MS / statistics.median(samples) if samples else 1.0


def screen_deadline(warmup_ms: dict, deadline_ms: float = OP_DEADLINE_MS) -> set:
    """The distinct queries whose warm-up run exceeded the op deadline."""
    return {key for key, ms in warmup_ms.items() if ms > deadline_ms}


# -- pacing --------------------------------------------------------------


def due_offsets(rate_per_s: float, count: int, lanes: int = 1, lane: int = 0):
    """Due times (seconds from the phase start) of one lane's share of a
    fixed-rate schedule: request ``i`` is due at ``i / rate`` and goes to
    lane ``i % lanes``."""
    return [i / rate_per_s for i in range(lane, count, lanes)]


def open_loop(requests, send, start, clock=time.perf_counter, sleep=time.sleep):
    """Send ``(due_offset, payload)`` requests on schedule, one at a time.

    A request is sent at its due time or, when the previous reply came
    back late, at once. Latency runs from the *due* time, so the wait a
    stall imposes on the requests behind it is counted; lateness is how
    long after its due time a request actually left. Returns one
    ``(payload, latency_ms, lateness_ms, ok)`` per request.
    """
    outcomes = []
    for offset, payload in requests:
        due = start + offset
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        sent = clock()
        ok = send(payload)
        done = clock()
        outcomes.append(
            (payload, (done - due) * 1000.0, max(0.0, sent - due) * 1000.0, ok)
        )
    return outcomes


@contextmanager
def collector_paused():
    """Keep the cyclic collector out of the timed ops, as ``timeit``
    does. With it on, a full collection of 150–400 ms lands on whichever
    op happens to cross the threshold and pass times vary by 25–50 %
    (README, "Sizing evidence"); :func:`timed_collect` runs it between
    windows instead and reports what it costs. Everything alive on entry
    — the store, the reference answers — is frozen out of those runs, so
    they price the garbage of the ops and not the size of the set-up."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()


def timed_collect(ops: Ops, clock=time.perf_counter) -> None:
    """One full collection, its duration booked on ``ops``."""
    started = clock()
    gc.collect()
    ops.collect_ms.append((clock() - started) * 1000.0)


def run_passes(one_pass, ops: Ops, seconds: float, clock=time.perf_counter) -> int:
    """Run whole passes until ``seconds`` have elapsed (at least one),
    each its own window of ``ops``, the collector run between them.

    Every pass executes the same mix of ops, so stopping only on a pass
    boundary keeps the mix — and with it the percentiles — independent
    of where the clock happened to run out.
    """
    started = clock()
    passes = 0
    with collector_paused():
        while passes == 0 or clock() - started < seconds:
            one_pass(passes)
            ops.close_window()
            timed_collect(ops, clock)
            passes += 1
    return passes


# -- environment ---------------------------------------------------------


def git_commit(root) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``"unknown"`` outside a repository (the driver's checkouts)."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def environment_stamp(root) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(root),
        "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process in MiB, plus — with
    ``children`` — that of its largest waited-for child (Linux reports
    ``ru_maxrss`` in KiB)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0
