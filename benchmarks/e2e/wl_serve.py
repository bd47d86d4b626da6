"""``serve``: concurrent clients against ``Server`` on a saturated snapshot.

Set-up saturates the catalog, saves it and starts ``Server(path)`` with
the default ``ServerConfig()``. Forty selective star queries are drawn
with Zipf(1) popularity over their pool rank by two client connections.
A closed loop gives ``ops_per_s``; an open loop at a fixed rate, timed
from each request's due time, gives the latency percentiles; a second
open loop at a higher rate shows latency rising before throughput stops
rising. The serve path dominates here, so dispatcher, window and IPC
changes show and engine changes barely. Served answers over the
*saturated* snapshot must equal ``evaluate_union(reformulate(q))`` over
the plain store — Theorem 4.2 as a cross-route check.
"""

from __future__ import annotations

import random
import threading
import time

from repro.engine import run_query
from repro.query import evaluate_union, parse_query
from repro.rdf.entailment import saturate
from repro.rdf.store import TripleStore
from repro.reformulation import reformulate
from repro.server import Server, ServerError
from repro.workload import QueryShape, SatisfiableWorkloadGenerator, WorkloadSpec

from .base import POOL_SEED, Workload, generate_catalog, save_snapshot, step
from .harness import (
    Ops, collector_paused, due_offsets, mean, open_loop, percentile,
    schedule_digest, timed_collect, windowed,
)

POOL = WorkloadSpec(40, 4, QueryShape.STAR, "low", constant_probability=0.5)

#: Client connections, one thread each: the default ``ServerConfig()``
#: has two workers and this box two cores.
CLIENTS = 2

#: Offered load of the two open loops, requests per second: about two
#: fifths and about three quarters of the closed-loop capacity measured
#: on the 2-core reference box (415 replies/s; README, "First measured
#: numbers").
OPEN_RATE = 160.0
OPEN_HI_RATE = 300.0

#: A request that leaves more than this after its due time was late.
LATE_MS = 1.0

#: Requests per client stream (about: popularity shares are rounded); a
#: loop that outruns its stream wraps around.
STREAM_LENGTH = 400


class Serve(Workload):
    name = "serve"

    def build(self, steps: dict) -> None:
        with step(steps, "datagen.generate_s"):
            self.plain, self.schema = generate_catalog(self.scale)
        with step(steps, "rdf.saturate_s"):
            saturated = saturate(self.plain, self.schema)
        steps["rdf.saturated_triples"] = len(saturated)
        save_snapshot(saturated, self.snapshot, steps)
        with step(steps, "workload.generate_s"):
            queries = SatisfiableWorkloadGenerator(
                self.plain, seed=POOL_SEED
            ).generate(POOL)
            self.texts = list(dict.fromkeys(str(query) for query in queries))
        with step(steps, "server.start_s"):
            self.server = Server(self.snapshot)
        self.streams = [self._stream(lane) for lane in range(CLIENTS)]
        self.digests["schedule"] = schedule_digest(self.streams[0])

    def _stream(self, lane: int) -> list[str]:
        """One client's request stream: Zipf(1) popularity over the pool
        rank, exact rather than sampled — the text of rank r appears
        ``STREAM_LENGTH / (r · H)`` times, rounded — in a seeded order.
        Sampling the popularity moved the heavy texts' share, and with
        it the tail percentiles, from seed to seed."""
        harmonic = sum(1.0 / rank for rank in range(1, len(self.texts) + 1))
        stream = [
            text
            for rank, text in enumerate(self.texts, start=1)
            for _ in range(max(1, round(STREAM_LENGTH / (rank * harmonic))))
        ]
        random.Random(f"{self.seed}:{self.name}:{lane}").shuffle(stream)
        return stream

    def tear_down(self) -> None:
        self.server.stop()
        super().tear_down()

    def _on_every_client(self, body) -> list:
        """Run ``body(lane, client)`` on one thread per connection."""
        results = [None] * CLIENTS
        errors = []

        def runner(lane: int) -> None:
            try:
                with self.server.connect() as client:
                    results[lane] = body(lane, client)
            except Exception as exc:  # noqa: BLE001 - reported by the caller's thread
                errors.append(exc)

        threads = [
            threading.Thread(target=runner, args=(lane,)) for lane in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for exc in errors:
            self.problem(f"client thread raised {type(exc).__name__}: {exc}")
        return results

    def warm_up(self) -> None:
        """Every distinct text through every connection, twice: requests
        land on either worker, and each has its own plan cache."""

        def body(_lane, client):
            for _ in range(2):
                for text in self.texts:
                    client.query(text)

        self._on_every_client(body)

    def prepare(self) -> None:
        self.reference = {
            text: evaluate_union(
                reformulate(parse_query(text), self.schema), self.plain
            )
            for text in self.texts
        }

    def _send(self, client, text: str):
        """One request: ``(ok, started, ended, server_ms)``."""
        started = time.perf_counter()
        try:
            result = client.query(text)
        except ServerError as exc:
            self.problem(f"request failed: {exc}")
            return False, started, time.perf_counter(), 0.0
        ended = time.perf_counter()
        ok = result.ok and result.answers == self.reference[text]
        if not ok:
            self.problem(f"served answer differs from reference: {text}")
        return ok, started, ended, result.server_ms

    def _closed(self, seconds: float):
        """Closed loop: each client sends its next request when the
        previous reply arrives, until the time is up. Returns the phase
        start and one ``(text, ok, sent, ended, server_ms)`` per request."""
        started = time.perf_counter()
        stop_at = started + seconds

        def body(lane, client):
            stream, outcomes, index = self.streams[lane], [], 0
            while time.perf_counter() < stop_at:
                text = stream[index % len(stream)]
                index += 1
                outcomes.append((text, *self._send(client, text)))
            return outcomes

        per_lane = self._on_every_client(body)
        return started, [
            (text, (ended - sent) * 1000.0, ok, sent, ended, server_ms)
            for outcomes in per_lane
            for text, ok, sent, ended, server_ms in outcomes or ()
        ]

    def _open(self, rate: float, seconds: float):
        """Open loop: ``rate × seconds`` requests on a fixed schedule
        whatever the replies do, latency from each request's due time."""
        count = max(CLIENTS, int(rate * seconds))
        start = time.perf_counter() + 0.05

        def body(lane, client):
            # Drawn from the far end of the lane's stream, so the open
            # loops do not replay what the closed loop just sent.
            offsets = due_offsets(rate, count, CLIENTS, lane)
            stream = self.streams[lane]
            requests = [
                (offset, stream[-(index % len(stream)) - 1])
                for index, offset in enumerate(offsets)
            ]
            spans = []

            def send(text):
                ok, sent, ended, server_ms = self._send(client, text)
                spans.append((sent, ended, server_ms))
                return ok

            return open_loop(requests, send, start), spans

        records, late = [], 0
        for outcomes, spans in filter(None, self._on_every_client(body)):
            for (text, latency_ms, lateness_ms, ok), span in zip(outcomes, spans):
                records.append((text, latency_ms, ok, *span))
                late += lateness_ms > LATE_MS
        return start, records, late

    def _book(self, kind, started, seconds, records, ops: Ops, tracer) -> float:
        """Book a phase's requests on ``ops`` in windows of about a
        second (by completion time); returns the window length."""
        slices = max(1, int(seconds))
        length = seconds / slices
        records.sort(key=lambda record: record[4])
        position = 0
        for index in range(slices):
            window_end = started + (index + 1) * length
            last = index == slices - 1
            while position < len(records) and (last or records[position][4] < window_end):
                _text, latency_ms, ok, sent, ended, server_ms = records[position]
                position += 1
                ops.record(kind, latency_ms, ok)
                if tracer is not None:
                    request = tracer.add(
                        f"client.request.{kind}", sent, ended, None, ops.attempted
                    )
                    tracer.add(
                        "server.request", ended - server_ms / 1000.0, ended,
                        request, ops.attempted,
                    )
            ops.close_window()
        return length

    def measure(self, seconds: float, tracer) -> Ops:
        """Half the time closed loop, half open loop at the fixed rate;
        a traced run adds the high-rate open loop for a quarter more."""
        ops = Ops()
        with collector_paused():
            started, records = self._closed(seconds / 2)
            self.closed_texts = [record[0] for record in records]
            self.closed_window_s = self._book(
                "closed", started, seconds / 2, records, ops, tracer
            )
            timed_collect(ops)
            started, records, late = self._open(OPEN_RATE, seconds / 2)
            self.late_share = late / len(records)
            self._book("open", started, seconds / 2, records, ops, tracer)
            timed_collect(ops)
            if tracer is not None:
                started, records, _late = self._open(OPEN_HI_RATE, seconds / 4)
                self._book("open_hi", started, seconds / 4, records, ops, tracer)
        return ops

    def end_to_end(self, ops: Ops) -> dict:
        """Served traffic never repeats exactly, so the figures are those
        of the median window: replies per second of the closed loop,
        latency percentiles of the fixed-rate open loop."""
        opened = ops.windows("open")
        return {
            "ops_per_s": windowed(
                ops.windows("closed"), lambda window: len(window) / self.closed_window_s
            ),
            "op_p50_ms": windowed(opened, lambda window: percentile(window, 50)),
            "op_p95_ms": windowed(opened, lambda window: percentile(window, 95)),
            "samples": min(len(window) for window in opened),
        }

    def layer_metrics(self, ops: Ops, tracer, counters: dict) -> dict:
        served = self.server.metrics_snapshot()["counters"]
        closed = ops.ms_of("closed")
        inproc = self._probe_in_process()
        inproc_ms = mean(inproc[text] for text in self.closed_texts)
        return {
            "server.inproc_ms": inproc_ms,
            "server.overhead_ms": mean(closed) - inproc_ms,
            "server.closed.p50_ms": percentile(closed, 50),
            "server.batch_mean_requests":
                served.get("server.batch_requests", 0) / served.get("server.batches", 1),
            "server.open.late_share": self.late_share,
            "server.open_hi.p95_ms": percentile(ops.ms_of("open_hi"), 95),
            "server.worker_crashes": served.get("server.worker_crashes", 0),
            "server.reconcile_gap": abs(
                served.get("server.queries", 0) - served.get("serve.worker.queries", 0)
            ),
        }

    def _probe_in_process(self) -> dict:
        """The same texts without the serve path: ``run_query`` on the
        snapshot opened the way a worker opens it, plan cache warm."""
        store = TripleStore.open(self.snapshot, backend="sqlite", read_only=True)
        try:
            times = {}
            for text in self.texts:
                query = parse_query(text)
                run_query(query, store)
                started = time.perf_counter()
                run_query(query, store)
                times[text] = (time.perf_counter() - started) * 1000.0
        finally:
            store.close()
        return times
