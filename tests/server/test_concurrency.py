"""Concurrency suite: many clients hammering one served snapshot get
answers identical to serial ``run_query`` — across backends, with and
without cross-client batching, from threads and from genuinely separate
processes — and batches form from load: what queued while a worker was
busy runs as one batch, the bounded intake queue is the only queue."""

from __future__ import annotations

import multiprocessing
import threading
import time
from multiprocessing.connection import Client

import pytest

from repro.server import Server, ServerClient, ServerConfig
from tests.server.conftest import WORKLOAD


def _wait_for(condition, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    return condition()


def _hold_worker(server, conn, request_id, delay_ms):
    """Occupy the one worker of a fresh ``test_hooks`` server: send a
    ``delay_ms`` request over the raw ``conn`` and return once the
    driver has taken it off the intake queue (its reply is not read)."""
    conn.send(("query", request_id, [WORKLOAD[0]], {"delay_ms": delay_ms}))
    intake = server._intake
    assert _wait_for(lambda: intake.unfinished_tasks == 1 and intake.empty())


def _hammer(server, reference, *, threads, rounds):
    """Drive ``threads`` clients concurrently; return all mismatches."""
    barrier = threading.Barrier(threads)
    mismatches: list[str] = []
    lock = threading.Lock()

    def drive(slot: int) -> None:
        with server.connect() as client:
            barrier.wait()
            for round_index in range(rounds):
                text = WORKLOAD[(slot + round_index) % len(WORKLOAD)]
                result = client.query(text, timeout=60.0)
                answers = frozenset(result.answers_or_raise())
                if answers != reference[text]:
                    with lock:
                        mismatches.append(
                            f"client {slot} round {round_index}: {text}"
                        )

    workers = [
        threading.Thread(target=drive, args=(slot,)) for slot in range(threads)
    ]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join(timeout=120.0)
    assert not any(thread.is_alive() for thread in workers), "client hung"
    return mismatches


@pytest.mark.parametrize("backend", ["sqlite", "memory"])
@pytest.mark.parametrize("max_batch_requests", [1, 32])
def test_threaded_clients_match_serial(
    snapshot, reference, backend, max_batch_requests
):
    """``max_batch_requests=1`` never merges requests; 32 merges
    whatever four clients queue behind two workers."""
    config = ServerConfig(
        workers=2, backend=backend, max_batch_requests=max_batch_requests
    )
    with Server(snapshot, config) as server:
        mismatches = _hammer(server, reference, threads=4, rounds=6)
    assert mismatches == []


def test_batch_requests_match_serial(snapshot, reference):
    """Multi-query requests: per-request texts share one worker batch."""
    with Server(snapshot, ServerConfig(workers=2)) as server:
        with server.connect() as client:
            results = client.query_batch(WORKLOAD, timeout=60.0)
        assert len(results) == len(WORKLOAD)
        for text, result in zip(WORKLOAD, results):
            assert frozenset(result.answers_or_raise()) == reference[text]


def _process_client(address, authkey, texts, expected_sizes, queue):
    """Runs in a separate process with no fork ancestry to the server's
    worker pool: connect over the socket, verify answer-set sizes."""
    try:
        client = ServerClient(address, authkey)
        try:
            for text, expected in zip(texts, expected_sizes):
                answers = client.query(text, timeout=60.0).answers_or_raise()
                if len(answers) != expected:
                    queue.put(f"size mismatch on {text}")
                    return
        finally:
            client.close()
        queue.put("ok")
    except Exception as exc:  # noqa: BLE001 - reported to the test
        queue.put(f"{type(exc).__name__}: {exc}")


def test_process_clients_match_serial(snapshot, reference):
    """Clients in separate OS processes (the production shape)."""
    context = multiprocessing.get_context("fork")
    expected_sizes = [len(reference[text]) for text in WORKLOAD]
    with Server(snapshot, ServerConfig(workers=2)) as server:
        queue = context.Queue()
        processes = [
            context.Process(
                target=_process_client,
                args=(server.address, server.authkey, WORKLOAD,
                      expected_sizes, queue),
            )
            for _ in range(3)
        ]
        for process in processes:
            process.start()
        outcomes = [queue.get(timeout=60.0) for _ in processes]
        for process in processes:
            process.join(timeout=10.0)
    assert outcomes == ["ok", "ok", "ok"]


def _followers_behind_held_worker(server, reference, stagger_s):
    """Hold the worker 300 ms, send five one-query requests from five
    clients ``stagger_s`` apart, check every answer; returns the texts
    of the batches the server ran."""
    followers = [WORKLOAD[slot % len(WORKLOAD)] for slot in range(5)]
    results: dict[int, object] = {}

    def drive(slot: int, client) -> None:
        time.sleep(slot * stagger_s)
        results[slot] = client.query(followers[slot], timeout=60.0)

    holder = Client(server.address, authkey=server.authkey)
    clients = [server.connect() for _ in followers]
    try:
        _hold_worker(server, holder, 1, 300)
        threads = [
            threading.Thread(target=drive, args=(slot, client))
            for slot, client in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        holder.close()
        for client in clients:
            client.close()
    for slot, text in enumerate(followers):
        assert frozenset(results[slot].answers_or_raise()) == reference[text]
    return followers, [texts for _, texts in server.batch_log]


def test_windowed_batching_merges_concurrent_requests(snapshot, reference):
    """The window is the time the worker is busy: requests of separate
    clients that arrive meanwhile execute as one shared batch (the MQO
    surface); answers stay per-request correct."""
    config = ServerConfig(workers=1, test_hooks=True)
    with Server(snapshot, config) as server:
        followers, batches = _followers_behind_held_worker(
            server, reference, stagger_s=0.0
        )
    assert batches[0] == (WORKLOAD[0],)
    assert [sorted(batch) for batch in batches[1:]] == [sorted(followers)]


def test_staggered_followers_share_one_batch(snapshot, reference):
    """Batches form from load, not from a clock: followers 10 ms apart
    behind a held worker are one batch, in arrival order."""
    config = ServerConfig(workers=1, test_hooks=True)
    with Server(snapshot, config) as server:
        followers, batches = _followers_behind_held_worker(
            server, reference, stagger_s=0.010
        )
    assert batches == [(WORKLOAD[0],), tuple(followers)]


def test_backpressure_is_the_intake_queue(snapshot):
    """A client that pipelines 50 requests without reading, behind a
    held worker: the bounded intake queue fills and stays full (nothing
    downstream of it queues), every reply still arrives, in order, and
    no batch exceeds ``max_batch_requests``."""
    config = ServerConfig(
        workers=1, max_pending=4, max_batch_requests=3, test_hooks=True
    )
    with Server(snapshot, config) as server:
        conn = Client(server.address, authkey=server.authkey)
        try:
            _hold_worker(server, conn, 0, 500)
            for request_id in range(1, 51):
                text = WORKLOAD[request_id % len(WORKLOAD)]
                conn.send(("query", request_id, [text], {}))
            assert _wait_for(server._intake.full)
            time.sleep(0.05)  # a dispatcher draining it would show here
            assert server._intake.full()
            assert server.batch_log == []  # ... while the worker is held
            replies = []
            for _ in range(51):
                assert conn.poll(60.0), "reply missing"
                replies.append(conn.recv())
        finally:
            conn.close()
    assert [reply[1] for reply in replies] == list(range(51))
    assert all(entry[0] == "ok" for reply in replies for entry in reply[2])
    assert max(len(texts) for _, texts in server.batch_log) == 3


def test_idle_server_runs_each_request_as_its_own_batch(snapshot, reference):
    """No timer holds a request back to gather company: one sequential
    client leaves as many batches as requests, and ``server.queue_ms``
    (intake stamp to batch formed) is observed once per request."""
    config = ServerConfig(workers=2, test_hooks=True)
    with Server(snapshot, config) as server:
        assert _hammer(server, reference, threads=1, rounds=12) == []
        snapshot_ = server.metrics_snapshot()
        assert all(len(texts) == 1 for _, texts in server.batch_log)
    counters = snapshot_["counters"]
    assert counters["server.batches"] == counters["server.requests"] == 12
    assert snapshot_["histograms"]["server.queue_ms"]["count"] == 12
    assert snapshot_["histograms"]["server.latency_ms"]["count"] == 12


def test_abandoned_request_gets_no_worker_time(snapshot, reference):
    """A client that hung up while its request queued is skipped when
    the batch forms, and the served totals still reconcile."""
    config = ServerConfig(workers=1, test_hooks=True)
    with Server(snapshot, config) as server:
        holder = Client(server.address, authkey=server.authkey)
        leaver = Client(server.address, authkey=server.authkey)
        try:
            assert _wait_for(lambda: len(server._conn_locks) == 2)
            _hold_worker(server, holder, 1, 300)
            leaver.send(("query", 1, [WORKLOAD[1]], {}))
            assert _wait_for(lambda: server._intake.qsize() == 1)
            leaver.close()
            # The leaver's reader sees the EOF and closes its end.
            assert _wait_for(lambda: len(server._conn_locks) == 1)
            assert server.batch_log == []  # all that, behind the hold
            assert holder.poll(60.0) and holder.recv()[2][0][0] == "ok"
            holder.send(("query", 2, [WORKLOAD[2]], {}))
            assert holder.poll(60.0)
            answers = holder.recv()[2][0][1]
        finally:
            holder.close()
            leaver.close()
        counters = server.metrics_snapshot()["counters"]
    assert frozenset(answers) == reference[WORKLOAD[2]]
    assert counters["server.abandoned"] == 1
    assert counters["server.queries"] == counters["serve.worker.queries"] == 2
    assert [texts for _, texts in server.batch_log] == [
        (WORKLOAD[0],), (WORKLOAD[2],)
    ]


def test_malformed_message_is_answered_not_fatal(snapshot, reference):
    """Neither a short tuple nor a bare string may kill the reader
    thread: each gets an error reply and the connection stays usable."""
    with Server(snapshot, ServerConfig(workers=1)) as server:
        conn = Client(server.address, authkey=server.authkey)
        try:
            for message, request_id in [
                (("query", 7), 7),
                ("query", None),
                (("query", 8, "not a list", {}), 8),
                (("query", 9, [WORKLOAD[0]], None), 9),
            ]:
                conn.send(message)
                assert conn.poll(60.0), f"no reply to {message!r}"
                kind, echoed, payload, server_ms = conn.recv()
                assert (kind, echoed, server_ms) == ("result", request_id, 0.0)
                [(status, error)] = payload
                assert status == "error"
                assert error.startswith("malformed request: ")
            conn.send(("query", 10, [WORKLOAD[0]], {}))
            assert conn.poll(60.0)
            _, echoed, [(status, answers)], _ = conn.recv()
        finally:
            conn.close()
    assert (echoed, status) == (10, "ok")
    assert frozenset(answers) == reference[WORKLOAD[0]]


def test_server_counters_cover_all_requests(snapshot, reference):
    with Server(snapshot, ServerConfig(workers=2)) as server:
        assert _hammer(server, reference, threads=3, rounds=5) == []
        counters = server.metrics_snapshot()["counters"]
    assert counters["server.queries"] == 15
    assert counters["server.requests"] == 15
    assert counters["serve.worker.queries"] == 15
    assert counters.get("server.errors", 0) == 0


def test_long_lived_server_keeps_no_per_request_state(snapshot, reference):
    """2 000 requests over 50 short-lived connections: without
    ``test_hooks`` nothing is logged per batch, and finished reader
    threads are dropped instead of kept for the life of the server."""
    with Server(snapshot, ServerConfig(workers=2)) as server:
        for index in range(50):
            with server.connect() as client:
                for round_index in range(40):
                    text = WORKLOAD[(index + round_index) % len(WORKLOAD)]
                    answers = client.query(text, timeout=60.0).answers_or_raise()
                    assert frozenset(answers) == reference[text]
        assert server.metrics_snapshot()["counters"]["server.requests"] == 2000
        assert server.batch_log == []

        def live_readers() -> int:
            return sum(
                thread.name == "repro-serve-reader"
                for thread in threading.enumerate()
            )

        # Every short-lived client's reader ends once it sees the EOF.
        assert _wait_for(lambda: live_readers() == 0)
        # The next accepts drop the finished ones from the list.
        with server.connect() as first, server.connect() as second:
            first.query(WORKLOAD[0], timeout=60.0).answers_or_raise()
            second.query(WORKLOAD[1], timeout=60.0).answers_or_raise()

            def listed() -> list:
                with server._readers_lock:
                    return list(server._reader_threads)

            assert _wait_for(lambda: len(listed()) == 2)
            assert all(reader.is_alive() for reader in listed())


def test_stop_returns_promptly_and_leaves_no_thread(snapshot):
    """``listener.close()`` does not wake a thread blocked in
    ``accept()`` on Linux: ``stop`` has to, or it sits out the accept
    thread's whole join timeout and leaks the thread."""
    server = Server(snapshot, ServerConfig(workers=1))
    with server.connect() as client:
        client.query(WORKLOAD[0], timeout=60.0).answers_or_raise()
    started = time.perf_counter()
    server.stop()
    assert time.perf_counter() - started < 0.5
    assert not [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("repro-serve-")
    ]
