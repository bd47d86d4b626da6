"""Concurrency suite: many clients hammering one served snapshot get
answers identical to serial ``run_query`` — across backends, with and
without cross-client batching windows, from threads and from genuinely
separate processes."""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.server import Server, ServerClient, ServerConfig
from tests.server.conftest import WORKLOAD


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
@pytest.mark.parametrize("window_ms", [0.0, 5.0])
def test_threaded_clients_match_serial(snapshot, reference, backend, window_ms):
    config = ServerConfig(workers=2, backend=backend, window_ms=window_ms)
    with Server(snapshot, config) as server:
        mismatches = _hammer(server, reference, threads=4, rounds=6)
    assert mismatches == []


def test_batch_requests_match_serial(snapshot, reference):
    """Multi-query requests: per-request texts share one worker batch."""
    with Server(snapshot, ServerConfig(workers=2, window_ms=3.0)) as server:
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
    with Server(snapshot, ServerConfig(workers=2, window_ms=2.0)) as server:
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


def test_windowed_batching_merges_concurrent_requests(snapshot, reference):
    """With a wide window, concurrent arrivals execute as shared
    batches (the MQO surface); answers stay per-request correct."""
    config = ServerConfig(workers=1, window_ms=50.0, test_hooks=True)
    with Server(snapshot, config) as server:
        clients = [server.connect() for _ in range(4)]
        try:
            barrier = threading.Barrier(4)
            results: dict[int, object] = {}

            def drive(slot: int) -> None:
                barrier.wait()
                results[slot] = clients[slot].query(
                    WORKLOAD[slot], timeout=60.0
                )

            threads = [
                threading.Thread(target=drive, args=(slot,))
                for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            for client in clients:
                client.close()
        for slot in range(4):
            answers = frozenset(results[slot].answers_or_raise())
            assert answers == reference[WORKLOAD[slot]]
        # At least one executed batch gathered several requests' texts.
        assert any(len(texts) > 1 for _, texts in server.batch_log)


def test_single_request_batches_when_window_disabled(snapshot, reference):
    """window_ms=0: every request is its own worker batch."""
    config = ServerConfig(workers=2, window_ms=0.0, test_hooks=True)
    with Server(snapshot, config) as server:
        mismatches = _hammer(server, reference, threads=3, rounds=4)
        assert mismatches == []
        assert len(server.batch_log) == 12
        assert all(len(texts) == 1 for _, texts in server.batch_log)


def test_server_counters_cover_all_requests(snapshot, reference):
    with Server(snapshot, ServerConfig(workers=2, window_ms=0.0)) as server:
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
    with Server(snapshot, ServerConfig(workers=2, window_ms=0.0)) as server:
        for index in range(50):
            with server.connect() as client:
                for round_index in range(40):
                    text = WORKLOAD[(index + round_index) % len(WORKLOAD)]
                    answers = client.query(text, timeout=60.0).answers_or_raise()
                    assert frozenset(answers) == reference[text]
        assert server.metrics_snapshot()["counters"]["server.requests"] == 2000
        assert server.batch_log == []

        def wait_for(condition) -> bool:
            deadline = time.monotonic() + 5.0
            while not condition() and time.monotonic() < deadline:
                time.sleep(0.02)
            return condition()

        def live_readers() -> int:
            return sum(
                thread.name == "repro-serve-reader"
                for thread in threading.enumerate()
            )

        # Every short-lived client's reader ends once it sees the EOF.
        assert wait_for(lambda: live_readers() == 0)
        # The next accepts drop the finished ones from the list.
        with server.connect() as first, server.connect() as second:
            first.query(WORKLOAD[0], timeout=60.0).answers_or_raise()
            second.query(WORKLOAD[1], timeout=60.0).answers_or_raise()

            def listed() -> list:
                with server._readers_lock:
                    return list(server._reader_threads)

            assert wait_for(lambda: len(listed()) == 2)
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
