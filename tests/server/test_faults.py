"""Fault tolerance: killed workers and vanishing snapshots must end in
a replaced worker plus a retried request or a clean error — never a
hang. Every client call below carries a timeout, so a regression that
reintroduces a hang fails the test instead of wedging the suite."""

from __future__ import annotations

import os
import shutil
import signal
import threading
import time

from repro.server import Server, ServerConfig
from tests.server.conftest import WORKLOAD, build_store


def _query_in_background(client, text, delay_ms):
    """Submit a held-in-flight query (test-hook delay) from a thread."""
    box: dict = {}

    def submit() -> None:
        try:
            box["result"] = client.query(
                text, timeout=60.0, delay_ms=delay_ms
            )
        except Exception as exc:  # noqa: BLE001 - asserted by callers
            box["raised"] = exc

    thread = threading.Thread(target=submit)
    thread.start()
    return thread, box


def test_killed_worker_is_replaced_and_request_retried(snapshot, reference):
    config = ServerConfig(workers=1, retries=1, test_hooks=True)
    with Server(snapshot, config) as server:
        victim = server.worker_pids()[0]
        with server.connect() as client:
            thread, box = _query_in_background(client, WORKLOAD[0], 800)
            time.sleep(0.3)  # let the request reach the worker
            os.kill(victim, signal.SIGKILL)
            thread.join(timeout=60.0)
            assert not thread.is_alive(), "request hung after worker kill"
            result = box["result"]
            assert result.ok, result.error
            assert frozenset(result.answers) == reference[WORKLOAD[0]]
        assert server.worker_pids() != [victim]
        counters = server.metrics_snapshot()["counters"]
        assert counters["server.worker_crashes"] == 1
        assert counters["server.retries"] == 1


def test_killed_worker_without_retries_is_clean_error(snapshot, reference):
    config = ServerConfig(workers=1, retries=0, test_hooks=True)
    with Server(snapshot, config) as server:
        victim = server.worker_pids()[0]
        with server.connect() as client:
            thread, box = _query_in_background(client, WORKLOAD[0], 800)
            time.sleep(0.3)
            os.kill(victim, signal.SIGKILL)
            thread.join(timeout=60.0)
            assert not thread.is_alive(), "request hung after worker kill"
            result = box["result"]
            assert not result.ok
            assert "worker died" in result.error
            # The pool healed: the very next query succeeds.
            healed = client.query(WORKLOAD[1], timeout=60.0)
            assert frozenset(healed.answers_or_raise()) == (
                reference[WORKLOAD[1]]
            )
        assert server.worker_pids() != [victim]


def test_other_clients_unaffected_by_crash(snapshot, reference):
    """A crash serving one client must not corrupt another's requests."""
    config = ServerConfig(workers=2, retries=1, test_hooks=True)
    with Server(snapshot, config) as server:
        with server.connect() as victim_client, server.connect() as other:
            thread, box = _query_in_background(
                victim_client, WORKLOAD[0], 1000
            )
            time.sleep(0.3)
            # Kill whichever worker holds the delayed request: it is the
            # busy one; the other keeps serving.
            for _ in range(20):
                answers = other.query(
                    WORKLOAD[2], timeout=60.0
                ).answers_or_raise()
                assert frozenset(answers) == reference[WORKLOAD[2]]
            os.kill(server.worker_pids()[0], signal.SIGKILL)
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            final = other.query(WORKLOAD[3], timeout=60.0)
            assert frozenset(final.answers_or_raise()) == (
                reference[WORKLOAD[3]]
            )


def test_deleted_snapshot_surfaces_clean_error(tmp_path):
    """Unlinking the snapshot under the server: SQLite would keep
    silently serving the open inode, so the worker's identity check
    must turn the next request into a clear error."""
    path = tmp_path / "kb.snapshot"
    store = build_store()
    store.save(path)
    store.close()
    with Server(path, ServerConfig(workers=1)) as server:
        with server.connect() as client:
            assert client.query(WORKLOAD[0], timeout=60.0).ok
            os.remove(path)
            result = client.query(WORKLOAD[0], timeout=60.0)
            assert not result.ok
            assert "deleted" in result.error


def test_replaced_snapshot_surfaces_clean_error(tmp_path):
    """Atomically swapping a *different* snapshot into the same path
    changes the inode; serving stale data silently is not acceptable."""
    path = tmp_path / "kb.snapshot"
    store = build_store()
    store.save(path)
    store.close()
    replacement = build_store()
    replacement.save(tmp_path / "next.snapshot")
    replacement.close()
    with Server(path, ServerConfig(workers=1)) as server:
        with server.connect() as client:
            assert client.query(WORKLOAD[0], timeout=60.0).ok
            shutil.move(tmp_path / "next.snapshot", path)
            result = client.query(WORKLOAD[0], timeout=60.0)
            assert not result.ok
            assert "replaced" in result.error


def test_missing_snapshot_rejected_at_startup(tmp_path):
    from repro.server import ServerError

    try:
        Server(tmp_path / "nope.snapshot", ServerConfig(workers=1))
    except ServerError as exc:
        assert "does not exist" in str(exc)
    else:
        raise AssertionError("Server accepted a missing snapshot")


def test_repeated_crashes_keep_pool_capacity(snapshot, reference):
    """Crash-replace several times in a row; the pool never shrinks."""
    config = ServerConfig(workers=1, retries=1, test_hooks=True)
    with Server(snapshot, config) as server:
        with server.connect() as client:
            for _ in range(3):
                victim = server.worker_pids()[0]
                thread, box = _query_in_background(client, WORKLOAD[0], 600)
                time.sleep(0.25)
                os.kill(victim, signal.SIGKILL)
                thread.join(timeout=60.0)
                assert not thread.is_alive()
                result = box["result"]
                assert result.ok, result.error
                assert frozenset(result.answers) == reference[WORKLOAD[0]]
                assert len(server.worker_pids()) == 1
                assert server.worker_pids()[0] != victim
