"""The serve-mode server: accept clients, batch queries, fan out.

Architecture (one process, N worker processes)::

    clients ──sockets──► reader threads ──► bounded intake queue
                                               │
                                       dispatcher thread
                                  (gathers batching windows)
                                               │
                                 dispatch ThreadPoolExecutor
                                   │ acquire / release │
                                   ▼                   ▼
                            WorkerPool (N forked worker processes,
                            each: read-only snapshot + plan cache)

Batching windows are how one server turns concurrent clients into
multi-query optimization wins: the dispatcher takes the first pending
request, then keeps draining the intake queue until ``window_ms``
elapses (or ``max_batch_requests`` requests gathered), and ships all
their query texts as *one* ``run_query_batch`` call to one worker —
identical scans and subplans shared across clients that happened to
arrive together. ``window_ms=0`` disables cross-request batching;
each request still ships as one batch (its own texts still share).

Backpressure is the bounded intake queue: when dispatch falls behind,
reader threads block putting into it, the kernel socket buffers fill,
and clients slow down — no unbounded queueing inside the server.

Fault tolerance: a worker that dies mid-batch is replaced in its pool
slot and the batch retries on another worker (up to ``retries`` times
— safe, the snapshot is immutable and read-only); a batch that keeps
failing answers every affected request with a clean error. Nothing in
the dispatch path waits unboundedly.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing.connection import Listener
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.server.pool import BatchFailed, WorkerCrash, WorkerPool
from repro.server.protocol import ServerError


@dataclass(slots=True)
class ServerConfig:
    """Tuning knobs of one server instance (defaults serve tests and
    small deployments; the CLI exposes the interesting ones)."""

    workers: int = 2
    backend: str = "sqlite"
    window_ms: float = 2.0
    max_batch_requests: int = 32
    collect_metrics: bool = True
    retries: int = 1
    request_timeout_s: float = 30.0
    max_pending: int = 1024
    #: Enables test-only request options (``delay_ms``) and the
    #: per-batch :attr:`Server.batch_log`. Never on in production paths.
    test_hooks: bool = False


class Server:
    """Serve one read-only snapshot to concurrent clients.

    Construction order is deliberate: the worker pool forks **before**
    any server thread starts (forking a multi-threaded process risks
    inheriting held locks), then the listener socket opens and the
    accept/dispatcher threads come up. Use as a context manager or call
    :meth:`stop` explicitly.
    """

    def __init__(self, path, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.path = str(path)
        if not Path(self.path).is_file():
            raise ServerError(f"snapshot {self.path} does not exist")
        cfg = self.config
        self.metrics = MetricsRegistry()
        self._metrics_lock = threading.Lock()
        #: ``(worker_index, texts_tuple)`` per executed batch, in
        #: completion order — lets tests replay exactly the batches each
        #: worker ran and reconcile metrics with a serial re-execution.
        #: Recorded only under ``config.test_hooks``: it grows with
        #: every batch, which a long-lived server cannot afford.
        self.batch_log: list[tuple[int, tuple[str, ...]]] = []
        self.pool = WorkerPool(
            self.path,
            workers=cfg.workers,
            backend=cfg.backend,
            collect_metrics=cfg.collect_metrics,
            test_hooks=cfg.test_hooks,
        )
        self._stopping = threading.Event()
        self._intake: queue.Queue = queue.Queue(maxsize=cfg.max_pending)
        self._conn_locks: dict[int, threading.Lock] = {}
        self._reader_threads: list[threading.Thread] = []
        self._readers_lock = threading.Lock()
        try:
            self.authkey = os.urandom(16)
            self._listener = Listener(None, "AF_UNIX", authkey=self.authkey)
            self.address = self._listener.address
            self._dispatch_pool = ThreadPoolExecutor(
                max_workers=cfg.workers,
                thread_name_prefix="repro-serve-dispatch",
            )
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-serve-accept",
                daemon=True,
            )
            self._dispatcher_thread = threading.Thread(
                target=self._dispatch_loop, name="repro-serve-dispatcher",
                daemon=True,
            )
            self._accept_thread.start()
            self._dispatcher_thread.start()
        except BaseException:
            self.pool.shutdown()
            raise

    # -- client-facing surface -----------------------------------------

    def connect(self):
        """A fresh client connection to this server (in-process use)."""
        from repro.server.client import ServerClient

        return ServerClient(self.address, self.authkey)

    def worker_pids(self) -> list[int]:
        return self.pool.pids()

    def metrics_dump(self) -> dict:
        """Lossless merged registry: server counters + worker dumps."""
        with self._metrics_lock:
            return self.metrics.dump()

    def metrics_snapshot(self) -> dict:
        with self._metrics_lock:
            return self.metrics.snapshot()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        """Shut down threads, socket, and workers. Idempotent."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        # Closing the listener does not wake a thread blocked in
        # ``accept()`` on Linux; a throw-away connection does — the
        # accept loop fails its handshake, sees ``_stopping`` and ends.
        try:
            with socket.socket(socket.AF_UNIX) as wake:
                wake.connect(self.address)
        except OSError:
            pass
        self._accept_thread.join(timeout=2.0)
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        self._dispatcher_thread.join(timeout=2.0)
        self._dispatch_pool.shutdown(wait=True)
        with self._readers_lock:
            readers = list(self._reader_threads)
        for thread in readers:
            thread.join(timeout=2.0)
        self.pool.shutdown()

    # -- accept / read -------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn = self._listener.accept()
            except Exception:  # noqa: BLE001 - auth failure / closed socket
                if self._stopping.is_set():
                    return
                continue
            thread = threading.Thread(
                target=self._reader_loop, args=(conn,),
                name="repro-serve-reader", daemon=True,
            )
            with self._readers_lock:
                # Keep only readers whose client is still connected: the
                # list exists for ``stop()`` to join, not as a history.
                self._reader_threads = [
                    reader for reader in self._reader_threads
                    if reader.is_alive()
                ]
                self._reader_threads.append(thread)
            self._conn_locks[id(conn)] = threading.Lock()
            thread.start()

    def _reader_loop(self, conn) -> None:
        """Pump one client connection into the intake queue.

        The bounded ``put`` is the backpressure point: when the queue is
        full this thread blocks, the socket buffer behind it fills, and
        the client's next ``send`` blocks in turn.
        """
        try:
            while not self._stopping.is_set():
                if not conn.poll(0.1):
                    continue
                message = conn.recv()
                kind, request_id = message[0], message[1]
                if kind == "metrics":
                    self._reply(conn, request_id, self.metrics_dump(), 0.0)
                    continue
                if kind == "info":
                    self._reply(conn, request_id, self._info(), 0.0)
                    continue
                if kind != "query":
                    self._reply(
                        conn, request_id,
                        [("error", f"unknown request kind {kind!r}")], 0.0,
                    )
                    continue
                texts, options = list(message[2]), dict(message[3])
                item = (conn, request_id, texts, options, time.perf_counter())
                while not self._stopping.is_set():
                    try:
                        self._intake.put(item, timeout=0.2)
                        break
                    except queue.Full:
                        continue
        except (EOFError, OSError):
            pass
        finally:
            self._conn_locks.pop(id(conn), None)
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _info(self) -> dict:
        cfg = self.config
        return {
            "path": self.path,
            "workers": cfg.workers,
            "backend": cfg.backend,
            "window_ms": cfg.window_ms,
            "worker_pids": self.worker_pids(),
        }

    def _reply(self, conn, request_id, payload, server_ms: float) -> None:
        lock = self._conn_locks.get(id(conn))
        try:
            if lock is None:
                conn.send(("result", request_id, payload, server_ms))
            else:
                with lock:
                    conn.send(("result", request_id, payload, server_ms))
        except (BrokenPipeError, OSError):  # client went away
            pass

    # -- dispatch ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        """Form batching windows from the intake queue."""
        cfg = self.config
        while not self._stopping.is_set():
            try:
                first = self._intake.get(timeout=0.05)
            except queue.Empty:
                continue
            window = [first]
            if cfg.window_ms > 0:
                deadline = time.monotonic() + cfg.window_ms / 1000.0
                while len(window) < cfg.max_batch_requests:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    try:
                        window.append(self._intake.get(timeout=remaining))
                    except queue.Empty:
                        break
            self._dispatch_pool.submit(self._run_batch, window)

    def _run_batch(self, window: list) -> None:
        """Execute one window's requests as a single worker batch."""
        cfg = self.config
        texts: list[str] = []
        counts: list[int] = []
        delay_ms = None
        for _conn, _rid, request_texts, options, _start in window:
            texts.extend(request_texts)
            counts.append(len(request_texts))
            if cfg.test_hooks and options.get("delay_ms"):
                delay_ms = max(delay_ms or 0.0, float(options["delay_ms"]))
        entries = None
        exec_ms = 0.0
        error = None
        attempts = 0
        while attempts <= cfg.retries:
            attempts += 1
            try:
                worker = self.pool.acquire(timeout=cfg.request_timeout_s)
            except ServerError as exc:
                error = str(exc)
                break
            try:
                entries, exec_ms, dump = worker.run(
                    texts, delay_ms=delay_ms, timeout=cfg.request_timeout_s
                )
            except WorkerCrash as exc:
                with self._metrics_lock:
                    self.metrics.inc("server.worker_crashes")
                    if attempts <= cfg.retries:
                        self.metrics.inc("server.retries")
                error = f"worker died while serving the request: {exc}"
                try:
                    self.pool.replace(worker)
                except ServerError as spawn_exc:  # pragma: no cover
                    error = f"{error}; respawn failed: {spawn_exc}"
                    break
                continue
            except BatchFailed as exc:
                self.pool.release(worker)
                error = str(exc)
                break
            self.pool.release(worker)
            if cfg.test_hooks:
                self.batch_log.append((worker.index, tuple(texts)))
            if dump is not None:
                with self._metrics_lock:
                    self.metrics.merge(dump)
            break
        if entries is None:
            message = error or "request failed"
            entries = [("error", message)] * len(texts)
        finished = time.perf_counter()
        with self._metrics_lock:
            self.metrics.inc("server.batches")
            self.metrics.inc("server.batch_requests", len(window))
            self.metrics.inc("server.batch_queries", len(texts))
            self.metrics.inc("server.requests", len(window))
            self.metrics.inc("server.queries", len(texts))
            if error is not None:
                self.metrics.inc("server.errors", len(window))
            self.metrics.observe("server.worker_exec_ms", exec_ms)
            for _conn, _rid, _texts, _options, started in window:
                self.metrics.observe(
                    "server.latency_ms", (finished - started) * 1000.0
                )
        offset = 0
        for (conn, request_id, _texts, _options, started), count in zip(
            window, counts
        ):
            payload = entries[offset:offset + count]
            offset += count
            self._reply(
                conn, request_id, payload, (finished - started) * 1000.0
            )
