"""The serve-mode server: accept clients, batch queries by load, fan out.

Architecture (one process, N worker processes)::

    clients ──sockets──► reader threads ──► bounded intake queue
                                               │
                          N driver threads, one per worker slot: take
                          one request, drain what else is queued, run
                          the batch on the slot's worker, reply
                                               │ pipe
                                               ▼
                            WorkerPool (N forked worker processes,
                            each: read-only snapshot + plan cache)

Load-formed batches are how one server turns concurrent clients into
fewer worker round trips: a driver blocks for one request, takes
whatever else is *already* queued (up to ``max_batch_requests``) and
ships all their query texts as *one* ``run_query_batch`` call to its
worker — a batch is exactly what arrived while that worker was busy,
so an idle server dispatches at once and a loaded one answers a query
the clients that queued together share only once. A multi-text
request always ships whole.

Backpressure is the bounded intake queue, the only queue in the
server: when the workers fall behind, reader threads block putting
into it, the kernel socket buffers fill, and clients slow down.

Fault tolerance: a worker that dies mid-batch is replaced in its pool
slot and the batch retries on the replacement (up to ``retries`` times
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
from dataclasses import dataclass
from multiprocessing.connection import Listener
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.server.pool import BatchFailed, WorkerCrash, WorkerPool
from repro.server.protocol import ServerError, check_request


@dataclass(slots=True)
class ServerConfig:
    """Tuning knobs of one server instance (defaults serve tests and
    small deployments; the CLI exposes the interesting ones)."""

    workers: int = 2
    backend: str = "sqlite"
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
    accept and driver threads come up. Use as a context manager or call
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
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-serve-accept",
                daemon=True,
            )
            self._driver_threads = [
                threading.Thread(
                    target=self._drive_loop, args=(slot,),
                    name=f"repro-serve-driver-{slot}", daemon=True,
                )
                for slot in range(cfg.workers)
            ]
            for thread in [self._accept_thread, *self._driver_threads]:
                thread.start()
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
        for thread in self._driver_threads:
            thread.join()  # at most one batch, itself bounded by its timeout
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
                request_id, problem = check_request(message)
                if problem is not None:
                    self._reply(conn, request_id, [("error", problem)], 0.0)
                    continue
                kind = message[0]
                if kind == "metrics":
                    self._reply(conn, request_id, self.metrics_dump(), 0.0)
                    continue
                if kind == "info":
                    self._reply(conn, request_id, self._info(), 0.0)
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

    def _drive_loop(self, slot: int) -> None:
        """Feed worker ``slot``: block for one request, take whatever
        queued while the worker was busy, run it all as one batch."""
        limit = self.config.max_batch_requests
        while not self._stopping.is_set():
            try:
                batch = [self._intake.get(timeout=0.05)]
            except queue.Empty:
                continue
            try:
                while len(batch) < limit:
                    batch.append(self._intake.get_nowait())
            except queue.Empty:
                pass
            # A client that hung up (its reader saw the EOF and closed
            # the connection) gets no worker time.
            live = [request for request in batch if not request[0].closed]
            if len(live) < len(batch):
                with self._metrics_lock:
                    self.metrics.inc("server.abandoned", len(batch) - len(live))
            if live:
                self._run_batch(slot, live)

    def _run_batch(self, slot: int, batch: list) -> None:
        """Execute one batch's requests as a single call to the slot's
        worker; a crashed worker is replaced and the batch retried."""
        cfg = self.config
        formed = time.perf_counter()
        texts: list[str] = []
        delay_ms = None
        for _conn, _rid, request_texts, options, _start in batch:
            texts.extend(request_texts)
            if cfg.test_hooks and options.get("delay_ms"):
                delay_ms = max(delay_ms or 0.0, float(options["delay_ms"]))
        worker = self.pool.workers[slot]
        entries = dump = error = None
        exec_ms = 0.0
        for attempts_left in range(cfg.retries, -1, -1):
            try:
                entries, exec_ms, dump = worker.run(
                    texts, delay_ms=delay_ms, timeout=cfg.request_timeout_s
                )
                error = None
                if cfg.test_hooks:
                    self.batch_log.append((slot, tuple(texts)))
                break
            except BatchFailed as exc:
                error = str(exc)
                break
            except WorkerCrash as exc:
                with self._metrics_lock:
                    self.metrics.inc("server.worker_crashes")
                    if attempts_left:
                        self.metrics.inc("server.retries")
                error = f"worker died while serving the request: {exc}"
                try:
                    worker = self.pool.replace(slot)
                except ServerError as spawn_exc:  # pragma: no cover
                    error = f"{error}; respawn failed: {spawn_exc}"
                    break
        if entries is None:
            entries = [("error", error)] * len(texts)
        finished = time.perf_counter()
        with self._metrics_lock:
            if dump is not None:
                self.metrics.merge(dump)
            self.metrics.inc("server.batches")
            self.metrics.inc("server.batch_requests", len(batch))
            self.metrics.inc("server.batch_queries", len(texts))
            self.metrics.inc("server.requests", len(batch))
            self.metrics.inc("server.queries", len(texts))
            if error is not None:
                self.metrics.inc("server.errors", len(batch))
            self.metrics.observe("server.worker_exec_ms", exec_ms)
            for _conn, _rid, _texts, _options, started in batch:
                self.metrics.observe(
                    "server.queue_ms", (formed - started) * 1000.0
                )
                self.metrics.observe(
                    "server.latency_ms", (finished - started) * 1000.0
                )
        offset = 0
        for conn, request_id, request_texts, _options, started in batch:
            payload = entries[offset:offset + len(request_texts)]
            offset += len(request_texts)
            self._reply(
                conn, request_id, payload, (finished - started) * 1000.0
            )
