"""The persistent worker pool behind server mode.

Workers are long-lived and *stateful*: each holds real per-process
state — its own backend connection to the shared snapshot (opened
read-only, so N processes serve one file with zero writes), its own
prepared-plan cache (per-store, warmed by the traffic it sees), and its
own parse cache — and answers batches of query texts over a
request/response pipe. They are the only processes ``repro`` starts:
the engine and the view-selection search run serially.

Fault tolerance is per worker, not per pool: a worker killed mid-batch
(OOM, operator error) is detected by liveness polling, the caller gets
:class:`WorkerCrash`, has the pool spawn a replacement into the same
slot and retries the batch on it — one dead process never poisons the
pool and never hangs a request. Batches are pure reads on an immutable
snapshot, so retrying is always safe.

Every reply can carry a :mod:`repro.obs.metrics` dump recorded against
a fresh registry for exactly that batch (``metrics.collect``), so the
server's merged totals reconcile with what its workers measured.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Sequence

from repro.obs import metrics
from repro.server.protocol import ServerError

#: Seconds a worker gets to open the snapshot and report ready.
START_TIMEOUT_S = 30.0

#: Poll interval of the reply/liveness loop, seconds.
_POLL_S = 0.05


def fork_context():
    """The ``fork`` multiprocessing context, or the platform default.

    Forked workers inherit the parent's modules and code, so they need
    no re-imports and start in tens of milliseconds.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class WorkerCrash(RuntimeError):
    """The worker process died (or was killed) before replying."""


class BatchFailed(RuntimeError):
    """The worker survived but the whole batch failed (e.g. the
    snapshot file vanished). Deterministic — not worth a retry."""


def _snapshot_identity(path: str) -> tuple[int, int]:
    """(device, inode) of the snapshot file — its on-disk identity.

    SQLite reads through the open file descriptor, so a snapshot
    deleted or replaced underneath a reader would keep silently serving
    the *old* data forever. Workers re-check the identity before every
    batch and fail with a clear error instead.
    """
    stat = os.stat(path)
    return (stat.st_dev, stat.st_ino)


def _answer_batch(texts, store, parse_cache):
    """Answer one batch of query texts on the worker's store.

    Parse failures become per-text error entries; the valid remainder
    runs through :func:`repro.engine.run_query_batch`, so a query that
    several clients queued into the same batch runs once.
    """
    from repro.engine import run_query_batch
    from repro.query.parser import QuerySyntaxError, parse_query

    entries: list = [None] * len(texts)
    queries, positions = [], []
    for index, text in enumerate(texts):
        query = parse_cache.get(text)
        if query is None:
            try:
                query = parse_query(text)
            except (QuerySyntaxError, ValueError) as exc:
                entries[index] = ("error", f"parse error: {exc}")
                continue
            if len(parse_cache) >= 4096:  # bound worker memory
                parse_cache.clear()
            parse_cache[text] = query
        queries.append(query)
        positions.append(index)
    if queries:
        answers = run_query_batch(queries, store)
        if metrics.enabled:
            metrics.inc("serve.worker.queries", len(queries))
            metrics.inc("serve.worker.batches")
        for index, answer in zip(positions, answers):
            entries[index] = ("ok", answer)
    return entries


def worker_main(
    conn,
    path: str,
    backend: str,
    collect: bool,
    test_hooks: bool,
) -> None:
    """Body of one worker process: open the snapshot, serve batches.

    Runs in the child. The snapshot opens read-only on the SQLite
    backend (zero writes; N workers share the file) or is bulk-loaded
    into memory with ``backend="memory"``. Every failure mode reports
    back over the pipe — the parent never has to guess why a worker
    went quiet.
    """
    try:
        from repro.rdf.store import TripleStore

        read_only = True if backend == "sqlite" else None
        store = TripleStore.open(path, backend=backend, read_only=read_only)
        identity = _snapshot_identity(path)
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        try:
            conn.send(("fatal", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    conn.send(("ready", os.getpid()))
    parse_cache: dict = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message[0] == "stop":
            break
        _, sequence, texts, delay_ms = message
        if test_hooks and delay_ms:
            time.sleep(delay_ms / 1000.0)
        try:
            current = _snapshot_identity(path)
            if current != identity:
                raise ServerError(
                    f"snapshot {path} was replaced underneath the server "
                    "(file identity changed); restart the server on the "
                    "new snapshot"
                )
            started = time.perf_counter()
            if collect:
                entries, dump = metrics.collect(
                    _answer_batch, texts, store, parse_cache
                )
            else:
                entries = _answer_batch(texts, store, parse_cache)
                dump = None
            exec_ms = (time.perf_counter() - started) * 1000.0
            reply = ("ok", sequence, entries, exec_ms, dump)
        except FileNotFoundError:
            reply = (
                "error", sequence,
                f"snapshot {path} was deleted underneath the server",
            )
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            reply = ("error", sequence, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class Worker:
    """Parent-side handle of one worker process (pipe + liveness)."""

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self._sequence = 0

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_ready(self, timeout: float = START_TIMEOUT_S) -> None:
        """Block until the worker reports ready; raise on failure."""
        deadline = time.monotonic() + timeout
        while True:
            if self.conn.poll(_POLL_S):
                try:
                    message = self.conn.recv()
                except (EOFError, OSError) as exc:
                    raise ServerError(
                        f"serve worker {self.index} died during start-up"
                    ) from exc
                if message[0] == "ready":
                    return
                self.kill()
                raise ServerError(
                    f"serve worker {self.index} could not open the "
                    f"snapshot: {message[1]}"
                )
            if not self.process.is_alive():
                raise ServerError(
                    f"serve worker {self.index} died during start-up"
                )
            if time.monotonic() > deadline:
                self.kill()
                raise ServerError(
                    f"serve worker {self.index} did not become ready "
                    f"within {timeout:.0f}s"
                )

    def run(
        self,
        texts: Sequence[str],
        delay_ms: float | None = None,
        timeout: float | None = None,
    ):
        """Execute one batch; returns ``(entries, exec_ms, dump)``.

        Raises :class:`WorkerCrash` when the process dies or exceeds
        ``timeout`` (it is then killed — a wedged worker must not hold
        its pool slot forever), :class:`BatchFailed` on a clean
        whole-batch error.
        """
        self._sequence += 1
        sequence = self._sequence
        crashed = (
            f"worker {self.index} (pid {self.pid}) died mid-request"
        )
        try:
            self.conn.send(("exec", sequence, list(texts), delay_ms))
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrash(crashed) from exc
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self.conn.poll(_POLL_S):
                try:
                    reply = self.conn.recv()
                except (EOFError, OSError) as exc:
                    raise WorkerCrash(crashed) from exc
                if reply[1] != sequence:  # pragma: no cover - safety net
                    continue
                if reply[0] == "ok":
                    return reply[2], reply[3], reply[4]
                raise BatchFailed(reply[2])
            if not self.process.is_alive():
                raise WorkerCrash(crashed)
            if deadline is not None and time.monotonic() > deadline:
                self.kill()
                raise WorkerCrash(
                    f"worker {self.index} exceeded the {timeout:.0f}s "
                    "request timeout and was killed"
                )

    def stop(self) -> None:
        """Ask the worker to exit; escalate to kill if it lingers."""
        try:
            self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.kill()
        else:
            self.conn.close()

    def kill(self) -> None:
        try:
            self.process.kill()
            self.process.join(timeout=1.0)
        finally:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover
                pass


class WorkerPool:
    """A fixed-size pool of serve workers with crash replacement.

    ``workers[slot]`` belongs to the server's driver thread of that
    slot, the only thread that runs batches on it; ``replace`` swaps a
    crashed worker for a freshly spawned one in the same slot, so the
    pool's capacity self-heals.
    """

    def __init__(
        self,
        path,
        *,
        workers: int = 2,
        backend: str = "sqlite",
        collect_metrics: bool = True,
        test_hooks: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError("a worker pool needs at least one worker")
        self.path = str(path)
        self.backend = backend
        self.collect_metrics = collect_metrics
        self.test_hooks = test_hooks
        self._context = fork_context()
        self.workers: list[Worker] = []
        try:
            for index in range(workers):
                self.workers.append(self._spawn(index))
        except BaseException:
            self.shutdown()
            raise

    def _spawn(self, index: int) -> Worker:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=worker_main,
            args=(
                child_conn, self.path, self.backend,
                self.collect_metrics, self.test_hooks,
            ),
            name=f"repro-serve-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = Worker(index, process, parent_conn)
        worker.wait_ready()
        return worker

    def replace(self, slot: int) -> Worker:
        """Replace the crashed worker of ``slot`` with a fresh one."""
        self.workers[slot].kill()
        self.workers[slot] = self._spawn(slot)
        return self.workers[slot]

    def pids(self) -> list[int]:
        """Live worker pids (test and observability hook)."""
        return [worker.pid for worker in self.workers]

    def shutdown(self) -> None:
        for worker in self.workers:
            worker.stop()
        self.workers.clear()
