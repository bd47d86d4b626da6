"""Workload replay against a serve-mode server.

Drives N client threads — each with its own connection, so requests
really are concurrent on the server side — through a shared schedule
of query texts, measuring sustained QPS and client-observed latency
percentiles. When a ``reference`` mapping (query text → expected
answer set from single-process evaluation) is supplied, every served
answer is verified against it **during** the measurement, so a QPS
figure is only ever reported for correct answers.

Used by ``repro serve --replay``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.server.client import ServerClient
from repro.server.protocol import ServerError


@dataclass(slots=True)
class ReplayReport:
    """Outcome of one replay run (all latencies in milliseconds)."""

    queries: int
    clients: int
    elapsed_s: float
    errors: int
    mismatches: int
    latencies_ms: list[float] = field(repr=False)
    error_messages: list[str] = field(repr=False)

    @property
    def qps(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.queries / self.elapsed_s

    def percentile(self, fraction: float) -> float | None:
        if not self.latencies_ms:
            return None
        ordered = sorted(self.latencies_ms)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]

    def summary(self) -> dict:
        """JSON-ready digest (what ``repro serve --replay --json`` writes)."""
        return {
            "queries": self.queries,
            "clients": self.clients,
            "elapsed_s": round(self.elapsed_s, 6),
            "qps": round(self.qps, 3),
            "errors": self.errors,
            "mismatches": self.mismatches,
            "latency_ms": {
                "p50": self.percentile(0.50),
                "p95": self.percentile(0.95),
                "p99": self.percentile(0.99),
            },
        }


def replay(
    address,
    authkey: bytes,
    schedule: Sequence[str],
    *,
    clients: int = 4,
    timeout: float = 60.0,
    reference: Mapping[str, frozenset] | None = None,
) -> ReplayReport:
    """Replay ``schedule`` through ``clients`` concurrent connections.

    The schedule is dealt round-robin across clients; each client
    submits its queries one request at a time (cross-request batching
    is the *server's* job — a batch forms from the requests that queue
    while a worker is busy, exactly as it would in production). Answers
    are checked against ``reference`` as they return.
    """
    if clients < 1:
        raise ValueError("replay needs at least one client")
    slices = [list(schedule[index::clients]) for index in range(clients)]
    latencies: list[list[float]] = [[] for _ in range(clients)]
    errors: list[list[str]] = [[] for _ in range(clients)]
    mismatches = [0] * clients
    barrier = threading.Barrier(clients + 1)

    def drive(slot: int) -> None:
        texts = slices[slot]
        client = ServerClient(address, authkey)
        try:
            barrier.wait()
            for text in texts:
                try:
                    result = client.query(text, timeout=timeout)
                except ServerError as exc:
                    errors[slot].append(str(exc))
                    continue
                latencies[slot].append(result.latency_ms)
                if not result.ok:
                    errors[slot].append(result.error)
                    continue
                if reference is not None:
                    expected = reference[text]
                    if frozenset(result.answers) != frozenset(expected):
                        mismatches[slot] += 1
        finally:
            client.close()

    threads = [
        threading.Thread(target=drive, args=(slot,), daemon=True)
        for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    flat_errors = [message for chunk in errors for message in chunk]
    return ReplayReport(
        queries=len(schedule),
        clients=clients,
        elapsed_s=elapsed,
        errors=len(flat_errors),
        mismatches=sum(mismatches),
        latencies_ms=[value for chunk in latencies for value in chunk],
        error_messages=flat_errors,
    )
