"""Synchronous client for a serve-mode server.

One :class:`ServerClient` wraps one socket connection. The protocol is
strictly request/response per connection, so a client instance is NOT
thread-safe — give each client thread its own instance (that is also
what lets the server batch concurrent load: separate connections
submit genuinely concurrent requests, which queue into one batch).

>>> client = ServerClient(server.address, server.authkey)
>>> result = client.query("SELECT ?s WHERE { ?s <p> <o> }")
>>> result.answers_or_raise()
"""

from __future__ import annotations

import time
from multiprocessing.connection import Client as _connect
from typing import Sequence

from repro.server.protocol import ServeResult, ServerError


class ServerClient:
    """Blocking client over one ``multiprocessing.connection`` socket."""

    def __init__(self, address, authkey: bytes) -> None:
        try:
            self._conn = _connect(address, authkey=authkey)
        except (OSError, EOFError) as exc:
            raise ServerError(
                f"could not connect to server at {address!r}: {exc}"
            ) from exc
        self._request_id = 0
        self._closed = False

    def _roundtrip(self, message, timeout: float | None):
        try:
            self._conn.send(message)
            if timeout is not None and not self._conn.poll(timeout):
                raise ServerError(
                    f"no reply from server within {timeout:.0f}s"
                )
            reply = self._conn.recv()
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise ServerError(f"server connection lost: {exc}") from exc
        if reply[0] != "result" or reply[1] != message[1]:
            raise ServerError(f"protocol violation: unexpected {reply[0]!r}")
        return reply[2], reply[3]

    def query_batch(
        self,
        texts: Sequence[str],
        *,
        timeout: float | None = 60.0,
        delay_ms: float | None = None,
    ) -> list[ServeResult]:
        """Submit query texts as one request; results in input order.

        ``delay_ms`` is a test hook (honored only by servers configured
        with ``test_hooks=True``): the worker sleeps before executing,
        holding the request in flight so fault tests can kill it
        mid-request deterministically.
        """
        if self._closed:
            raise ServerError("client is closed")
        self._request_id += 1
        options = {}
        if delay_ms is not None:
            options["delay_ms"] = delay_ms
        started = time.perf_counter()
        payload, server_ms = self._roundtrip(
            ("query", self._request_id, list(texts), options), timeout
        )
        latency_ms = (time.perf_counter() - started) * 1000.0
        results = []
        for entry in payload:
            if entry[0] == "ok":
                results.append(
                    ServeResult(entry[1], None, latency_ms, server_ms)
                )
            else:
                results.append(
                    ServeResult(None, entry[1], latency_ms, server_ms)
                )
        return results

    def query(self, text: str, **kwargs) -> ServeResult:
        """Submit one query text; see :meth:`query_batch`."""
        return self.query_batch([text], **kwargs)[0]

    def metrics(self, *, timeout: float | None = 60.0) -> dict:
        """The server's merged metrics registry, in mergeable dump form."""
        self._request_id += 1
        payload, _ = self._roundtrip(
            ("metrics", self._request_id), timeout
        )
        return payload

    def info(self, *, timeout: float | None = 60.0) -> dict:
        """Server configuration and live worker pids."""
        self._request_id += 1
        payload, _ = self._roundtrip(("info", self._request_id), timeout)
        return payload

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._conn.close()
            except OSError:  # pragma: no cover
                pass

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
