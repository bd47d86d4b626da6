"""Wire protocol and result types of server mode.

Everything crossing a process boundary — client socket or worker pipe —
is a plain picklable tuple whose first element is a string tag, so the
protocol survives pickling across forked *and* unrelated processes
(clients connect over a ``multiprocessing.connection`` socket and need
share no ancestry with the server).

Client → server messages::

    ("query",   request_id, [query_text, ...], options_dict)
    ("metrics", request_id)          # merged registry dump
    ("info",    request_id)          # server configuration + counters

Server → client::

    ("result", request_id, payload, server_ms)

where, for a query request, ``payload`` is one entry per submitted
text, in submission order: ``("ok", answers)`` with the decoded answer
set, or ``("error", message)``. ``server_ms`` is the server-side
latency from intake to reply. A message of any other shape is answered
``("result", request_id or None, [("error", "malformed request: ...")],
0.0)`` and the connection stays usable (:func:`check_request`).

Parent → worker (pipe)::

    ("exec", sequence, [query_text, ...], delay_ms)
    ("stop",)

Worker → parent::

    ("ready", pid) | ("fatal", message)          # start-up handshake
    ("ok", sequence, entries, exec_ms, metrics_dump | None)
    ("error", sequence, message)                 # whole-batch failure
"""

from __future__ import annotations

from dataclasses import dataclass


class ServerError(RuntimeError):
    """A request failed cleanly: the server answered with an error (or
    could not be reached) instead of an answer set."""


def check_request(message) -> tuple[object, str | None]:
    """``(request_id, problem)`` of one client message; ``problem`` is
    ``None`` for a well-formed request, else the error to answer with.

    Everything a client sends is checked here, once, so the server's
    reader and driver threads index requests without guarding.
    """
    if (
        not isinstance(message, tuple) or len(message) < 2
        or not isinstance(message[0], str)
    ):
        return None, (
            "malformed request: expected a (kind, request_id, ...) tuple"
        )
    kind, request_id = message[:2]
    if kind in ("metrics", "info"):
        return request_id, None
    if kind != "query":
        return request_id, f"unknown request kind {kind!r}"
    if len(message) != 4:
        return request_id, (
            "malformed request: a query is "
            '("query", request_id, texts, options)'
        )
    texts, options = message[2:]
    if not isinstance(texts, (list, tuple)) or not all(
        isinstance(text, str) for text in texts
    ):
        return request_id, (
            "malformed request: query texts must be a list of strings"
        )
    if not isinstance(options, dict):
        return request_id, "malformed request: query options must be a dict"
    return request_id, None


@dataclass(frozen=True, slots=True)
class ServeResult:
    """One served query's outcome, as the client API returns it.

    ``answers`` is the decoded answer set (exactly what
    :func:`repro.engine.run_query` returns) when ``ok``; ``error``
    carries the server's message otherwise. ``latency_ms`` is measured
    by the client around the whole round trip; ``server_ms`` is the
    server-side intake-to-reply latency of the carrying request.
    """

    answers: frozenset | set | None
    error: str | None
    latency_ms: float
    server_ms: float

    @property
    def ok(self) -> bool:
        return self.error is None

    def answers_or_raise(self) -> set:
        """The answer set, or a :class:`ServerError` on a failed query."""
        if self.error is not None:
            raise ServerError(self.error)
        return self.answers
