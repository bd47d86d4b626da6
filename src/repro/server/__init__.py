"""Server mode: multi-process concurrent query serving over snapshots.

One :class:`Server` opens a single-file snapshot read-only, forks N
worker processes (each with its own backend connection and per-worker
prepared-plan cache), and serves concurrent clients over a local
socket, running the queries that queue while a worker is busy as one
``run_query_batch`` call, so a query several clients sent together
runs once. See ``docs/server.md`` for the architecture.

>>> from repro.server import Server, ServerConfig
>>> with Server("kb.snapshot", ServerConfig(workers=2)) as server:
...     with server.connect() as client:
...         answers = client.query(text).answers_or_raise()
"""

from repro.server.client import ServerClient
from repro.server.pool import BatchFailed, WorkerCrash, WorkerPool
from repro.server.protocol import ServeResult, ServerError
from repro.server.replay import ReplayReport, replay
from repro.server.server import Server, ServerConfig

__all__ = [
    "BatchFailed",
    "ReplayReport",
    "replay",
    "ServeResult",
    "Server",
    "ServerClient",
    "ServerConfig",
    "ServerError",
    "WorkerCrash",
    "WorkerPool",
]
