"""A disk-backed SQLite storage backend.

The encoded triple table lives in one SQLite table clustered on
``(s, p, o)`` (a WITHOUT ROWID primary key) with two covering B-tree
indexes on ``(p, o, s)`` and ``(o, s, p)``. Together the three
permutations cover every one of the seven constant-pattern shapes as an
index *prefix* — the classic three-permutation trick of RDF column
stores — so pattern matches and counts push down to B-tree range
queries.

Because every operator above the store pulls rows through the
:class:`~repro.storage.base.StorageBackend` contract, a dataset no
longer needs to fit Python object memory: pass a file path and SQLite
pages the table in and out as queries touch it. With no path the
backend uses a SQLite temporary database — cached in RAM up to the
page-cache budget, spilled to a private auto-deleted disk file beyond
it — so even anonymous stores (saturations, copies) stay bounded.

Writes accumulate in one open transaction (the connection's deferred
autocommit mode) and become durable on :meth:`flush`/:meth:`close` —
bulk loads pay one fsync, not one per triple. Reads on the same
connection always see pending writes.
"""

from __future__ import annotations

import os
import sqlite3
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator

from repro.obs import metrics
from repro.storage.base import (
    DEFAULT_BATCH_SIZE,
    EncodedPattern,
    EncodedTriple,
    StorageBackend,
)

#: DDL of the triple table and its two extra permutation indexes.
SCHEMA = """
CREATE TABLE IF NOT EXISTS triples (
    s INTEGER NOT NULL,
    p INTEGER NOT NULL,
    o INTEGER NOT NULL,
    PRIMARY KEY (s, p, o)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_triples_pos ON triples (p, o, s);
CREATE INDEX IF NOT EXISTS idx_triples_osp ON triples (o, s, p);
"""

#: Probe-column order per bound-column mask, chosen so the batched
#: ``match_many`` probe always walks an index prefix: SPO for s / (s,p),
#: POS for p / (p,o), OSP for o / (o,s).
_PROBE_ORDER: dict[tuple[bool, bool, bool], tuple[int, ...]] = {
    (True, False, False): (0,),
    (False, True, False): (1,),
    (False, False, True): (2,),
    (True, True, False): (0, 1),
    (True, False, True): (2, 0),
    (False, True, True): (1, 2),
    (True, True, True): (0, 1, 2),
}

#: Bound-parameter budget per batched-probe statement. Stays below 999,
#: the SQLITE_MAX_VARIABLE_NUMBER default of the oldest SQLite builds
#: still in the wild (< 3.32); the per-statement key count is derived
#: from it as ``budget // bound columns``, so a three-column probe mask
#: still collapses hundreds of per-probe SELECTs into one statement.
_PROBE_PARAM_BUDGET = 900


def _where(pattern: EncodedPattern) -> tuple[str, tuple[int, ...]]:
    """WHERE clause + parameters for an encoded pattern."""
    conditions = [
        f"{column} = ?"
        for column, code in zip("spo", pattern)
        if code is not None
    ]
    params = tuple(code for code in pattern if code is not None)
    if not conditions:
        return "", params
    return " WHERE " + " AND ".join(conditions), params


class ReadOnlyBackendError(RuntimeError):
    """Raised when a mutation reaches a read-only SQLite backend."""


class SqliteBackend(StorageBackend):
    """Encoded triples in a SQLite database (file-backed or in-memory).

    ``read_only`` opens an existing database through SQLite's ``mode=ro``
    URI flag: the connection physically cannot write, so serving a
    snapshot performs **zero writes** — no WAL conversion attempt, no
    schema script — and concurrent reader processes (server mode) share
    the file safely. ``read_only=None`` (the default) auto-detects: an
    existing file the process cannot write (e.g. a chmod-0444 snapshot)
    is served read-only instead of letting doomed write attempts fail
    one by one behind try/except guards.
    """

    name = "sqlite"

    def __init__(self, path=None, read_only: bool | None = None) -> None:
        #: Database file path, or None for an anonymous database.
        self.path = str(path) if path is not None else None
        if read_only is None:
            read_only = (
                self.path is not None
                and os.path.exists(self.path)
                and not os.access(self.path, os.W_OK)
            )
        elif read_only and self.path is None:
            raise ValueError("a read-only backend needs an existing file path")
        #: True when this connection can never write the database.
        self.read_only = bool(read_only)
        # Anonymous backends use a SQLite *temporary* database (""):
        # pages live in the cache and spill to a private auto-deleted
        # disk file as the data outgrows it — unlike ":memory:", big
        # anonymous stores (saturations, copies) stay memory-bounded.
        if self.read_only:
            # as_uri() percent-encodes URI-special path characters.
            self._con = sqlite3.connect(
                Path(self.path).resolve().as_uri() + "?mode=ro", uri=True
            )
        else:
            self._con = sqlite3.connect(
                self.path if self.path is not None else ""
            )
        # Production pragmas (the configuration table every deployed
        # SQLite service converges on): 16 MiB page cache keeps
        # benchmark-scale databases cached while bounding worst-case
        # memory; sorts and transient indexes stay in RAM; NORMAL
        # synchronous pairs one fsync per checkpoint with WAL; the busy
        # timeout makes concurrent readers wait out a writer instead of
        # failing. All are connection-local — safe on read-only files.
        self._con.execute("PRAGMA cache_size = -16384")
        self._con.execute("PRAGMA temp_store = MEMORY")
        self._con.execute("PRAGMA synchronous = NORMAL")
        self._con.execute("PRAGMA busy_timeout = 30000")
        if self.path is not None and not self.read_only:
            # Write-ahead logging for file-backed stores: readers never
            # block the writer and vice versa (the server-mode story).
            # Switching the mode writes the database header, which a
            # read-only snapshot must never even attempt — the
            # read-only branch above skips this entirely.
            try:
                self._con.execute("PRAGMA journal_mode = WAL")
            except sqlite3.OperationalError:
                pass
        if not self.read_only:
            self._con.executescript(SCHEMA)
            self._con.commit()
        # Triple count mirrored Python-side: len() is on the hot path
        # of every cost formula and must not re-run COUNT(*).
        self._count = self._con.execute(
            "SELECT COUNT(*) FROM triples"
        ).fetchone()[0]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def _check_writable(self) -> None:
        if self.read_only:
            raise ReadOnlyBackendError(
                f"backend serves {self.path} read-only; mutations are not "
                "allowed (reopen the snapshot without read_only to edit it)"
            )

    def add(self, encoded: EncodedTriple) -> bool:
        self._check_writable()
        cursor = self._con.execute(
            "INSERT OR IGNORE INTO triples (s, p, o) VALUES (?, ?, ?)", encoded
        )
        inserted = cursor.rowcount == 1
        if inserted:
            self._count += 1
        return inserted

    def remove(self, encoded: EncodedTriple) -> bool:
        self._check_writable()
        cursor = self._con.execute(
            "DELETE FROM triples WHERE s = ? AND p = ? AND o = ?", encoded
        )
        removed = cursor.rowcount == 1
        if removed:
            self._count -= 1
        return removed

    def add_bulk(self, encoded: Iterable[EncodedTriple]) -> int:
        self._check_writable()
        before = self._con.total_changes
        self._con.executemany(
            "INSERT OR IGNORE INTO triples (s, p, o) VALUES (?, ?, ?)", encoded
        )
        inserted = self._con.total_changes - before
        self._count += inserted
        return inserted

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __contains__(self, encoded: EncodedTriple) -> bool:
        row = self._con.execute(
            "SELECT 1 FROM triples WHERE s = ? AND p = ? AND o = ?", encoded
        ).fetchone()
        return row is not None

    def __iter__(self) -> Iterator[EncodedTriple]:
        return iter(self._con.execute("SELECT s, p, o FROM triples"))

    def match(self, pattern: EncodedPattern) -> Iterable[EncodedTriple]:
        s, p, o = pattern
        if s is not None and p is not None and o is not None:
            triple = (s, p, o)
            return (triple,) if triple in self else ()
        where, params = _where(pattern)
        return self._con.execute(f"SELECT s, p, o FROM triples{where}", params)

    def match_columns(
        self, pattern: EncodedPattern, size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[tuple]:
        s, p, o = pattern
        if s is not None and p is not None and o is not None:
            if (s, p, o) in self:
                yield ((s,), (p,), (o,))
            return
        where, params = _where(pattern)
        cursor = self._con.execute(f"SELECT s, p, o FROM triples{where}", params)
        while True:
            batch = cursor.fetchmany(size)
            if not batch:
                return
            yield tuple(zip(*batch))

    def match_many(self, patterns):
        """One SQL statement per probe batch instead of one per probe.

        Patterns are grouped by their bound-column mask; each group's
        distinct key tuples become a single query over the matching
        index prefix — ``IN (...)`` for one column, a ``VALUES`` CTE
        joined to the table for several — and the fetched triples are
        bucketed back per key. The
        common caller — the engine's union probe — sends
        same-mask batches, so the statement text is stable and sqlite3's
        statement cache kicks in.
        """
        if not patterns:
            return []
        execute = self._con.execute
        # key tuple (in probe-column order) -> shared result bucket.
        by_mask: dict[tuple[bool, bool, bool], dict[tuple, list]] = {}
        for pattern in patterns:
            mask = (
                pattern[0] is not None,
                pattern[1] is not None,
                pattern[2] is not None,
            )
            probe = _PROBE_ORDER.get(mask)
            key = () if probe is None else tuple(pattern[i] for i in probe)
            by_mask.setdefault(mask, {}).setdefault(key, [])
        for mask, buckets in by_mask.items():
            probe = _PROBE_ORDER.get(mask)
            if probe is None:  # unconstrained pattern: one full scan
                buckets[()] = list(execute("SELECT s, p, o FROM triples"))
                continue
            columns = [("s", "p", "o")[i] for i in probe]
            keys = list(buckets)
            chunk_size = max(1, _PROBE_PARAM_BUDGET // len(columns))
            for start in range(0, len(keys), chunk_size):
                chunk = keys[start : start + chunk_size]
                if len(columns) == 1:
                    placeholders = ",".join("?" * len(chunk))
                    sql = (
                        f"SELECT s, p, o FROM triples "
                        f"WHERE {columns[0]} IN ({placeholders})"
                    )
                    params = [key[0] for key in chunk]
                else:
                    # Keys as a CTE joined first: one index SEARCH per
                    # key. SQLite plans a row-value ``IN (VALUES …)`` of
                    # two or more keys as a full covering-index scan.
                    names = [f"k{i}" for i in range(len(columns))]
                    row = "(" + ",".join("?" * len(columns)) + ")"
                    on = " AND ".join(
                        f"t.{column} = k.{name}" for column, name in zip(columns, names)
                    )
                    sql = (
                        f"WITH k({', '.join(names)}) AS "
                        f"(VALUES {','.join([row] * len(chunk))}) "
                        f"SELECT t.s, t.p, t.o FROM k CROSS JOIN triples AS t ON {on}"
                    )
                    params = [value for key in chunk for value in key]
                for triple in execute(sql, params):
                    buckets[tuple(triple[i] for i in probe)].append(triple)
        results = []
        for pattern in patterns:
            mask = (
                pattern[0] is not None,
                pattern[1] is not None,
                pattern[2] is not None,
            )
            probe = _PROBE_ORDER.get(mask)
            key = () if probe is None else tuple(pattern[i] for i in probe)
            results.append(by_mask[mask][key])
        return results

    def count(self, pattern: EncodedPattern) -> int:
        if pattern == (None, None, None):
            return self._count
        where, params = _where(pattern)
        return self._con.execute(
            f"SELECT COUNT(*) FROM triples{where}", params
        ).fetchone()[0]

    # ------------------------------------------------------------------
    # Whole-plan SQL pushdown
    # ------------------------------------------------------------------

    supports_sql_plans = True

    def execute_sql_plan(self, sql: str, params=()):
        """Run one compiled query plan as a single statement.

        This is where "move the computation to the data" lands: the
        engine hands over an entire join pipeline (see
        :mod:`repro.engine.sqlcompile`) and SQLite evaluates it in its
        VM against the SPO/POS/OSP covering indexes — no per-probe or
        per-batch driver crossing. The statement arrives with its join
        order fixed (``CROSS JOIN``), so the backend keeps no planner
        statistics: every store — in-memory, writable file, read-only
        snapshot — runs the same text the same way.
        """
        if metrics.enabled:
            metrics.inc("storage.sqlite.pushdown.execute")
        return self._con.execute(sql, params)

    # ------------------------------------------------------------------
    # Column statistics
    # ------------------------------------------------------------------

    def distinct_values(self, column: str) -> int:
        name = "spo"[self._column_index(column)]
        return self._con.execute(
            f"SELECT COUNT(DISTINCT {name}) FROM triples"
        ).fetchone()[0]

    def column_value_counts(self, column: str) -> Counter:
        name = "spo"[self._column_index(column)]
        return Counter(
            dict(
                self._con.execute(
                    f"SELECT {name}, COUNT(*) FROM triples GROUP BY {name}"
                )
            )
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def copy(self) -> "SqliteBackend":
        """An independent in-memory SQLite clone (via the backup API).

        Copies of disk-backed databases are deliberately anonymous: the
        clone must not fight the original over the same file. Persist a
        clone explicitly with :meth:`~repro.rdf.store.TripleStore.save`.
        """
        self._con.commit()
        clone = SqliteBackend()
        self._con.backup(clone._con)
        clone._count = self._count
        return clone

    def flush(self) -> None:
        """Commit the open transaction (make pending writes durable).

        A read-only connection has nothing to commit — and must never
        try, so serving a snapshot stays a zero-write operation.
        """
        if not self.read_only:
            self._con.commit()

    def close(self) -> None:
        """Commit and release the database connection."""
        if not self.read_only:
            self._con.commit()
        self._con.close()

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying connection (used by snapshot persistence)."""
        return self._con
