"""Read-only snapshot serving: zero writes, enforced and verified.

The server-mode workers open one shared snapshot from N processes; a
single stray write (WAL conversion, schema script, dictionary sync on
close) would corrupt concurrent readers or fail outright on a
read-only filesystem. These tests pin the contract at every layer:
the connection is ``mode=ro``, mutations raise, and a full
open-query-close cycle leaves the file byte-identical."""

import hashlib
import os

import pytest

from repro.query.evaluation import evaluate
from repro.query.parser import parse_query
from repro.rdf.store import TripleStore
from repro.rdf.terms import URI
from repro.rdf.triples import Triple
from repro.storage import ReadOnlyBackendError, SqliteBackend

NS = "http://t/"
QUERY = parse_query(f"q(X, Y) :- t(X, <{NS}p>, Y)")


def _triple(a: str, p: str, b: str) -> Triple:
    return Triple(URI(NS + a), URI(NS + p), URI(NS + b))


@pytest.fixture()
def saved(tmp_path):
    store = TripleStore()
    store.add(_triple("a", "p", "b"))
    store.add(_triple("b", "p", "c"))
    store.add(_triple("a", "q", "c"))
    path = tmp_path / "kb.snapshot"
    store.save(path)
    store.close()
    return path, evaluate(QUERY, TripleStore.open(path, backend="memory"))


def _fingerprint(path):
    stat = os.stat(path)
    return (
        hashlib.sha256(path.read_bytes()).hexdigest(),
        stat.st_mtime_ns,
        stat.st_size,
    )


def test_read_only_open_query_close_writes_nothing(saved):
    """The headline regression: a chmod-0444 snapshot goes through a
    full open / query / close cycle byte-identical — no WAL conversion,
    no schema script, no dictionary sync, no commit."""
    path, expected = saved
    path.chmod(0o444)
    try:
        before = _fingerprint(path)
        reader = TripleStore.open(path, backend="sqlite", read_only=True)
        assert reader.backend.read_only is True
        assert evaluate(QUERY, reader) == expected
        reader.close()
        assert _fingerprint(path) == before
        # Zero sidecar files either: WAL mode would have created them.
        parent = path.parent
        assert not (parent / (path.name + "-wal")).exists()
        assert not (parent / (path.name + "-journal")).exists()
        assert not (parent / (path.name + "-shm")).exists()
    finally:
        path.chmod(0o644)


def test_read_only_backend_rejects_mutations(saved):
    path, _ = saved
    reader = TripleStore.open(path, backend="sqlite", read_only=True)
    try:
        with pytest.raises(ReadOnlyBackendError):
            reader.add(_triple("x", "p", "y"))
        with pytest.raises(ReadOnlyBackendError):
            reader.remove(_triple("a", "p", "b"))
        with pytest.raises(ReadOnlyBackendError):
            reader.backend.add_bulk([(1, 2, 3)])
    finally:
        reader.close()


def test_auto_detect_unwritable_snapshot(saved):
    """``read_only=None`` detects files the process cannot write.

    ``os.access`` reports writability for the *real* uid — as root
    every file is writable, so the auto-detect branch only engages for
    unprivileged users (the CI case); assert accordingly.
    """
    path, expected = saved
    path.chmod(0o444)
    try:
        expect_detected = not os.access(path, os.W_OK)
        reader = TripleStore.open(path, backend="sqlite")
        assert reader.backend.read_only is expect_detected
        assert evaluate(QUERY, reader) == expected
        reader.close()
    finally:
        path.chmod(0o644)


def test_read_only_requires_a_path():
    with pytest.raises(ValueError):
        SqliteBackend(None, read_only=True)


def test_many_read_only_readers_share_one_snapshot(saved):
    """The server-mode shape: several read-only connections answer the
    same query on one file, concurrently open."""
    path, expected = saved
    readers = [
        TripleStore.open(path, backend="sqlite", read_only=True)
        for _ in range(4)
    ]
    try:
        for reader in readers:
            assert evaluate(QUERY, reader) == expected
    finally:
        for reader in readers:
            reader.close()


def test_writable_open_still_works(saved):
    """``read_only=False`` (and the default on writable files as root)
    keeps the read-write path intact: mutations persist."""
    path, expected = saved
    writer = TripleStore.open(path, backend="sqlite", read_only=False)
    assert writer.backend.read_only is False
    writer.add(_triple("c", "p", "d"))
    writer.save(path)
    writer.close()
    reader = TripleStore.open(path, backend="sqlite", read_only=True)
    try:
        assert len(evaluate(QUERY, reader)) == len(expected) + 1
    finally:
        reader.close()
