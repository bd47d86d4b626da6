"""Snapshot persistence: ``TripleStore.save`` / ``TripleStore.open``."""

import sqlite3

import pytest

from repro.query.evaluation import evaluate
from repro.query.parser import parse_query
from repro.rdf.store import TripleStore
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.storage import BACKENDS, is_snapshot
from repro.storage.snapshot import FORMAT_KEY, SnapshotError

NS = "http://t/"


def u(x: str) -> URI:
    return URI(NS + x)


@pytest.fixture()
def populated():
    store = TripleStore()
    store.add(Triple(u("a"), u("p"), u("b")))
    store.add(Triple(u("b"), u("p"), u("c")))
    store.add(Triple(u("a"), u("q"), Literal('tricky "v"\nline', language="en")))
    store.add(Triple(u("c"), u("q"), Literal("42", datatype=u("int"))))
    return store


QUERY = parse_query(f"q(X, Z) :- t(X, <{NS}p>, Y), t(Y, <{NS}p>, Z)")


@pytest.mark.parametrize("source", BACKENDS)
@pytest.mark.parametrize("target", BACKENDS)
def test_round_trip_across_backends(tmp_path, populated, source, target):
    """Any backend saves; any backend reopens; answers are identical."""
    store = populated.copy(backend=source)
    path = tmp_path / "store.db"
    store.save(path)
    assert is_snapshot(path)
    reopened = TripleStore.open(path, backend=target)
    assert reopened.backend_name == target
    assert set(reopened) == set(store)
    assert len(reopened) == len(store)
    # Dictionary codes survive byte-identically.
    for term in (u("a"), u("p"), Literal('tricky "v"\nline', language="en")):
        assert reopened.dictionary.lookup(term) == store.dictionary.lookup(term)
    # Statistics come back without recounting.
    for column in ("s", "p", "o"):
        assert reopened.distinct_values(column) == store.distinct_values(column)
        assert reopened.column_value_counts(column) == store.column_value_counts(
            column
        )
    assert reopened.average_term_size() == store.average_term_size()
    # Query results are identical.
    assert evaluate(QUERY, reopened) == evaluate(
        QUERY, populated
    )
    reopened.close()


def test_round_trip_of_terms_no_parser_can_reread(tmp_path):
    """Structured term rows round-trip terms whose n3() rendering the
    N-Triples grammar cannot re-parse (dashed bnode labels, URIs with
    angle brackets) and URI-hostile snapshot paths ('#', '%')."""
    from repro.rdf.terms import BlankNode

    store = TripleStore()
    exotic = [
        Triple(BlankNode("a-b.c"), u("p"), u("o")),
        Triple(u("s"), u("p"), URI("http://t/weird>uri")),
        Triple(u("s"), u("p"), Literal("", language="en")),
    ]
    for triple in exotic:
        store.add(triple)
    path = tmp_path / "odd#name%20.db"
    store.save(path)
    for backend in BACKENDS:
        reopened = TripleStore.open(path, backend=backend)
        assert set(reopened) == set(store), backend
        reopened.close()


def test_save_overwrites_previous_snapshot(tmp_path, populated):
    path = tmp_path / "store.db"
    populated.save(path)
    smaller = TripleStore()
    smaller.add(Triple(u("only"), u("p"), u("one")))
    smaller.save(path)
    reopened = TripleStore.open(path, backend="memory")
    assert set(reopened) == set(smaller)


def test_sqlite_store_is_its_own_snapshot(tmp_path, populated):
    """A file-backed SQLite store saves in place: same file, no copies."""
    path = tmp_path / "live.db"
    populated.save(path)
    live = TripleStore.open(path, backend="sqlite")
    assert live.backend.path == str(path)
    live.add(Triple(u("new"), u("p"), u("a")))
    live.save(path)
    second = TripleStore.open(path, backend="memory")
    assert Triple(u("new"), u("p"), u("a")) in second
    assert len(second) == len(populated) + 1
    live.close()


def test_close_syncs_file_backed_sidecar(tmp_path, populated):
    """close() on a file-backed store leaves a reopenable snapshot."""
    path = tmp_path / "live.db"
    populated.save(path)
    live = TripleStore.open(path, backend="sqlite")
    live.add(Triple(u("fresh"), u("q"), Literal("x")))
    live.close()  # no explicit save
    reopened = TripleStore.open(path, backend="sqlite")
    assert Triple(u("fresh"), u("q"), Literal("x")) in reopened
    assert reopened.stats.predicate_count(u("q")) == 3
    reopened.close()


def test_mutations_after_open_keep_statistics_in_sync(tmp_path, populated):
    path = tmp_path / "store.db"
    populated.save(path)
    for backend in BACKENDS:
        reopened = TripleStore.open(path, backend=backend)
        reopened.add(Triple(u("z1"), u("p"), u("z2")))
        reopened.remove(Triple(u("a"), u("p"), u("b")))
        assert reopened.stats.predicate_count(u("p")) == 2
        assert reopened.count(p=u("p")) == 2
        for column in ("s", "p", "o"):
            assert reopened.backend.column_value_counts(
                column
            ) == reopened.column_value_counts(column), (backend, column)
        reopened.close()


def test_close_without_mutation_leaves_file_untouched(tmp_path, populated):
    """A pure-read session must not rewrite the sidecar on close —
    verified the hard way, against a read-only snapshot file."""
    path = tmp_path / "frozen.db"
    populated.save(path)
    path.chmod(0o444)
    try:
        reader = TripleStore.open(path, backend="sqlite")
        assert evaluate(QUERY, reader) == evaluate(
            QUERY, populated
        )
        reader.close()  # must not attempt any write
    finally:
        path.chmod(0o644)
    assert is_snapshot(path)


def test_saturate_preserves_backend_kind(populated):
    from repro.rdf.entailment import saturate
    from repro.rdf.schema import RDFSchema

    sqlite_store = populated.copy(backend="sqlite")
    saturated = saturate(sqlite_store, RDFSchema())
    assert saturated.backend_name == "sqlite"
    assert set(saturated) == set(populated)
    assert saturate(populated, RDFSchema(), backend="memory").backend_name == "memory"


def test_subclass_override_of_read_methods_is_honored(populated):
    class CountingStore(TripleStore):
        calls = 0

        def match_encoded(self, pattern):
            CountingStore.calls += 1
            return super().match_encoded(pattern)

    store = CountingStore()
    store.add(Triple(u("a"), u("p"), u("b")))
    list(store.match(s=u("a")))
    assert CountingStore.calls == 1
    # Non-overridden methods still take the bound fast path.
    assert store.count_encoded.__self__ is store.backend


def test_flush_leaves_reopenable_snapshot(tmp_path, populated):
    """flush() must sync the sidecar too: a crash after flush (no
    close) may not leave committed triples next to a stale dictionary."""
    path = tmp_path / "live.db"
    populated.save(path)
    live = TripleStore.open(path, backend="sqlite")
    # Net-zero count churn introducing a brand-new term: the triple
    # count alone cannot reveal a stale sidecar afterwards.
    live.remove(Triple(u("a"), u("p"), u("b")))
    live.add(Triple(u("brandNew"), u("p"), u("b")))
    live.flush()
    # Simulated crash: live is never closed. The file must still open.
    recovered = TripleStore.open(path, backend="memory")
    assert Triple(u("brandNew"), u("p"), u("b")) in recovered
    assert Triple(u("a"), u("p"), u("b")) not in recovered
    live.close()


def test_open_detects_codes_beyond_dictionary(tmp_path, populated):
    # A triple whose codes the sidecar dictionary cannot decode (stale
    # sidecar with an unchanged triple count) must be rejected, not
    # crash later with KeyError mid-query.
    path = tmp_path / "store.db"
    populated.save(path)
    con = sqlite3.connect(path)
    con.execute("INSERT INTO triples (s, p, o) VALUES (9999, 9999, 9999)")
    (count,) = con.execute("SELECT COUNT(*) FROM triples").fetchone()
    con.execute("UPDATE meta SET value = ? WHERE key = 'triples'", (str(count),))
    con.commit()
    con.close()
    for backend in BACKENDS:
        with pytest.raises(SnapshotError, match="dictionary only holds"):
            TripleStore.open(path, backend=backend)


def test_save_is_atomic_no_staging_residue(tmp_path, populated):
    path = tmp_path / "store.db"
    populated.save(path)
    populated.save(path)  # overwrite goes through the staging file
    assert not (tmp_path / "store.db.tmp").exists()
    assert is_snapshot(path)


def test_fresh_file_backed_store_closed_unmutated_reopens(tmp_path):
    """Creating a persistent store and closing it untouched must still
    leave a valid (empty) snapshot, not a schema-only stub."""
    from repro.storage import SqliteBackend

    path = tmp_path / "fresh.db"
    store = TripleStore(backend=SqliteBackend(path))
    store.close()
    reopened = TripleStore.open(path, backend="sqlite")
    assert len(reopened) == 0
    reopened.add(Triple(u("a"), u("p"), u("b")))
    reopened.close()
    assert len(TripleStore.open(path, backend="memory")) == 1


def test_flush_skips_sidecar_when_unchanged(tmp_path, populated):
    path = tmp_path / "live.db"
    populated.save(path)
    live = TripleStore.open(path, backend="sqlite")
    live.add(Triple(u("x"), u("p"), u("y")))
    live.flush()
    first_sync = live._saved_version
    live.flush()  # no mutation in between: must not rewrite the sidecar
    assert live._saved_version == first_sync == live.version
    live.close()


def test_failed_open_releases_the_file(tmp_path, populated):
    # After an integrity-check rejection the connection must be closed:
    # the file stays deletable/replaceable (the fix the error suggests).
    path = tmp_path / "store.db"
    populated.save(path)
    con = sqlite3.connect(path)
    con.execute("INSERT INTO triples (s, p, o) VALUES (9999, 9999, 9999)")
    con.commit()
    con.close()
    with pytest.raises(SnapshotError, match="out of sync"):
        TripleStore.open(path, backend="sqlite")
    populated.save(path)  # would fail if a stale handle held a write lock
    assert len(TripleStore.open(path, backend="memory")) == len(populated)


def test_open_missing_file(tmp_path):
    with pytest.raises(SnapshotError, match="does not exist"):
        TripleStore.open(tmp_path / "nope.db")


def test_open_non_snapshot_sqlite_file(tmp_path):
    path = tmp_path / "other.db"
    con = sqlite3.connect(path)
    con.execute("CREATE TABLE unrelated (x)")
    con.commit()
    con.close()
    with pytest.raises(SnapshotError, match="not a repro store snapshot"):
        TripleStore.open(path)
    assert not is_snapshot(path)


def test_open_non_sqlite_file(tmp_path):
    path = tmp_path / "garbage.db"
    path.write_bytes(b"this is not a database, not even close padding padding")
    with pytest.raises(SnapshotError):
        TripleStore.open(path)


def test_open_unsupported_format_version(tmp_path, populated):
    path = tmp_path / "store.db"
    populated.save(path)
    con = sqlite3.connect(path)
    con.execute("UPDATE meta SET value = '999' WHERE key = ?", (FORMAT_KEY,))
    con.commit()
    con.close()
    with pytest.raises(SnapshotError, match="unsupported snapshot format"):
        TripleStore.open(path)


def test_open_detects_out_of_sync_sidecar(tmp_path, populated):
    # Simulate a crashed writer: triples changed underneath the sidecar.
    path = tmp_path / "store.db"
    populated.save(path)
    con = sqlite3.connect(path)
    con.execute(
        "DELETE FROM triples WHERE (s, p, o) IN (SELECT s, p, o FROM triples LIMIT 1)"
    )
    con.commit()
    con.close()
    with pytest.raises(SnapshotError, match="out of sync"):
        TripleStore.open(path)


def test_open_rejects_unknown_backend(tmp_path, populated):
    path = tmp_path / "store.db"
    populated.save(path)
    with pytest.raises(ValueError, match="unknown backend"):
        TripleStore.open(path, backend="postgres")


def test_empty_store_round_trip(tmp_path):
    path = tmp_path / "empty.db"
    TripleStore().save(path)
    for backend in BACKENDS:
        reopened = TripleStore.open(path, backend=backend)
        assert len(reopened) == 0
        assert reopened.distinct_values("p") == 0
        reopened.add(Triple(u("a"), u("p"), u("b")))
        assert len(reopened) == 1
        reopened.close()
