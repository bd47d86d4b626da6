"""One pushdown behaviour on every kind of SQLite store.

The pushed-down statement carries its own join order (``CROSS JOIN`` in
the estimator's order), so nothing about *how the store was opened* may
change what runs: the same triples as an anonymous in-memory database,
a writable file and a read-only snapshot compile byte-identical SQL and
SQLite walks the tables in the same order on each. No store this code
writes carries ``sqlite_stat1`` (the backend keeps no planner
statistics), and a snapshot that already has one — analyzed by some
other tool — is still answered correctly, in the emitted order.
"""

import sqlite3

import pytest

from repro.engine import plan_pushdown
from repro.engine.planner import _estimator
from repro.obs.analyze import _query_plan_rows, visited_aliases
from repro.query.evaluation import evaluate, evaluate_nested_loop
from repro.query.parser import parse_queries
from repro.rdf.store import TripleStore
from repro.rdf.terms import URI
from repro.rdf.triples import Triple
from repro.rdf.vocabulary import RDF_TYPE

NS = "http://t/"

QUERIES = parse_queries(
    """
    chain(X, Z) :- t(Y, rdf:type, Z), t(X, linksTo, Y), t(W, rare, X)
    star(X, C) :- t(X, rdf:type, C), t(X, linksTo, Y), t(X, rare, Z)
    hop(X, Z) :- t(X, linksTo, Y), t(Y, linksTo, Z)
    typed(X) :- t(X, rdf:type, c1), t(X, rare, Y)
    cartesian(X, A) :- t(X, rare, Y), t(A, rdf:type, c2)
    """,
    namespace=NS,
)


def _uri(name: str) -> URI:
    return URI(NS + name)


def _triples():
    for i in range(150):
        yield Triple(_uri(f"e{i}"), RDF_TYPE, _uri(f"c{i % 5}"))
        yield Triple(_uri(f"e{i}"), _uri("linksTo"), _uri(f"e{(i * 7) % 150}"))
    for i in range(4):
        yield Triple(_uri(f"e{i}"), _uri("rare"), _uri(f"e{i + 20}"))


@pytest.fixture()
def stores(tmp_path):
    """The same triples behind the three kinds of SQLite store."""
    memory = TripleStore(backend="sqlite")
    memory.add_all(_triples())
    path = tmp_path / "kb.snapshot"
    memory.save(path)
    opened = {
        "memory": memory,
        "writable": TripleStore.open(path, backend="sqlite"),
        "read_only": TripleStore.open(path, backend="sqlite", read_only=True),
    }
    assert opened["read_only"].backend.read_only
    assert not opened["writable"].backend.read_only
    yield opened
    for store in opened.values():
        store.close()


def _table_order(compiled, store) -> list[int]:
    return visited_aliases(_query_plan_rows(compiled, store))


def _has_stat1(connection) -> bool:
    return connection.execute(
        "SELECT 1 FROM sqlite_master WHERE name = 'sqlite_stat1'"
    ).fetchone() is not None


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
def test_same_statement_and_table_order_on_every_store(stores, query):
    expected = evaluate_nested_loop(query, stores["memory"])
    order = _estimator(stores["memory"], None).join_order(query.atoms)
    compiled = {kind: plan_pushdown(query, store) for kind, store in stores.items()}
    for kind, store in stores.items():
        assert compiled[kind].sql == compiled["memory"].sql, kind
        assert compiled[kind].params == compiled["memory"].params, kind
        assert _table_order(compiled[kind], store) == order, kind
        assert evaluate(query, store) == expected, kind


def test_no_written_store_contains_sqlite_stat1(stores, tmp_path):
    """Bulk load, single writes, pushed-down queries, ``save`` and
    ``copy``: none of them leaves planner statistics behind."""
    writable = stores["writable"]
    writable.add(Triple(_uri("e0"), _uri("rare"), _uri("e99")))
    writable.remove(Triple(_uri("e0"), _uri("rare"), _uri("e99")))
    for store in stores.values():
        for query in QUERIES:
            evaluate(query, store)
    clone = stores["memory"].copy(backend="sqlite")
    resaved = tmp_path / "resaved.snapshot"
    writable.save(resaved)
    try:
        for store in (*stores.values(), clone):
            assert not _has_stat1(store.backend.connection)
        raw = sqlite3.connect(resaved)
        assert not _has_stat1(raw)
        raw.close()
    finally:
        clone.close()


def test_analyzed_snapshot_keeps_the_emitted_order(tmp_path):
    """A snapshot someone ran ``ANALYZE`` on (raw ``sqlite3``, not this
    code): the statistics are there, the order is still ours, and the
    read-only handle never tries to refresh them."""
    plain = TripleStore(backend="sqlite")
    plain.add_all(_triples())
    path = tmp_path / "analyzed.snapshot"
    plain.save(path)
    raw = sqlite3.connect(path)
    raw.execute("ANALYZE")
    raw.commit()
    assert _has_stat1(raw)
    raw.close()
    before = path.read_bytes()
    reader = TripleStore.open(path, backend="sqlite", read_only=True)
    try:
        assert _has_stat1(reader.backend.connection)
        estimator = _estimator(plain, None)
        for query in QUERIES:
            compiled = plan_pushdown(query, reader)
            assert compiled.sql == plan_pushdown(query, plain).sql
            assert _table_order(compiled, reader) == estimator.join_order(
                query.atoms
            )
            assert evaluate(query, reader) == evaluate_nested_loop(query, plain)
    finally:
        reader.close()
        plain.close()
    assert path.read_bytes() == before
