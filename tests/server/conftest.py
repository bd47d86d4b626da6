"""Shared fixtures of the server-mode suite: one saved snapshot of a
small but join-rich dataset, plus its parsed workload and the serial
reference answers every served answer must match."""

from __future__ import annotations

import pytest

from repro.engine import run_query
from repro.query.parser import parse_query
from repro.rdf.store import TripleStore
from repro.rdf.terms import URI
from repro.rdf.triples import Triple

NS = "http://test/"

#: Query texts mixing selective scans, star joins, and a chain join —
#: enough plan diversity that per-worker plan caches and MQO batches
#: have real work to share.
WORKLOAD = [
    f"q1(X, O) :- t(X, <{NS}p0>, O)",
    f"q2(X) :- t(X, <{NS}p1>, O), t(X, <{NS}p2>, O2)",
    f"q3(X, Z) :- t(X, <{NS}p0>, Y), t(Y, <{NS}p1>, Z)",
    f"q4(O) :- t(<{NS}s1>, <{NS}p3>, O)",
    f"q5(X, O) :- t(X, <{NS}p2>, O)",
]


def build_store() -> TripleStore:
    store = TripleStore()
    for i in range(120):
        store.add(
            Triple(
                URI(f"{NS}s{i % 15}"),
                URI(f"{NS}p{i % 4}"),
                URI(f"{NS}s{(i * 7) % 15}") if i % 3 else URI(f"{NS}o{i}"),
            )
        )
    return store


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    """Path of a saved snapshot of the shared test dataset."""
    path = tmp_path_factory.mktemp("serve") / "kb.snapshot"
    store = build_store()
    store.save(path)
    store.close()
    return path


@pytest.fixture(scope="module")
def reference(snapshot):
    """text -> frozenset of serial single-process answers."""
    store = TripleStore.open(snapshot, backend="sqlite", read_only=True)
    try:
        return {
            text: frozenset(run_query(parse_query(text), store))
            for text in WORKLOAD
        }
    finally:
        store.close()
