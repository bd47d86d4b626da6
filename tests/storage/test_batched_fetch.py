"""Contract tests for the storage layer's batched fetch paths.

``match_columns`` must chunk exactly what ``match`` produces, projected
to the requested triple positions in their order, and ``match_many``
must answer a batch of patterns exactly as
per-pattern ``match`` calls would — on every backend, for every pattern
shape (the SQLite backend routes each bound-column mask through a
different index prefix and folds probe batches into single statements
that search that index once per key, including chunking past its
per-statement probe limit). The base-class derivations a third-party
backend inherits are held to the built-in overrides.
"""

import itertools
import json
import random
import re
import sqlite3
from collections import Counter

import pytest

from repro.rdf.store import TripleStore
from repro.rdf.terms import URI
from repro.rdf.triples import Triple
from repro.storage import BACKENDS, StorageBackend
from repro.storage.sqlite import _PROBE_ORDER, _PROBE_PARAM_BUDGET

backends = pytest.mark.parametrize("backend", BACKENDS)


def _populated_store(backend, triples=600, entities=40, properties=5, seed=11):
    rng = random.Random(seed)
    store = TripleStore(backend=backend)
    for _ in range(triples):
        store.add(
            Triple(
                URI(f"http://u/e{rng.randrange(entities)}"),
                URI(f"http://u/p{rng.randrange(properties)}"),
                URI(f"http://u/e{rng.randrange(entities)}"),
            )
        )
    return store


def _all_shapes(store):
    """One encoded pattern per bound-column mask, plus misses."""
    s = store.encode_term(URI("http://u/e1"))
    p = store.encode_term(URI("http://u/p1"))
    o = store.encode_term(URI("http://u/e2"))
    some = next(iter(store.backend))
    return [
        (None, None, None),
        (s, None, None),
        (None, p, None),
        (None, None, o),
        (s, p, None),
        (s, None, o),
        (None, p, o),
        some,
        (s, p, o),
    ]


class _CoreOnlyBackend(StorageBackend):
    """The least a third-party backend must write: the abstract core
    over one plain set, every batched fetch path inherited."""

    name = "core-only"

    def __init__(self, triples=()):
        self._triples = set(triples)

    def add(self, encoded):
        new = encoded not in self._triples
        self._triples.add(encoded)
        return new

    def remove(self, encoded):
        present = encoded in self._triples
        self._triples.discard(encoded)
        return present

    def __len__(self):
        return len(self._triples)

    def __contains__(self, encoded):
        return encoded in self._triples

    def __iter__(self):
        return iter(self._triples)

    def match(self, pattern):
        return (
            triple
            for triple in self._triples
            if all(code is None or code == value for code, value in zip(pattern, triple))
        )

    def count(self, pattern):
        return sum(1 for _ in self.match(pattern))

    def distinct_values(self, column):
        return len(self.column_value_counts(column))

    def column_value_counts(self, column):
        index = self._column_index(column)
        return Counter(triple[index] for triple in self._triples)

    def copy(self):
        return _CoreOnlyBackend(self._triples)


#: Every non-empty positions tuple: each subset of (s, p, o) in each order.
POSITIONS = [
    positions
    for width in (1, 2, 3)
    for positions in itertools.permutations(range(3), width)
]


def _chunks(source, pattern, positions, size):
    """(chunk lengths, projected rows) of one columnar fetch, with each
    chunk's shape checked."""
    lengths, rows = [], []
    for columns in source.match_columns(pattern, positions, size):
        assert len(columns) == len(positions)
        (length,) = {len(column) for column in columns}
        lengths.append(length)
        rows.extend(zip(*columns))
    return lengths, rows


@backends
@pytest.mark.parametrize("derived", [False, True], ids=["native", "base-class"])
@pytest.mark.parametrize("size", [1, 7, 1024])
def test_match_columns_is_the_projection_of_match(backend, derived, size):
    """``match_columns(pattern, positions, size)`` yields the matches of
    ``match_encoded`` projected to ``positions`` (in that order), in
    full chunks of ``size`` but the last — for every pattern shape and
    every positions tuple, on each backend's override and on the
    base-class derivation a third-party backend inherits."""
    store = _populated_store(backend)
    source = _CoreOnlyBackend(store.backend) if derived else store.backend
    for pattern in _all_shapes(store) + [(10**6, None, None)]:
        matches = list(store.match_encoded(pattern))
        full, rest = divmod(len(matches), size)
        for positions in POSITIONS:
            lengths, rows = _chunks(source, pattern, positions, size)
            assert lengths == [size] * full + ([rest] if rest else [])
            assert sorted(rows) == sorted(
                tuple(triple[i] for i in positions) for triple in matches
            ), (pattern, positions)


@backends
@pytest.mark.parametrize("derived", [False, True], ids=["native", "base-class"])
def test_match_columns_fully_bound_and_empty(backend, derived):
    """A fully bound pattern yields its triple once when present and
    nothing when absent; a pattern nothing matches yields no chunk."""
    store = _populated_store(backend)
    source = _CoreOnlyBackend(store.backend) if derived else store.backend
    present = min(store.backend)
    absent = (present[0], present[1], 10**6)
    assert absent not in store.backend
    assert [
        tuple(map(list, columns)) for columns in source.match_columns(present, (2, 0))
    ] == [([present[2]], [present[0]])]
    for pattern in (absent, (10**6, None, None), (None, 10**6, None)):
        for positions in POSITIONS:
            assert list(source.match_columns(pattern, positions, 7)) == []


def test_sqlite_build_provides_json_group_array():
    """The SQLite backend reads ``match_columns`` through the JSON
    aggregate; a build without SQLite's JSON functions cannot serve it."""
    con = sqlite3.connect(":memory:")
    try:
        (text,) = con.execute(
            "SELECT json_group_array(v) FROM (SELECT 1 AS v UNION ALL SELECT 2)"
        ).fetchone()
    except sqlite3.OperationalError as error:
        pytest.fail(
            "the SQLite backend's match_columns needs SQLite's JSON "
            "functions (json_group_array, built in since SQLite 3.38); "
            f"this build is SQLite {sqlite3.sqlite_version}: {error}"
        )
    finally:
        con.close()
    assert json.loads(text) == [1, 2]


@backends
def test_match_many_matches_per_pattern_match(backend):
    store = _populated_store(backend)
    rng = random.Random(3)
    shapes = _all_shapes(store)
    patterns = [shapes[rng.randrange(len(shapes))] for _ in range(200)]
    results = store.match_many_encoded(patterns)
    assert len(results) == len(patterns)
    for pattern, result in zip(patterns, results):
        assert sorted(result) == sorted(store.match_encoded(pattern)), pattern


@backends
def test_match_many_empty_and_missing(backend):
    store = _populated_store(backend, triples=20)
    assert store.match_many_encoded([]) == []
    missing = (10**6, 10**6 + 1, None)
    results = store.match_many_encoded([missing, (None, None, None)])
    assert list(results[0]) == []
    assert sorted(results[1]) == sorted(store.match_encoded((None, None, None)))


def test_sqlite_match_many_chunks_past_probe_limit():
    """More distinct probes than fit one statement still answer exactly."""
    store = _populated_store("sqlite", triples=900, entities=800)
    codes = [
        store.encode_term(URI(f"http://u/e{i}"))
        for i in range(800)
    ]
    p = store.encode_term(URI("http://u/p2"))
    patterns = [(code, p, None) for code in codes if code is not None]
    # Two bound columns per probe: more distinct keys than one
    # statement's parameter budget allows, forcing the chunked path.
    assert len(patterns) > _PROBE_PARAM_BUDGET // 2
    results = store.match_many_encoded(patterns)
    for pattern, result in zip(patterns, results):
        assert sorted(result) == sorted(store.match_encoded(pattern)), pattern


class _RecordingConnection:
    """A SQLite connection stand-in that records every statement."""

    def __init__(self, con):
        self.con = con
        self.sent = []

    def execute(self, sql, params=()):
        self.sent.append((sql, params))
        return self.con.execute(sql, params)


@pytest.mark.parametrize(
    "mask", [mask for mask, probe in _PROBE_ORDER.items() if len(probe) > 1]
)
def test_sqlite_multi_column_probe_batches_search_an_index(monkeypatch, mask):
    """A batch of two or more multi-column keys runs one index SEARCH
    per key: no statement ``match_many`` sends scans the triple table
    (SQLite plans a row-value ``IN (VALUES …)`` of several keys as a
    full covering-index scan)."""
    store = _populated_store("sqlite")
    patterns = list(dict.fromkeys(
        tuple(code if bound else None for code, bound in zip(triple, mask))
        for triple in sorted(store.backend)
    ))[:3]
    assert len(patterns) == 3
    recorder = _RecordingConnection(store.backend._con)
    monkeypatch.setattr(store.backend, "_con", recorder)
    results = store.match_many_encoded(patterns)
    (statement,) = recorder.sent
    monkeypatch.undo()
    for pattern, result in zip(patterns, results):
        assert sorted(result) == sorted(store.match_encoded(pattern)), pattern
    sql, params = statement
    plan = [
        row[-1]
        for row in store.backend._con.execute("EXPLAIN QUERY PLAN " + sql, params)
    ]
    assert any(detail.startswith("SEARCH") for detail in plan), plan
    assert not any(re.match(r"SCAN (triples|t)\b", detail) for detail in plan), plan


def test_sqlite_match_columns_is_one_aggregate_statement(monkeypatch):
    """A columnar read is one statement that aggregates only the
    requested positions into JSON arrays: the sqlite3 module builds no
    row per match."""
    store = _populated_store("sqlite")
    p = store.encode_term(URI("http://u/p1"))
    recorder = _RecordingConnection(store.backend._con)
    monkeypatch.setattr(store.backend, "_con", recorder)
    chunks = list(store.backend.match_columns((None, p, None), (2, 0), 10**9))
    (statement,) = recorder.sent
    monkeypatch.undo()
    sql, params = statement
    assert sql == (
        "SELECT count(*), json_group_array(o), json_group_array(s) "
        "FROM triples WHERE p = ?"
    )
    assert params == (p,)
    (columns,) = chunks
    assert sorted(zip(*columns)) == sorted(
        (o, s) for s, _, o in store.match_encoded((None, p, None))
    )
