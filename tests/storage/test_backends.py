"""Contract tests for the storage backends (protocol level, codes only)."""

import pytest

from repro.storage import BACKENDS, MemoryBackend, SqliteBackend, create_backend

TRIPLES = [
    (0, 1, 2),
    (0, 1, 3),
    (0, 4, 2),
    (5, 1, 2),
    (5, 4, 6),
    (2, 1, 0),
]

PATTERNS = [
    (None, None, None),
    (0, None, None),
    (None, 1, None),
    (None, None, 2),
    (0, 1, None),
    (0, None, 2),
    (None, 1, 2),
    (0, 1, 2),
    (9, None, None),  # unknown code
]


@pytest.fixture(params=BACKENDS)
def backend(request):
    b = create_backend(request.param)
    for triple in TRIPLES:
        assert b.add(triple) is True
    return b


def reference_match(pattern):
    return {
        t
        for t in TRIPLES
        if all(code is None or t[i] == code for i, code in enumerate(pattern))
    }


class TestContract:
    def test_add_is_idempotent(self, backend):
        assert backend.add(TRIPLES[0]) is False
        assert len(backend) == len(TRIPLES)

    def test_iter_and_contains(self, backend):
        assert set(backend) == set(TRIPLES)
        assert TRIPLES[0] in backend
        assert (7, 7, 7) not in backend

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_match_against_reference(self, backend, pattern):
        assert set(backend.match(pattern)) == reference_match(pattern)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_count_agrees_with_match(self, backend, pattern):
        assert backend.count(pattern) == len(reference_match(pattern))

    def test_remove(self, backend):
        assert backend.remove(TRIPLES[0]) is True
        assert backend.remove(TRIPLES[0]) is False
        assert len(backend) == len(TRIPLES) - 1
        assert TRIPLES[0] not in backend
        assert backend.count((0, 1, None)) == 1

    def test_remove_unknown_is_false(self, backend):
        assert backend.remove((9, 9, 9)) is False

    def test_add_bulk_counts_new_only(self, backend):
        inserted = backend.add_bulk([(8, 8, 8), (8, 8, 8), TRIPLES[0]])
        assert inserted == 1
        assert len(backend) == len(TRIPLES) + 1

    def test_distinct_values(self, backend):
        assert backend.distinct_values("s") == len({t[0] for t in TRIPLES})
        assert backend.distinct_values("p") == len({t[1] for t in TRIPLES})
        assert backend.distinct_values("o") == len({t[2] for t in TRIPLES})
        with pytest.raises(ValueError):
            backend.distinct_values("x")

    def test_column_value_counts(self, backend):
        counts = backend.column_value_counts("p")
        assert counts[1] == 4
        assert counts[4] == 2
        assert sum(counts.values()) == len(TRIPLES)

    def test_copy_is_deep(self, backend):
        clone = backend.copy()
        assert set(clone) == set(backend)
        clone.add((7, 7, 7))
        backend.remove(TRIPLES[0])
        assert (7, 7, 7) not in backend
        assert TRIPLES[0] in clone

    def test_empty_column_counts_after_full_removal(self, backend):
        # No stale zero-count entries may linger once all triples of a
        # value are gone (the stats catalog verifies against these).
        for triple in TRIPLES:
            backend.remove(triple)
        assert len(backend) == 0
        for column in ("s", "p", "o"):
            assert backend.column_value_counts(column) == {}
            assert backend.distinct_values(column) == 0


class TestFactory:
    def test_create_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown storage backend"):
            create_backend("postgres")

    def test_memory_rejects_path(self, tmp_path):
        with pytest.raises(ValueError, match="does not take a path"):
            create_backend("memory", path=tmp_path / "x.db")

    def test_sqlite_with_path_persists_triples(self, tmp_path):
        path = tmp_path / "triples.db"
        b = create_backend("sqlite", path=path)
        b.add_bulk(TRIPLES)
        b.close()
        reattached = SqliteBackend(path)
        assert set(reattached) == set(TRIPLES)
        assert len(reattached) == len(TRIPLES)
        reattached.close()


class TestSqliteSpecific:
    def test_flush_makes_writes_visible_to_second_connection(self, tmp_path):
        path = tmp_path / "t.db"
        writer = SqliteBackend(path)
        writer.add((1, 2, 3))
        writer.flush()
        reader = SqliteBackend(path)
        assert (1, 2, 3) in reader
        reader.close()
        writer.close()

    def test_copy_of_file_backed_is_anonymous(self, tmp_path):
        original = SqliteBackend(tmp_path / "orig.db")
        original.add((1, 2, 3))
        clone = original.copy()
        assert clone.path is None
        clone.add((4, 5, 6))
        assert (4, 5, 6) not in original
        original.close()

    def test_memory_backend_copy_type(self):
        assert isinstance(MemoryBackend().copy(), MemoryBackend)
