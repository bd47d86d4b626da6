"""Unit tests for the indexed triple store, on every storage backend."""

import pytest

from repro.rdf.store import TripleStore
from repro.rdf.terms import Literal, URI
from repro.rdf.triples import Triple
from repro.storage import BACKENDS


def u(x: str) -> URI:
    return URI(f"http://t/{x}")


def populate(store: TripleStore) -> TripleStore:
    store.add(Triple(u("a"), u("p"), u("b")))
    store.add(Triple(u("a"), u("p"), u("c")))
    store.add(Triple(u("a"), u("q"), u("b")))
    store.add(Triple(u("d"), u("p"), u("b")))
    store.add(Triple(u("d"), u("q"), Literal("v")))
    return store


@pytest.fixture(params=BACKENDS)
def store(request) -> TripleStore:
    return populate(TripleStore(backend=request.param))


class TestMutation:
    def test_add_returns_true_only_for_new(self, store):
        assert store.add(Triple(u("x"), u("p"), u("y"))) is True
        assert store.add(Triple(u("x"), u("p"), u("y"))) is False

    def test_len_and_contains(self, store):
        assert len(store) == 5
        assert Triple(u("a"), u("p"), u("b")) in store
        assert Triple(u("a"), u("p"), u("zzz")) not in store

    def test_add_all_counts_new_only(self):
        s = TripleStore()
        triples = [Triple(u("a"), u("p"), u("b"))] * 3
        assert s.add_all(triples) == 1

    def test_remove(self, store):
        assert store.remove(Triple(u("a"), u("p"), u("b"))) is True
        assert len(store) == 4
        assert store.count(s=u("a"), p=u("p")) == 1
        assert store.remove(Triple(u("a"), u("p"), u("b"))) is False

    def test_remove_unknown_term_is_false(self, store):
        assert store.remove(Triple(u("nope"), u("p"), u("b"))) is False


class TestPatternMatching:
    def test_full_scan(self, store):
        assert len(list(store.match())) == 5

    def test_by_subject(self, store):
        assert len(list(store.match(s=u("a")))) == 3

    def test_by_property(self, store):
        assert len(list(store.match(p=u("p")))) == 3

    def test_by_object(self, store):
        assert len(list(store.match(o=u("b")))) == 3

    def test_by_subject_property(self, store):
        assert len(list(store.match(s=u("a"), p=u("p")))) == 2

    def test_by_subject_object(self, store):
        assert len(list(store.match(s=u("a"), o=u("b")))) == 2

    def test_by_property_object(self, store):
        assert len(list(store.match(p=u("p"), o=u("b")))) == 2

    def test_fully_bound(self, store):
        assert len(list(store.match(s=u("a"), p=u("p"), o=u("b")))) == 1
        assert len(list(store.match(s=u("a"), p=u("p"), o=u("zz")))) == 0

    def test_unknown_term_matches_nothing(self, store):
        assert list(store.match(s=u("unknown"))) == []

    def test_literal_object_pattern(self, store):
        assert len(list(store.match(o=Literal("v")))) == 1


class TestCounts:
    def test_count_agrees_with_match(self, store):
        patterns = [
            dict(),
            dict(s=u("a")),
            dict(p=u("p")),
            dict(o=u("b")),
            dict(s=u("a"), p=u("p")),
            dict(s=u("d"), o=Literal("v")),
            dict(p=u("q"), o=u("b")),
            dict(s=u("a"), p=u("p"), o=u("b")),
        ]
        for pattern in patterns:
            assert store.count(**pattern) == len(list(store.match(**pattern)))

    def test_counts_after_removal(self, store):
        store.remove(Triple(u("a"), u("p"), u("c")))
        assert store.count(s=u("a"), p=u("p")) == 1
        assert store.count(p=u("p")) == 2


class TestColumnStatistics:
    def test_distinct_values(self, store):
        assert store.distinct_values("s") == 2  # a, d
        assert store.distinct_values("p") == 2  # p, q
        assert store.distinct_values("o") == 3  # b, c, "v"

    def test_distinct_values_after_removal(self, store):
        store.remove(Triple(u("d"), u("q"), Literal("v")))
        assert store.distinct_values("o") == 2

    def test_column_value_counts(self, store):
        counts = store.column_value_counts("p")
        assert sum(counts.values()) == len(store)

    def test_backend_agrees_with_catalog(self, store):
        # The backend's ground-truth figures must match the catalog's
        # incrementally maintained ones, on every backend.
        store.remove(Triple(u("a"), u("p"), u("c")))
        for column in ("s", "p", "o"):
            assert store.backend.distinct_values(column) == store.distinct_values(
                column
            )
            assert store.backend.column_value_counts(
                column
            ) == store.column_value_counts(column)


def test_copy_is_independent(store):
    clone = store.copy()
    assert len(clone) == len(store)
    clone.add(Triple(u("new"), u("p"), u("b")))
    assert len(clone) == len(store) + 1
    assert Triple(u("new"), u("p"), u("b")) not in store


def test_iteration_yields_decoded_triples(store):
    triples = set(store)
    assert Triple(u("a"), u("p"), u("b")) in triples
    assert len(triples) == 5


class TestIndexBucketCleanup:
    """Memory-backend internals: empty buckets must not linger."""

    @pytest.fixture()
    def memory(self):
        return populate(TripleStore(backend="memory")).backend

    def test_remove_deletes_empty_buckets(self):
        # u("d") subject bucket holds two triples; removing both must
        # delete the bucket itself, not leave an empty set behind.
        store = populate(TripleStore(backend="memory"))
        store.remove(Triple(u("d"), u("p"), u("b")))
        store.remove(Triple(u("d"), u("q"), Literal("v")))
        d_code = store.dictionary.lookup(u("d"))
        assert d_code not in store.backend._idx_s
        v_code = store.dictionary.lookup(Literal("v"))
        assert v_code not in store.backend._idx_o

    def test_churn_does_not_grow_indexes(self):
        s = TripleStore(backend="memory")
        for round_ in range(50):
            triple = Triple(u(f"subject{round_}"), u("p"), u(f"object{round_}"))
            s.add(triple)
            s.remove(triple)
        assert len(s) == 0
        backend = s.backend
        assert backend._idx_s == {}
        assert backend._idx_o == {}
        assert backend._idx_sp == {}
        assert backend._idx_so == {}
        assert backend._idx_po == {}
        # The predicate bucket for u("p") emptied out too.
        assert backend._idx_p == {}

    def test_partial_bucket_survives(self):
        store = populate(TripleStore(backend="memory"))
        store.remove(Triple(u("a"), u("p"), u("b")))
        a_code = store.dictionary.lookup(u("a"))
        assert a_code in store.backend._idx_s  # still holds two triples
        assert store.count(s=u("a")) == 2


class TestCopy:
    def test_copy_preserves_encodings(self, store):
        clone = store.copy()
        for term in (u("a"), u("p"), Literal("v")):
            assert clone.dictionary.lookup(term) == store.dictionary.lookup(term)
        assert set(clone) == set(store)

    def test_copy_shares_no_structures(self, store):
        clone = store.copy()
        clone.remove(Triple(u("a"), u("p"), u("b")))
        assert Triple(u("a"), u("p"), u("b")) in store
        assert clone.count(s=u("a")) == store.count(s=u("a")) - 1
        store.add(Triple(u("fresh"), u("p"), u("b")))
        assert Triple(u("fresh"), u("p"), u("b")) not in clone

    def test_copy_preserves_statistics(self, store):
        clone = store.copy()
        for column in ("s", "p", "o"):
            assert clone.distinct_values(column) == store.distinct_values(column)
        assert clone.average_term_size() == store.average_term_size()

    def test_copy_preserves_backend_kind(self, store):
        assert store.copy().backend_name == store.backend_name

    @pytest.mark.parametrize("target", BACKENDS)
    def test_cross_backend_copy_is_equivalent(self, store, target):
        clone = store.copy(backend=target)
        assert clone.backend_name == target
        assert set(clone) == set(store)
        assert len(clone) == len(store)
        for column in ("s", "p", "o"):
            assert clone.distinct_values(column) == store.distinct_values(column)
        for pattern in (dict(s=u("a")), dict(p=u("p")), dict(o=u("b"))):
            assert clone.count(**pattern) == store.count(**pattern)
        # Mutations stay independent.
        clone.add(Triple(u("only-clone"), u("p"), u("b")))
        assert Triple(u("only-clone"), u("p"), u("b")) not in store


def test_fresh_store_rejects_non_empty_backend(tmp_path, store):
    path = tmp_path / "full.db"
    store.save(path)
    from repro.storage import SqliteBackend

    with pytest.raises(ValueError, match="non-empty backend"):
        TripleStore(backend=SqliteBackend(path))
