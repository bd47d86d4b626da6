"""Contract tests for the storage backends (protocol level, codes only)."""

import itertools
import random

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


#: Three families of ten triples sharing an (s, p), (s, o) or (p, o)
#: key grow those buckets, and the one-column ones, past the memory
#: backend's tuple size; the random rest keeps most buckets at one to
#: three triples.
POOL = sorted(
    {(0, 0, o) for o in range(10)}
    | {(0, p, 0) for p in range(10)}
    | {(s, 0, 0) for s in range(10)}
    | set(zip(*(random.Random(7 + i).choices(range(10), k=30) for i in range(3))))
)

#: Every key of the 8 pattern shapes over the pool, plus one unknown
#: code in each bound position.
BUCKET_PATTERNS = sorted(
    {
        tuple(code if mask >> i & 1 else None for i, code in enumerate(triple))
        for triple in POOL + [(99, 99, 99)]
        for mask in range(8)
    },
    key=lambda pattern: tuple(-1 if c is None else c for c in pattern),
)

#: Every ordered choice of distinct triple positions match_columns takes.
POSITIONS = [
    positions
    for width in (1, 2, 3)
    for positions in itertools.permutations(range(3), width)
]


def shapes_of(triple):
    """The 8 patterns (one per shape) that ``triple`` matches."""
    return [
        tuple(code if mask >> i & 1 else None for i, code in enumerate(triple))
        for mask in range(8)
    ]


def check_against_set(backend, reference, column_patterns=BUCKET_PATTERNS):
    """Every pattern's matches, through every lookup method, equal the
    plain set ``reference``'s; ``match_columns`` is checked on
    ``column_patterns`` at every position tuple. No index keeps an
    empty bucket or a repeated triple."""

    answers: dict = {}
    for triple in sorted(reference):
        for pattern in shapes_of(triple):
            answers.setdefault(pattern, []).append(triple)

    assert len(backend) == len(reference)
    assert set(backend) == reference
    for pattern, matched in zip(BUCKET_PATTERNS, backend.match_many(BUCKET_PATTERNS)):
        want = answers.get(pattern, [])
        assert sorted(backend.match(pattern)) == want, pattern
        assert sorted(matched) == want, pattern
        assert backend.count(pattern) == len(want), pattern
    for pattern in column_patterns:
        want = answers.get(pattern, [])
        for positions in POSITIONS:
            rows = [
                row
                for columns in backend.match_columns(pattern, positions, 3)
                for row in zip(*columns)
            ]
            assert sorted(rows) == sorted(
                tuple(t[i] for i in positions) for t in want
            ), (pattern, positions)
    for index in (
        backend._idx_s, backend._idx_p, backend._idx_o,
        backend._idx_sp, backend._idx_so, backend._idx_po,
    ):
        for key, bucket in index.items():
            assert bucket, f"empty bucket kept for {key}"
            assert len(set(bucket)) == len(bucket), key


class TestMemoryBuckets:
    """The memory backend keeps a small bucket as a tuple and a large
    one as a set. A seeded add/remove sequence drives buckets of every
    index across that size in both directions, checked after each step
    against a plain set of triples."""

    def test_add_remove_sequence_matches_set_oracle(self):
        rng = random.Random(45)
        backend = MemoryBackend()
        reference: set = set()
        kinds, family_sizes = set(), set()
        # Fill most of the pool, drain to a few, refill, drain to
        # empty: each phase mostly adds or mostly removes.
        for target in (40, 4, 45, 0):
            while len(reference) != target:
                present = sorted(reference)
                grow = len(reference) < target
                if present and rng.random() < (0.2 if grow else 0.8):
                    triple = rng.choice(present)
                    assert backend.remove(triple) is True
                    assert backend.remove(triple) is False
                    reference.discard(triple)
                else:
                    triple = rng.choice(POOL)
                    assert backend.add(triple) is (triple not in reference)
                    reference.add(triple)
                # match_columns on the buckets this step touched.
                check_against_set(backend, reference, shapes_of(triple))
                kinds.add(type(backend._idx_sp.get((0, 0))))
                family_sizes.add(len(backend._idx_so.get((0, 0), ())))
            check_against_set(backend, reference)
        # The family keys really crossed the tuple size both ways.
        assert {tuple, set} <= kinds
        assert min(family_sizes) == 0 and max(family_sizes) > 8

    def test_copy_is_independent_of_both_bucket_kinds(self):
        rng = random.Random(3)
        backend = MemoryBackend()
        backend.add_bulk(POOL)
        original, cloned = set(POOL), set(POOL)
        clone = backend.copy()
        # (0, 0, 0) sits in set buckets, (9, 0, 0) in tuple ones too.
        for triple in ((0, 0, 0), (9, 0, 0), *rng.sample(POOL, 5)):
            if triple in cloned:
                clone.remove(triple)
                cloned.discard(triple)
            clone.add((triple[0], triple[1], 50))
            cloned.add((triple[0], triple[1], 50))
            check_against_set(backend, original, ())
            check_against_set(clone, cloned, ())
        for triple in ((0, 0, 1), (1, 0, 0), *rng.sample(POOL, 5)):
            if triple in original:
                backend.remove(triple)
                original.discard(triple)
            backend.add((triple[0], 60, triple[2]))
            original.add((triple[0], 60, triple[2]))
            check_against_set(backend, original, ())
            check_against_set(clone, cloned, ())
        check_against_set(backend, original)
        check_against_set(clone, cloned)
