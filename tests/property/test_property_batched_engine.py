"""The one operator contract, ``column_batches(size)``, at its boundaries.

The batch size must be invisible semantically: for any store and any
query, at the degenerate size 1, at 2, at a prime size that never
divides the row counts evenly and at the engine default, a compiled
plan streams well-formed, never-empty
:class:`~repro.engine.columnar.ColumnBatch` objects carrying the same
row multiset, whose head images are exactly the oracle's answers.
Rewriting plans over extents additionally keep the seed's row *order*
and duplicate semantics.

The matrix runs per storage backend: the SQLite backend serves columnar
batches through a ``fetchmany`` transpose and batched probes through
single-statement ``IN (VALUES ...)`` queries, which must not change a
single row.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import DEFAULT_BATCH_SIZE, ColumnBatch, plan_query, run_plan
from repro.engine.planner import plan_rewriting
from repro.query.algebra import Join, Project, Scan
from repro.query.cq import Variable
from repro.query.evaluation import evaluate_nested_loop
from repro.storage import BACKENDS

from tests.property.strategies import ENTITIES, queries, stores

#: Degenerate, smallest non-trivial, prime, and the engine default.
BATCH_SIZES = (1, 2, 7, DEFAULT_BATCH_SIZE)

backends = pytest.mark.parametrize("backend", BACKENDS)


def _head_images(query, root, rows, store):
    """Decoded head tuples of ``rows`` (what ``run_query`` folds)."""
    decode = store.dictionary.decode
    slots = [
        root.schema.index(term.name) if isinstance(term, Variable) else term
        for term in query.head
    ]
    return {
        tuple(decode(row[s]) if isinstance(s, int) else s for s in slots)
        for row in rows
    }


@backends
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_column_batch_stream_is_well_formed(backend, data):
    """Equal-length non-empty columns, the same row multiset at every
    size, and head images equal to the oracle's answers."""
    store = data.draw(stores(backend=backend), label="store")
    query = data.draw(queries(), label="query")
    root = plan_query(query, store)
    width = len(root.schema)
    expected = evaluate_nested_loop(query, store)
    reference = None
    for size in BATCH_SIZES:
        rows = []
        for cb in root.column_batches(size):
            assert isinstance(cb, ColumnBatch)
            assert len(cb.columns) == width
            assert len(cb) > 0
            for column in cb.columns:
                assert len(column) == len(cb)
            rows.extend(cb.rows())
        if reference is None:
            reference = Counter(rows)
        assert Counter(rows) == reference, size
        assert _head_images(query, root, rows, store) == expected, size
    assert Counter(root.rows()) == reference


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rewriting_plan_multiset_parity_across_batch_sizes(data):
    """run_plan returns the seed interpreter's rows — its order, its
    duplicates, ``Project`` deduplicating by first occurrence — and the
    operator tree streams exactly those rows at every batch size."""
    size_l = data.draw(st.integers(0, 12), label="left rows")
    size_r = data.draw(st.integers(0, 12), label="right rows")
    pick = st.sampled_from(ENTITIES)
    extents = {
        "v1": [
            (data.draw(pick), data.draw(pick)) for _ in range(size_l)
        ],
        "v2": [
            (data.draw(pick), data.draw(pick)) for _ in range(size_r)
        ],
    }
    plan = Join(Scan("v1", ("x", "y")), Scan("v2", ("y", "z")))
    projected = Project(plan, ("x", "z"))
    # The seed's nested loops: left order, then right order per match.
    joined = [
        left + (right[1],)
        for left in extents["v1"]
        for right in extents["v2"]
        if left[1] == right[0]
    ]
    distinct = list(dict.fromkeys((x, z) for x, _y, z in joined))
    assert run_plan(plan, extents) == joined
    assert run_plan(projected, extents) == distinct
    for tree, reference in ((plan, joined), (projected, distinct)):
        root = plan_rewriting(tree, extents)
        for size in (1, 7, 1024):
            rows = [row for cb in root.column_batches(size) for row in cb]
            assert rows == reference, size
