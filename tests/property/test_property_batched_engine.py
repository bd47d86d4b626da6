"""The one operator contract, ``column_batches(size)``, at its boundaries.

The batch size must be invisible semantically: for any store and any
query, at the degenerate size 1, at 2, at a prime size that never
divides the row counts evenly and at the engine default, a compiled
plan streams well-formed, never-empty
:class:`~repro.engine.columnar.ColumnBatch` objects carrying the same
row multiset, whose head images are exactly the oracle's answers.

Rewriting plans over view extents do not run on operators: they fold
into row sets through :func:`repro.query.algebra.execute`, checked at
the end against a nested-loop reference.

The matrix runs per storage backend: the SQLite backend serves columnar
batches through a ``fetchmany`` transpose and batched probes through
single-statement ``IN (VALUES ...)`` queries, which must not change a
single row.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import DEFAULT_BATCH_SIZE, ColumnBatch, plan_query
from repro.query.algebra import (
    EqualsColumn,
    EqualsConstant,
    Join,
    Project,
    Rename,
    Scan,
    Select,
    execute,
)
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
    assert Counter(row for cb in root.column_batches() for row in cb) == reference


#: Column names rewriting plans draw from: few enough that natural
#: joins share columns often.
COLUMNS = ("a", "b", "c", "d")

#: View name -> arity of the extents the rewriting plans scan.
VIEWS = {"v1": 1, "v2": 2, "v3": 3}


def _names(data, count):
    return tuple(data.draw(st.permutations(COLUMNS), label="columns")[:count])


def _plan(data, depth, top=False):
    """A random rewriting plan: every node kind below a ``top`` node
    that is not a bare scan, joins with natural and explicit pairs,
    nested ``depth`` levels at most."""
    kinds = ["select", "project", "rename", "join"] + ([] if top else ["scan"])
    kind = data.draw(st.sampled_from(kinds if depth else ["scan"]), label="node")
    if kind == "scan":
        view = data.draw(st.sampled_from(sorted(VIEWS)), label="view")
        return Scan(view, _names(data, VIEWS[view]))
    if kind == "join":
        left, right = _plan(data, depth - 1), _plan(data, depth - 1)
        if not (left.schema and right.schema):
            return Join(left, right)
        pair = st.tuples(st.sampled_from(left.schema), st.sampled_from(right.schema))
        pairs = data.draw(st.lists(pair, max_size=2), label="pairs")
        return Join(left, right, tuple(pairs))
    child = _plan(data, depth - 1)
    schema = child.schema
    if not schema:
        return child
    if kind == "rename":
        return Rename(child, _names(data, len(schema)))
    if kind == "project":
        picked = data.draw(
            st.lists(st.sampled_from(schema), unique=True), label="projected"
        )
        return Project(child, tuple(picked))
    column = st.sampled_from(schema)
    distinct = st.permutations(schema).map(lambda columns: columns[:2])
    condition = st.one_of(
        st.builds(EqualsConstant, column, st.sampled_from(ENTITIES[:3])),
        st.builds(lambda pair: EqualsColumn(pair[0], pair[-1]), distinct),
    )
    conditions = data.draw(st.lists(condition, min_size=1, max_size=2))
    return Select(child, tuple(conditions))


def _reference(plan, extents):
    """Nested-loop semantics of ``plan``: every row as a column -> value
    binding, each node the textbook definition over sets."""
    if isinstance(plan, Scan):
        return set(extents[plan.view])
    if isinstance(plan, Rename):
        return _reference(plan.child, extents)
    if isinstance(plan, Select):
        rows = _reference(plan.child, extents)

        def holds(binding, condition):
            if isinstance(condition, EqualsConstant):
                return binding[condition.column] == condition.value
            return binding[condition.left] == binding[condition.right]

        return {
            row
            for row in rows
            if all(
                holds(dict(zip(plan.schema, row)), condition)
                for condition in plan.conditions
            )
        }
    if isinstance(plan, Project):
        return {
            tuple(dict(zip(plan.child.schema, row))[c] for c in plan.columns)
            for row in _reference(plan.child, extents)
        }
    out = set()
    for left in _reference(plan.left, extents):
        for right in _reference(plan.right, extents):
            lb = dict(zip(plan.left.schema, left))
            rb = dict(zip(plan.right.schema, right))
            if all(lb[lc] == rb[rc] for lc, rc in plan.all_pairs):
                out.add(tuple({**rb, **lb}[c] for c in plan.schema))
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rewriting_plan_set_semantics(data):
    """``execute`` returns exactly the nested-loop reference's row set
    for any plan over any extents, given as lists (duplicates allowed)
    or as sets, and leaves the extents as they were."""
    pick = st.sampled_from(ENTITIES[:3])
    extents = {}
    for view, arity in VIEWS.items():
        rows = data.draw(
            st.lists(st.tuples(*[pick] * arity), min_size=2, max_size=6),
            label=view,
        )
        extents[view] = data.draw(st.sampled_from([list, set]))(rows)
    before = {view: list(rows) for view, rows in extents.items()}
    plan = _plan(data, depth=3, top=True)
    assert execute(plan, extents) == _reference(plan, extents)
    assert {view: list(rows) for view, rows in extents.items()} == before
