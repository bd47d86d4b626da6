"""The physical query-execution engine.

Conjunctive queries and their reformulations run here, on the
dictionary-encoded triple store: the triple-table half of the paper's
Figure 8 comparison. (The other half, rewriting plans over
materialized view extents, is a set fold of its own:
:func:`repro.query.algebra.execute`.) See :mod:`repro.engine.operators`
for the physical operators and :mod:`repro.engine.planner` for plan
compilation and join ordering.

Public surface::

    run_query(query, store, pushdown=True)      # CQ -> answers
    run_query_batch(queries, store, pushdown=True)  # independent queries
    evaluate_union_shared(disjuncts, store, pushdown=True)   # union -> answers
    count_union(union, store)                   # |answers|, nothing decoded
    plan_query(query, store)                    # operator tree (explain)
    plan_pushdown(query, store)                 # whole-plan SQL route
    plan_factorised(union, store)               # a reformulation, factorised
    plan_union_pushdown(disjuncts, store)       # a flat union's statements
    plan_batch(queries, store)                  # shared join-order prefixes
    SQL_PUSHDOWN / INTERPRETED / FACTORISED     # the routes
    DEFAULT_BATCH_SIZE                          # rows per scan batch

There is one execution path. Operators exchange
:class:`~repro.engine.columnar.ColumnBatch` objects (one value sequence
per column) through ``column_batches`` — the single operator contract,
see :mod:`repro.engine.operators` — with storage backends transposing
batches natively. There is one plan shape on a store: one union of
one-atom queries per body atom (a conjunctive query's atom alone, or
that atom's reformulation), joined in the order the shared cardinality
estimator (:mod:`repro.stats`) picks — the first read by a
:class:`UnionScan`, a connected one probed per key by a
:class:`UnionProbe`, a Cartesian one hash-joined. On a backend
that executes SQL itself (SQLite), ``run_query`` first tries
**whole-plan SQL pushdown**:
the entire conjunctive query compiles to one SQL statement
(:mod:`repro.engine.sqlcompile`), joined in the same estimator order
and evaluated inside the backend; the operator tree is the fallback
for shapes SQL cannot express and, through ``pushdown=False``, the
reference the pushdown tests compare against.

A reformulation union (:func:`repro.reformulation.reformulate`) runs
**factorised** (:func:`plan_factorised`) — each source atom is the
union of its own reformulation, and the atoms join once — on the
interpreted route always, and on SQL when it has one atom or the product of its
atoms' alternative counts exceeds its atom count. A flat union
(:mod:`repro.engine.mqo`) runs its distinct disjuncts one by one — on a
SQL-capable backend one prepared statement each — and decodes the
merged answer images once.

The engine/layout/batch-size/workers matrix that used to be selectable
here (index-nested-loop, merge and partitioned joins, row-list batches,
the tuple-at-a-time path, adaptive batch sizes, morsel-parallel scans,
the operators that ran rewritings over cached view-extent indexes) is
retired; docs/benchmarks.md, "Retired paths", keeps each one's last
measured verdict.
"""

from repro.engine.columnar import ColumnBatch
from repro.engine.mqo import (
    count_union,
    decode_images,
    describe_union_sharing,
    evaluate_union_shared,
    plan_batch,
    plan_union_pushdown,
    run_query_batch,
)
from repro.engine.operators import (
    DEFAULT_BATCH_SIZE,
    ExtentScan,
    HashJoin,
    IndexScan,
    Operator,
    UnionProbe,
    UnionScan,
)
from repro.engine.planner import (
    FACTORISED,
    INTERPRETED,
    SQL_PUSHDOWN,
    plan_factorised,
    plan_pushdown,
    plan_query,
    run_query,
)
from repro.engine.sqlcompile import CompiledQuery, compile_query

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "FACTORISED",
    "INTERPRETED",
    "SQL_PUSHDOWN",
    "ColumnBatch",
    "CompiledQuery",
    "compile_query",
    "count_union",
    "decode_images",
    "describe_union_sharing",
    "evaluate_union_shared",
    "plan_batch",
    "plan_factorised",
    "plan_pushdown",
    "plan_union_pushdown",
    "run_query_batch",
    "ExtentScan",
    "HashJoin",
    "IndexScan",
    "Operator",
    "UnionProbe",
    "UnionScan",
    "plan_query",
    "run_query",
]
