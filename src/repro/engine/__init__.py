"""The physical query-execution engine.

Conjunctive queries and their reformulations run here, on the
dictionary-encoded triple store: the triple-table half of the paper's
Figure 8 comparison. (The other half, rewriting plans over
materialized view extents, is a set fold of its own:
:func:`repro.query.algebra.execute`.) See :mod:`repro.engine.operators`
for the physical operators and :mod:`repro.engine.planner` for plan
compilation and join ordering.

Public surface::

    plan(question, store, pushdown=True)        # the one route decision:
                                                #   (route, branches)
    evaluate(question, store, pushdown=True)    # CQ / union / disjuncts -> answers
    count_union(question, store)                # |answers|, nothing decoded
    plan_query / plan_pushdown                  # a CQ's tree / SQL statement
    plan_factorised / plan_union_pushdown       # a reformulation's tree /
                                                #   the flat form's branches
    SQL_PUSHDOWN / INTERPRETED / FACTORISED     # the routes
    DEFAULT_BATCH_SIZE                          # rows per scan batch

    run_query                                   # = evaluate, and
    plan_batch(queries, store)                  # shared join-order prefixes:
                                                #   the end-to-end benchmark
                                                #   imports both, until it is
                                                #   next re-baselined

A *question* is a conjunctive query, a union or a sequence of
disjuncts, and :func:`plan` is the one place its route is decided:
``evaluate``, ``count_union``, ``--explain`` and
:func:`repro.obs.analyze.analyze` all read the plan it returns. There
is one execution path. Operators exchange
:class:`~repro.engine.columnar.ColumnBatch` objects (one value sequence
per column) through ``column_batches`` — the single operator contract,
see :mod:`repro.engine.operators` — with storage backends delivering
columns natively. There is one tree shape on a store: one union of
one-atom queries per body atom (a conjunctive query's atom alone, or
that atom's reformulation), joined in the order the shared cardinality
estimator (:mod:`repro.stats`) picks — the first read by a
:class:`UnionScan`, a connected one probed per key by a
:class:`UnionProbe`, a Cartesian one hash-joined.

A reformulation union (:func:`repro.reformulation.reformulate`) runs
**factorised** (:func:`plan_factorised`) — each source atom is the
union of its own reformulation, and the atoms join once — on the
interpreted route always, and on SQL when it has one atom or the
product of its atoms' alternative counts exceeds its atom count. Any
other question is *flat*: its distinct disjuncts are its branches. On
a backend that executes SQL itself (SQLite) each branch is **one
pushed-down statement** (:mod:`repro.engine.sqlcompile`), joined in the
same estimator order and evaluated inside the backend; the operator
tree is the fallback for shapes SQL cannot express and, through
``pushdown=False``, the reference the pushdown tests compare against.
Every route merges the encoded answer images across the whole plan and
decodes each distinct answer once.

The engine/layout/batch-size/workers matrix that used to be selectable
here (index-nested-loop, merge and partitioned joins, row-list batches,
the tuple-at-a-time path, adaptive batch sizes, morsel-parallel scans,
the operators that ran rewritings over cached view-extent indexes) is
retired; docs/benchmarks.md, "Retired paths", keeps each one's last
measured verdict.
"""

from repro.engine.columnar import ColumnBatch
from repro.engine.mqo import plan_batch
from repro.engine.operators import (
    DEFAULT_BATCH_SIZE,
    ExtentScan,
    HashJoin,
    Operator,
    UnionProbe,
    UnionScan,
)
from repro.engine.planner import (
    FACTORISED,
    INTERPRETED,
    SQL_PUSHDOWN,
    count_union,
    decode_images,
    evaluate,
    plan,
    plan_factorised,
    plan_pushdown,
    plan_query,
    plan_union_pushdown,
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
    "evaluate",
    "plan",
    "plan_batch",
    "plan_factorised",
    "plan_pushdown",
    "plan_union_pushdown",
    "ExtentScan",
    "HashJoin",
    "Operator",
    "UnionProbe",
    "UnionScan",
    "plan_query",
    "run_query",
]
