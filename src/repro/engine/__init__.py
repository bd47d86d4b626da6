"""The unified physical query-execution engine.

One operator algebra executes both halves of the paper's Figure 8
comparison: conjunctive queries evaluated directly on the dictionary-
encoded triple store, and rewriting plans evaluated over materialized
view extents. See :mod:`repro.engine.operators` for the physical
operators, :mod:`repro.engine.planner` for plan compilation and join
ordering, and :mod:`repro.engine.extents` for hash-indexed view
extents.

Public surface::

    run_query(query, store, engine="auto",
              batch_size=DEFAULT_BATCH_SIZE, workers=1)   # CQ -> answers
    run_query_batch(queries, store, shared=True)   # MQO: batch -> answers
    count_union(union, store)                   # |answers|, nothing decoded
    run_plan(plan, extents, engine="auto",
             batch_size=DEFAULT_BATCH_SIZE)               # Plan -> rows
    plan_query / plan_rewriting                 # operator trees (explain)
    plan_pushdown(query, store)                 # whole-plan SQL route
    plan_batch / plan_union_pushdown            # shared-subplan DAG / UNION
    choose_engine(query, store)                 # cost-based auto choice
    ENGINES / FIXED_ENGINES / SQL_PUSHDOWN      # strategies & routes
    DEFAULT_BATCH_SIZE / PARALLEL_ROW_THRESHOLD # batch/parallel knobs

Batches of queries — reformulation unions and independent workloads
alike — run through the multi-query optimizer (:mod:`repro.engine.mqo`):
shared join subtrees across the batch are fingerprinted by canonical
form, cost-gated, executed once, and fanned out to every consumer; on a
SQL-capable backend an eligible union compiles into one
``SELECT ... UNION`` statement whose shared subtrees are CTEs.

``engine="auto"`` is cost-based: the shared cardinality estimator
(:mod:`repro.stats`) prices every fixed strategy per query and the
cheapest is compiled, with the choice cached in the prepared-plan
cache until the store mutates. On a backend that executes SQL itself
(SQLite), ``auto`` first tries **whole-plan SQL pushdown**: the entire
conjunctive query compiles to one SQL statement
(:mod:`repro.engine.sqlcompile`) evaluated inside the backend, and the
operator tree is the fallback for shapes SQL cannot express.

Execution is batched by default, in **columnar layout**: operators
exchange :class:`~repro.engine.columnar.ColumnBatch` objects (one
value sequence per column) through ``column_batches``, with storage
backends transposing batches natively; ``layout="row"`` keeps the
row-list batch path (``list`` of row tuples, at most ``batch_size``
per hand-off — see :mod:`repro.engine.operators` for both contracts)
as the ablation baseline, and ``batch_size=None`` falls back to the
historical tuple-at-a-time path. ``batch_size="adaptive"``
(:data:`ADAPTIVE_BATCH_SIZE`) lets every operator use the batch size
the planner derived from its estimated cardinality. With
``workers > 1``, hash joins above an estimated-cardinality threshold
execute as parallel partitioned joins over a cached process pool
(:class:`~repro.engine.operators.PartitionedHashJoin`), and large
unsorted base scans run morsel-driven over the same pool
(:data:`MORSEL_PARALLEL_THRESHOLD`, :data:`MORSEL_SIZE`).
"""

from repro.engine.columnar import ColumnBatch
from repro.engine.extents import ViewExtent
from repro.engine.mqo import (
    MATERIALIZE_COST_FACTOR,
    MQO_DAG,
    UNION_PUSHDOWN,
    BatchPlan,
    SharedNode,
    count_union,
    decode_images,
    describe_union_sharing,
    evaluate_union_shared,
    plan_batch,
    plan_union_pushdown,
    run_query_batch,
    union_signature,
)
from repro.engine.operators import (
    ADAPTIVE_BATCH_SIZE,
    DEFAULT_BATCH_SIZE,
    Distinct,
    Empty,
    ExtentScan,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    MergeJoin,
    Operator,
    PartitionedHashJoin,
    Projection,
    Relabel,
    Selection,
)
from repro.engine.parallel import MORSEL_SIZE
from repro.engine.planner import (
    ENGINES,
    FIXED_ENGINES,
    HYBRID,
    LAYOUTS,
    MORSEL_PARALLEL_THRESHOLD,
    PARALLEL_ROW_THRESHOLD,
    SQL_PUSHDOWN,
    choose_engine,
    plan_pushdown,
    plan_query,
    plan_rewriting,
    run_plan,
    run_query,
)
from repro.engine.sqlcompile import (
    CompiledQuery,
    CompiledUnion,
    compile_query,
    compile_union,
)

__all__ = [
    "ADAPTIVE_BATCH_SIZE",
    "DEFAULT_BATCH_SIZE",
    "ENGINES",
    "FIXED_ENGINES",
    "HYBRID",
    "LAYOUTS",
    "MATERIALIZE_COST_FACTOR",
    "MORSEL_PARALLEL_THRESHOLD",
    "MORSEL_SIZE",
    "MQO_DAG",
    "PARALLEL_ROW_THRESHOLD",
    "SQL_PUSHDOWN",
    "UNION_PUSHDOWN",
    "BatchPlan",
    "ColumnBatch",
    "CompiledQuery",
    "CompiledUnion",
    "SharedNode",
    "choose_engine",
    "compile_query",
    "compile_union",
    "count_union",
    "decode_images",
    "describe_union_sharing",
    "evaluate_union_shared",
    "plan_batch",
    "plan_pushdown",
    "plan_union_pushdown",
    "run_query_batch",
    "union_signature",
    "Distinct",
    "Empty",
    "ExtentScan",
    "HashJoin",
    "IndexNestedLoopJoin",
    "IndexScan",
    "MergeJoin",
    "Operator",
    "PartitionedHashJoin",
    "Projection",
    "Relabel",
    "Selection",
    "ViewExtent",
    "plan_query",
    "plan_rewriting",
    "run_plan",
    "run_query",
]
