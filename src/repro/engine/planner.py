"""Plan compilation: one engine for queries-on-stores and plans-on-views.

Two entry families compile into the *same* physical operator algebra
(:mod:`repro.engine.operators`):

* :func:`plan_query` / :func:`run_query` — a
  :class:`~repro.query.cq.ConjunctiveQuery` against a
  :class:`~repro.rdf.store.TripleStore`. Atoms are ordered **once** by
  the shared :class:`~repro.stats.estimator.CardinalityEstimator` (over
  the store's incrementally maintained catalog, or any explicit
  :class:`~repro.stats.provider.Statistics` provider), then compiled
  into a left-deep join tree.
* :func:`plan_rewriting` / :func:`run_plan` — a rewriting
  :class:`~repro.query.algebra.Plan` against materialized view extents,
  with hash joins that reuse the extents' cached hash indexes.

The ``engine`` knob selects the join algorithm:

* ``index-nested-loop`` — probe the store's pattern indexes per row
  (the seed evaluator's strategy, with the join order frozen at plan
  time instead of re-counted at every recursion step);
* ``hash`` — materialize each atom match and hash-join pairwise;
* ``merge`` — sort-merge joins over dictionary codes, feeding from the
  store's sorted-permutation iterators where the order matches;
* ``auto`` — **cost-based selection**: the estimator prices each fixed
  strategy — plus, on queries mixing connected and Cartesian steps, a
  hybrid plan (index probes + hash joins) — from the estimated
  input/output cardinality of every join step (see
  :func:`choose_engine`) and the cheapest one is compiled. The choice
  is cached in the prepared-plan cache alongside the plan, so repeated
  workloads pay the selection once per store version.

On storage backends that are SQL engines themselves (the SQLite
backend), ``auto`` gains a third physical route next to the operator
tree: **whole-plan SQL pushdown**. :func:`plan_pushdown` compiles the
entire conjunctive query — self-joins, constant selections, head
projection, DISTINCT — into one SQL statement
(:mod:`repro.engine.sqlcompile`) executed inside the backend, and
:func:`run_query` prefers it whenever the query is expressible; shapes
SQL cannot express (and every explicit fixed engine, kept as the
interpreted baseline) fall back to the operator tree. Compiled
statements live in the same prepared-plan cache as operator trees,
under the ``(query, engine, workers)`` keying scheme with
:data:`SQL_PUSHDOWN` in the engine slot, and are flushed with it when
the store mutates.

Over extents the store-specific strategies degrade gracefully: ``auto``
and ``index-nested-loop`` resolve to hash joins (there is no triple
index to probe), ``merge`` sorts decoded terms by their N-Triples
rendering; extent rows live in Python lists, so the rewriting route
never pushes down.

Execution is batched by default — columnar layout
(:meth:`~repro.engine.operators.Operator.column_batches`) with
``layout="row"`` kept as the ablation baseline; see
:mod:`repro.engine.operators` for both batch contracts. Compilation
annotates every operator with an adaptive batch size derived from the
same estimated cardinalities the engine choice prices (used when
``batch_size="adaptive"``). With ``workers > 1``, hash-join steps
whose estimated cardinalities clear :data:`PARALLEL_ROW_THRESHOLD`
run as parallel partitioned hash joins over a cached process pool,
and unsorted leaf scans clearing :data:`MORSEL_PARALLEL_THRESHOLD`
pull their matches as pool-projected morsels.
"""

from __future__ import annotations

import logging
import math
import time
from typing import Iterable, Mapping, Sequence

from repro.engine.operators import (
    ADAPTIVE_BATCH_SIZE,
    DEFAULT_BATCH_SIZE,
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
    _projector,
)
from repro.engine.sqlcompile import CompiledQuery, compile_query
from repro.obs import metrics, tracing
from repro.query import algebra
from repro.query.cq import ConjunctiveQuery, Variable
from repro.rdf.store import TripleStore
from repro.rdf.terms import Term
from repro.stats.estimator import CardinalityEstimator
from repro.stats.provider import CatalogStatistics

_LOG = logging.getLogger("repro.engine")

#: The selectable join strategies.
ENGINES = ("auto", "index-nested-loop", "hash", "merge")

#: The fixed (pure) strategies cost-based selection chooses among.
FIXED_ENGINES = ("index-nested-loop", "hash", "merge")

#: Internal candidate for queries mixing connected and Cartesian steps:
#: index probes for connected joins, hash joins for Cartesian ones.
#: Not user-selectable (``engine=`` rejects it); ``choose_engine`` may
#: return it when it prices below every pure strategy.
HYBRID = "hybrid"

#: The whole-plan SQL pushdown route: the entire conjunctive query runs
#: as one SQL statement inside the storage backend. Not user-selectable
#: (``engine=`` rejects it — the fixed engines stay the interpreted
#: baseline); ``choose_engine`` returns it when ``auto`` resolves to a
#: pushdown-eligible plan on a SQL-capable backend, and it is the
#: engine-slot token under which compiled statements are cached.
SQL_PUSHDOWN = "sql-pushdown"


#: Estimated rows (join input + build side) a hash-join step must reach
#: before the planner swaps in the parallel :class:`PartitionedHashJoin`.
#: Below it, partitioning overhead would cost more than it parallelizes
#: away — small Figure-8-style queries keep their streaming-join latency.
PARALLEL_ROW_THRESHOLD = 50_000

#: Estimated cardinality a base scan must reach before the planner
#: turns on morsel-driven parallel scanning (``workers > 1``). Well
#: below :data:`PARALLEL_ROW_THRESHOLD`: a morsel costs one pickle
#: round-trip, not a full input materialization, so scans parallelize
#: profitably long before partitioned joins do.
MORSEL_PARALLEL_THRESHOLD = 16_384

#: Clamp bounds of the adaptive per-operator batch size.
_ADAPTIVE_MIN_BATCH = 64
_ADAPTIVE_MAX_BATCH = 8_192


def _adaptive_batch_size(estimate: float) -> int:
    """The per-operator batch size for an estimated cardinality.

    The smallest power of two covering the estimate, clamped to
    [``64``, ``8192``]: an operator expected to produce a handful of
    rows gets one small batch (no thousand-slot churn for nothing),
    while a large scan gets wide batches that amortize the per-batch
    hand-off. Powers of two keep the distinct sizes (and thus plan
    variety) tiny.
    """
    size = _ADAPTIVE_MIN_BATCH
    while size < estimate and size < _ADAPTIVE_MAX_BATCH:
        size *= 2
    return size


def _check_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; pick from {ENGINES}")


def _check_batch_size(batch_size) -> int | str | None:
    """Normalize a public ``batch_size``: None/0 → tuple path, else ≥ 1.

    The string :data:`~repro.engine.operators.ADAPTIVE_BATCH_SIZE`
    (``"adaptive"``) passes through: each operator then resolves its
    planner-annotated preferred size. Any other string is rejected.

    A negative size would silently produce empty batches downstream
    (``range``/``islice``/``fetchmany`` all treat it as "nothing"), so
    it is rejected here at the API boundary instead.
    """
    if batch_size == ADAPTIVE_BATCH_SIZE:
        return ADAPTIVE_BATCH_SIZE
    if isinstance(batch_size, str):
        raise ValueError(
            f"batch_size must be an int, None or {ADAPTIVE_BATCH_SIZE!r}, "
            f"got {batch_size!r}"
        )
    if not batch_size:  # None or 0: the tuple-at-a-time path
        return None
    if batch_size < 0:
        raise ValueError(f"batch_size must be positive, 0 or None, got {batch_size}")
    return batch_size


# ----------------------------------------------------------------------
# Conjunctive queries against a triple store
# ----------------------------------------------------------------------


def _estimator(store: TripleStore, statistics) -> CardinalityEstimator:
    """The estimator join ordering and engine selection run on.

    Without an explicit provider, estimates read the store's own
    incrementally maintained catalog — exact pattern counts, O(1) per
    lookup, memoized per store version.
    """
    if statistics is None:
        statistics = CatalogStatistics(store.stats)
    return CardinalityEstimator(statistics)


# Per-row work factors of the engine cost model, in "rows touched"
# units. An index-nested-loop probe fills a fresh pattern per input row
# before the index lookup, which costs more than streaming a row past a
# prebuilt hash table; a hash build inserts into a dict. The absolute
# scale cancels out — only the ratios steer the choice.
_INL_PROBE_COST = 2.0
_HASH_BUILD_COST = 1.5


def _strategy_costs(
    query: ConjunctiveQuery, estimator: CardinalityEstimator
) -> dict[str, float]:
    """Estimated execution cost of each fixed strategy for one query.

    Walks the greedy join order once; every step is priced from the
    estimator's input/output cardinalities:

    * index-nested-loop — one index probe per input row plus the output
      (a Cartesian step degrades to re-scanning the atom's matches per
      input row, which is what the compiled operator would do);
    * hash — build the atom's matches, stream the input, emit the
      output;
    * merge — materialize and sort both sides (``n log n``) plus one
      merge pass; the first join over a single shared column feeds
      presorted from the store's permutation indexes, so its sorts are
      free;
    * hybrid (only priced when the order mixes connected and Cartesian
      steps — it degenerates to a pure strategy otherwise) — index
      probes for connected steps, hash joins for Cartesian ones.
    """
    atoms = query.atoms
    order = estimator.join_order(atoms)
    counts = [float(estimator.atom_cardinality(atoms[i])) for i in order]
    prefix = estimator.prefix_cardinalities(atoms, order)
    scan = counts[0]
    costs = {name: scan for name in FIXED_ENGINES + (HYBRID,)}
    step_kinds: set[bool] = set()
    bound = set(atoms[order[0]].variables())
    for step in range(1, len(order)):
        atom = atoms[order[step]]
        matches = counts[step]
        rows_in = prefix[step - 1]
        rows_out = prefix[step]
        shared = atom.variables() & bound
        step_kinds.add(bool(shared))
        if shared:
            inl_step = rows_in * _INL_PROBE_COST + rows_out
        else:
            inl_step = rows_in * max(matches, 1.0) + rows_out
        hash_step = matches * _HASH_BUILD_COST + rows_in + rows_out
        costs["index-nested-loop"] += inl_step
        costs["hash"] += hash_step
        costs[HYBRID] += inl_step if shared else hash_step
        presorted = step == 1 and len(shared) == 1
        sort_cost = 0.0 if presorted else (
            rows_in * math.log2(max(rows_in, 2.0))
            + matches * math.log2(max(matches, 2.0))
        )
        costs["merge"] += sort_cost + rows_in + matches + rows_out
        bound |= atom.variables()
    if step_kinds != {True, False}:
        # All steps connected (or all Cartesian): the hybrid plan is
        # identical to a pure strategy, so don't offer it as a choice.
        del costs[HYBRID]
    return costs


def _select_engine(query: ConjunctiveQuery, estimator: CardinalityEstimator) -> str:
    """The cheapest strategy under the estimator's cost model.

    Candidates are the pure strategies plus, for queries mixing
    connected and Cartesian join steps, the hybrid plan. Ties break in
    candidate order (``min`` is stable), keeping the choice
    deterministic; single-atom queries compile to a bare scan under
    every strategy, so the first fixed engine is returned outright.
    """
    if len(query.atoms) <= 1:
        return FIXED_ENGINES[0]
    costs = _strategy_costs(query, estimator)
    return min(costs, key=costs.__getitem__)


#: Cache marker for "compiled before, not expressible as one statement"
#: — distinguishes a cached negative from a cache miss.
_PUSHDOWN_INELIGIBLE = object()


def plan_pushdown(
    query: ConjunctiveQuery, store: TripleStore, workers: int = 1
) -> CompiledQuery | None:
    """The whole-plan SQL pushdown route for this query, if it exists.

    Returns the compiled single-statement form
    (:class:`~repro.engine.sqlcompile.CompiledQuery`) when the store's
    backend can execute SQL plans (``supports_sql_plans``) and the
    query is expressible as one statement; ``None`` otherwise — the
    caller falls back to the interpreted operator tree. The statement
    joins in :meth:`CardinalityEstimator.join_order
    <repro.stats.estimator.CardinalityEstimator.join_order>` — the very
    order :func:`plan_query` compiles the interpreted tree in — spelled
    ``CROSS JOIN`` so SQLite runs it as written: one planner orders
    both routes, and SQLite's own only picks the index per step.
    Compilation results (including the negative) are cached in the
    store's prepared-plan cache under the ``(query, engine, workers)``
    scheme with :data:`SQL_PUSHDOWN` in the engine slot, so repeated
    workloads pay ordering and SQL generation once per store version;
    any mutation flushes the entry, which also re-validates
    provably-empty compilations whose missing constants may have
    appeared.
    """
    if not getattr(store.backend, "supports_sql_plans", False):
        return None
    entry = _plan_cache_entry(store)
    plans = entry["plans"]
    key = (query, SQL_PUSHDOWN, workers)
    cached = plans.get(key)
    if cached is not None:
        if metrics.enabled:
            metrics.inc("engine.plan_cache.hit")
        return None if cached is _PUSHDOWN_INELIGIBLE else cached
    if metrics.enabled:
        metrics.inc("engine.plan_cache.miss")
    order = _estimator(store, None).join_order(query.atoms)
    compiled = compile_query(query, store, order)
    if len(plans) >= _PLAN_CACHE_LIMIT:
        plans.clear()
    plans[key] = _PUSHDOWN_INELIGIBLE if compiled is None else compiled
    return compiled


def choose_engine(
    query: ConjunctiveQuery,
    store: TripleStore,
    statistics=None,
    pushdown: bool = True,
) -> str:
    """The strategy ``engine="auto"`` resolves to for this query.

    On a backend that executes SQL plans itself, a pushdown-eligible
    query resolves to :data:`SQL_PUSHDOWN` — the whole plan runs as one
    statement inside the backend, which beats any interpreted join
    strategy on a driver-crossing backend. ``pushdown=False`` reports
    the interpreted choice instead (what the operator-tree fallback and
    the tuple-at-a-time path compile). Otherwise the choice is
    cost-based: each candidate — the pure strategies of
    :data:`FIXED_ENGINES` plus, on queries mixing connected and
    Cartesian join steps, the :data:`HYBRID` plan — is priced from the
    estimated input and output cardinality of every join step (see
    :func:`_strategy_costs`). Without an explicit ``statistics``
    provider the choice is cached in the store's prepared-plan cache
    and flushed with it when the store mutates.

    >>> from repro.query.parser import parse_query
    >>> from repro.rdf.ntriples import parse_ntriples
    >>> from repro.rdf.store import TripleStore
    >>> store = TripleStore()
    >>> _ = store.add_all(parse_ntriples('''
    ... <http://e/a> <http://e/knows> <http://e/b> .
    ... <http://e/b> <http://e/knows> <http://e/c> .
    ... '''))
    >>> query = parse_query(
    ...     "q(X, Z) :- t(X, <http://e/knows>, Y), t(Y, <http://e/knows>, Z)")
    >>> choose_engine(query, store) in FIXED_ENGINES + (HYBRID,)
    True
    """
    if statistics is None:
        if pushdown and plan_pushdown(query, store) is not None:
            return SQL_PUSHDOWN
        return _cached_choice(
            _plan_cache_entry(store), query, _estimator(store, None)
        )
    return _select_engine(query, _estimator(store, statistics))


def _cached_choice(
    entry: dict, query: ConjunctiveQuery, estimator: CardinalityEstimator
) -> str:
    """Look up (or derive and cache) the auto choice in a cache entry.

    Shared by :func:`choose_engine` and :func:`plan_query` so the
    lookup/populate/cap logic exists once. Capped like the plan dict:
    a long-lived store serving endless distinct ad-hoc queries must not
    grow the choices dict without bound.
    """
    choices = entry["choices"]
    choice = choices.get(query)
    if choice is None:
        choice = _select_engine(query, estimator)
        if len(choices) >= _PLAN_CACHE_LIMIT:
            choices.clear()
        choices[query] = choice
    return choice


def _natural_pairs(
    left_schema: tuple[str, ...], right_schema: tuple[str, ...]
) -> tuple[list[tuple[int, int]], list[int]]:
    """Natural-join position pairs plus the right positions to keep."""
    pairs = [
        (left_schema.index(column), position)
        for position, column in enumerate(right_schema)
        if column in left_schema
    ]
    keep_right = [
        position
        for position, column in enumerate(right_schema)
        if column not in left_schema
    ]
    return pairs, keep_right


#: Flush threshold for a single store's prepared plans (a workload far
#: larger than anything the selection search produces).
_PLAN_CACHE_LIMIT = 4096


def _plan_cache_entry(store: TripleStore) -> dict:
    """The store's prepared-plan cache entry for its current version.

    Prepared plans live *on the store instance* (operator trees
    reference the store, so an external registry keyed by store could
    never be collected; the instance attribute only forms a reference
    cycle, which the garbage collector handles). A version mismatch
    flushes the whole entry — compiled plans and cost-based engine
    choices alike, since both derive from the statistics of the old
    contents.
    """
    entry = getattr(store, "_engine_plan_cache", None)
    version = store.version
    if entry is None or entry["version"] != version:
        if metrics.enabled and entry is not None:
            metrics.inc("engine.plan_cache.flush")
        entry = {"version": version, "plans": {}, "choices": {}}
        store._engine_plan_cache = entry
    return entry


def plan_query(
    query: ConjunctiveQuery,
    store: TripleStore,
    engine: str = "auto",
    statistics=None,
    workers: int = 1,
) -> Operator:
    """Compile a conjunctive query into a physical operator tree.

    The resulting operator yields rows of dictionary codes whose schema
    covers every body variable (by name); :func:`run_query` adds head
    assembly and decoding. ``engine="auto"`` resolves to the cheapest
    fixed strategy under the cost model (:func:`choose_engine`).

    With ``workers > 1``, hash-join steps whose estimated input and
    build cardinalities reach :data:`PARALLEL_ROW_THRESHOLD` compile to
    the parallel :class:`~repro.engine.operators.PartitionedHashJoin`;
    everything below the threshold keeps the streaming operators, so
    requesting workers never penalizes small queries.

    Plans compiled without an explicit ``statistics`` provider are
    cached per store (prepared-statement style) and reused until the
    store mutates — repeated workload evaluation pays join ordering,
    engine selection and operator construction once.
    """
    _check_engine(engine)
    if statistics is None:
        entry = _plan_cache_entry(store)
        plans = entry["plans"]
        key = (query, engine, workers)
        cached = plans.get(key)
        if cached is not None:
            if metrics.enabled:
                metrics.inc("engine.plan_cache.hit")
            return cached
        if metrics.enabled:
            metrics.inc("engine.plan_cache.miss")
        with tracing.span("engine.plan_query", query=query.name, engine=engine):
            estimator = _estimator(store, None)
            resolved = engine
            if engine == "auto":
                resolved = _cached_choice(entry, query, estimator)
            root = _compile_query(query, store, resolved, estimator, workers)
        if len(plans) >= _PLAN_CACHE_LIMIT:
            plans.clear()
        plans[key] = root
        if metrics.enabled:
            metrics.gauge("engine.plan_cache.size", len(plans))
        return root
    estimator = _estimator(store, statistics)
    resolved = _select_engine(query, estimator) if engine == "auto" else engine
    return _compile_query(query, store, resolved, estimator, workers)


def _compile_query(
    query: ConjunctiveQuery,
    store: TripleStore,
    engine: str,
    estimator: CardinalityEstimator,
    workers: int = 1,
) -> Operator:
    """Compile under one resolved strategy — a fixed engine or
    :data:`HYBRID` (``auto`` is resolved upstream).

    Besides building the tree, compilation annotates every operator
    with its adaptive batch size (from the same estimated cardinalities
    the engine choice prices — consulted only when the caller runs with
    ``batch_size="adaptive"``) and turns on morsel-parallel scanning
    for unsorted leaf scans whose estimate clears
    :data:`MORSEL_PARALLEL_THRESHOLD` when ``workers > 1``. Both
    annotations ride the prepared-plan cache with the tree.
    """
    non_literal = query.non_literal
    variable_schema = tuple(
        sorted({v.name for v in query.variables()})
    )
    for atom in query.atoms:
        for term in atom:
            if not isinstance(term, Variable) and store.encode_term(term) is None:
                # A constant the data never mentions: the whole query is
                # unsatisfiable, no operator needs to run.
                return Empty(variable_schema)
    order = estimator.join_order(query.atoms)
    atoms = query.atoms
    counts = [float(estimator.atom_cardinality(atoms[i])) for i in order]
    prefix = estimator.prefix_cardinalities(atoms, order)
    parallel_steps: set[int] = set()
    if workers > 1 and len(order) > 1:
        # A hash-join step goes parallel-partitioned only when the
        # estimated work (probe input + build side) clears the
        # threshold; small queries keep their streaming joins.
        for step in range(1, len(order)):
            if prefix[step - 1] + counts[step] >= PARALLEL_ROW_THRESHOLD:
                parallel_steps.add(step)

    def scan(atom, estimate: float, sort_by: str | None = None) -> IndexScan:
        leaf = IndexScan(store, atom, non_literal, sort_by=sort_by)
        leaf.preferred_batch_size = _adaptive_batch_size(estimate)
        if (
            workers > 1
            and sort_by is None
            and not leaf._nl
            and estimate >= MORSEL_PARALLEL_THRESHOLD
        ):
            # Morsel-parallel scanning: the scan pulls its matches as
            # pool-projected morsels. Literal-filtered scans stay
            # serial (the filter needs the dictionary in-process).
            leaf.morsel_workers = workers
        return leaf

    def sized(operator: Operator, estimate: float) -> Operator:
        operator.preferred_batch_size = _adaptive_batch_size(estimate)
        return operator

    root: Operator = scan(atoms[order[0]], counts[0])
    for step, index in enumerate(order[1:], start=1):
        atom = atoms[index]
        if engine == "index-nested-loop":
            root = sized(
                IndexNestedLoopJoin(root, store, atom, non_literal), prefix[step]
            )
            continue
        if engine == HYBRID:
            connected = any(
                isinstance(term, Variable) and term.name in root.schema
                for term in atom
            )
            if connected:
                root = sized(
                    IndexNestedLoopJoin(root, store, atom, non_literal),
                    prefix[step],
                )
                continue
            # Cartesian step: fall through to a hash join.
        right: Operator = scan(atom, counts[step])
        pairs, keep_right = _natural_pairs(root.schema, right.schema)
        if engine == "merge":
            if len(pairs) == 1:
                column = right.schema[pairs[0][1]]
                # Feed the merge from the store's sorted permutations
                # when a leaf can produce the order natively.
                if isinstance(root, IndexScan) and root.sort_by != column:
                    root = scan(root.atom, counts[0], sort_by=column)
                right = scan(atom, counts[step], sort_by=column)
                pairs, keep_right = _natural_pairs(root.schema, right.schema)
            root = sized(MergeJoin(root, right, pairs, keep_right), prefix[step])
        elif step in parallel_steps:
            root = sized(
                PartitionedHashJoin(root, right, pairs, keep_right, workers=workers),
                prefix[step],
            )
        else:
            root = sized(HashJoin(root, right, pairs, keep_right), prefix[step])
    return root


def run_query(
    query: ConjunctiveQuery,
    store: TripleStore,
    engine: str = "auto",
    statistics=None,
    batch_size: int | str | None = DEFAULT_BATCH_SIZE,
    workers: int = 1,
    pushdown: bool = True,
    layout: str = "columnar",
) -> set[tuple[Term, ...]]:
    """All answers of the query on the store (set semantics, decoded).

    With ``engine="auto"`` on a SQL-capable backend, an eligible query
    runs as **one pushed-down SQL statement** inside the backend
    (:func:`plan_pushdown`) — the whole join pipeline evaluates next to
    the data and Python decodes one row per distinct head image.
    ``pushdown=False`` forces the interpreted operator tree (the
    measured ablation baseline), as do explicit fixed engines, an
    explicit ``statistics`` provider, and the tuple-at-a-time path
    (``batch_size=None``) — both baselines stay observable.

    Otherwise execution is batched by default: ``layout="columnar"``
    (the default) drives the plan through the vectorized
    ``column_batches`` path and folds whole column batches into the
    answer-image set; ``layout="row"`` keeps the row-list batches of
    PR 4 as the measured ablation baseline. ``batch_size`` sets the
    rows per operator hand-off — an int, or ``"adaptive"`` to let each
    operator use its planner-annotated size; ``batch_size=None``
    selects the tuple-at-a-time path, kept as the measured baseline of
    the batched engine. The answer set is identical on every route.
    ``workers`` enables the parallel partitioned hash join and
    morsel-parallel scans on plans the cost model deems big enough
    (see :func:`plan_query`).

    >>> from repro.query.parser import parse_query
    >>> from repro.rdf.ntriples import parse_ntriples
    >>> from repro.rdf.store import TripleStore
    >>> store = TripleStore()
    >>> _ = store.add_all(parse_ntriples('''
    ... <http://e/a> <http://e/knows> <http://e/b> .
    ... <http://e/b> <http://e/knows> <http://e/c> .
    ... '''))
    >>> query = parse_query(
    ...     "q(X, Z) :- t(X, <http://e/knows>, Y), t(Y, <http://e/knows>, Z)")
    >>> answers = run_query(query, store)
    >>> sorted((s.n3(), o.n3()) for s, o in answers)
    [('<http://e/a>', '<http://e/c>')]
    >>> run_query(query, store, batch_size=None) == answers  # tuple path
    True
    """
    # Observability detour, costing one flag check per query when off:
    # a span, a latency histogram sample, and the slow-query warning.
    if (
        metrics.enabled
        or metrics.slow_query_ms is not None
        or tracing.sink is not None
    ):
        started = time.perf_counter()
        with tracing.span("engine.run_query", query=query.name, engine=engine):
            answers = _run_query(
                query, store, engine, statistics, batch_size, workers,
                pushdown, layout,
            )
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if metrics.enabled:
            metrics.inc("engine.queries")
            metrics.observe("engine.query_ms", elapsed_ms)
        threshold = metrics.slow_query_ms
        if threshold is not None and elapsed_ms > threshold:
            _LOG.warning(
                "slow query %s: %.1f ms (threshold %.0f ms)",
                query.name, elapsed_ms, threshold,
            )
        return answers
    return _run_query(
        query, store, engine, statistics, batch_size, workers, pushdown, layout
    )


#: The selectable batch layouts of the interpreted batched path.
LAYOUTS = ("columnar", "row")


def _check_layout(layout: str) -> None:
    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}; pick from {LAYOUTS}")


def _run_query(
    query: ConjunctiveQuery,
    store: TripleStore,
    engine: str,
    statistics,
    batch_size,
    workers: int,
    pushdown: bool,
    layout: str = "columnar",
) -> set[tuple[Term, ...]]:
    batch_size = _check_batch_size(batch_size)
    _check_layout(layout)
    if (
        pushdown
        and engine == "auto"
        and statistics is None
        and batch_size is not None
    ):
        compiled = plan_pushdown(query, store, workers)
        if compiled is not None:
            if metrics.enabled:
                metrics.inc("engine.route.pushdown")
            return compiled.execute(store)
    if metrics.enabled:
        metrics.inc("engine.route.interpreted")
    root = plan_query(
        query, store, engine=engine, statistics=statistics, workers=workers
    )
    schema = root.schema
    slots: list[int | None] = []
    constants: list[Term | None] = []
    for term in query.head:
        if isinstance(term, Variable):
            slots.append(schema.index(term.name))
            constants.append(None)
        else:
            slots.append(None)
            constants.append(term)
    decode = store.dictionary.decode
    if batch_size is not None and all(slot is not None for slot in slots):
        # Batched fast path for all-variable heads: deduplicate *encoded*
        # head images first, then decode each distinct image once.
        images: set[tuple] = set()
        nbatches = nrows = 0
        if layout == "columnar":
            # Columnar drive: pick the head columns off each batch and
            # fold the whole transposed batch into the image set in one
            # C-speed ``set.update(zip(...))`` — no Python-level row loop.
            for cb in root.column_batches(batch_size):
                nbatches += 1
                nrows += len(cb)
                if slots:
                    images.update(zip(*(cb.columns[slot] for slot in slots)))
                else:
                    images.add(())
        else:
            project = _projector(slots)
            for batch in root.batches(batch_size):
                nbatches += 1
                nrows += len(batch)
                images.update([project(row) for row in batch])
        if metrics.enabled:
            metrics.inc("engine.batch.count", nbatches)
            metrics.inc("engine.batch.rows", nrows)
        decoded_cache: dict[int, Term] = {}
        answers: set[tuple[Term, ...]] = set()
        for image in images:
            answer = []
            for code in image:
                term = decoded_cache.get(code)
                if term is None:
                    term = decode(code)
                    decoded_cache[code] = term
                answer.append(term)
            answers.add(tuple(answer))
        return answers
    rows: Iterable = (
        root
        if batch_size is None
        else (row for batch in root.batches(batch_size) for row in batch)
    )
    answers = set()
    cache: dict[int, Term] = {}
    for row in rows:
        answer = []
        for slot, constant in zip(slots, constants):
            if slot is None:
                answer.append(constant)
            else:
                code = row[slot]
                term = cache.get(code)
                if term is None:
                    term = decode(code)
                    cache[code] = term
                answer.append(term)
        answers.add(tuple(answer))
    return answers


# ----------------------------------------------------------------------
# Rewriting plans against materialized view extents
# ----------------------------------------------------------------------


def _compile_conditions(
    conditions: Sequence[algebra.Condition], schema: tuple[str, ...]
):
    index = {column: position for position, column in enumerate(schema)}
    checks: list[tuple[int, object, int | None]] = []
    for condition in conditions:
        if isinstance(condition, algebra.EqualsConstant):
            checks.append((index[condition.column], condition.value, None))
        else:
            checks.append((index[condition.left], None, index[condition.right]))

    def predicate(row) -> bool:
        for position, value, other in checks:
            if other is None:
                if row[position] != value:
                    return False
            elif row[position] != row[other]:
                return False
        return True

    return predicate


def _term_sort_key(term: Term) -> str:
    return term.n3()


def plan_rewriting(
    plan: algebra.Plan,
    extents: Mapping[str, Sequence[tuple]],
    engine: str = "auto",
) -> Operator:
    """Compile a rewriting plan into a physical operator tree over extents."""
    _check_engine(engine)
    if isinstance(plan, algebra.Scan):
        try:
            rows = extents[plan.view]
        except KeyError as exc:
            raise KeyError(f"no extent provided for view {plan.view!r}") from exc
        return ExtentScan(plan.view, rows, plan.schema)
    if isinstance(plan, algebra.Select):
        child = plan_rewriting(plan.child, extents, engine)
        return Selection(child, _compile_conditions(plan.conditions, child.schema))
    if isinstance(plan, algebra.Project):
        child = plan_rewriting(plan.child, extents, engine)
        positions = [child.schema.index(column) for column in plan.columns]
        return Projection(child, positions, tuple(plan.columns), distinct=True)
    if isinstance(plan, algebra.Rename):
        child = plan_rewriting(plan.child, extents, engine)
        return Relabel(child, tuple(plan.columns))
    left = plan_rewriting(plan.left, extents, engine)
    right = plan_rewriting(plan.right, extents, engine)
    left_schema, right_schema = plan.left.schema, plan.right.schema
    pairs = [
        (left_schema.index(left_col), right_schema.index(right_col))
        for left_col, right_col in plan.all_pairs
    ]
    keep_right = [
        position
        for position, column in enumerate(right_schema)
        if column not in left_schema
    ]
    if engine == "merge":
        return MergeJoin(left, right, pairs, keep_right, value_key=_term_sort_key)
    # auto / index-nested-loop / hash: extents carry no triple indexes to
    # probe, so everything funnels into the (extent-indexed) hash join.
    return HashJoin(left, right, pairs, keep_right)


def run_plan(
    plan: algebra.Plan,
    extents: Mapping[str, Sequence[tuple]],
    engine: str = "auto",
    batch_size: int | str | None = DEFAULT_BATCH_SIZE,
) -> list[tuple]:
    """Execute a rewriting plan over view extents.

    Matches the historical ``algebra.execute`` contract: duplicates are
    preserved except through ``Project``, and with the default engine
    the row order is exactly the seed's (scan order, hash joins
    streaming the left input) — the batched operators preserve that
    order, so ``batch_size`` only moves speed. ``batch_size=None``
    selects the tuple-at-a-time path; ``"adaptive"`` degrades to the
    default size here (rewriting plans carry no cardinality estimates).

    >>> from repro.query.algebra import Join, Scan
    >>> extents = {"v1": [(1, 2), (4, 5)], "v2": [(2, 3)]}
    >>> plan = Join(Scan("v1", ("x", "y")), Scan("v2", ("y", "z")))
    >>> run_plan(plan, extents)
    [(1, 2, 3)]
    """
    batch_size = _check_batch_size(batch_size)
    root = plan_rewriting(plan, extents, engine)
    if batch_size is None:
        return list(root)
    return root.rows_batched(batch_size)
