"""Multi-query optimization: shared-subplan execution across batches.

Reformulation turns one query into a union of conjunctive queries whose
bodies overlap heavily (Section 4.2: every rule rewrites one atom and
keeps the rest), and a served workload is many simultaneous,
highly-overlapping queries. Evaluating each one independently re-runs
identical scans and join subtrees dozens of times. Following the GLADE
MQO design — detect shared work across a batch, execute each shared
subplan once, fan results out — this module:

1. **fingerprints join-tree prefixes**: each query's atoms are put in
   the estimator's join order once (exactly what :func:`plan_query`
   compiles), and every prefix of that order becomes a headless
   subquery whose canonical form
   (:func:`repro.query.containment.canonical_labeling`) is its
   fingerprint. Two prefixes share a fingerprint iff they are
   isomorphic *including* constants and rule-4 restrictions, so
   isomorphic-looking-but-distinct subtrees never unify;
2. **assembles a shared-subplan DAG**: a fingerprint consumed by ≥ 2
   queries becomes a :class:`SharedNode`, cost-gated — re-executing the
   subtree ``n`` times must be priced above materializing its rows once
   (:data:`MATERIALIZE_COST_FACTOR`). Longer nodes start from shorter
   materialized nodes, so sharing nests;
3. **executes each node once** and fans out: node rows are materialized
   as encoded rows behind an
   :class:`~repro.engine.operators.ExtentScan` (the ordinary batch
   contract), relabeled per consumer through the canonical-index
   correspondence, and each consumer joins only its remaining atoms
   (:func:`repro.engine.planner._join_tree`, the planner's one plan
   shape) and folds head images exactly like ``run_query``;
4. **merges encoded answers**: consumers produce *images* (dictionary
   codes, with constant head terms attached) that are deduplicated
   across the whole batch/union before :func:`decode_images` decodes
   each distinct answer once.

Four consumers sit on top: :func:`run_query_batch` (independent
queries, the server-mode hook), ``evaluate_union`` in
:mod:`repro.query.evaluation` (flat unions; a deferred reformulation
union on the interpreted route runs factorised instead and never
reaches the DAG), :func:`count_union` (the size of a union's answer
and nothing else, never decoded — what
``ReformulationAwareStatistics`` gathers its counts with), and
:func:`plan_union_pushdown`, the route a union takes on a SQL-capable
backend: one prepared statement per distinct disjunct, encoded answers
merged union-wide, and every branch over a shared prefix that a single
``SELECT EXISTS`` probe finds empty skipped outright. The route is
cached in the store's prepared-plan cache and flushed on mutation,
like every other prepared plan.

``shared=False`` runs every query independently through ``run_query`` —
the reference the sharing tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.engine.operators import ExtentScan, Operator, UnionScan
from repro.engine.planner import (
    _PLAN_CACHE_LIMIT,
    _estimator,
    _images_from_root,
    _join_tree,
    _plan_cache_entry,
    decode_images,
    factorised_images,
    factorised_route,
    plan_pushdown,
    plan_query,
    run_query,
)
from repro.obs import metrics, tracing
from repro.query.cq import Atom, ConjunctiveQuery, UnionQuery, Variable
from repro.query.containment import canonical_labeling
from repro.rdf.store import TripleStore
from repro.rdf.terms import Term

__all__ = [
    "BatchPlan",
    "SharedNode",
    "MATERIALIZE_COST_FACTOR",
    "MQO_DAG",
    "count_union",
    "decode_images",
    "evaluate_union_shared",
    "plan_batch",
    "plan_union_pushdown",
    "run_query_batch",
]

#: Token under which shared-subplan DAGs live in the prepared-plan
#: cache (keyed by the tuple of distinct batch queries).
MQO_DAG = "mqo-dag"

#: Cache token for a union's route (keyed by the raw disjunct tuple, so
#: repeated evaluations of the same union — a served or re-run query —
#: skip deduplication, compilation and probing).
_UNION_ROUTE = "mqo-union-route"

#: Cost gate: a subtree consumed by ``n`` plans is shared only when
#: ``(n - 1) * exec_cost > MATERIALIZE_COST_FACTOR * rows_out`` — the
#: estimator must price the *avoided* re-executions above the overhead
#: of materializing (building + re-scanning) its output rows. A cheap,
#: wide subtree (one full scan feeding two consumers) stays unshared;
#: the same scan feeding many consumers, or any subtree whose joins do
#: real work, crosses the gate.
MATERIALIZE_COST_FACTOR = 2.0

#: Per-row factor of an index-nested-loop probe in the gate's cost walk:
#: a probe fills a fresh pattern per input row before the index lookup,
#: which costs more than streaming a row. Only the ratio against
#: materialization matters.
_PROBE_COST = 2.0


# ----------------------------------------------------------------------
# Fingerprinting and the shared-subplan DAG
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _PrefixInfo:
    """Fingerprint of one join-order prefix of one query.

    ``key`` is the canonical form of the prefix as a headless subquery
    (atoms + the rule-4 restrictions it binds), ``assignment`` maps the
    query's prefix variables to their canonical indices — the column
    correspondence consumers relabel materialized node rows through.
    """

    key: tuple
    assignment: tuple[tuple[Variable, int], ...]


@dataclass(frozen=True)
class QueryPlan:
    """One query's sharing-relevant shape inside a batch plan."""

    query: ConjunctiveQuery
    #: Body atoms in the estimator's join order.
    ordered_atoms: tuple[Atom, ...]
    #: ``prefixes[k - 1]`` fingerprints ``ordered_atoms[:k]``.
    prefixes: tuple[_PrefixInfo, ...]


@dataclass(frozen=True)
class SharedNode:
    """One shared join subtree, executed once per batch run."""

    key: tuple
    #: Representative prefix (the first consumer's atoms, in order).
    atoms: tuple[Atom, ...]
    #: Rule-4 restriction of the representative prefix.
    non_literal: frozenset[Variable]
    #: Representative variable -> canonical column index.
    assignment: tuple[tuple[Variable, int], ...]
    #: The representative's shorter prefixes — a longer node starts
    #: from the longest already-materialized one (DAG nesting).
    prefixes: tuple[_PrefixInfo, ...]
    #: Number of batch queries whose longest gated prefix this is.
    consumers: int
    #: Estimated execution cost / output rows behind the gate decision.
    est_cost: float
    est_rows: float

    @property
    def length(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class BatchPlan:
    """The shared-subplan DAG for one batch of distinct queries."""

    queries: tuple[ConjunctiveQuery, ...]
    plans: tuple[QueryPlan, ...]
    #: Executed nodes, shortest first (so nesting finds its leaves).
    nodes: tuple[SharedNode, ...]

    def sharing_summary(self) -> tuple[int, int]:
        """``(shared nodes, queries consuming one)`` — for explain."""
        keys = {node.key for node in self.nodes}
        consuming = sum(
            1
            for plan in self.plans
            if any(info.key in keys for info in plan.prefixes)
        )
        return len(self.nodes), consuming


def _dedupe(queries: Iterable[ConjunctiveQuery]) -> tuple[ConjunctiveQuery, ...]:
    """Distinct queries, first occurrence order (equality ignores names)."""
    seen: dict[ConjunctiveQuery, None] = {}
    for query in queries:
        seen.setdefault(query)
    return tuple(seen)


def _prefix_query(
    atoms: tuple[Atom, ...], non_literal: frozenset[Variable]
) -> ConjunctiveQuery:
    """A prefix as a headless subquery (restrictions auto-restricted to
    the prefix's own variables by the query constructor)."""
    return ConjunctiveQuery((), atoms, name="mqo-prefix", non_literal=non_literal)


def _prefix_cost(estimator, atoms: tuple[Atom, ...]) -> tuple[float, float]:
    """``(estimated execution cost, estimated output rows)`` of a prefix.

    An index-nested-loop walk over the already-ordered atoms — the
    shape the planner builds — priced from the estimator's prefix
    cardinalities.
    """
    order = list(range(len(atoms)))
    counts = [float(estimator.atom_cardinality(atom)) for atom in atoms]
    prefix = estimator.prefix_cardinalities(atoms, order)
    cost = counts[0]
    bound = set(atoms[0].variables())
    for step in range(1, len(atoms)):
        rows_in, rows_out = prefix[step - 1], prefix[step]
        if atoms[step].variables() & bound:
            cost += rows_in * _PROBE_COST + rows_out
        else:
            cost += rows_in * max(counts[step], 1.0) + rows_out
        bound |= atoms[step].variables()
    return cost, max(prefix[-1], 1.0)


def _build_batch_plan(
    queries: tuple[ConjunctiveQuery, ...], estimator
) -> BatchPlan:
    plans: list[QueryPlan] = []
    for query in queries:
        order = estimator.join_order(query.atoms)
        ordered = tuple(query.atoms[index] for index in order)
        prefixes: list[_PrefixInfo] = []
        for k in range(1, len(ordered) + 1):
            sub = _prefix_query(ordered[:k], query.non_literal)
            form, assignment = canonical_labeling(sub, include_head=False)
            prefixes.append(
                _PrefixInfo(form, tuple(sorted(assignment.items(), key=lambda kv: kv[1])))
            )
        plans.append(QueryPlan(query, ordered, tuple(prefixes)))

    # Count potential consumers per fingerprint (prefixes of one query
    # all have distinct lengths, hence distinct keys — at most one vote
    # per query per key) and keep the first consumer as representative.
    consumers: dict[tuple, int] = {}
    representative: dict[tuple, tuple[QueryPlan, int]] = {}
    for plan in plans:
        for k, info in enumerate(plan.prefixes, start=1):
            consumers[info.key] = consumers.get(info.key, 0) + 1
            representative.setdefault(info.key, (plan, k))

    # Cost gate: sharing must be priced cheaper than re-execution.
    candidates: dict[tuple, tuple[QueryPlan, int, int, float, float]] = {}
    for key, count in consumers.items():
        if count < 2:
            continue
        plan, k = representative[key]
        cost, rows = _prefix_cost(estimator, plan.ordered_atoms[:k])
        if (count - 1) * cost > MATERIALIZE_COST_FACTOR * rows:
            candidates[key] = (plan, k, count, cost, rows)

    # Each query consumes its longest gated prefix; only chosen nodes
    # execute (a gated key no query picks would materialize for nobody).
    chosen: set[tuple] = set()
    for plan in plans:
        for k in range(len(plan.prefixes), 0, -1):
            if plan.prefixes[k - 1].key in candidates:
                chosen.add(plan.prefixes[k - 1].key)
                break
    nodes: list[SharedNode] = []
    for key in chosen:
        plan, k, count, cost, rows = candidates[key]
        sub = _prefix_query(plan.ordered_atoms[:k], plan.query.non_literal)
        nodes.append(
            SharedNode(
                key=key,
                atoms=plan.ordered_atoms[:k],
                non_literal=sub.non_literal,
                assignment=plan.prefixes[k - 1].assignment,
                prefixes=plan.prefixes[: k - 1],
                consumers=count,
                est_cost=cost,
                est_rows=rows,
            )
        )
    nodes.sort(key=lambda node: (node.length, node.key))
    return BatchPlan(tuple(queries), tuple(plans), tuple(nodes))


def plan_batch(
    queries: Sequence[ConjunctiveQuery],
    store: TripleStore,
    statistics=None,
) -> BatchPlan:
    """The shared-subplan DAG for a batch of queries on a store.

    Pure structure — fingerprints, chosen nodes, column correspondences
    — with no materialized rows, so it is cached in the store's
    prepared-plan cache (keyed by the tuple of distinct queries under
    the :data:`MQO_DAG` token) and flushed on mutation like every
    other prepared plan: join orders and the cost gate both derive from
    the store's statistics.
    """
    distinct = _dedupe(queries)
    if statistics is not None:
        return _build_batch_plan(distinct, _estimator(store, statistics))
    entry = _plan_cache_entry(store)
    plans = entry["plans"]
    key = (distinct, MQO_DAG)
    cached = plans.get(key)
    if cached is not None:
        if metrics.enabled:
            metrics.inc("engine.plan_cache.hit")
        return cached
    if metrics.enabled:
        metrics.inc("engine.plan_cache.miss")
    built = _build_batch_plan(distinct, _estimator(store, None))
    if len(plans) >= _PLAN_CACHE_LIMIT:
        plans.clear()
    plans[key] = built
    return built


# ----------------------------------------------------------------------
# Shared execution: materialize nodes once, fan out images
# ----------------------------------------------------------------------


@dataclass
class _CompiledNode:
    """One shared node's reusable operator tree.

    ``leaf`` is the swappable :class:`ExtentScan` the tree starts from
    when the node nests on a shorter one (``leaf_key`` names it);
    ``columns`` maps canonical column index -> output row position.
    """

    key: tuple
    root: Operator
    leaf: ExtentScan | None
    leaf_key: tuple | None
    columns: dict[int, int]


@dataclass
class _CompiledConsumer:
    """One query's reusable tree over its longest applicable node.

    ``root is None`` means no node applies — the query runs its
    ordinary (itself cached) :func:`plan_query` plan.
    """

    query: ConjunctiveQuery
    root: Operator | None
    leaf: ExtentScan | None
    leaf_key: tuple | None


@dataclass
class _CompiledBatch:
    """The batch plan compiled to operator trees, cached per store.

    Trees are built once and re-executed by swapping each run's
    materialized node rows into the leaf scans — the shared-execution
    analogue of the prepared-plan cache, flushed with it on mutation.
    """

    nodes: list[_CompiledNode]
    consumers: list[_CompiledConsumer]


def _compile_leaf(
    prefixes: Sequence[_PrefixInfo],
    compiled: dict[tuple, _CompiledNode],
) -> tuple[ExtentScan | None, int, tuple | None]:
    """A scan over the longest compiled node covering a prefix chain.

    The scan's schema is relabeled to the consumer's variable names
    through the canonical-index correspondence; its rows are swapped in
    per execution. Returns ``(None, 0, None)`` when no node applies.
    """
    for k in range(len(prefixes), 0, -1):
        info = prefixes[k - 1]
        node = compiled.get(info.key)
        if node is None:
            continue
        index_to_name = {index: variable.name for variable, index in info.assignment}
        schema: list[str] = [""] * len(node.columns)
        for index, position in node.columns.items():
            schema[position] = index_to_name[index]
        return ExtentScan(f"mqo-node[{k}]", (), tuple(schema)), k, info.key
    return None, 0, None


def _compile_batch(plan: BatchPlan, store: TripleStore) -> _CompiledBatch:
    """Compile the DAG's nodes and consumers to reusable operator trees."""
    compiled: dict[tuple, _CompiledNode] = {}
    nodes: list[_CompiledNode] = []
    for node in plan.nodes:
        leaf, covered, leaf_key = _compile_leaf(node.prefixes, compiled)
        root = _join_tree(store, leaf, node.atoms[covered:], node.non_literal)
        by_name = {variable.name: index for variable, index in node.assignment}
        columns = {
            by_name[name]: position for position, name in enumerate(root.schema)
        }
        entry = _CompiledNode(node.key, root, leaf, leaf_key, columns)
        compiled[node.key] = entry
        nodes.append(entry)
    consumers: list[_CompiledConsumer] = []
    for qplan in plan.plans:
        leaf, covered, leaf_key = _compile_leaf(qplan.prefixes, compiled)
        root = None
        if leaf is not None:
            root = _join_tree(
                store, leaf, qplan.ordered_atoms[covered:], qplan.query.non_literal
            )
        consumers.append(_CompiledConsumer(qplan.query, root, leaf, leaf_key))
    return _CompiledBatch(nodes, consumers)


def _compiled_batch(plan: BatchPlan, store: TripleStore) -> _CompiledBatch:
    """The compiled trees for ``plan``, cached in the prepared-plan
    cache (so repeated shared evaluation pays operator construction
    once, exactly like :func:`plan_query` does for single plans)."""
    entry = _plan_cache_entry(store)
    plans = entry["plans"]
    key = (plan.queries, MQO_DAG, "compiled")
    cached = plans.get(key)
    if cached is not None:
        return cached
    built = _compile_batch(plan, store)
    if len(plans) >= _PLAN_CACHE_LIMIT:
        plans.clear()
    plans[key] = built
    return built


def _batch_images(plan: BatchPlan, store: TripleStore) -> list[set[tuple]]:
    """Encoded head images per distinct query, via the shared DAG.

    Nodes materialize shortest-first, each starting from the longest
    already-materialized node among its own prefixes; consumers then
    scan the longest applicable node and join only their remaining
    atoms. Queries touching no node run their ordinary cached plan.
    The operator trees themselves come from the compiled-batch cache —
    each execution only swaps the freshly materialized rows into the
    leaf scans.
    """
    compiled = _compiled_batch(plan, store)
    materialized: dict[tuple, list] = {}
    for node in compiled.nodes:
        if node.leaf is not None:
            node.leaf._rows = materialized[node.leaf_key]
        materialized[node.key] = node.root.rows()
    if metrics.enabled and compiled.nodes:
        metrics.inc("mqo.shared_nodes.materialized", len(compiled.nodes))
        metrics.inc(
            "mqo.shared_nodes.rows",
            sum(len(rows) for rows in materialized.values()),
        )
    out: list[set[tuple]] = []
    for consumer in compiled.consumers:
        if consumer.root is None:
            root = plan_query(consumer.query, store)
        else:
            consumer.leaf._rows = materialized[consumer.leaf_key]
            root = consumer.root
        out.append(_images_from_root(consumer.query, root, store))
    # Drop row references so cached trees don't pin this run's
    # materialized batches in memory.
    for node in compiled.nodes:
        if node.leaf is not None:
            node.leaf._rows = ()
    for consumer in compiled.consumers:
        if consumer.leaf is not None:
            consumer.leaf._rows = ()
    return out


# ----------------------------------------------------------------------
# The union route: per-branch statements behind empty-prefix probes
# ----------------------------------------------------------------------


#: Sentinel marking a union branch whose shared prefix was probed
#: empty at route-build time: the branch provably has no answers on
#: this store version and its statement is never executed.
_EMPTY_BRANCH = object()


def _empty_node_keys(batch: BatchPlan, store: TripleStore) -> frozenset:
    """Keys of shared nodes whose prefixes have no matches right now.

    Each node's prefix runs once as a ``SELECT EXISTS`` probe — the
    shared subplan executed exactly once, its (empty) result fanned out
    to every consumer. The probe ignores the rule-4 residue filter, so
    it checks a *superset* of the filtered prefix: ``EXISTS`` false is
    therefore a sound proof that every consuming branch is empty. A
    node extending an already-empty shorter node inherits emptiness
    without a probe.
    """
    empty: set = set()
    for node in batch.nodes:
        if any(info.key in empty for info in node.prefixes[:-1]):
            empty.add(node.key)
            continue
        prefix = _prefix_query(node.atoms, node.non_literal)
        head = sorted(prefix.variables(), key=lambda v: v.name)[:1]
        if not head:
            continue
        probe = ConjunctiveQuery(
            tuple(head),
            node.atoms,
            name="mqo-probe",
            non_literal=node.non_literal,
        )
        compiled = plan_pushdown(probe, store)
        if compiled is None:
            continue
        if compiled.sql is None:
            empty.add(node.key)
            continue
        rows = store.backend.execute_sql_plan(
            f"SELECT EXISTS ({compiled.sql})", compiled.params
        )
        if not next(iter(rows))[0]:
            empty.add(node.key)
    return frozenset(empty)


def plan_union_pushdown(
    disjuncts: Sequence[ConjunctiveQuery], store: TripleStore
) -> tuple[tuple[ConjunctiveQuery, ...], tuple]:
    """The route a union takes on ``store``: ``(distinct, branches)``.

    ``distinct`` are the deduplicated disjuncts and ``branches`` aligns
    with them: a disjunct's compiled statement
    (:func:`~repro.engine.planner.plan_pushdown`), ``None`` when it
    runs on the interpreted shared DAG (a backend without SQL, a shape
    one statement cannot express), or :data:`_EMPTY_BRANCH` when one of
    its shared prefixes probed empty (:func:`_empty_node_keys`) and the
    branch is skipped outright. Cached in the prepared-plan cache under
    the raw disjunct tuple — re-evaluating the same union is a single
    dictionary hit, counted as an ``engine.plan_cache`` hit — and
    flushed on store mutation with every other prepared plan.
    """
    plans = _plan_cache_entry(store)["plans"]
    key = (tuple(disjuncts), _UNION_ROUTE)
    route = plans.get(key)
    if route is not None:
        if metrics.enabled:
            metrics.inc("mqo.route.hit")
            metrics.inc("engine.plan_cache.hit")
        return route
    if metrics.enabled:
        metrics.inc("mqo.route.miss")
        metrics.inc("engine.plan_cache.miss")
    distinct = _dedupe(disjuncts)
    branches = [plan_pushdown(d, store) for d in distinct]
    if getattr(store.backend, "supports_sql_plans", False):
        batch = plan_batch(distinct, store)
        empty = _empty_node_keys(batch, store)
        if empty:
            dead = {
                plan.query
                for plan in batch.plans
                if any(info.key in empty for info in plan.prefixes)
            }
            if metrics.enabled:
                metrics.inc("mqo.route.pruned_empty", len(dead))
            branches = [
                _EMPTY_BRANCH if disjunct in dead else branch
                for branch, disjunct in zip(branches, distinct)
            ]
    route = (distinct, tuple(branches))
    if len(plans) >= _PLAN_CACHE_LIMIT:
        plans.clear()
    plans[key] = route
    return route


# ----------------------------------------------------------------------
# Public consumers
# ----------------------------------------------------------------------


def evaluate_union_shared(
    disjuncts: UnionQuery | Sequence[ConjunctiveQuery],
    store: TripleStore,
    pushdown: bool = True,
) -> set[tuple[Term, ...]]:
    """All answers of a union (its disjuncts, or the union itself),
    evaluated as one shared batch.

    A deferred reformulation union on the interpreted route (a backend
    without SQL, or ``pushdown=False``) runs factorised: its source
    query's atoms, each a union of its own reformulation, joined once
    (:func:`~repro.engine.planner.plan_factorised`) — the flat
    disjuncts are never built. Otherwise, on a SQL-capable backend each
    disjunct runs its own prepared statement
    (:func:`plan_union_pushdown`); shared DAG prefixes are probed once
    with ``SELECT EXISTS`` when the route is built, and every branch
    over an empty prefix is skipped outright (:func:`_empty_node_keys`).
    Disjuncts no statement can express — and every disjunct of a flat
    union on the interpreted route — share the interpreted DAG. Every
    route merges encoded answer images across the *whole* union and
    decodes each distinct answer exactly once.
    """
    if factorised_route(disjuncts, store, pushdown):
        with tracing.span(
            "engine.evaluate_factorised", atoms=len(disjuncts.source.atoms)
        ):
            return decode_images(factorised_images(disjuncts, store), store)
    if isinstance(disjuncts, UnionQuery):
        disjuncts = disjuncts.disjuncts
    if tracing.sink is not None:
        with tracing.span("mqo.evaluate_union", disjuncts=len(disjuncts)):
            return _evaluate_union_impl(disjuncts, store, pushdown)
    return _evaluate_union_impl(disjuncts, store, pushdown)


def _evaluate_union_impl(
    disjuncts: Sequence[ConjunctiveQuery], store: TripleStore, pushdown: bool
) -> set[tuple[Term, ...]]:
    if pushdown:
        distinct, branches = plan_union_pushdown(disjuncts, store)
    else:
        distinct = _dedupe(disjuncts)
        branches = (None,) * len(distinct)
    return decode_images(_branch_images(distinct, branches, store), store)


def _branch_images(
    distinct: Sequence[ConjunctiveQuery], branches: Sequence, store: TripleStore
) -> set[tuple]:
    """Distinct encoded head images of a union, before any decoding.

    ``branches`` aligns with ``distinct`` (see
    :func:`plan_union_pushdown`): a compiled statement runs in the
    backend, an empty-prefix branch is skipped, and the rest (``None``)
    share the interpreted DAG.
    """
    images: set[tuple] = set()
    interpreted: list[ConjunctiveQuery] = []
    executed = pruned = 0
    for branch, disjunct in zip(branches, distinct):
        if branch is _EMPTY_BRANCH:
            pruned += 1
        elif branch is not None:
            images |= branch.images(store)
            executed += 1
        else:
            interpreted.append(disjunct)
    if metrics.enabled:
        if executed:
            metrics.inc("mqo.route.per_branch")
        if pruned:
            metrics.inc("mqo.route.branch_pruned", pruned)
    if interpreted:
        if metrics.enabled:
            metrics.inc("mqo.route.shared")
        batch = plan_batch(interpreted, store)
        for image_set in _batch_images(batch, store):
            images |= image_set
    return images


def count_union(
    union: UnionQuery | Iterable[ConjunctiveQuery], store: TripleStore
) -> int:
    """``len(evaluate_union(union, store))`` without producing an answer.

    The statistics collector's kernel (Section 4.3 needs
    ``|Reformulate(v, S)|``, never the answers): images stay dictionary
    codes and nothing is decoded. A union of one-atom queries — what
    reformulating a one-atom query yields — has no join to plan and is
    counted as the distinct rows of one :class:`UnionScan`, on every
    backend (a deferred union of one atom from its memoised
    alternatives). Any other union takes the routes of
    :func:`evaluate_union_shared` up to the decode.
    """
    if isinstance(union, UnionQuery) and (
        factorised_route(union, store)
        or (union.source is not None and len(union.source.atoms) == 1)
    ):
        return len(factorised_images(union, store))
    disjuncts = union.disjuncts if isinstance(union, UnionQuery) else union
    distinct = _dedupe(disjuncts)
    if all(len(query.atoms) == 1 for query in distinct):
        columns = tuple(f"h{index}" for index in range(len(distinct[0].head)))
        return len(UnionScan(store, columns, distinct).distinct())
    distinct, branches = plan_union_pushdown(distinct, store)
    return len(_branch_images(distinct, branches, store))


def run_query_batch(
    queries: Sequence[ConjunctiveQuery],
    store: TripleStore,
    shared: bool = True,
    pushdown: bool = True,
) -> list[set[tuple[Term, ...]]]:
    """Answer a batch of independent queries, sharing work across them.

    Returns one answer set per input query, in input order — exactly
    what ``[run_query(q, store) for q in queries]`` returns, but
    common join subtrees across the batch execute once
    (:func:`plan_batch`) and duplicate queries are answered once. This
    is the cross-client batching hook for server mode.

    With ``shared=False`` (the reference the sharing tests compare
    against) every distinct query runs independently through
    :func:`run_query`. On a SQL-capable backend, pushdown-eligible
    queries keep their single-statement route — it beats interpreted
    sharing — and the DAG shares work among the rest.

    >>> from repro.query.parser import parse_query
    >>> from repro.rdf.ntriples import parse_ntriples
    >>> from repro.rdf.store import TripleStore
    >>> store = TripleStore()
    >>> _ = store.add_all(parse_ntriples('''
    ... <http://e/a> <http://e/knows> <http://e/b> .
    ... <http://e/b> <http://e/knows> <http://e/c> .
    ... '''))
    >>> batch = [
    ...     parse_query("q1(X, Z) :- t(X, <http://e/knows>, Y), "
    ...                 "t(Y, <http://e/knows>, Z)"),
    ...     parse_query("q2(Y) :- t(<http://e/a>, <http://e/knows>, Y)"),
    ... ]
    >>> [len(answers) for answers in run_query_batch(batch, store)]
    [1, 1]
    >>> run_query_batch(batch, store, shared=False) == run_query_batch(
    ...     batch, store)
    True
    """
    queries = list(queries)
    if not queries:
        return []
    if tracing.sink is not None:
        with tracing.span("engine.run_query_batch", queries=len(queries)):
            return _run_query_batch_impl(queries, store, shared, pushdown)
    return _run_query_batch_impl(queries, store, shared, pushdown)


def _run_query_batch_impl(
    queries: list[ConjunctiveQuery],
    store: TripleStore,
    shared: bool,
    pushdown: bool,
) -> list[set[tuple[Term, ...]]]:
    answers: dict[ConjunctiveQuery, set[tuple[Term, ...]]] = {}
    if not shared:
        for query in _dedupe(queries):
            answers[query] = run_query(query, store, pushdown=pushdown)
        return [answers[query] for query in queries]
    interpreted: list[ConjunctiveQuery] = []
    for query in _dedupe(queries):
        compiled = plan_pushdown(query, store) if pushdown else None
        if compiled is not None:
            answers[query] = compiled.execute(store)
        else:
            interpreted.append(query)
    if interpreted:
        batch = plan_batch(interpreted, store)
        images = _batch_images(batch, store)
        for query, image_set in zip(batch.queries, images):
            answers[query] = decode_images(image_set, store)
    return [answers[query] for query in queries]


def describe_union_sharing(
    disjuncts: UnionQuery | Sequence[ConjunctiveQuery], store: TripleStore
) -> str:
    """One-line accounting of a union's route for ``--explain``: the
    factorised form's atoms and alternatives per atom, or the flat
    form's shared subplans (and branch statements on SQL)."""
    if factorised_route(disjuncts, store):
        from repro.reformulation.reformulate import factorise

        counts = [
            len(part.alternatives)
            for part in factorise(disjuncts.source, disjuncts.schema)
        ]
        return (
            f"factorised: {len(counts)} atoms, "
            f"{'×'.join(map(str, counts))} alternatives"
        )
    if isinstance(disjuncts, UnionQuery):
        disjuncts = disjuncts.disjuncts
    distinct = _dedupe(disjuncts)
    batch = plan_batch(distinct, store)
    nodes, consuming = batch.sharing_summary()
    line = (
        f"{len(tuple(disjuncts))} disjuncts ({len(distinct)} distinct), "
        f"{nodes} shared subplans covering {consuming} disjuncts"
    )
    if getattr(store.backend, "supports_sql_plans", False):
        _, branches = plan_union_pushdown(disjuncts, store)
        statements = sum(
            getattr(branch, "sql", None) is not None for branch in branches
        )
        pruned = sum(branch is _EMPTY_BRANCH for branch in branches)
        line += f"; pushdown union: {statements} branch statements"
        if pruned:
            line += f", {pruned} branches pruned empty"
    return line
