"""Plan compilation: queries on a triple store into physical operators.

:func:`plan_query` / :func:`run_query` compile a
:class:`~repro.query.cq.ConjunctiveQuery` against a
:class:`~repro.rdf.store.TripleStore` into the physical operator
algebra of :mod:`repro.engine.operators`. (A rewriting over view
extents is not compiled here: :func:`repro.query.algebra.execute`
folds it.)

There is one plan shape on a store, built by :func:`_factorised_tree`:
a left-deep join of *atom unions*, one per body atom, ordered **once**
by the shared :class:`~repro.stats.estimator.CardinalityEstimator` over
the store's incrementally maintained catalog. The first union is read
by a :class:`UnionScan`, a connected one is probed per key by a
:class:`UnionProbe`, a Cartesian one is hash-joined over a fresh
:class:`UnionScan`. A reformulation union (:func:`plan_factorised`)
gives each atom the alternatives of its own reformulation — on the
interpreted route always, on SQL unless :func:`factorised_route` keeps
it flat. A conjunctive query (:func:`plan_query`) is the degenerate
case: each atom's one alternative is the atom itself. The
index-nested-loop tree that conjunctive queries had of their own, and
the cost-based choice among join algorithms before it, are retired
(docs/benchmarks.md, "Retired paths").

On storage backends that are SQL engines themselves (the SQLite
backend) there is a second physical route next to the operator tree:
**whole-plan SQL pushdown**. :func:`plan_pushdown` compiles the entire
conjunctive query — self-joins, constant selections, head projection,
DISTINCT — into one SQL statement (:mod:`repro.engine.sqlcompile`)
executed inside the backend, and :func:`run_query` prefers it whenever
the query is expressible; shapes SQL cannot express and
``pushdown=False`` (the reference tests compare against) take the
operator tree. Compiled statements live in the same prepared-plan
cache as operator trees, keyed ``(query, route)`` —
:data:`SQL_PUSHDOWN` or :data:`INTERPRETED` — and are flushed with it
when the store mutates.

Execution is columnar; see :mod:`repro.engine.operators` for the batch
contract.
"""

from __future__ import annotations

import logging
import math
import time
from itertools import repeat
from typing import Collection, Iterable, Mapping, Sequence

from repro.engine.operators import (
    HashJoin,
    Operator,
    UnionProbe,
    UnionScan,
    _head_value,
    fill_template,
    template_columns,
)
from repro.engine.sqlcompile import CompiledQuery, compile_query
from repro.obs import metrics, tracing
from repro.query.cq import ConjunctiveQuery, Variable
from repro.rdf.store import TripleStore
from repro.rdf.terms import Term
from repro.stats.estimator import CardinalityEstimator
from repro.stats.provider import CatalogStatistics, atom_pattern

_LOG = logging.getLogger("repro.engine")

#: The whole-plan SQL pushdown route: the entire conjunctive query runs
#: as one SQL statement inside the storage backend. Also the token
#: under which compiled statements are cached.
SQL_PUSHDOWN = "sql-pushdown"

#: The operator-tree route (and the cache token of compiled trees).
INTERPRETED = "interpreted"

#: The interpreted route of a reformulation union: the source query's
#: atoms, each a union of its own reformulation, joined once (and the
#: cache token of those trees).
FACTORISED = "factorised"


# ----------------------------------------------------------------------
# Conjunctive queries against a triple store
# ----------------------------------------------------------------------


def _estimator(store: TripleStore) -> CardinalityEstimator:
    """The estimator join ordering runs on: it reads the store's own
    incrementally maintained catalog — exact pattern counts, O(1) per
    lookup, memoized per store version."""
    return CardinalityEstimator(CatalogStatistics(store.stats))


#: Cache marker for "compiled before, not expressible as one statement"
#: — distinguishes a cached negative from a cache miss.
_PUSHDOWN_INELIGIBLE = object()


def plan_pushdown(query: ConjunctiveQuery, store: TripleStore) -> CompiledQuery | None:
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
    store's prepared-plan cache under ``(query, SQL_PUSHDOWN)``, so
    repeated workloads pay ordering and SQL generation once per store
    version; any mutation flushes the entry, which also re-validates
    provably-empty compilations whose missing constants may have
    appeared.
    """
    if not getattr(store.backend, "supports_sql_plans", False):
        return None
    plans = _plan_cache_entry(store)["plans"]
    key = (query, SQL_PUSHDOWN)
    cached = plans.get(key)
    if cached is not None:
        if metrics.enabled:
            metrics.inc("engine.plan_cache.hit")
        return None if cached is _PUSHDOWN_INELIGIBLE else cached
    if metrics.enabled:
        metrics.inc("engine.plan_cache.miss")
    order = _estimator(store).join_order(query.atoms)
    compiled = compile_query(query, store, order)
    if len(plans) >= _PLAN_CACHE_LIMIT:
        plans.clear()
    plans[key] = _PUSHDOWN_INELIGIBLE if compiled is None else compiled
    return compiled


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
    flushes the whole entry: join orders derive from the statistics of
    the old contents.
    """
    entry = getattr(store, "_engine_plan_cache", None)
    version = store.version
    if entry is None or entry["version"] != version:
        if metrics.enabled and entry is not None:
            metrics.inc("engine.plan_cache.flush")
        entry = {"version": version, "plans": {}}
        store._engine_plan_cache = entry
    return entry


def plan_query(query: ConjunctiveQuery, store: TripleStore) -> Operator:
    """Compile a conjunctive query into a physical operator tree.

    A conjunctive query plans as its own factorised reformulation under
    no schema: one union per body atom whose one alternative is the
    atom itself (:func:`_atom_unions`), joined by
    :func:`_factorised_tree` in the order :func:`plan_pushdown` joins.
    The tree yields distinct rows of dictionary codes over the head and
    join variables — a variable local to one atom is projected away, so
    a star leaf is a semi-join; :func:`run_query` adds head assembly
    and decoding.

    Plans are cached per store (prepared-statement style) and reused
    until the store mutates — repeated workload evaluation pays join
    ordering and operator construction once.

    >>> from repro.query.parser import parse_query
    >>> from repro.rdf.ntriples import parse_ntriples
    >>> store = TripleStore()
    >>> _ = store.add_all(parse_ntriples('''
    ... <http://e/a> <http://e/knows> <http://e/b> .
    ... <http://e/c> <http://e/knows> <http://e/b> .
    ... <http://e/b> <http://e/age> "7" .
    ... '''))
    >>> query = parse_query(
    ...     "q(X, Y) :- t(X, <http://e/knows>, Y), t(Y, <http://e/age>, A)")
    >>> print(plan_query(query, store).explain())
    UnionProbe(t(X, <http://e/knows>, Y), 1 alternatives, 1 lookups)['Y', 'X']
      UnionScan(t(Y, <http://e/age>, A), 1 alternatives, 1 reads)['Y']
    """
    plans = _plan_cache_entry(store)["plans"]
    key = (query, INTERPRETED)
    cached = plans.get(key)
    if cached is not None:
        if metrics.enabled:
            metrics.inc("engine.plan_cache.hit")
        return cached
    if metrics.enabled:
        metrics.inc("engine.plan_cache.miss")
    with tracing.span("engine.plan_query", query=query.name):
        root = _factorised_tree(_atom_unions(query), store)
    if len(plans) >= _PLAN_CACHE_LIMIT:
        plans.clear()
    plans[key] = root
    if metrics.enabled:
        metrics.gauge("engine.plan_cache.size", len(plans))
    return root


def _atom_unions(query: ConjunctiveQuery) -> list:
    """Per body atom, an :class:`~repro.reformulation.reformulate.AtomUnion`
    whose one alternative is the atom itself, over the columns
    :func:`~repro.reformulation.reformulate.factorise` gives it, with
    the query's ``non_literal`` restriction on the atom's variables."""
    from repro.reformulation.reformulate import AtomUnion, atom_columns

    return [
        AtomUnion(atom, columns, (ConjunctiveQuery(
            columns, (atom,), name="atom", non_literal=query.non_literal
        ),))
        for atom, columns in zip(query.atoms, atom_columns(query))
    ]


# ----------------------------------------------------------------------
# Reformulation unions, factorised
# ----------------------------------------------------------------------


def factorised_route(union, store: TripleStore, pushdown: bool = True) -> bool:
    """Whether ``union`` runs factorised on ``store``.

    Only a deferred :func:`~repro.reformulation.reformulate` union (one
    carrying its source query) can. On the interpreted route — a backend
    without SQL, or ``pushdown=False`` — it always does. On the SQL
    route a one-atom union always does too: its factorised tree is one
    :class:`UnionScan`, whose index reads cost no more than the one
    statement per disjunct of the flat form. A multi-atom union does
    when the product of its atoms' alternative counts exceeds the
    number of atoms: the factorised tree reads at least one index
    bucket per atom through Python, while the flat form sends one
    statement per disjunct, so a join with no more disjuncts than
    atoms stays flat.
    """
    source = getattr(union, "source", None)
    if source is None:
        return False
    atoms = len(source.atoms)
    if atoms == 1 or not (
        pushdown and getattr(store.backend, "supports_sql_plans", False)
    ):
        return True
    from repro.reformulation.reformulate import factorise

    alternatives = math.prod(
        len(part.alternatives) for part in factorise(source, union.schema)
    )
    return alternatives > atoms


def plan_factorised(union, store: TripleStore) -> Operator:
    """The factorised operator tree of a deferred reformulation union.

    One union atom per source atom
    (:func:`~repro.reformulation.reformulate.factorise`), joined in the
    estimator's greedy order over each union atom's summed alternative
    pattern counts: the first is a :class:`UnionScan`, a connected one
    a :class:`UnionProbe`, a Cartesian one a hash join over a
    :class:`UnionScan`. The tree yields rows over the source's join and
    head variables. Cached in the prepared-plan cache under (source
    query, schema identity, schema size), so a store version bump or a
    schema statement builds it anew.
    """
    plans = _plan_cache_entry(store)["plans"]
    key = (union.source, union.schema, len(union.schema), FACTORISED)
    cached = plans.get(key)
    if cached is not None:
        if metrics.enabled:
            metrics.inc("engine.plan_cache.hit")
        return cached
    if metrics.enabled:
        metrics.inc("engine.plan_cache.miss")
    from repro.reformulation.reformulate import factorise

    with tracing.span("engine.plan_factorised", query=union.name):
        root = _factorised_tree(factorise(union.source, union.schema), store)
    if len(plans) >= _PLAN_CACHE_LIMIT:
        plans.clear()
    plans[key] = root
    return root


def _factorised_tree(
    unions: Sequence, store: TripleStore, leaf: Operator | None = None
) -> Operator:
    """Left-deep join of atom unions
    (:class:`~repro.reformulation.reformulate.AtomUnion`) on top of
    ``leaf``, or from a scan of the first union.

    The order is the estimator's greedy one over each union's summed
    alternative pattern counts, preferring unions connected to the
    leaf's columns. The first union without a leaf is a
    :class:`UnionScan`, a connected one a :class:`UnionProbe`, a
    Cartesian one a hash join over a :class:`UnionScan`. Every tree on a
    store is built here: :func:`plan_query` (one alternative per atom,
    so the summed counts are the estimator's own and the order is
    :func:`plan_pushdown`'s), :func:`plan_factorised`, EXPLAIN ANALYZE
    and view maintenance (:mod:`repro.selection.maintenance`, whose
    leaves hold an update's rows).
    """
    pattern_count = store.stats.pattern_count
    counts = [
        sum(
            pattern_count(*pattern)
            for pattern in {atom_pattern(alt.atoms[0]) for alt in part.alternatives}
        )
        for part in unions
    ]
    order = _estimator(store).join_order(
        [part.atom for part in unions],
        () if leaf is None else [Variable(name) for name in leaf.schema],
        counts=counts,
    )
    root = leaf
    for index in order:
        atom, columns, alternatives = unions[index]
        names = tuple(variable.name for variable in columns)
        if root is None:
            root = UnionScan(store, names, alternatives, atom)
        elif any(name in root.schema for name in names):
            root = UnionProbe(root, store, names, alternatives, atom)
        else:
            right = UnionScan(store, names, alternatives, atom)
            pairs, keep_right = _natural_pairs(root.schema, right.schema)
            root = HashJoin(root, right, pairs, keep_right)
    return root


def _head_scan(head: Sequence[Variable | Term], root: Operator) -> bool:
    """Whether ``root`` is a :class:`UnionScan` whose columns are
    ``head`` — a one-atom query, whose scan output is its images."""
    return isinstance(root, UnionScan) and root.schema == tuple(
        term.name if isinstance(term, Variable) else None for term in head
    )


def _tree_images(
    head: Sequence[Variable | Term],
    root: Operator,
    store: TripleStore,
    run: Operator | None = None,
) -> Mapping[tuple, set] | set[tuple]:
    """The encoded images of ``head`` over the tree ``root``, as
    :func:`decode_images` reads them.

    A one-atom tree goes scan → partitions: its :class:`UnionScan`'s
    per-template values are decoded as they are, and no tuple of codes
    is built per row. Any other tree is folded by :func:`_head_images`.
    ``run`` executes in ``root``'s place (an instrumented copy).
    """
    run = root if run is None else run
    if _head_scan(head, root):
        return run.partitions()
    return _head_images(head, run, store)


def _image_set(
    head: Sequence[Variable | Term], root: Operator, store: TripleStore
) -> set[tuple]:
    """:func:`_tree_images` as one set of encoded images."""
    if _head_scan(head, root):
        return root.distinct()
    return _head_images(head, root, store)


def factorised_images(union, store: TripleStore) -> set[tuple]:
    """Distinct encoded head images of a deferred union, evaluated
    factorised."""
    if metrics.enabled:
        metrics.inc("engine.route.factorised")
    return _image_set(union.source.head, plan_factorised(union, store), store)


def factorised_answers(union, store: TripleStore) -> set[tuple[Term, ...]]:
    """All answers of a deferred union, evaluated factorised."""
    if metrics.enabled:
        metrics.inc("engine.route.factorised")
    head = union.source.head
    return decode_images(
        _tree_images(head, plan_factorised(union, store), store), store
    )


def run_query(
    query: ConjunctiveQuery, store: TripleStore, pushdown: bool = True
) -> set[tuple[Term, ...]]:
    """All answers of the query on the store (set semantics, decoded).

    On a SQL-capable backend an eligible query runs as **one
    pushed-down SQL statement** inside the backend
    (:func:`plan_pushdown`) — the whole join pipeline evaluates next to
    the data and Python decodes one row per distinct head image.
    ``pushdown=False`` forces the interpreted operator tree
    (:func:`plan_query`, the reference the pushdown tests compare
    against). The operator tree runs columnar: head columns are picked
    off each batch, encoded head images are deduplicated, and each
    distinct image is decoded once. The answer set is identical on both
    routes.

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
    >>> run_query(query, store, pushdown=False) == answers
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
        with tracing.span("engine.run_query", query=query.name):
            answers = _run_query(query, store, pushdown)
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
    return _run_query(query, store, pushdown)


def _run_query(
    query: ConjunctiveQuery, store: TripleStore, pushdown: bool
) -> set[tuple[Term, ...]]:
    if pushdown:
        compiled = plan_pushdown(query, store)
        if compiled is not None:
            if metrics.enabled:
                metrics.inc("engine.route.pushdown")
            return compiled.execute(store)
    if metrics.enabled:
        metrics.inc("engine.route.interpreted")
    return decode_images(
        _tree_images(query.head, plan_query(query, store), store), store
    )


def _head_images(
    head: Sequence[Variable | Term], root: Operator, store: TripleStore
) -> set[tuple]:
    """Distinct encoded images of ``head`` over the rows of ``root``
    (whose schema names every head variable).

    A constant head term enters an image as its dictionary code — the
    image a disjunct binding a head *variable* to the same term
    produces, and cheaper to hash than a term; only a constant the
    dictionary has never seen stays a :class:`Term`. Either way each
    batch is folded in one C-speed ``set.update(zip(...))`` — no
    Python-level row loop: head columns are picked off the columnar
    batch and a constant rides along as an endless ``repeat``.
    """
    schema = root.schema
    parts: list = []
    for term in head:
        if isinstance(term, Variable):
            parts.append(schema.index(term.name))
        else:
            parts.append(repeat(_head_value(term, store)))
    images: set[tuple] = set()
    if not any(isinstance(part, int) for part in parts):
        # No head variable: one image iff the body matches at all (a
        # ``zip`` over nothing but endless repeats would never stop).
        if next(iter(root.column_batches()), None) is not None:
            images.add(tuple(next(part) for part in parts))
        return images
    nbatches = nrows = 0
    for cb in root.column_batches():
        nbatches += 1
        nrows += len(cb)
        columns = cb.columns
        images.update(
            zip(*(columns[p] if isinstance(p, int) else p for p in parts))
        )
    if metrics.enabled:
        metrics.inc("engine.batch.count", nbatches)
        metrics.inc("engine.batch.rows", nrows)
    return images


def decode_images(
    images: Collection[tuple] | Mapping[tuple, Collection], store: TripleStore
) -> set[tuple[Term, ...]]:
    """Decode encoded head images: a flat image set, or a
    :meth:`UnionScan.partitions <repro.engine.operators.UnionScan.partitions>`
    mapping of head templates to their values.

    A flat image set is the one partition whose template is all
    columns. Per partition the template's constants are decoded once
    and each column is mapped through the dictionary's code list in C,
    so no Python-level loop runs per image. An image position — a
    template constant or a column value — is a dictionary code or an
    already-decoded constant head term the dictionary never saw.
    """
    if isinstance(images, Mapping):
        parts = [
            (template, template_columns(template, values))
            for template, values in images.items()
        ]
    elif images:
        columns = list(zip(*images))
        parts = [((None,) * len(columns), columns)]
    else:
        return set()
    terms = store.dictionary.code_list()
    answers: set[tuple[Term, ...]] = set()
    for template, columns in parts:
        constants = tuple(
            terms[part] if type(part) is int else part for part in template
        )
        answers.update(fill_template(
            constants, [_decode_column(column, terms) for column in columns]
        ))
    return answers


def _decode_column(column: Iterable, terms: Sequence[Term]) -> list[Term]:
    try:
        return list(map(terms.__getitem__, column))
    except TypeError:
        # A head constant the dictionary never saw rides along as a term.
        return [terms[part] if type(part) is int else part for part in column]
