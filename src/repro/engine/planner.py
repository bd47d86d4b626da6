"""Plan compilation: one route decision per question, and the one
evaluator that reads it.

A *question* is a :class:`~repro.query.cq.ConjunctiveQuery`, a
:class:`~repro.query.cq.UnionQuery` or a sequence of disjuncts.
:func:`plan` decides its route and returns ``(route, branches)``;
:func:`evaluate`, :func:`count_union`, ``--explain`` and
:func:`repro.obs.analyze.analyze` all read that plan. (A rewriting over
view extents is not compiled here: :func:`repro.query.algebra.execute`
folds it.) There are two cases:

- a deferred reformulation on its factorised route
  (:func:`factorised_route`) is one tree over its source query's atoms;
- anything else is *flat*: one branch per distinct disjunct — a
  conjunctive query is the one-disjunct case — each its
  :func:`plan_pushdown` statement, or its :func:`plan_query` tree when
  no statement can express it (a backend without SQL, a shape one
  statement cannot hold).

A plan depends only on the question, the schema and the store version,
so :func:`plan` caches each question's whole plan in the store's
prepared-plan cache, and the cache is flushed when the store mutates:
a warm question is one dictionary lookup. :func:`plan_pushdown` and
:func:`plan_query` build, and cache nothing.

There is one tree shape on a store, built by :func:`_factorised_tree`:
a left-deep join of *atom unions*, one per body atom, ordered **once**
by the shared :class:`~repro.stats.estimator.CardinalityEstimator` over
the store's incrementally maintained catalog. The first union is read
by a :class:`UnionScan`, a connected one is probed per key by a
:class:`UnionProbe`, a Cartesian one is a :class:`CrossJoin` with a
fresh :class:`UnionScan`. A reformulation union gives each atom the
alternatives of its own reformulation; a conjunctive query is the
degenerate case where each atom's one alternative is the atom itself.
The index-nested-loop tree that conjunctive queries had of their own,
and the cost-based choice among join algorithms before it, are retired
(docs/benchmarks.md, "Retired paths").

On storage backends that are SQL engines themselves (the SQLite
backend) a flat branch is **one SQL statement**: :func:`plan_pushdown`
compiles the entire conjunctive query — self-joins, constant
selections, head projection, DISTINCT — into one statement
(:mod:`repro.engine.sqlcompile`) executed inside the backend.

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
    CrossJoin,
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

#: The whole-plan SQL pushdown route: each flat branch runs as one SQL
#: statement inside the storage backend.
SQL_PUSHDOWN = "sql-pushdown"

#: The flat route on operator trees.
INTERPRETED = "interpreted"

#: The route of a reformulation union on its source query's atoms,
#: each a union of its own reformulation, joined once.
FACTORISED = "factorised"

#: The counter :func:`evaluate` and :func:`count_union` add once per
#: question, by the route its plan takes. The two flat routes keep the
#: names the end-to-end benchmark reads (``benchmarks/e2e/wl_adhoc.py``).
ROUTE_COUNTERS = {
    FACTORISED: "engine.route.factorised",
    SQL_PUSHDOWN: "mqo.route.per_branch",
    INTERPRETED: "mqo.route.shared",
}


# ----------------------------------------------------------------------
# Conjunctive queries against a triple store
# ----------------------------------------------------------------------


def _estimator(store: TripleStore) -> CardinalityEstimator:
    """The estimator join ordering runs on: it reads the store's own
    incrementally maintained catalog — exact pattern counts, O(1) per
    lookup, memoized per store version."""
    return CardinalityEstimator(CatalogStatistics(store.stats))


def plan_pushdown(query: ConjunctiveQuery, store: TripleStore) -> CompiledQuery | None:
    """The whole-plan SQL pushdown route for this query, if it exists.

    Returns the compiled single-statement form
    (:class:`~repro.engine.sqlcompile.CompiledQuery`) when the store's
    backend can execute SQL plans (``supports_sql_plans``) and the
    query is expressible as one statement; ``None`` otherwise — the
    branch runs its interpreted operator tree (:func:`plan`). The statement
    joins in :meth:`CardinalityEstimator.join_order
    <repro.stats.estimator.CardinalityEstimator.join_order>` — the very
    order :func:`plan_query` compiles the interpreted tree in — spelled
    ``CROSS JOIN`` so SQLite runs it as written: one planner orders
    both routes, and SQLite's own only picks the index per step.
    Nothing is cached here: :func:`plan` caches the plan that holds the
    statement, per store version, which also re-validates a
    provably-empty compilation whose missing constants may have
    appeared.
    """
    if not getattr(store.backend, "supports_sql_plans", False):
        return None
    return compile_query(query, store, _estimator(store).join_order(query.atoms))


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
    a star leaf is a semi-join; :func:`evaluate` adds head assembly
    and decoding.

    Nothing is cached here: :func:`plan` caches the plan that holds
    the tree.

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
    return _factorised_tree(_atom_unions(query), store)


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


def factorised_route(union, store: TripleStore) -> bool:
    """Whether ``union`` runs factorised on ``store``.

    Only a deferred :func:`~repro.reformulation.reformulate` union (one
    carrying its source query) can. On a backend without SQL it always
    does. On the SQL route a one-atom union always does too: its
    factorised tree is one :class:`UnionScan`, whose index reads cost no
    more than the one statement per disjunct of the flat form. A
    multi-atom union does when the product of its atoms' alternative
    counts exceeds the number of atoms: the factorised tree reads at
    least one index bucket per atom through Python, while the flat form
    sends one statement per disjunct, so a join with no more disjuncts
    than atoms stays flat.
    """
    source = getattr(union, "source", None)
    if source is None:
        return False
    atoms = len(source.atoms)
    if atoms == 1 or not getattr(store.backend, "supports_sql_plans", False):
        return True
    from repro.reformulation.reformulate import factorise

    alternatives = math.prod(
        len(part.alternatives) for part in factorise(source, union.schema)
    )
    return alternatives > atoms


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
    Cartesian one a :class:`CrossJoin` with a :class:`UnionScan`. Every
    tree on a store is built here: :func:`plan_query` (one alternative
    per atom, so the summed counts are the estimator's own and the order
    is :func:`plan_pushdown`'s), a reformulation's factorised tree
    (:func:`plan`), EXPLAIN ANALYZE and view maintenance
    (:mod:`repro.selection.maintenance`, whose leaves hold an update's
    rows).
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
            root = CrossJoin(root, UnionScan(store, names, alternatives, atom))
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


# ----------------------------------------------------------------------
# The one route decision, and what reads it
# ----------------------------------------------------------------------


def _dedupe(queries: Iterable[ConjunctiveQuery]) -> tuple[ConjunctiveQuery, ...]:
    """Distinct queries, first occurrence order (equality ignores names)."""
    seen: dict[ConjunctiveQuery, None] = {}
    for query in queries:
        seen.setdefault(query)
    return tuple(seen)


def plan_union_pushdown(
    disjuncts: Iterable[ConjunctiveQuery], store: TripleStore
) -> tuple[tuple[ConjunctiveQuery, CompiledQuery | Operator], ...]:
    """The flat form's branches on ``store``: per distinct disjunct, the
    disjunct and its :func:`plan_pushdown` statement, or its
    :func:`plan_query` tree when no statement can express it (or the
    backend runs no SQL). Uncached: :func:`plan` caches its result."""
    return tuple(
        (query, plan_pushdown(query, store) or plan_query(query, store))
        for query in _dedupe(disjuncts)
    )


def plan(
    question, store: TripleStore
) -> tuple[str, tuple[tuple[ConjunctiveQuery, CompiledQuery | Operator], ...]]:
    """The route and branches of ``question`` on ``store``: the one
    place a route is decided, and the only reader and writer of the
    store's prepared-plan cache.

    ``question`` is a :class:`~repro.query.cq.ConjunctiveQuery`, a
    :class:`~repro.query.cq.UnionQuery` or a sequence of disjuncts.
    Each branch pairs the conjunctive query whose head it answers with
    what runs for it:

    - a deferred reformulation on its factorised route
      (:func:`factorised_route`) is one branch, its source query and
      the :func:`_factorised_tree` of its
      :func:`~repro.reformulation.reformulate.factorise` — route
      :data:`FACTORISED`;
    - anything else is one branch per distinct disjunct, a conjunctive
      query being its own one disjunct: its statement where one
      expresses it (:func:`plan_union_pushdown`), else its
      :func:`plan_query` tree — route :data:`SQL_PUSHDOWN` when some
      branch is a statement, :data:`INTERPRETED` when none is.

    The whole plan is cached per store version under the question: a
    conjunctive query as itself, a deferred reformulation as its
    source, schema and schema size, any other question as its tuple of
    disjuncts. Equal questions share one plan, and a warm question is
    one lookup (one ``engine.plan_cache.hit``); a miss builds the plan
    inside one ``engine.plan`` span.

    >>> from repro.query.parser import parse_query
    >>> from repro.rdf.ntriples import parse_ntriples
    >>> store = TripleStore()
    >>> _ = store.add_all(parse_ntriples(
    ...     '<http://e/a> <http://e/knows> <http://e/b> .'))
    >>> knows = parse_query("q(X) :- t(X, <http://e/knows>, Y)")
    >>> route, ((query, tree),) = plan([knows, knows], store)
    >>> route, query is knows, tree.explain()
    ('interpreted', True, "UnionScan(t(X, <http://e/knows>, Y), 1 alternatives, 1 reads)['X']")
    >>> plan((knows, knows), store)[1][0][1] is tree
    True
    """
    if isinstance(question, ConjunctiveQuery):
        key = question
    elif getattr(question, "source", None) is not None:
        key = (question.source, question.schema, len(question.schema))
    else:  # a union iterates its disjuncts
        key = question = tuple(question)
    plans = _plan_cache_entry(store)["plans"]
    cached = plans.get(key)
    if cached is not None:
        if metrics.enabled:
            metrics.inc("engine.plan_cache.hit")
        return cached
    if metrics.enabled:
        metrics.inc("engine.plan_cache.miss")
    with tracing.span("engine.plan", query=getattr(question, "name", "union")):
        built = _build_plan(question, store)
    if len(plans) >= _PLAN_CACHE_LIMIT:
        plans.clear()
    plans[key] = built
    if metrics.enabled:
        metrics.gauge("engine.plan_cache.size", len(plans))
    return built


def _build_plan(question, store: TripleStore) -> tuple:
    """:func:`plan` on a cache miss."""
    if factorised_route(question, store):
        from repro.reformulation.reformulate import factorise

        source = question.source
        tree = _factorised_tree(factorise(source, question.schema), store)
        return FACTORISED, ((source, tree),)
    if isinstance(question, ConjunctiveQuery):
        question = (question,)
    branches = plan_union_pushdown(question, store)
    if any(isinstance(branch, CompiledQuery) for _, branch in branches):
        return SQL_PUSHDOWN, branches
    return INTERPRETED, branches


def _plan_images(
    route: str, branches: Sequence, store: TripleStore, partitions: bool = False
) -> Mapping[tuple, set] | set[tuple]:
    """The distinct encoded head images of a plan, before any decoding,
    merged across its branches; with ``partitions`` a one-tree plan
    gives them as :func:`_tree_images` does. Counts the route."""
    if metrics.enabled:
        metrics.inc(ROUTE_COUNTERS[route])
    if partitions and len(branches) == 1:
        ((query, branch),) = branches
        if not isinstance(branch, CompiledQuery):
            return _tree_images(query.head, branch, store)
    parts = [
        branch.images(store)
        if isinstance(branch, CompiledQuery)
        else _image_set(query.head, branch, store)
        for query, branch in branches
    ]
    images = parts.pop() if parts else set()
    images.update(*parts)
    return images


def evaluate(question, store: TripleStore) -> set[tuple[Term, ...]]:
    """All answers of ``question`` on the store (set semantics, decoded).

    The paper's ``evaluate`` (Theorem 4.2) for every question: a
    conjunctive query, a union or a sequence of disjuncts. It runs the
    plan :func:`plan` gives it, merges the encoded answer images across
    the whole plan and decodes each distinct answer once. The answer
    set is identical on every route and backend.

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
    >>> answers = evaluate(query, store)
    >>> sorted((s.n3(), o.n3()) for s, o in answers)
    [('<http://e/a>', '<http://e/c>')]
    >>> from repro.query.evaluation import evaluate_nested_loop
    >>> evaluate_nested_loop(query, store) == answers
    True
    """
    # Observability detour, costing one flag check per question when
    # off: a span, a latency histogram sample, and the slow-query
    # warning.
    if (
        metrics.enabled
        or metrics.slow_query_ms is not None
        or tracing.sink is not None
    ):
        name = getattr(question, "name", "union")
        started = time.perf_counter()
        with tracing.span("engine.evaluate", query=name):
            answers = _evaluate(question, store)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if metrics.enabled:
            metrics.inc("engine.queries")
            metrics.observe("engine.query_ms", elapsed_ms)
        threshold = metrics.slow_query_ms
        if threshold is not None and elapsed_ms > threshold:
            _LOG.warning(
                "slow query %s: %.1f ms (threshold %.0f ms)",
                name, elapsed_ms, threshold,
            )
        return answers
    return _evaluate(question, store)


def _evaluate(question, store: TripleStore) -> set[tuple[Term, ...]]:
    """:func:`evaluate` without the observability detour (the server's
    batch path)."""
    route, branches = plan(question, store)
    return decode_images(
        _plan_images(route, branches, store, partitions=True), store
    )


#: :func:`evaluate` under the name ``benchmarks/e2e/wl_serve.py``
#: imports; it exists only for that harness until the benchmark is
#: next re-baselined (ROADMAP item 1).
run_query = evaluate


def count_union(question, store: TripleStore) -> int:
    """``len(evaluate(question, store))`` without producing an answer:
    the size of the plan's image set, nothing decoded.

    The statistics collector's kernel (Section 4.3 needs
    ``|Reformulate(v, S)|``, never the answers).
    """
    route, branches = plan(question, store)
    return len(_plan_images(route, branches, store))


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
