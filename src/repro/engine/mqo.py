"""Unions and batches of queries over the engine's single-query plans.

Reformulation turns one query into a union of conjunctive queries whose
bodies overlap heavily (Section 4.2: every rule rewrites one atom and
keeps the rest). A deferred reformulation union on the interpreted
route runs factorised (:func:`~repro.engine.planner.plan_factorised`)
and shares that work by construction. Every other union is *flat*: its
distinct disjuncts run one by one, and this module owns that route.

- On a SQL-capable backend each distinct disjunct runs its own prepared
  statement (:func:`plan_union_pushdown`). Before the first run, every
  join-order prefix that two distinct disjuncts share
  (:func:`plan_batch`) is probed once with ``SELECT EXISTS``, and every
  branch over a prefix that probes empty is skipped outright. The route
  is cached in the store's prepared-plan cache and flushed on mutation,
  like every other prepared plan.
- Elsewhere (a backend without SQL, ``pushdown=False``, a shape one
  statement cannot express) a disjunct runs its cached
  :func:`~repro.engine.planner.plan_query` tree.
- Either way, encoded answer images are merged across the whole union
  and :func:`decode_images` decodes each distinct answer once.

Three consumers sit on top: ``evaluate_union`` in
:mod:`repro.query.evaluation` (through :func:`evaluate_union_shared`),
:func:`count_union` (the size of a union's answer and nothing else,
never decoded — what ``ReformulationAwareStatistics`` gathers its
counts with), and :func:`run_query_batch` (independent queries, the
server's batch hook).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.engine.operators import UnionScan
from repro.engine.planner import (
    _PLAN_CACHE_LIMIT,
    _estimator,
    _images_from_root,
    _plan_cache_entry,
    _run_query,
    decode_images,
    factorised_images,
    factorised_route,
    plan_pushdown,
    plan_query,
)
from repro.obs import metrics, tracing
from repro.query.containment import canonical_form
from repro.query.cq import Atom, ConjunctiveQuery, UnionQuery, Variable
from repro.rdf.store import TripleStore
from repro.rdf.terms import Term

__all__ = [
    "count_union",
    "decode_images",
    "evaluate_union_shared",
    "plan_batch",
    "plan_union_pushdown",
    "run_query_batch",
]

#: Cache token for a union's route (keyed by the raw disjunct tuple, so
#: repeated evaluations of the same union — a served or re-run query —
#: skip deduplication, compilation and probing).
_UNION_ROUTE = "mqo-union-route"

#: Sentinel marking a union branch whose shared prefix was probed
#: empty at route-build time: the branch provably has no answers on
#: this store version and its statement is never executed.
_EMPTY_BRANCH = object()


# ----------------------------------------------------------------------
# Shared join-order prefixes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SharedPrefix:
    """A join-order prefix that at least two distinct queries share."""

    #: Canonical form of the prefix as a headless subquery.
    key: tuple
    #: The first sharing query's prefix atoms, in join order.
    atoms: tuple[Atom, ...]
    #: That query's rule-4 restriction.
    non_literal: frozenset[Variable]
    #: Keys of that query's shorter prefixes.
    shorter: tuple[tuple, ...]


@dataclass(frozen=True)
class PrefixFingerprints:
    """Join-order prefix fingerprints of a batch of distinct queries."""

    queries: tuple[ConjunctiveQuery, ...]
    #: ``keys[i][k - 1]`` fingerprints the first ``k`` atoms of
    #: ``queries[i]`` in the estimator's join order.
    keys: tuple[tuple[tuple, ...], ...]
    #: Each query's longest shared prefix, shortest first.
    shared: tuple[SharedPrefix, ...]


def _dedupe(queries: Iterable[ConjunctiveQuery]) -> tuple[ConjunctiveQuery, ...]:
    """Distinct queries, first occurrence order (equality ignores names)."""
    seen: dict[ConjunctiveQuery, None] = {}
    for query in queries:
        seen.setdefault(query)
    return tuple(seen)


def _prefix_key(atoms: tuple[Atom, ...], non_literal: frozenset[Variable]) -> tuple:
    """A prefix's fingerprint: the canonical form of the headless
    subquery (restrictions auto-restricted to the prefix's own
    variables by the query constructor). Two prefixes share it iff they
    are isomorphic *including* constants and rule-4 restrictions."""
    prefix = ConjunctiveQuery((), atoms, name="mqo-prefix", non_literal=non_literal)
    return canonical_form(prefix, include_head=False)


def plan_batch(
    queries: Sequence[ConjunctiveQuery], store: TripleStore
) -> PrefixFingerprints:
    """The join-order prefixes that two or more distinct queries share.

    Each query's atoms are put in the estimator's join order once
    (exactly what :func:`plan_query` and
    :func:`~repro.engine.planner.plan_pushdown` join in), and every
    prefix of that order is fingerprinted. Each query then names its
    longest prefix another distinct query shares; those prefixes are
    what :func:`plan_union_pushdown` probes. Uncached: the route that
    calls it is.
    """
    distinct = _dedupe(queries)
    estimator = _estimator(store, None)
    ordered: list[tuple[Atom, ...]] = []
    keys: list[tuple[tuple, ...]] = []
    for query in distinct:
        atoms = tuple(query.atoms[index] for index in estimator.join_order(query.atoms))
        ordered.append(atoms)
        keys.append(
            tuple(
                _prefix_key(atoms[:k], query.non_literal)
                for k in range(1, len(atoms) + 1)
            )
        )
    # A query's prefixes have distinct lengths, hence distinct keys: at
    # most one vote per query per key.
    votes = Counter(key for query_keys in keys for key in query_keys)
    shared: dict[tuple, SharedPrefix] = {}
    for query, atoms, query_keys in zip(distinct, ordered, keys):
        for k in range(len(query_keys), 0, -1):
            key = query_keys[k - 1]
            if votes[key] >= 2:
                if key not in shared:
                    shared[key] = SharedPrefix(
                        key, atoms[:k], query.non_literal, query_keys[: k - 1]
                    )
                break
    return PrefixFingerprints(
        distinct,
        tuple(keys),
        tuple(sorted(shared.values(), key=lambda prefix: len(prefix.atoms))),
    )


# ----------------------------------------------------------------------
# The union route: per-branch statements behind empty-prefix probes
# ----------------------------------------------------------------------


def _empty_node_keys(batch: PrefixFingerprints, store: TripleStore) -> frozenset:
    """Keys of shared prefixes that have no matches right now.

    Each shared prefix runs once as a ``SELECT EXISTS`` probe, shortest
    first. The probe ignores the rule-4 residue filter, so it checks a
    *superset* of the filtered prefix: ``EXISTS`` false is therefore a
    sound proof that every branch over the prefix is empty. A prefix
    extending a shorter one already found empty inherits emptiness
    without a probe.
    """
    empty: set = set()
    for prefix in batch.shared:
        if any(key in empty for key in prefix.shorter):
            empty.add(prefix.key)
            continue
        variables = {v for atom in prefix.atoms for v in atom.variables()}
        if not variables:
            continue
        probe = ConjunctiveQuery(
            (min(variables, key=lambda v: v.name),),
            prefix.atoms,
            name="mqo-probe",
            non_literal=prefix.non_literal,
        )
        compiled = plan_pushdown(probe, store)
        if compiled is None:
            continue
        if compiled.sql is None:
            empty.add(prefix.key)
            continue
        rows = store.backend.execute_sql_plan(
            f"SELECT EXISTS ({compiled.sql})", compiled.params
        )
        if not next(iter(rows))[0]:
            empty.add(prefix.key)
    return frozenset(empty)


def plan_union_pushdown(
    disjuncts: Sequence[ConjunctiveQuery], store: TripleStore
) -> tuple[tuple[ConjunctiveQuery, ...], tuple]:
    """The route a union takes on ``store``: ``(distinct, branches)``.

    ``distinct`` are the deduplicated disjuncts and ``branches`` aligns
    with them: a disjunct's compiled statement
    (:func:`~repro.engine.planner.plan_pushdown`), ``None`` when it
    runs its interpreted plan (a backend without SQL, a shape one
    statement cannot express), or :data:`_EMPTY_BRANCH` when one of its
    shared prefixes probed empty (:func:`_empty_node_keys`) and the
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
                query
                for query, keys in zip(batch.queries, batch.keys)
                if any(key in empty for key in keys)
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
    """All answers of a union (its disjuncts, or the union itself).

    A deferred reformulation union on the interpreted route (a backend
    without SQL, or ``pushdown=False``) runs factorised: its source
    query's atoms, each a union of its own reformulation, joined once
    (:func:`~repro.engine.planner.plan_factorised`) — the flat
    disjuncts are never built. Otherwise, on a SQL-capable backend each
    distinct disjunct runs its own prepared statement
    (:func:`plan_union_pushdown`), and every branch over a shared
    prefix that probed empty is skipped. Disjuncts no statement can
    express — and every disjunct of a flat union on the interpreted
    route — run their cached interpreted plans. Every route merges
    encoded answer images across the *whole* union and decodes each
    distinct answer exactly once.
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
    run their cached interpreted plans.
    """
    images: set[tuple] = set()
    executed = pruned = interpreted = 0
    for branch, disjunct in zip(branches, distinct):
        if branch is _EMPTY_BRANCH:
            pruned += 1
        elif branch is not None:
            images |= branch.images(store)
            executed += 1
        else:
            images |= _images_from_root(disjunct, plan_query(disjunct, store), store)
            interpreted += 1
    if metrics.enabled:
        if executed:
            metrics.inc("mqo.route.per_branch")
        if pruned:
            metrics.inc("mqo.route.branch_pruned", pruned)
        if interpreted:
            metrics.inc("mqo.route.shared")
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
    if not distinct:
        return 0
    if all(len(query.atoms) == 1 for query in distinct):
        columns = tuple(f"h{index}" for index in range(len(distinct[0].head)))
        return len(UnionScan(store, columns, distinct).distinct())
    distinct, branches = plan_union_pushdown(distinct, store)
    return len(_branch_images(distinct, branches, store))


def run_query_batch(
    queries: Sequence[ConjunctiveQuery],
    store: TripleStore,
    pushdown: bool = True,
) -> list[set[tuple[Term, ...]]]:
    """Answer a batch of independent queries, one answer set per input
    query, in input order: exactly ``[run_query(q, store) for q in
    queries]``, with each duplicate query answered once. This is the
    server's batch hook.

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
    """
    queries = list(queries)
    if not queries:
        return []
    answers: dict[ConjunctiveQuery, set[tuple[Term, ...]]] = {}
    with tracing.span("engine.run_query_batch", queries=len(queries)):
        for query in queries:
            if query not in answers:
                answers[query] = _run_query(query, store, None, pushdown)
    return [answers[query] for query in queries]


def describe_union_sharing(
    disjuncts: UnionQuery | Sequence[ConjunctiveQuery], store: TripleStore
) -> str:
    """One-line accounting of a union's route for ``--explain``: the
    factorised form's atoms and alternatives per atom, or the flat
    form's distinct disjuncts (and branch statements on SQL)."""
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
    distinct, branches = plan_union_pushdown(disjuncts, store)
    line = f"{len(tuple(disjuncts))} disjuncts ({len(distinct)} distinct)"
    if not getattr(store.backend, "supports_sql_plans", False):
        return line + ", one interpreted plan each"
    statements = sum(getattr(branch, "sql", None) is not None for branch in branches)
    pruned = sum(branch is _EMPTY_BRANCH for branch in branches)
    line += f"; pushdown union: {statements} branch statements"
    if pruned:
        line += f", {pruned} branches pruned empty"
    return line
