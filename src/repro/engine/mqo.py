"""Unions and batches of queries over the engine's single-query plans.

Reformulation turns one query into a union of conjunctive queries whose
bodies overlap heavily (Section 4.2: every rule rewrites one atom and
keeps the rest). A deferred reformulation union runs factorised
(:func:`~repro.engine.planner.plan_factorised`) and shares that work by
construction: on the interpreted route always, on a SQL-capable backend
unless it joins several atoms whose alternative counts multiply to at
most its atom count (:func:`~repro.engine.planner.factorised_route`). Every
other union is *flat*: its distinct disjuncts run one by one, and this
module owns that route.

- On a SQL-capable backend each distinct disjunct runs its own cached
  prepared statement (:func:`plan_union_pushdown`).
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

:func:`plan_batch` fingerprints the join-order prefixes that distinct
queries share. No route calls it; it stays public for planning-cost
measurements.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.engine.planner import (
    _estimator,
    _image_set,
    _run_query,
    decode_images,
    factorised_answers,
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
    longest prefix another distinct query shares. Uncached.
    """
    distinct = _dedupe(queries)
    estimator = _estimator(store)
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
# The flat route: one statement or interpreted plan per distinct disjunct
# ----------------------------------------------------------------------


def plan_union_pushdown(
    disjuncts: Sequence[ConjunctiveQuery], store: TripleStore
) -> tuple[tuple[ConjunctiveQuery, ...], tuple]:
    """The flat route of a union on ``store``: ``(distinct, branches)``.

    ``distinct`` are the deduplicated disjuncts and ``branches`` aligns
    with them: each disjunct's own compiled statement
    (:func:`~repro.engine.planner.plan_pushdown`, cached per store
    version in the prepared-plan cache), or ``None`` when it runs its
    interpreted plan (a backend without SQL, a shape one statement
    cannot express).
    """
    distinct = _dedupe(disjuncts)
    return distinct, tuple(plan_pushdown(query, store) for query in distinct)


# ----------------------------------------------------------------------
# Public consumers
# ----------------------------------------------------------------------


def evaluate_union_shared(
    disjuncts: UnionQuery | Sequence[ConjunctiveQuery],
    store: TripleStore,
    pushdown: bool = True,
) -> set[tuple[Term, ...]]:
    """All answers of a union (its disjuncts, or the union itself).

    A deferred reformulation union on its factorised route
    (:func:`~repro.engine.planner.factorised_route`) joins its source
    query's atoms, each a union of its own reformulation, once
    (:func:`~repro.engine.planner.plan_factorised`) — the flat
    disjuncts are never built. Otherwise, on a SQL-capable backend each
    distinct disjunct runs its own prepared statement
    (:func:`plan_union_pushdown`). Disjuncts no statement can express —
    and every disjunct of a flat union on the interpreted route — run
    their cached interpreted plans. Every route merges encoded answer
    images across the *whole* union and decodes each distinct answer
    exactly once.
    """
    if factorised_route(disjuncts, store, pushdown):
        with tracing.span(
            "engine.evaluate_factorised", atoms=len(disjuncts.source.atoms)
        ):
            return factorised_answers(disjuncts, store)
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
    backend, and the rest (``None``) run their cached interpreted plans.
    """
    images: set[tuple] = set()
    executed = interpreted = 0
    for branch, disjunct in zip(branches, distinct):
        if branch is not None:
            images |= branch.images(store)
            executed += 1
        else:
            images |= _image_set(disjunct.head, plan_query(disjunct, store), store)
            interpreted += 1
    if metrics.enabled:
        if executed:
            metrics.inc("mqo.route.per_branch")
        if interpreted:
            metrics.inc("mqo.route.shared")
    return images


def count_union(
    union: UnionQuery | Iterable[ConjunctiveQuery], store: TripleStore
) -> int:
    """``len(evaluate_union(union, store))`` without producing an answer.

    The statistics collector's kernel (Section 4.3 needs
    ``|Reformulate(v, S)|``, never the answers): images stay dictionary
    codes and nothing is decoded. The union takes the routes of
    :func:`evaluate_union_shared` up to the decode — a reformulated
    one-atom query is one :class:`~repro.engine.operators.UnionScan` on
    every backend.
    """
    if factorised_route(union, store):
        return len(factorised_images(union, store))
    disjuncts = union.disjuncts if isinstance(union, UnionQuery) else union
    distinct, branches = plan_union_pushdown(disjuncts, store)
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
                answers[query] = _run_query(query, store, pushdown)
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
    return line + f"; pushdown union: {statements} branch statements"
