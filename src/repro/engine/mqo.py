"""Join-order prefixes that a batch of queries shares.

:func:`plan_batch` fingerprints the join-order prefixes that distinct
queries share. No route calls it: every question plans through
:func:`repro.engine.planner.plan`, and a reformulation union shares its
work factorised. It stays public only because the end-to-end
benchmark's planning-cost probe (``benchmarks/e2e/wl_adhoc.py``)
imports it, until that benchmark is next re-baselined (ROADMAP
item 1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from repro.engine.planner import _dedupe, _estimator
from repro.query.containment import canonical_form
from repro.query.cq import Atom, ConjunctiveQuery, Variable
from repro.rdf.store import TripleStore

__all__ = ["plan_batch"]

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
    (exactly what :func:`~repro.engine.planner.plan_query` and
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
