"""The shared System-R cardinality estimator.

One implementation of the textbook formulas under the uniformity and
independence assumptions (the paper's Section 3.3 model), consumed by
every optimizer in the system:

* the view-selection cost model prices view extents and rewriting plans
  with :meth:`CardinalityEstimator.conjunction_cardinality`;
* the engine planner orders joins with
  :meth:`CardinalityEstimator.join_order`; EXPLAIN ANALYZE's
  ``est_rows=`` read :meth:`CardinalityEstimator.prefix_cardinalities`.

The estimate of a conjunction is the product of the atoms' exact
pattern counts times, for each join variable, ``1/max(distinct)`` per
*extra* occurrence. All divisions are guarded (``max(distinct, 1)``),
so the formulas are well-defined on empty and degenerate stores.

Estimates are memoized per atom tuple; the memo is flushed lazily when
the underlying statistics provider exposes a moving ``version`` (the
store mutation counter), so long-lived estimators never serve stale
numbers yet never recount from scratch.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.query.cq import ATTRIBUTES, Atom, ConjunctiveQuery, Variable
from repro.stats.provider import Statistics


class CardinalityEstimator:
    """System-R cardinality formulas over any :class:`Statistics` provider."""

    def __init__(self, statistics: Statistics) -> None:
        self.statistics = statistics
        self._conjunction_cache: dict[tuple[Atom, ...], float] = {}
        self._query_cache: dict[int, tuple[float, object]] = {}
        self._cache_version = getattr(statistics, "version", None)

    def _fresh_cache(self) -> dict[tuple[Atom, ...], float]:
        """The memo, flushed if the provider's version has moved."""
        version = getattr(self.statistics, "version", None)
        if version != self._cache_version:
            self._conjunction_cache.clear()
            self._query_cache.clear()
            self._cache_version = version
        return self._conjunction_cache

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------

    def atom_cardinality(self, atom: Atom) -> int:
        """Exact (or modeled) match count of one atom's constant pattern."""
        return self.statistics.atom_count(atom)

    def join_selectivity(self, columns: Sequence[str]) -> float:
        """``1/max(distinct)`` for one join variable's column set.

        The denominator is clamped to 1 so empty stores (all distinct
        counts zero) never divide by zero — the selectivity degenerates
        to 1, which only overestimates.
        """
        denominator = max(
            (self.statistics.distinct_values(column) for column in columns),
            default=0,
        )
        return 1.0 / max(denominator, 1)

    def conjunction_cardinality(self, atoms: Sequence[Atom]) -> float:
        """Estimated join cardinality of a conjunction of atoms.

        Product of atom counts times one selectivity factor per extra
        occurrence of each variable, clamped to at least one row: a view
        kept by the search always has a witness in satisfiable
        workloads, and the clamp avoids degenerate zero-cost states when
        the independence assumption drives the product below one row.

        The factors are multiplied in sorted order, which makes the
        estimate *bitwise invariant* under atom reordering and variable
        renaming — isomorphic view bodies always price to the identical
        float. The view-selection cost model's cross-state memo (keyed
        on canonical view signatures) relies on exactly this invariance
        to stay indistinguishable from a full recompute.
        """
        key = tuple(atoms)
        cache = self._fresh_cache()
        cached = cache.get(key)
        if cached is not None:
            return cached
        counts = sorted(float(self.statistics.atom_count(atom)) for atom in key)
        occurrences: dict[Variable, list[str]] = {}
        for atom in key:
            for attribute, term in zip(ATTRIBUTES, atom):
                if isinstance(term, Variable):
                    occurrences.setdefault(term, []).append(attribute)
        factors = sorted(
            self.join_selectivity(columns) ** (len(columns) - 1)
            for columns in occurrences.values()
            if len(columns) > 1
        )
        estimate = 1.0
        for count in counts:
            estimate *= count
        for factor in factors:
            estimate *= factor
        estimate = max(estimate, 1.0)
        cache[key] = estimate
        return estimate

    def query_cardinality(self, query: ConjunctiveQuery) -> float:
        """``conjunction_cardinality`` of a query's body, memoized per
        query object.

        Query objects are immutable and shared across thousands of
        search states; the id-keyed fast path skips even the hashing of
        the atom tuple that the conjunction memo would pay per call.
        """
        self._fresh_cache()  # validates both memos against the version
        cached = self._query_cache.get(id(query))
        if cached is not None and cached[1] is query:
            return cached[0]
        estimate = self.conjunction_cardinality(query.atoms)
        if len(self._query_cache) > 500_000:
            self._query_cache.clear()
        self._query_cache[id(query)] = (estimate, query)
        return estimate

    # ------------------------------------------------------------------
    # Join ordering
    # ------------------------------------------------------------------

    def join_order(
        self,
        atoms: Sequence[Atom],
        bound: Iterable[Variable] = (),
        counts: Sequence[float] | None = None,
    ) -> list[int]:
        """Greedy selectivity order over a conjunction's atoms.

        Start from the rarest atom, then always expand with the rarest
        atom connected to the variables bound so far, falling back to a
        Cartesian step only when nothing is connected. Ties break on
        atom index, keeping plans deterministic. ``bound`` names
        variables an input already binds (the leaf a prepared tree
        starts from), so the first step too prefers a connected atom.
        ``counts`` replaces the atoms' own cardinalities (a factorised
        union atom counts its alternatives' matches).
        """
        if counts is None:
            counts = [self.atom_cardinality(atom) for atom in atoms]
        remaining = set(range(len(atoms)))
        order: list[int] = []
        bound = set(bound)
        while remaining:
            if bound:
                connected = [i for i in remaining if atoms[i].variables() & bound]
                pool = connected or sorted(remaining)
            else:
                pool = sorted(remaining)
            best = min(pool, key=lambda i: (counts[i], i))
            order.append(best)
            remaining.discard(best)
            bound |= atoms[best].variables()
        return order

    def prefix_cardinalities(
        self, atoms: Sequence[Atom], order: Sequence[int]
    ) -> list[float]:
        """Estimated row count after each step of a join order.

        ``result[k]`` is the System-R estimate for the conjunction of
        the first ``k + 1`` atoms of ``order`` — the ``est_rows=`` of
        each join step in EXPLAIN ANALYZE.
        Built incrementally in one pass: each step multiplies in the
        next atom's count and replaces the affected join variables'
        selectivity factors (dividing out the old power, multiplying
        the new), which telescopes to exactly the
        :meth:`conjunction_cardinality` formula per prefix without
        re-deriving any prefix product from scratch.
        """
        estimate = 1.0
        occurrences: dict[Variable, list[str]] = {}
        prefixes: list[float] = []
        for index in order:
            atom = atoms[index]
            estimate *= float(self.statistics.atom_count(atom))
            for attribute, term in zip(ATTRIBUTES, atom):
                if not isinstance(term, Variable):
                    continue
                columns = occurrences.setdefault(term, [])
                if columns:
                    old = self.join_selectivity(columns) ** (len(columns) - 1)
                    columns.append(attribute)
                    estimate *= (
                        self.join_selectivity(columns) ** (len(columns) - 1) / old
                    )
                else:
                    columns.append(attribute)
            # Clamp the *reported* prefix only; the running product keeps
            # full precision so later prefixes match the direct formula.
            prefixes.append(max(estimate, 1.0))
        return prefixes
