"""The cost model of Section 3.3: cε = cs·VSOε + cr·RECε + cm·VMCε.

* **View cardinality** ``|v|ε`` starts from the exact per-atom counts of
  the statistics layer and applies the textbook System-R formulas under
  the uniformity and independence assumptions — implemented once in the
  shared :class:`~repro.stats.estimator.CardinalityEstimator` (the same
  estimator the engine planner orders joins with):
  the product of atom counts times, for each join variable,
  ``1/max(distinct)`` per extra occurrence, every division guarded so
  empty and degenerate stores price finitely.
* **VSOε** is ``|v|ε`` times the head width times the average term size.
* **RECε** is ``Σ_r c1·io(r) + c2·cpu(r)``: I/O reads every view in the
  rewriting once; CPU charges a pass per selection and a hash join's
  build + probe + output per join. Projections and renames are free
  (pipelined), which preserves the paper's invariant that View Fusion
  never increases a state's cost (the AVF optimization relies on it).
* **VMCε** is ``Σ_v f^len(v)`` for a user-provided factor ``f``.

Incremental costing
-------------------

A transition touches at most two views and the rewriting disjuncts that
referenced them; everything else is shared *by identity* with the source
state. The model never prices a delta: ``cost(state)`` prices the whole
successor, and its incrementality lives in a two-level cross-state memo:

* per-object fast path — every view / plan object is priced at most
  once, ever (id-keyed, identity-checked);
* canonical backing — view prices are shared across *isomorphic* views
  (keyed on :func:`~repro.selection.state.canonical_token`) and plan
  prices across structurally identical plans (keyed on a recursive
  ``(node kind, query token)`` signature), so logically equal states
  reached along different search branches never re-pay estimator work.

Both levels are sound bitwise because the shared estimator multiplies
its factors in canonical (sorted) order: isomorphic bodies price to the
*identical* float. ``cost(state)`` always folds the cached component
prices in the state's own canonical order (views in order, rewritings in
order), so a warm-cache total is indistinguishable — bit for bit — from
a cold full recompute; the property suite pins exactly that oracle
equality. Untouched components answer from the id fast path, so pricing
a successor misses the memo only on its added views and rewritten plans
(``counters`` records hits and misses per level).

``incremental=False`` restores the pre-refactor pricing path (estimator
lookups per state, id-keyed plan memo only) and exists as the reference
the incremental path is checked against: per transition in
``tests/property/test_property_selection_search.py``, per whole run in
``tests/selection/test_search_core.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.query.algebra import Join, Plan, Project, Rename, Scan, Select
from repro.query.cq import ConjunctiveQuery
from repro.selection.state import State, canonical_token
from repro.stats.estimator import CardinalityEstimator
from repro.stats.provider import Statistics


@dataclass(frozen=True, slots=True)
class CostWeights:
    """The tunable knobs of the cost model.

    ``cs``/``cr``/``cm`` weight space, rewriting-evaluation, and
    maintenance (Section 3.3); ``c1``/``c2`` weight I/O vs CPU inside
    RECε; ``f`` is the fan-out factor of VMCε. Defaults follow the
    experimental setup of Section 6: cs=1, cr=1, cm=0.5, f=2.
    """

    cs: float = 1.0
    cr: float = 1.0
    cm: float = 0.5
    c1: float = 1.0
    c2: float = 1.0
    f: float = 2.0


@dataclass(frozen=True, slots=True)
class CostBreakdown:
    """The three components and the weighted total of a state's cost."""

    vso: float
    rec: float
    vmc: float
    total: float


class CostModel:
    """Estimates state costs from a statistics snapshot.

    The model is pure: for fixed statistics and weights, ``cost(state)``
    is deterministic, so searches are reproducible. With
    ``incremental=True`` (the default) prices are memoized across states
    and searches as described in the module docstring; the produced
    numbers are identical either way.
    """

    def __init__(
        self,
        statistics: Statistics,
        weights: CostWeights | None = None,
        incremental: bool = True,
    ) -> None:
        self.statistics = statistics
        self.weights = weights or CostWeights()
        self.incremental = incremental
        # The shared System-R formulas; memoizes per atom tuple, so
        # views sharing a body (renamings) price once.
        self.estimator = CardinalityEstimator(statistics)
        self._version = getattr(statistics, "version", None)
        # (cardinality, space, f^len) per view: id fast path + canonical
        # token backing shared across isomorphic views.
        self._view_by_id: dict[int, tuple[tuple[float, float, float], ConjunctiveQuery]] = {}
        self._view_by_token: dict[int, tuple[float, float, float]] = {}
        # (io, cpu) per rewriting plan: id fast path (plans are shared
        # across states by identity) + structural signature backing.
        self._plan_by_id: dict[int, tuple[tuple[float, float], Plan]] = {}
        self._plan_by_sig: dict[tuple, tuple[float, float]] = {}
        #: Pricing instrumentation: hits answered from a memo level,
        #: misses priced through the estimator.
        self.counters = {
            "view_hits": 0,
            "view_misses": 0,
            "plan_hits": 0,
            "plan_misses": 0,
        }

    def _validate_caches(self) -> None:
        """Flush every price memo when the statistics version moves."""
        version = getattr(self.statistics, "version", None)
        if version != self._version:
            self._view_by_id.clear()
            self._view_by_token.clear()
            self._plan_by_id.clear()
            self._plan_by_sig.clear()
            self._version = version

    # ------------------------------------------------------------------
    # Component pricing (the memoized primitives)
    # ------------------------------------------------------------------

    def _price_view(self, view: ConjunctiveQuery) -> tuple[float, float, float]:
        """(cardinality, space, maintenance term) of one view, priced
        through the estimator. The arithmetic is identical on the
        incremental and the baseline path."""
        if self.incremental:
            cardinality = self.estimator.query_cardinality(view)
        else:
            cardinality = self.estimator.conjunction_cardinality(view.atoms)
        width = max(len(view.head), 1) * self.statistics.average_term_size()
        return (cardinality, cardinality * width, self.weights.f ** len(view))

    def _view_price(self, view: ConjunctiveQuery) -> tuple[float, float, float]:
        self._validate_caches()
        if not self.incremental:
            self.counters["view_misses"] += 1
            return self._price_view(view)
        cached = self._view_by_id.get(id(view))
        if cached is not None and cached[1] is view:
            self.counters["view_hits"] += 1
            return cached[0]
        token = canonical_token(view)
        price = self._view_by_token.get(token)
        if price is None:
            price = self._price_view(view)
            if len(self._view_by_token) > 500_000:
                self._view_by_token.clear()
            self._view_by_token[token] = price
            self.counters["view_misses"] += 1
        else:
            self.counters["view_hits"] += 1
        if len(self._view_by_id) > 500_000:
            self._view_by_id.clear()
        self._view_by_id[id(view)] = (price, view)
        return price

    def _query_token(self, query: ConjunctiveQuery | None) -> int | None:
        return None if query is None else canonical_token(query)

    def _plan_signature(self, plan: Plan) -> tuple:
        """A flat (node kind, query token) pre-order encoding of a plan.

        Pre-order with fixed per-kind arities (scans are leaves, joins
        binary, the rest unary) reconstructs the tree uniquely, so a
        flat tuple is unambiguous. Two plans with equal signatures
        consist of the same node shapes over isomorphic query
        annotations, hence every term of their (io, cpu) sums is the
        identical float.
        """
        parts: list = []
        stack = [plan]
        while stack:
            node = stack.pop()
            if isinstance(node, Scan):
                parts.append("S")
            elif isinstance(node, Select):
                parts.append("F")
                stack.append(node.child)
            elif isinstance(node, Project):
                parts.append("P")
                stack.append(node.child)
            elif isinstance(node, Rename):
                parts.append("R")
                stack.append(node.child)
            else:
                parts.append("J")
                stack.append(node.right)
                stack.append(node.left)
            parts.append(self._query_token(node.query))
        return tuple(parts)

    def _price_plan(self, plan: Plan) -> tuple[float, float]:
        """(io, cpu) of one plan — the seed arithmetic, verbatim."""
        io = 0.0
        cpu = 0.0
        stack = [plan]
        while stack:
            node = stack.pop()
            if isinstance(node, Scan):
                if node.query is None:
                    raise ValueError(f"scan of {node.view!r} lacks a view annotation")
                io += self.view_cardinality(node.query)
            elif isinstance(node, Select):
                cpu += self.plan_cardinality(node.child)
                stack.append(node.child)
            elif isinstance(node, Join):
                cpu += (
                    self.plan_cardinality(node.left)
                    + self.plan_cardinality(node.right)
                    + self.plan_cardinality(node)
                )
                stack.append(node.right)
                stack.append(node.left)
            elif isinstance(node, (Project, Rename)):
                stack.append(node.child)
        return io, cpu

    # ------------------------------------------------------------------
    # Cardinality estimation
    # ------------------------------------------------------------------

    def view_cardinality(self, view: ConjunctiveQuery) -> float:
        """``|v|ε``: estimated number of tuples in the view's body join.

        Delegates to the shared estimator: product of exact atom counts
        times ``1/max(distinct)`` per extra variable occurrence, clamped
        to at least one row.
        """
        return self._view_price(view)[0]

    def plan_cardinality(self, plan: Plan) -> float:
        """Estimated output cardinality of a rewriting plan node.

        Every node built by the transitions carries the conjunctive
        query it computes; the estimate reuses :meth:`view_cardinality`
        on that query, keeping plan and view estimates consistent.
        """
        if plan.query is not None:
            return self.view_cardinality(plan.query)
        if isinstance(plan, Scan):
            raise ValueError(f"scan of {plan.view!r} lacks a view annotation")
        if isinstance(plan, (Select, Project, Rename)):
            return self.plan_cardinality(plan.child)
        # An unannotated join: fall back on the product bound.
        return self.plan_cardinality(plan.left) * self.plan_cardinality(plan.right)

    # ------------------------------------------------------------------
    # Cost components
    # ------------------------------------------------------------------

    def view_space(self, view: ConjunctiveQuery) -> float:
        """Space occupied by one materialized view."""
        return self._view_price(view)[1]

    def view_maintenance(self, view: ConjunctiveQuery) -> float:
        """One view's VMC term ``f^len(v)``."""
        return self._view_price(view)[2]

    def vso(self, state: State) -> float:
        """View space occupancy: total size of all materialized views."""
        return sum(self.view_space(view) for view in state.views)

    def plan_io_cpu(self, plan: Plan) -> tuple[float, float]:
        """(ioε, cpuε) of one rewriting plan, memoized cross-state.

        io reads every scanned view once; cpu charges a pass per
        selection and build+probe+output per join (projections and
        renames are pipelined for free).
        """
        self._validate_caches()
        cached = self._plan_by_id.get(id(plan))
        if cached is not None and cached[1] is plan:
            self.counters["plan_hits"] += 1
            return cached[0]
        if self.incremental:
            signature = self._plan_signature(plan)
            price = self._plan_by_sig.get(signature)
            if price is None:
                price = self._price_plan(plan)
                if len(self._plan_by_sig) > 500_000:
                    self._plan_by_sig.clear()
                self._plan_by_sig[signature] = price
                self.counters["plan_misses"] += 1
            else:
                self.counters["plan_hits"] += 1
        else:
            price = self._price_plan(plan)
            self.counters["plan_misses"] += 1
        if len(self._plan_by_id) > 500_000:
            self._plan_by_id.clear()
        self._plan_by_id[id(plan)] = (price, plan)
        return price

    def rewriting_io(self, state: State) -> float:
        """ioε: every view appearing in a rewriting is read once."""
        return sum(
            self.plan_io_cpu(disjunct.plan)[0]
            for rewriting in state.rewritings.values()
            for disjunct in rewriting
        )

    def rewriting_cpu(self, state: State) -> float:
        """cpuε: selections cost a pass, joins cost build+probe+output."""
        return sum(
            self.plan_io_cpu(disjunct.plan)[1]
            for rewriting in state.rewritings.values()
            for disjunct in rewriting
        )

    def rec(self, state: State) -> float:
        """Rewriting evaluation cost: c1·io + c2·cpu over all rewritings."""
        io = 0.0
        cpu = 0.0
        for rewriting in state.rewritings.values():
            for disjunct in rewriting:
                node_io, node_cpu = self.plan_io_cpu(disjunct.plan)
                io += node_io
                cpu += node_cpu
        return self.weights.c1 * io + self.weights.c2 * cpu

    def vmc(self, state: State) -> float:
        """View maintenance cost: Σ f^len(v)."""
        return sum(self.view_maintenance(view) for view in state.views)

    def cost(self, state: State) -> CostBreakdown:
        """The full breakdown and the weighted total cε.

        Component prices come from the cross-state memo; the folds run
        in the state's own canonical order (views in view order,
        rewritings in mapping order), so the result is bitwise identical
        whether the memo is warm or cold. Views are looked up once for
        both their space and maintenance terms; the accumulation order
        per component is exactly that of :meth:`vso` / :meth:`vmc`.
        """
        vso = 0.0
        vmc = 0.0
        for view in state.views:
            _, space, maintenance = self._view_price(view)
            vso += space
            vmc += maintenance
        rec = self.rec(state)
        total = self.weights.cs * vso + self.weights.cr * rec + self.weights.cm * vmc
        return CostBreakdown(vso=vso, rec=rec, vmc=vmc, total=total)

    def total_cost(self, state: State) -> float:
        """Shorthand for ``cost(state).total``."""
        return self.cost(state).total


def calibrate_maintenance_weight(
    initial: State,
    statistics: Statistics,
    weights: CostWeights | None = None,
    ratio: float = 0.5,
) -> CostWeights:
    """Pick ``cm`` the way Section 6 does.

    "For each workload, we set the value of cm ... so that for the
    initial state S0, cm·VMC is within at most two orders of magnitude
    from the other two cost components." We set
    ``cm·VMC(S0) = ratio · max(cs·VSO(S0), cr·REC(S0))`` (``ratio=0.5``
    keeps it the same order of magnitude), falling back to the paper's
    usual cm=0.5 when the state has no measurable cost.
    """
    weights = weights or CostWeights()
    probe = CostModel(statistics, weights)
    vso = weights.cs * probe.vso(initial)
    rec = weights.cr * probe.rec(initial)
    vmc = probe.vmc(initial)
    if vmc <= 0 or max(vso, rec) <= 0:
        return weights
    cm = ratio * max(vso, rec) / vmc
    return CostWeights(
        cs=weights.cs, cr=weights.cr, cm=cm, c1=weights.c1, c2=weights.c2, f=weights.f
    )
