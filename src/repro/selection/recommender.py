"""High-level facade: one call from workload to recommended views.

:class:`ViewSelector` wires together statistics collection, the cost
model, the entailment handling of Section 4.3, and a search strategy;
:class:`Recommendation` carries the chosen state plus helpers to
materialize the views and answer queries from them.

Statistics come from the unified ``repro.stats`` subsystem: the chosen
provider (exact catalog-backed counts, saturated-store counts, or the
Section 4.3 post-reformulation counts) feeds the same
:class:`~repro.stats.estimator.CardinalityEstimator` formulas the
execution engine plans with, so the search and the engine price joins
identically.

Typical use::

    selector = ViewSelector(store, schema=schema, strategy="dfs",
                            entailment="post_reformulation")
    recommendation = selector.recommend(queries)
    extents = recommendation.materialize()
    answers = recommendation.answer("q1", extents)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

from repro.query.cq import ConjunctiveQuery
from repro.query.evaluation import Answer
from repro.rdf.entailment import saturate
from repro.rdf.schema import RDFSchema
from repro.rdf.store import TripleStore
from repro.selection.costs import CostModel, CostWeights
from repro.selection.materialize import answer_query, materialize_views
from repro.selection.search import (
    STRATEGY_FACTORIES,
    SearchBudget,
    SearchResult,
    run_search,
)
from repro.selection.state import State, ViewNamer, initial_state
from repro.selection.statistics import ReformulationAwareStatistics, StoreStatistics
from repro.selection.transitions import TransitionEnumerator

ENTAILMENT_MODES = ("none", "saturation", "pre_reformulation", "post_reformulation")


@dataclass
class Recommendation:
    """A recommended view set, ready to materialize and query."""

    state: State
    result: SearchResult
    store: TripleStore
    schema: RDFSchema | None
    entailment: str

    @property
    def views(self) -> tuple[ConjunctiveQuery, ...]:
        """The recommended views."""
        return self.state.views

    def materialize(self) -> dict[str, list]:
        """Extents for all recommended views, honoring the entailment mode.

        * ``post_reformulation`` — reformulated views on the plain store;
        * ``saturation`` — plain views on the saturated store;
        * otherwise — plain views on the plain store.
        """
        if self.entailment == "post_reformulation":
            return materialize_views(self.state, self.store, self.schema)
        if self.entailment == "saturation":
            assert self.schema is not None
            return materialize_views(
                self.state, saturate(self.store, self.schema)
            )
        return materialize_views(self.state, self.store)

    def answer(
        self, query_name: str, extents: Mapping[str, Collection]
    ) -> set[Answer]:
        """Answer one workload query from materialized extents."""
        return answer_query(self.state, query_name, extents)


class ViewSelector:
    """End-to-end view selection over a store and optional RDF Schema."""

    def __init__(
        self,
        store: TripleStore,
        schema: RDFSchema | None = None,
        weights: CostWeights | None = None,
        strategy: str = "dfs",
        entailment: str = "none",
        budget: SearchBudget | None = None,
        vb_mode: str = "disjoint",
        use_avf: bool = True,
        use_stopvar: bool = True,
    ) -> None:
        if strategy not in STRATEGY_FACTORIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; "
                f"pick from {sorted(STRATEGY_FACTORIES)}"
            )
        if entailment not in ENTAILMENT_MODES:
            raise ValueError(
                f"unknown entailment mode {entailment!r}; pick from {ENTAILMENT_MODES}"
            )
        if entailment != "none" and schema is None:
            raise ValueError(f"entailment mode {entailment!r} requires a schema")
        self.store = store
        self.schema = schema
        self.weights = weights or CostWeights()
        self.strategy = strategy
        self.entailment = entailment
        self.budget = budget or SearchBudget(time_limit=30.0)
        self.vb_mode = vb_mode
        self.use_avf = use_avf
        self.use_stopvar = use_stopvar

    def _statistics(self):
        if self.entailment == "post_reformulation":
            assert self.schema is not None
            return ReformulationAwareStatistics(self.store, self.schema)
        if self.entailment == "saturation":
            assert self.schema is not None
            return StoreStatistics(saturate(self.store, self.schema))
        return StoreStatistics(self.store)

    def _initial_state(self, queries: Sequence[ConjunctiveQuery], namer: ViewNamer) -> State:
        if self.entailment == "pre_reformulation":
            from repro.reformulation.workflows import pre_reformulation_initial_state

            assert self.schema is not None
            return pre_reformulation_initial_state(queries, self.schema, namer)
        return initial_state(queries, namer)

    def recommend(self, queries: Sequence[ConjunctiveQuery]) -> Recommendation:
        """Search for the best candidate view set for ``queries``."""
        if not queries:
            raise ValueError("the workload must contain at least one query")
        namer = ViewNamer()
        enumerator = TransitionEnumerator(namer, vb_mode=self.vb_mode)
        statistics = self._statistics()
        cost_model = CostModel(statistics, self.weights)
        start = self._initial_state(queries, namer)
        result = run_search(
            start,
            cost_model,
            self.strategy,
            enumerator=enumerator,
            budget=self.budget,
            use_avf=self.use_avf,
            use_stopvar=self.use_stopvar,
        )
        return Recommendation(
            state=result.best_state,
            result=result,
            store=self.store,
            schema=self.schema,
            entailment=self.entailment,
        )
