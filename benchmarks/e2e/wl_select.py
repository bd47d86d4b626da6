"""``select``: the paper's headline — view selection over a workload.

One op is ``ViewSelector(store, schema, strategy=s,
entailment="post_reformulation", budget=SearchBudget(max_states=N))
.recommend(queries)``: search plus post-reformulation statistics. The
``selection`` and ``stats`` layers do the work and the engine almost
none, so a search-core or estimator change moves this workload only.
State budgets, never time budgets, bound each search: the counts and the
relative cost reduction repeat exactly.
"""

from __future__ import annotations

import time

from repro.query import parse_query
from repro.rdf.store import TripleStore
from repro.selection import (
    CostModel, ReformulationAwareStatistics, SearchBudget, ViewSelector,
    initial_state,
)
from repro.stats import CardinalityEstimator
from repro.workload import QueryShape, SatisfiableWorkloadGenerator, WorkloadSpec

from .base import POOL_SEED, Workload, saturated_reference, step
from .harness import Ops, mean, run_passes, schedule_digest

STRATEGIES = ("dfs", "gstr")

#: {star, chain, mixed} × commonality {high, low}, five queries of four
#: atoms each: six query sets, each searched by both strategies. Every
#: op prices its workload on cold post-reformulation statistics (0.3–1 s
#: here), so twelve ops are what one pass can hold inside a 10 s run.
SET_SPECS = tuple(
    WorkloadSpec(5, 4, shape, commonality)
    for shape in (QueryShape.STAR, QueryShape.CHAIN, QueryShape.MIXED)
    for commonality in ("high", "low")
)


class Select(Workload):
    name = "select"

    def build(self, steps: dict) -> None:
        self.build_catalog(steps)
        with step(steps, "storage.open_s"):
            self.store = TripleStore.open(self.snapshot, backend="memory")
        with step(steps, "workload.generate_s"):
            generator = SatisfiableWorkloadGenerator(self.plain, seed=POOL_SEED)
            self.sets = [generator.generate(spec) for spec in SET_SPECS]
        self.op_list = [
            (index, strategy)
            for index in range(len(self.sets))
            for strategy in STRATEGIES
        ]
        #: (rcr, states created) of each op's first run; every later run
        #: of the same op must reproduce it.
        self.first: dict = {}
        self.recommended: dict = {}

    def recommend(self, set_index: int, strategy: str):
        selector = ViewSelector(
            self.store, self.schema, strategy=strategy,
            entailment="post_reformulation",
            budget=SearchBudget(max_states=self.scale.select_states),
        )
        return selector.recommend(self.sets[set_index])

    def warm_up(self) -> None:
        for strategy in STRATEGIES:
            self.recommend(0, strategy)

    def prepare(self) -> None:
        queries = {
            str(query): query for queries in self.sets for query in queries
        }
        self.reference = saturated_reference(
            self.plain, self.schema,
            [parse_query(text) for text in queries], self.extra_steps,
        )
        self.digests["sets"] = schedule_digest(queries)

    def _sound(self, key, recommendation) -> bool:
        result = recommendation.result
        if not (result.best_cost <= result.initial_cost and recommendation.views):
            return False
        seen = (result.rcr, result.stats.created)
        return self.first.setdefault(key, seen) == seen

    def measure(self, seconds: float, tracer) -> Ops:
        ops = Ops()

        def one_pass(_index: int) -> None:
            order = list(self.op_list)
            self.rng.shuffle(order)
            self.digests.setdefault("schedule", schedule_digest(order))
            for key in order:
                started = time.perf_counter()
                try:
                    recommendation = self.recommend(*key)
                except Exception as exc:  # noqa: BLE001 - an op that raised is a failed op
                    self.problem(f"recommend{key} raised {type(exc).__name__}: {exc}")
                    ops.record(key[1], 0.0, False, key)
                    continue
                ended = time.perf_counter()
                ok = self._sound(key, recommendation)
                if not ok:
                    self.problem(f"recommend{key}: cost rose or result not repeatable")
                self.recommended[key] = recommendation
                ops.record(key[1], (ended - started) * 1000.0, ok, key)
                if tracer is not None:
                    tracer.add(
                        f"selection.recommend.{key[1]}", started, ended,
                        None, ops.attempted,
                    )
                ops.calibrate()

        run_passes(one_pass, ops, seconds)
        return ops

    def check(self) -> None:
        """The recommended views must answer their workload: materialize
        each set's ``gstr`` recommendation and compare every query with
        the saturated-store reference."""
        for (set_index, strategy), recommendation in sorted(self.recommended.items()):
            if strategy != "gstr":
                continue
            extents = recommendation.materialize()
            for query in self.sets[set_index]:
                if recommendation.answer(query.name, extents) != self.reference[str(query)]:
                    self.problem(f"set {set_index}: views give a wrong answer to {query}")

    def layer_metrics(self, ops: Ops, tracer, counters: dict) -> dict:
        results = [self.recommended[key].result for key in self.op_list]
        created = sum(result.stats.created for result in results)
        duplicates = sum(result.stats.duplicates for result in results)
        count = counters.get
        hits = count("selection.memo.view_hit", 0) + count("selection.memo.plan_hit", 0)
        misses = count("selection.memo.view_miss", 0) + count("selection.memo.plan_miss", 0)
        metrics = {
            "selection.created": created,
            "selection.duplicates": duplicates,
            "selection.discarded": sum(r.stats.discarded for r in results),
            "selection.explored": sum(r.stats.explored for r in results),
            "selection.duplicate_share": duplicates / (created + duplicates),
            "selection.memo_hit_share": hits / (hits + misses) if hits + misses else 0.0,
            "selection.states_per_s":
                count("selection.search.created", 0) / ops.busy_s(),
            "selection.rcr": mean(result.rcr for result in results),
        }
        for strategy in STRATEGIES:
            metrics[f"selection.rcr.{strategy}"] = mean(
                self.recommended[key].result.rcr
                for key in self.op_list if key[1] == strategy
            )
        metrics.update(self._probe_pricing())
        metrics["selection.search_s"] = mean(ops.ms) / 1000.0 - (
            metrics["selection.stats_init_ms"] + metrics["selection.initial_state_ms"]
        ) / 1000.0
        return metrics

    def _probe_pricing(self) -> dict:
        """What a search pays before it explores: building S0, pricing
        it on cold post-reformulation statistics, and — once those are
        warm — one estimator call per initial view."""
        state_ms, init_ms, estimate_us = [], [], []
        for queries in self.sets:
            started = time.perf_counter()
            state = initial_state(queries)
            state_ms.append((time.perf_counter() - started) * 1000.0)
            started = time.perf_counter()
            statistics = ReformulationAwareStatistics(self.store, self.schema)
            CostModel(statistics).cost(state)
            init_ms.append((time.perf_counter() - started) * 1000.0)
            estimator = CardinalityEstimator(statistics)
            started = time.perf_counter()
            for view in state.views:
                estimator.query_cardinality(view)
            estimate_us.append(
                (time.perf_counter() - started) * 1e6 / len(state.views)
            )
        return {
            "selection.initial_state_ms": mean(state_ms),
            "selection.stats_init_ms": mean(init_ms),
            "stats.estimate_us": mean(estimate_us),
        }
