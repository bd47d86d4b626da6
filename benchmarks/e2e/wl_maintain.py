"""``view-maintain``: writes beside reads on materialized views.

Set-up recommends views for one ten-query set and materializes them in a
``MaterializedViewSet``. One op is one ``remove(t)`` or ``insert(t)``
routed through it: a storage write, the statistics hooks, the plan cache
flushed by the version bump, and delta evaluation — the maintenance
third of the paper's cost function. After every half block of updates
each workload query is answered from the views and compared with direct
evaluation on the updated store.
"""

from __future__ import annotations

import random
import time

from repro.query import evaluate, evaluate_union
from repro.rdf import Triple
from repro.rdf.store import TripleStore
from repro.reformulation import reformulate
from repro.selection import SearchBudget, ViewSelector
from repro.selection.maintenance import MaterializedViewSet
from repro.workload import QueryShape, SatisfiableWorkloadGenerator, WorkloadSpec

from .base import POOL_SEED, Workload, step
from .harness import Ops, mean, run_passes, schedule_digest

QUERY_SET = WorkloadSpec(10, 4, QueryShape.MIXED, "high")


def _by_text(triple) -> str:
    return triple.n3()


class ViewMaintain(Workload):
    name = "view-maintain"

    def build(self, steps: dict) -> None:
        self.build_catalog(steps)
        with step(steps, "storage.open_s"):
            self.store = TripleStore.open(self.snapshot, backend="memory")
        with step(steps, "workload.generate_s"):
            self.queries = SatisfiableWorkloadGenerator(
                self.plain, seed=POOL_SEED
            ).generate(QUERY_SET)
        with step(steps, "selection.recommend_s"):
            recommendation = ViewSelector(
                self.store, self.schema, strategy="gstr",
                entailment="post_reformulation",
                budget=SearchBudget(max_states=self.scale.select_states),
            ).recommend(self.queries)
        with step(steps, "selection.materialize_s"):
            self.views = MaterializedViewSet(
                recommendation.state, self.store, self.schema
            )
        self.view_queries = recommendation.views
        self.view_names = [view.name for view in self.view_queries]
        steps["selection.extent_rows"] = sum(
            len(self.views.extent(name)) for name in self.view_names
        )
        self.answer_ms: list[float] = []
        self.direct_ms: list[float] = []

    def next_block(self) -> list:
        """The pinned block of updates in this pass's seeded order."""
        block = list(self.block)
        self.rng.shuffle(block)
        return block

    def warm_up(self) -> None:
        predicate = self.view_queries[0].atoms[0].p
        triple = next(iter(self.plain.match(p=predicate)))
        self.views.remove(triple)
        self.views.insert(triple)
        self.verify_answers()
        self.answer_ms.clear()
        self.direct_ms.clear()

    def prepare(self) -> None:
        """Pin the block of updates every pass removes and puts back, a
        third from each of three pools: triples an extent row rests on
        (removing one drops rows, so the delta rules and the
        re-derivation check run), triples on a predicate the views
        mention (probed, usually without effect), and triples anywhere
        (mostly rejected at the first atom match). What an update costs
        depends heavily on the triple, so — like the query pools — the
        block is drawn with ``POOL_SEED`` and ``--seed`` orders it."""
        anywhere = sorted(self.plain, key=_by_text)
        predicates = {atom.p for view in self.view_queries for atom in view.atoms}
        on_views = [triple for triple in anywhere if triple.p in predicates]
        supporting = sorted(self._supporting_triples(), key=_by_text)
        draw = random.Random(f"{POOL_SEED}:{self.name}")
        third = self.scale.update_block // 3
        self.block = list(dict.fromkeys(
            draw.sample(supporting, min(third, len(supporting)))
            + draw.sample(on_views, third)
            + draw.sample(anywhere, self.scale.update_block - 2 * third)
        ))
        self.initial_extents = {
            name: self.views.extent(name) for name in self.view_names
        }
        self.digests["queries"] = schedule_digest(self.queries)
        self.digests["block"] = schedule_digest(self.block)

    def _supporting_triples(self) -> set:
        """The explicit triples under the views' explicit derivations:
        each view evaluated with every variable in its head, and its
        atoms instantiated by each answer."""
        support = set()
        for view in self.view_queries:
            variables = sorted(view.variables(), key=str)
            for row in evaluate(view.with_head(variables), self.plain):
                binding = dict(zip(variables, row))
                support.update(
                    Triple(*(binding.get(term, term) for term in atom))
                    for atom in view.atoms
                )
        return support

    def verify_answers(self) -> bool:
        """Every workload query from the views against direct evaluation
        of its reformulation on the store as it stands now."""
        ok = True
        for query in self.queries:
            t0 = time.perf_counter()
            from_views = self.views.answer(query.name)
            t1 = time.perf_counter()
            direct = evaluate_union(reformulate(query, self.schema), self.store)
            t2 = time.perf_counter()
            self.answer_ms.append((t1 - t0) * 1000.0)
            self.direct_ms.append((t2 - t1) * 1000.0)
            if from_views != direct:
                self.problem(f"views and direct evaluation disagree on {query}")
                ok = False
        return ok

    def measure(self, seconds: float, tracer) -> Ops:
        ops = Ops()
        check_every = max(1, self.scale.update_block // 2)
        self.delta_rows = 0

        def apply(kind: str, update, block) -> None:
            for index, triple in enumerate(block, start=1):
                started = time.perf_counter()
                try:
                    changed = update(triple)
                except Exception as exc:  # noqa: BLE001 - an op that raised is a failed op
                    self.problem(f"{kind} raised {type(exc).__name__}: {exc}")
                    ops.record(kind, 0.0, False, (kind, triple))
                    continue
                ended = time.perf_counter()
                self.delta_rows += sum(changed.values())
                ops.record(kind, (ended - started) * 1000.0, True, (kind, triple))
                if tracer is not None:
                    tracer.add(f"selection.{kind}", started, ended, None, ops.attempted)
                ops.calibrate()
                if index % check_every == 0 or index == len(block):
                    if not self.verify_answers():
                        ops.fail_last((index - 1) % check_every + 1)

        def one_pass(_index: int) -> None:
            block = self.next_block()
            self.digests.setdefault("schedule", schedule_digest(block))
            apply("remove", self.views.remove, block)
            apply("insert", self.views.insert, block)

        run_passes(one_pass, ops, seconds)
        return ops

    def check(self) -> None:
        """Every block was removed and put back: extents and store must
        be what they were."""
        for name, rows in self.initial_extents.items():
            if self.views.extent(name) != rows:
                self.problem(f"extent of {name} differs after the updates were undone")
        if len(self.store) != len(self.plain):
            self.problem("store size differs after the updates were undone")

    def layer_metrics(self, ops: Ops, tracer, counters: dict) -> dict:
        metrics = {
            "selection.insert_ms": mean(ops.ms_of("insert")),
            "selection.remove_ms": mean(ops.ms_of("remove")),
            "selection.view_answer_ms": mean(self.answer_ms),
            "engine.direct_answer_ms": mean(self.direct_ms),
            "selection.delta_rows": self.delta_rows / ops.attempted,
            "engine.plan_cache_flushes":
                counters.get("engine.plan_cache.flush", 0) / ops.attempted,
        }
        metrics.update(self._probe_bare_writes())
        return metrics

    def _probe_bare_writes(self) -> dict:
        """The storage share of an update: the same block removed from
        and added back to a copy no view hangs on."""
        bare = self.store.copy()
        block = self.next_block()
        started = time.perf_counter()
        for triple in block:
            bare.remove(triple)
        for triple in block:
            bare.add(triple)
        elapsed = time.perf_counter() - started
        return {"storage.write_us": elapsed * 1e6 / (2 * len(block))}
