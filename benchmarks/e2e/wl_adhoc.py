"""``adhoc-memory`` and ``adhoc-sqlite``: one query mix, two backends.

One op is what an ad-hoc user pays for a query text: ``parse_query`` →
``reformulate(q, schema)`` → ``evaluate_union(u, store)``. On the memory
backend the interpreter, the columnar operators and the shared DAG do
the work; on SQLite the same ``engine`` layer pushes it down as SQL — so
a gain for one route that costs the other shows.
"""

from __future__ import annotations

import time

from repro.engine import plan_batch, plan_union_pushdown
from repro.query import Variable, evaluate_union, parse_query
from repro.rdf.store import TripleStore
from repro.reformulation import reformulate
from repro.workload import QueryShape, SatisfiableWorkloadGenerator, WorkloadSpec

from .base import POOL_SEED, Workload, saturated_reference, step
from .harness import (
    Ops, answer_digest, mean, reconcile_gap_share, run_passes,
    schedule_digest, screen_deadline,
)

#: Six queries of each class, all low-commonality (each query samples its
#: own anchor, so overlap comes from reformulation, not from the mix).
CLASSES = {
    "scan": WorkloadSpec(6, 1, QueryShape.STAR, "low", constant_probability=0.0),
    "star": WorkloadSpec(6, 4, QueryShape.STAR, "low", constant_probability=0.0),
    "chain": WorkloadSpec(6, 3, QueryShape.CHAIN, "low", constant_probability=0.0),
    "selective": WorkloadSpec(6, 4, QueryShape.STAR, "low", constant_probability=0.5),
}


def _share(part: float, *rest: float) -> float:
    whole = part + sum(rest)
    return part / whole if whole else 0.0


class Adhoc(Workload):
    backend = ""

    def open_store(self) -> TripleStore:
        if self.backend == "sqlite":
            return TripleStore.open(self.snapshot, backend="sqlite", read_only=True)
        return TripleStore.open(self.snapshot, backend="memory")

    def build(self, steps: dict) -> None:
        self.build_catalog(steps)
        with step(steps, "storage.open_s"):
            self.store = self.open_store()
        with step(steps, "workload.generate_s"):
            generator = SatisfiableWorkloadGenerator(self.plain, seed=POOL_SEED)
            self.pool = [
                (cls, str(query))
                for cls, spec in CLASSES.items()
                for query in generator.generate(spec)
            ]

    def run_op(self, text: str):
        """One op, with the timestamps at its layer boundaries."""
        t0 = time.perf_counter()
        query = parse_query(text)
        t1 = time.perf_counter()
        union = reformulate(query, self.schema)
        t2 = time.perf_counter()
        answers = evaluate_union(union, self.store)
        t3 = time.perf_counter()
        return answers, union, (t0, t1, t2, t3)

    def warm_up(self) -> None:
        self.warm_answers, self.warm_ms, self.disjuncts = {}, {}, {}
        for _cls, text in self.pool:
            answers, union, (t0, _t1, _t2, t3) = self.run_op(text)
            self.warm_answers[text] = answers
            self.warm_ms[text] = (t3 - t0) * 1000.0
            self.disjuncts[text] = len(union.disjuncts)

    def prepare(self) -> None:
        queries = [parse_query(text) for _cls, text in self.pool]
        self.reference = saturated_reference(
            self.plain, self.schema, queries, self.extra_steps
        )
        for text, answers in self.warm_answers.items():
            if answers != self.reference[text]:
                self.problem(f"warm-up answer differs from reference: {text}")
        self.screened = screen_deadline(self.warm_ms)
        self.scheduled = [
            entry for entry in self.pool if entry[1] not in self.screened
        ]
        self.digests["answers"] = schedule_digest(
            answer_digest(self.reference[text]) for _cls, text in self.pool
        )

    def measure(self, seconds: float, tracer) -> Ops:
        ops = Ops()
        reference = self.reference

        def one_pass(_index: int) -> None:
            order = list(self.scheduled)
            self.rng.shuffle(order)
            self.digests.setdefault(
                "schedule", schedule_digest(text for _cls, text in order)
            )
            ops.fail_unscheduled(len(self.screened))
            for cls, text in order:
                try:
                    answers, _union, (t0, t1, t2, t3) = self.run_op(text)
                except Exception as exc:  # noqa: BLE001 - an op that raised is a failed op
                    self.problem(f"op raised {type(exc).__name__}: {exc}")
                    ops.record(cls, 0.0, False, text)
                    continue
                ok = answers == reference[text]
                if not ok:
                    self.problem(f"answer differs from reference: {text}")
                ops.record(cls, (t3 - t0) * 1000.0, ok, text)
                if tracer is not None:
                    op = tracer.add(f"op.{cls}", t0, t3, None, ops.attempted)
                    tracer.add("query.parse", t0, t1, op, ops.attempted)
                    tracer.add("reformulation.reformulate", t1, t2, op, ops.attempted)
                    tracer.add("engine.union", t2, t3, op, ops.attempted)
                ops.calibrate()

        run_passes(one_pass, ops, seconds)
        return ops

    def layer_metrics(self, ops: Ops, tracer, counters: dict) -> dict:
        parse = tracer.durations_ms("query.parse")
        rewrite = tracer.durations_ms("reformulation.reformulate")
        union = tracer.durations_ms("engine.union")
        passes = len(ops.window_ends)

        def per_pass(counter: str) -> float:
            return counters.get(counter, 0) / passes

        sql_unions = per_pass("mqo.route.compound") + per_pass("mqo.route.per_branch")
        metrics = {
            "query.parse_ms": mean(parse),
            "reformulation.reformulate_ms": mean(rewrite),
            "reformulation.disjuncts": sum(self.disjuncts.values()),
            "engine.union_ms": mean(union),
            "engine.answers": sum(len(rows) for rows in self.reference.values()),
            "engine.plan_cache_hit_share": _share(
                per_pass("engine.plan_cache.hit"), per_pass("engine.plan_cache.miss")
            ),
            "engine.route.pushdown_share": _share(
                sql_unions, per_pass("mqo.route.shared")
            ),
            "engine.mqo.shared": per_pass("mqo.route.shared"),
            "engine.mqo.compound": per_pass("mqo.route.compound"),
            "engine.mqo.per_branch": per_pass("mqo.route.per_branch"),
            "engine.mqo.shared_rows": per_pass("mqo.shared_nodes.rows"),
            "bench.reconcile_gap_share": reconcile_gap_share(
                sum(ops.ms), [sum(parse), sum(rewrite), sum(union)]
            ),
        }
        for cls in CLASSES:
            metrics[f"engine.union_ms.{cls}"] = mean(
                tracer.durations_ms("engine.union", parent=f"op.{cls}")
            )
        metrics.update(self._probe_cold_plans())
        metrics.update(self._probe_pattern_match())
        return metrics

    def _probe_cold_plans(self) -> dict:
        """Planning cost with an empty plan cache: a fresh handle, then
        the route's own planner once per distinct query."""
        fresh = self.open_store()
        plan = plan_union_pushdown if self.backend == "sqlite" else plan_batch
        try:
            times = []
            for _cls, text in self.pool:
                disjuncts = reformulate(parse_query(text), self.schema).disjuncts
                started = time.perf_counter()
                plan(disjuncts, fresh)
                times.append((time.perf_counter() - started) * 1000.0)
        finally:
            fresh.close()
        return {"engine.plan_cold_ms": mean(times)}

    def _probe_pattern_match(self) -> dict:
        """Raw storage speed: every atom of the mix as a pattern match,
        constants bound and variables free."""
        rows = 0
        started = time.perf_counter()
        for _cls, text in self.pool:
            for atom in parse_query(text).atoms:
                s, p, o = (
                    None if isinstance(term, Variable) else term for term in atom
                )
                rows += sum(1 for _ in self.store.match(s=s, p=p, o=o))
        elapsed = time.perf_counter() - started
        return {
            "storage.rows_matched": rows,
            "storage.match_rows_per_s": rows / elapsed if elapsed else 0.0,
        }


class AdhocMemory(Adhoc):
    name = "adhoc-memory"
    backend = "memory"


class AdhocSqlite(Adhoc):
    name = "adhoc-sqlite"
    backend = "sqlite"
