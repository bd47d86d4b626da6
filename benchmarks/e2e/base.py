"""What every workload shares: the pinned catalog, scales, set-up steps.

**Why the catalog and the query pools are pinned.** Query cost on this
system is heavy-tailed: whether a generated query touches ``rdf:type``
decides between a 1-disjunct and a 600-disjunct reformulation. With the
pools drawn from ``--seed``, one pass of the ad-hoc mix cost 0.45–1.6 s
on memory and 0.74–14.3 s on SQLite across 27 (catalog, pool) seed pairs
(README, "Sizing evidence") — no bound could hold across seeds. So, as
TPC-H pins its schema and templates and seeds only the streams, the
catalog, the pools and the block of updates come from the two constants
below, and ``--seed`` drives what a stream may vary: the order of every
pass and the order of the served traffic.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.datagen import BartonConfig, generate_barton
from repro.query import evaluate
from repro.rdf.entailment import saturate

from .harness import Ops, percentile

#: Seeds of the pinned catalog and query pools — chosen from the scan in
#: the README for: work in all four ad-hoc classes on memory, the SQL
#: pushdown chain pathology present on SQLite, and no op above a tenth of
#: the 5 s deadline.
CATALOG_SEED = 3
POOL_SEED = 0


@dataclass(frozen=True, slots=True)
class Scale:
    """Input sizes of one tier. Nothing here is a knob of the program:
    every value sizes the *inputs* the benchmark generates."""

    triples: int
    entities: int
    setup_repeats: int
    select_states: int
    update_block: int


SCALES = {
    "full": Scale(
        triples=30_000, entities=4_500, setup_repeats=3,
        select_states=500, update_block=48,
    ),
    "smoke": Scale(
        triples=12_000, entities=2_000, setup_repeats=1,
        select_states=60, update_block=10,
    ),
}


def generate_catalog(scale: Scale):
    """The pinned synthetic Barton catalog: (plain store, RDF Schema)."""
    return generate_barton(BartonConfig(
        num_triples=scale.triples, num_entities=scale.entities,
        seed=CATALOG_SEED,
    ))


@contextmanager
def step(steps: dict, name: str):
    """Time one set-up step into ``steps[name]`` (seconds, accumulated)."""
    started = time.perf_counter()
    try:
        yield
    finally:
        steps[name] = steps.get(name, 0.0) + time.perf_counter() - started


def save_snapshot(store, path: str, steps: dict) -> None:
    """Write ``store`` as the workload's single-file snapshot."""
    with step(steps, "storage.save_s"):
        store.save(path)
    steps["storage.snapshot_bytes"] = os.path.getsize(path)


def saturated_reference(plain, schema, queries, steps: dict) -> dict:
    """Reference answers by the *other* route of Theorem 4.2: each plain
    query evaluated on the saturated store, keyed by query text. Every
    measured answer — reformulated, pushed down, from views or served —
    must equal it."""
    with step(steps, "rdf.saturate_s"):
        saturated = saturate(plain, schema)
    steps["rdf.saturated_triples"] = len(saturated)
    return {str(query): evaluate(query, saturated) for query in queries}


class Workload:
    """One workload: repeatable set-up, warm-up, measured phases, checks.

    The runner (``cli.run_workload``) drives the methods in this order:
    ``build`` (several times, ``tear_down`` between) → ``warm_up`` →
    ``prepare`` (untimed: references) → ``measure`` (once untraced; in a
    traced run once more with a tracer) → ``layer_metrics`` → ``check``
    → ``tear_down``.
    """

    name = ""
    #: The store handle the ops run on, closed by :meth:`tear_down`.
    store = None

    def __init__(self, scale: Scale, seed: int, workdir: str) -> None:
        self.scale = scale
        self.seed = seed
        self.snapshot = os.path.join(workdir, f"{self.name}.snapshot")
        #: The stream ``--seed`` drives: the order of every pass.
        self.rng = random.Random(f"{seed}:{self.name}")
        #: Durations/counts of the steps outside ``build`` (warm-up,
        #: reference saturation); merged into the per-layer metrics.
        self.extra_steps: dict = {}
        #: Digests of the generated inputs, for the determinism guard.
        self.digests: dict[str, str] = {}
        #: Human-readable reasons the run is not correct.
        self.problems: list[str] = []

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def build(self, steps: dict) -> None:
        raise NotImplementedError

    def build_catalog(self, steps: dict) -> None:
        """Generate the pinned catalog and save it as the snapshot."""
        with step(steps, "datagen.generate_s"):
            self.plain, self.schema = generate_catalog(self.scale)
        save_snapshot(self.plain, self.snapshot, steps)

    def tear_down(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None
        if os.path.exists(self.snapshot):
            os.remove(self.snapshot)

    def warm_up(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, tracer) -> Ops:
        raise NotImplementedError

    def end_to_end(self, ops: Ops) -> dict:
        """Throughput and latency percentiles of a phase, with the number
        of latencies the percentiles rest on.

        Taken over the typical latency of each distinct op
        (:meth:`Ops.typical`). One closed-loop client has no think time,
        so the wall it would see for one pass is the sum of its op
        times; the harness's own answer checks between ops are left out.
        """
        typical = ops.typical()
        return {
            "ops_per_s": len(typical) / (sum(typical) / 1000.0),
            "op_p50_ms": percentile(typical, 50),
            "op_p95_ms": percentile(typical, 95),
            "samples": len(typical),
        }

    def layer_metrics(self, ops: Ops, tracer, counters: dict) -> dict:
        raise NotImplementedError

    def check(self) -> None:
        """Cross-checks after the measured phases; failures go to
        :meth:`problem`."""
