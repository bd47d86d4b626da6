"""The Figure 8 workload on the benchmarks' quick-scale Barton catalog:
what the observability gates below are measured on."""

import pytest

from repro.datagen import BartonConfig, generate_barton
from repro.rdf.entailment import saturate
from repro.workload import QueryShape, SatisfiableWorkloadGenerator, WorkloadSpec


@pytest.fixture(scope="session")
def fig8():
    """``(queries, saturated store)``: workload Q1 of Table 3 (the first
    five of ``benchmarks/bench_table3_reformulation_workloads.py``'s
    ten) and the saturated quick-scale catalog of ``benchmarks/support.py``."""
    store, schema = generate_barton(
        BartonConfig(num_triples=12_000, num_entities=2_000, seed=42)
    )
    spec = WorkloadSpec(10, 7, QueryShape.MIXED, "high", constant_probability=0.4)
    queries = SatisfiableWorkloadGenerator(store, seed=65).generate(spec)[:5]
    return queries, saturate(store, schema)
