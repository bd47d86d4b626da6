"""How many bytes a memory store keeps per triple.

The memory backend's six indexes dominate a memory store's footprint,
and with it the resident size of every process that holds one. The
bounds sit between today's figures (~730 bytes/triple opened, ~300
copied, on the 12 k-triple benchmark catalog) and the ~1 370 / ~980
that set-only buckets and per-row snapshot ints took, so a change that
gives either back fails here. tracemalloc counts Python allocations
only, so the figures do not depend on the allocator or the host.
"""

import gc
import tracemalloc

import pytest

from repro.datagen import BartonConfig, generate_barton
from repro.rdf.store import TripleStore

#: The smoke-scale benchmark catalog (benchmarks/e2e/base.py, "smoke").
CATALOG = BartonConfig(num_triples=12_000, num_entities=2_000, seed=3)


def retained_bytes(build):
    """``(result, bytes)``: what ``build()`` returns and the bytes it
    still holds once garbage is collected."""
    gc.collect()
    tracemalloc.start()
    try:
        result = build()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, retained


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    plain, _ = generate_barton(CATALOG)
    path = tmp_path_factory.mktemp("footprint") / "catalog.snapshot"
    plain.save(path)
    return path, len(plain)


def test_memory_store_bytes_per_triple(snapshot):
    path, triples = snapshot
    store, opened = retained_bytes(lambda: TripleStore.open(path, backend="memory"))
    try:
        assert len(store) == triples
        _, copied = retained_bytes(store.copy)
    finally:
        store.close()
    assert opened / triples <= 1_000, f"{opened / triples:.0f} bytes/triple opened"
    assert copied / triples <= 450, f"{copied / triples:.0f} bytes/triple copied"
