"""Metrics merged back from workers equal serial totals.

A server-mode worker (``repro.server.pool``) answers every batch under
``metrics.collect``: the batch records into a fresh registry and the
server merges the returned dump. These properties pin the contract —
counters and histograms accumulated from per-chunk dumps are exactly
the counts a serial run of the same work produces, for any chunking
(in process), the served form of the same equality across real worker
processes, and instrumentation never changes answers (on either
backend).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics
from repro.query.evaluation import evaluate
from repro.storage import BACKENDS

from tests.conftest import interpreted_answers
from tests.property.strategies import queries, stores


@pytest.fixture(autouse=True)
def clean_registry():
    metrics.reset()
    yield
    metrics.disable()
    metrics.reset()


def _record_chunk(scale, chunk):
    """One chunk of work: two counters and one histogram."""
    metrics.inc("prop.chunks")
    metrics.inc("prop.items", len(chunk))
    for value in chunk:
        metrics.observe("prop.value", float(value) * scale)
    return sum(chunk)


@settings(max_examples=10, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.integers(0, 100),
            st.floats(-1e3, 1e6, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=40,
    ),
    chunk_size=st.integers(1, 8),
)
def test_merged_chunk_dumps_equal_serial_totals(values, chunk_size):
    """Counters and histograms alike: the merged histogram has the
    serial one's buckets, hence its percentiles, exactly; only ``total``
    may differ, by float summation order."""
    chunks = [
        values[start : start + chunk_size]
        for start in range(0, len(values), chunk_size)
    ]

    metrics.reset()
    with metrics.enabled_registry():
        serial_results = [_record_chunk(2, chunk) for chunk in chunks]
    serial = metrics.registry().dump()
    serial_histogram = metrics.registry().histograms["prop.value"]

    metrics.reset()
    collected_results = []
    for chunk in chunks:
        result, dump = metrics.collect(_record_chunk, 2, chunk)
        collected_results.append(result)
        metrics.merge(dump)
    merged = metrics.registry().dump()
    merged_histogram = metrics.registry().histograms["prop.value"]

    assert collected_results == serial_results
    assert merged["counters"] == serial["counters"]
    ours = merged["histograms"]["prop.value"]
    theirs = serial["histograms"]["prop.value"]
    assert ours["count"] == theirs["count"]
    # Chunk totals add in a different order; values reach 2e6.
    assert ours["total"] == pytest.approx(theirs["total"], abs=1e-6)
    assert ours["min"] == theirs["min"]
    assert ours["max"] == theirs["max"]
    assert ours["buckets"] == theirs["buckets"]
    for fraction in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
        assert merged_histogram.percentile(fraction) == (
            serial_histogram.percentile(fraction)
        )


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_served_answers_and_metrics_match_serial(data):
    """Server mode under randomized interleavings is observationally a
    permutation of single-process evaluation.

    For any store, workload, worker count and client count: (1) every
    served answer set equals serial ``evaluate`` on the same
    snapshot, regardless of which worker served it or in what order
    requests interleaved; and (2) the server's merged registry equals a
    serial replay of each worker's logged batch sequence — the counters
    workers shipped back reconcile exactly with single-process totals
    (histogram *counts* too; timings naturally differ).
    """
    import shutil
    import tempfile
    import threading

    from repro.engine import evaluate
    from repro.query.parser import parse_query
    from repro.rdf.store import TripleStore
    from repro.server import Server, ServerConfig
    from repro.server.pool import _answer_batch
    from repro.workload.generator import replay_schedule

    store = data.draw(stores(backend="memory"), label="store")
    texts = [
        str(data.draw(queries(max_atoms=2), label="query"))
        for _ in range(data.draw(st.integers(1, 3), label="n_queries"))
    ]
    workers = data.draw(st.integers(1, 3), label="workers")
    clients = data.draw(st.integers(1, 3), label="clients")
    schedule = replay_schedule(
        texts, repeats=2, seed=data.draw(st.integers(0, 99), label="seed")
    )

    directory = tempfile.mkdtemp(prefix="repro-prop-serve-")
    try:
        path = f"{directory}/kb.snapshot"
        store.save(path)

        serial_store = TripleStore.open(path, backend="sqlite",
                                        read_only=True)
        try:
            parsed = [parse_query(text) for text in texts]
            reference = {
                text: evaluate(query, serial_store)
                for text, query in zip(texts, parsed)
            }
        finally:
            serial_store.close()

        # test_hooks: the replay below needs the per-batch log.
        config = ServerConfig(workers=workers, test_hooks=True)
        with Server(path, config) as server:
            served: dict[int, list] = {}

            def drive(slot: int) -> None:
                with server.connect() as client:
                    answers = []
                    for text in schedule[slot::clients]:
                        result = client.query(text, timeout=60.0)
                        answers.append(
                            (text, frozenset(result.answers_or_raise()))
                        )
                    served[slot] = answers

            threads = [
                threading.Thread(target=drive, args=(slot,))
                for slot in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads)
            merged = server.metrics_dump()
            batch_log = list(server.batch_log)

        # (1) Permutation invariance of the answers.
        assert len(served) == clients
        for answers in served.values():
            for text, answer in answers:
                assert answer == frozenset(reference[text])

        # (2) Merged worker metrics == serial replay of the batch log.
        serial_registry = metrics.MetricsRegistry()
        for index in range(workers):
            replay_store = TripleStore.open(
                path, backend="sqlite", read_only=True
            )
            try:
                parse_cache: dict = {}
                for worker_index, batch_texts in batch_log:
                    if worker_index != index:
                        continue
                    _, dump = metrics.collect(
                        _answer_batch, list(batch_texts), replay_store,
                        parse_cache,
                    )
                    serial_registry.merge(dump)
            finally:
                replay_store.close()
        worker_counters = {
            name: value
            for name, value in merged["counters"].items()
            if not name.startswith("server.")
        }
        assert worker_counters == serial_registry.dump()["counters"]
        for name, payload in merged["histograms"].items():
            if name.startswith("server."):
                continue
            assert (
                payload["count"] == serial_registry.histograms[name].count
            )
    finally:
        shutil.rmtree(directory, ignore_errors=True)


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_counters_are_guarded_per_query(backend):
    """``engine.batch.*`` counts the head-image drive loop's hand-offs
    (one guarded ``inc`` per query, never per batch)."""
    from repro.query.cq import Atom, ConjunctiveQuery, Variable
    from repro.rdf.store import TripleStore
    from repro.rdf.terms import URI
    from repro.rdf.triples import Triple

    store = TripleStore(backend=backend)
    p0, p1 = URI("http://u/p0"), URI("http://u/p1")
    for i in range(90):
        store.add(Triple(URI(f"http://u/e{i}"), p0, URI(f"http://u/f{i % 9}")))
        store.add(Triple(URI(f"http://u/f{i % 9}"), p1, URI(f"http://u/g{i % 4}")))
    X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
    query = ConjunctiveQuery((X, Z), (Atom(X, p0, Y), Atom(Y, p1, Z)))

    metrics.reset()
    with metrics.enabled_registry():
        answers = interpreted_answers(query, store)
    counters = dict(metrics.registry().counters)
    assert counters["engine.batch.count"] >= 1
    assert counters["engine.batch.rows"] >= len(answers)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_instrumentation_never_changes_answers(backend, data):
    store = data.draw(stores(backend=backend), label="store")
    query = data.draw(queries(), label="query")
    expected = evaluate(query, store)
    metrics.reset()
    with metrics.enabled_registry():
        observed = evaluate(query, store)
    assert observed == expected
    counters = metrics.registry().counters
    assert counters.get("engine.queries", 0) == 1
    histograms = metrics.registry().histograms
    assert histograms["engine.query_ms"].count == 1
