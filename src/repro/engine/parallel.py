"""The cached fork pool behind the view-selection search's frontier pricing.

:func:`map_chunks` fans independent slices of a work list across a
process pool; its one caller is the search's wave pricing
(``SearchCore.price_frontier`` in :mod:`repro.selection.search`).
:func:`fork_context` is shared with the server-mode worker pool
(:mod:`repro.server.pool`). The engine itself runs serially: the
pickle-per-task join partitions and scan morsels that used to live here
ran at 0.4× of the serial scan and were never triggered by a measured
workload (docs/benchmarks.md, "Retired paths").

Process pools are cached per worker count (:func:`get_executor`):
forking a pool costs tens of milliseconds, which must be paid once per
session, not once per wave. Pools use the ``fork`` start method where
available (results need not be shipped back through module re-imports)
and are shut down at interpreter exit.

Everything crossing the process boundary is plain, picklable data —
never an operator, store, or database connection.
"""

from __future__ import annotations

import atexit
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from repro.obs import metrics

#: Live executors, keyed by worker count.
_executors: dict[int, ProcessPoolExecutor] = {}


def fork_context():
    """The ``fork`` multiprocessing context, or the platform default.

    Shared by the frontier fork pool below and by the server-mode
    worker pool (:mod:`repro.server.pool`): forked workers inherit the
    parent's modules and code, so tasks need no re-imports, and child
    start-up stays in the tens of milliseconds.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _is_broken(executor: ProcessPoolExecutor) -> bool:
    """True when the pool can no longer accept work (a worker died)."""
    return bool(getattr(executor, "_broken", False))


def get_executor(workers: int) -> ProcessPoolExecutor:
    """The cached process pool for ``workers`` worker processes.

    A cached pool that broke (a worker was killed — plausible under
    memory pressure) is discarded and replaced, so one dead worker
    never poisons every later parallel wave.
    """
    executor = _executors.get(workers)
    if executor is not None and _is_broken(executor):
        executor.shutdown(wait=False, cancel_futures=True)
        executor = None
    if executor is None:
        executor = ProcessPoolExecutor(
            max_workers=workers, mp_context=fork_context()
        )
        _executors[workers] = executor
    return executor


def shutdown_executors() -> None:
    """Shut down every cached pool (registered at interpreter exit)."""
    for executor in _executors.values():
        executor.shutdown(wait=False, cancel_futures=True)
    _executors.clear()


atexit.register(shutdown_executors)


def map_chunks(function, common, chunks, workers: int) -> list:
    """Run ``function(common, chunk)`` for every chunk on the cached pool.

    The fan-out primitive behind the view-selection search's parallel
    frontier pricing: ``common`` (shipped once per chunk) carries the
    shared context — a cost model, a statistics snapshot — and each
    chunk is an independent slice of the work list. Results come back in chunk order. Everything crossing the
    boundary must be picklable; a pool broken mid-flight surfaces as
    :class:`~concurrent.futures.process.BrokenProcessPool` for the caller to handle (the search falls
    back to serial evaluation).
    """
    executor = get_executor(workers)
    if metrics.enabled:
        metrics.inc("engine.parallel.tasks", len(chunks))
        futures = [
            executor.submit(instrumented_call, function, common, chunk)
            for chunk in chunks
        ]
        results = []
        for future in futures:
            result, dump = future.result()
            metrics.merge(dump)
            results.append(result)
        return results
    futures = [executor.submit(function, common, chunk) for chunk in chunks]
    return [future.result() for future in futures]


def instrumented_call(function, /, *args):
    """Pool-task wrapper when metrics are enabled: run ``function``
    against a fresh worker-local registry and return ``(result, dump)``.

    Fork-pool workers inherit whatever registry state the parent had at
    fork time; :func:`repro.obs.metrics.collect` sets it aside for the
    task's duration, so the dump the parent merges holds exactly the
    counts this one task produced — serial totals equal merged worker
    totals. Submitted only when ``metrics.enabled``; the disabled path
    is byte-identical to the uninstrumented one.
    """
    return metrics.collect(function, *args)
