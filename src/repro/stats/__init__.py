"""repro.stats — the unified statistics subsystem.

One shared, incrementally maintained statistics layer feeding every
optimizer in the system:

* :class:`StatisticsCatalog` (``store.stats``) — per-predicate triple
  counts, per-column distinct counts and the average term size, kept up
  to date by O(1) counter updates on every ``add``/``remove`` and
  invalidated through the store's ``version`` counter — never recomputed
  from scratch on the hot path;
* :class:`Statistics` — the provider protocol; :class:`CatalogStatistics`
  is the canonical exact implementation over a catalog,
  :class:`FixedStatistics` / :class:`ZipfStatistics` are deterministic
  synthetic providers for dataset-free tests and benchmarks;
* :class:`CardinalityEstimator` — the System-R formulas implemented
  once: conjunction cardinalities for the view-selection cost model,
  greedy join ordering for the engine's planner, prefix cardinalities
  for EXPLAIN ANALYZE.

The historical import path ``repro.selection.statistics`` re-exports the
providers; new code should import from here.

Exports resolve lazily (PEP 562): ``repro.rdf.store`` sits *below* the
query layer yet owns a :class:`StatisticsCatalog`, so this package init
must stay import-free — an eager ``from repro.stats.estimator import …``
here would drag ``repro.query`` (and through it the engine) into the
store's import chain and close a cycle.
"""

from importlib import import_module

_EXPORTS = {
    "StatisticsCatalog": "repro.stats.catalog",
    "CardinalityEstimator": "repro.stats.estimator",
    "CatalogStatistics": "repro.stats.provider",
    "FixedStatistics": "repro.stats.provider",
    "Statistics": "repro.stats.provider",
    "ZipfStatistics": "repro.stats.provider",
    "atom_pattern": "repro.stats.provider",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "CardinalityEstimator",
    "CatalogStatistics",
    "FixedStatistics",
    "Statistics",
    "StatisticsCatalog",
    "ZipfStatistics",
    "atom_pattern",
]
