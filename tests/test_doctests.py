"""Executable documentation: the public-API doctest suite.

The examples in the docstrings of the engine and storage entry points
(``plan``/``evaluate``, ``algebra.execute``,
``materialize.answer_query``, ``StorageBackend``/``create_backend``,
``TripleStore.save``/``open``, the term model's hash and pickle
contract)
double as regression tests; CI runs them through this module (and the
docs job runs them standalone). A module listed here with zero
collected doctests fails, so the examples cannot silently vanish.
"""

import doctest

import pytest

import repro.engine.planner
import repro.engine.sqlcompile
import repro.query.algebra
import repro.rdf.store
import repro.rdf.terms
import repro.selection.materialize
import repro.storage.base

DOCUMENTED_MODULES = [
    repro.engine.planner,
    repro.engine.sqlcompile,
    repro.query.algebra,
    repro.rdf.store,
    repro.rdf.terms,
    repro.selection.materialize,
    repro.storage.base,
]


@pytest.mark.parametrize(
    "module", DOCUMENTED_MODULES, ids=lambda module: module.__name__
)
def test_public_api_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, (
        f"no doctest examples collected from {module.__name__}; "
        "the public-API examples must stay executable"
    )
    assert results.failed == 0
