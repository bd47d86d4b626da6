"""The public surface after the execution matrix was collapsed.

One execution path means two settable values on ``run_query``
(``statistics``, ``pushdown``). A knob — an ``engine=``, a
``batch_size=``, a ``workers=``, a ``layout=`` — cannot come back
without one of these failing.
"""

import dataclasses
import inspect

import pytest

import repro.engine
from repro.cli import build_parser, build_serve_parser
from repro.engine import (
    evaluate_union_shared,
    plan_query,
    plan_rewriting,
    run_plan,
    run_query,
    run_query_batch,
)
from repro.query.evaluation import evaluate, evaluate_union
from repro.server import ServerConfig

SIGNATURES = {
    run_query: ["query", "store", "statistics", "pushdown"],
    plan_query: ["query", "store", "statistics"],
    run_plan: ["plan", "extents"],
    plan_rewriting: ["plan", "extents"],
    evaluate: ["query", "store", "statistics", "pushdown"],
    evaluate_union: ["union", "store", "pushdown", "shared"],
    run_query_batch: ["queries", "store", "shared", "pushdown"],
    evaluate_union_shared: ["disjuncts", "store", "pushdown"],
}

RETIRED_NAMES = {
    "ADAPTIVE_BATCH_SIZE",
    "ENGINES",
    "FIXED_ENGINES",
    "HYBRID",
    "LAYOUTS",
    "MORSEL_PARALLEL_THRESHOLD",
    "MORSEL_SIZE",
    "PARALLEL_ROW_THRESHOLD",
    "MergeJoin",
    "PartitionedHashJoin",
    "choose_engine",
}


@pytest.mark.parametrize(
    "function", list(SIGNATURES), ids=lambda function: function.__name__
)
def test_signature(function):
    assert list(inspect.signature(function).parameters) == SIGNATURES[function]


def test_engine_exports_resolve_and_hold_no_retired_name():
    for name in repro.engine.__all__:
        assert hasattr(repro.engine, name), name
    assert not RETIRED_NAMES & set(repro.engine.__all__)
    assert not RETIRED_NAMES & set(vars(repro.engine))


@pytest.mark.parametrize("build", [build_parser, build_serve_parser])
@pytest.mark.parametrize("flag", ["--engine", "--batch-size"])
def test_cli_rejects_retired_flags(build, flag, capsys):
    required = {
        build_parser: ["--queries", "w.dq"],
        build_serve_parser: ["--db", "kb.snapshot"],
    }[build]
    parser = build()
    parser.parse_args(required)  # the verb parses without the flag ...
    with pytest.raises(SystemExit):
        parser.parse_args(required + [flag, "1"])  # ... and not with it
    assert "unrecognized arguments" in capsys.readouterr().err


def test_server_config_has_no_engine_knobs():
    fields = {field.name for field in dataclasses.fields(ServerConfig)}
    assert not fields & {"engine", "batch_size", "layout"}
