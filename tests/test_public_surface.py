"""The public surface after the execution matrix was collapsed.

One execution path means one planner (``plan``), one evaluator
(``evaluate``) with one settable value (``pushdown``), a serial search,
and a storage contract of pattern matches and counts only. A knob — an ``engine=``, a
``batch_size=``, a ``workers=``, a ``layout=`` — or a retired fetch
method or union route cannot come back without one of these failing,
and no name the benchmarks import can go without one failing either.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import repro.engine
import repro.obs.analyze
import repro.query.evaluation
import repro.server.pool
import repro.storage
from repro.cli import build_parser, build_serve_parser
from repro.engine import count_union, plan, plan_query, run_query
from repro.obs.analyze import analyze
from repro.query import algebra
from repro.query.evaluation import evaluate, evaluate_union
from repro.selection.materialize import materialize_views
from repro.rdf.store import TripleStore
import repro
import repro.selection
import repro.selection.costs
import repro.selection.search
import repro.selection.state
import repro.selection.transitions
from repro.selection import ViewSelector
from repro.selection.search import run_search
from repro.server import ServerConfig
from repro.storage import StorageBackend

SIGNATURES = {
    plan: ["question", "store", "pushdown"],
    evaluate: ["question", "store", "pushdown"],
    count_union: ["question", "store"],
    analyze: ["question", "store", "pushdown"],
    plan_query: ["query", "store"],
    materialize_views: ["state", "store", "schema"],
    algebra.execute: ["plan", "extents"],
    run_search: [
        "initial", "cost_model", "strategy", "enumerator", "budget",
        "use_avf", "use_stoptt", "use_stopvar",
    ],
    ViewSelector.__init__: [
        "self", "store", "schema", "weights", "strategy", "entailment",
        "budget", "vb_mode", "use_avf", "use_stopvar",
    ],
}

#: One way to run a search (``run_search``, or ``ViewSelector`` over
#: it): the per-strategy wrappers, the pricing-delta contract nothing
#: but tests read, and the explicit state graph are retired.
RETIRED_SELECTION_NAMES = {
    "dfs_search",
    "descent_search",
    "exhaustive_naive_search",
    "exhaustive_stratified_search",
    "greedy_stratified_search",
    "STRATEGIES",
    "CostDelta",
    "StateDelta",
    "StateGraph",
    "transition_cost",
    "delta",
}

RETIRED_NAMES = {
    "_branch_images",
    "_evaluate_union_impl",
    "_run_query",
    "analyze_query",
    "analyze_union",
    "count_answers",
    "describe_union_sharing",
    "evaluate_union_shared",
    "factorised_answers",
    "factorised_images",
    "run_query_batch",
    "ADAPTIVE_BATCH_SIZE",
    "ENGINES",
    "FIXED_ENGINES",
    "HYBRID",
    "LAYOUTS",
    "MATERIALIZE_COST_FACTOR",
    "MAX_UNION_BRANCHES",
    "MORSEL_PARALLEL_THRESHOLD",
    "MORSEL_SIZE",
    "MQO_DAG",
    "PARALLEL_ROW_THRESHOLD",
    "STATEMENT_OVERHEAD_ROWS",
    "UNION_PUSHDOWN",
    "BatchPlan",
    "CompiledUnion",
    "Distinct",
    "Empty",
    "IndexNestedLoopJoin",
    "IndexScan",
    "MergeJoin",
    "PartitionedHashJoin",
    "Projection",
    "Relabel",
    "Selection",
    "SharedNode",
    "UnionBranch",
    "UnionCTE",
    "ViewExtent",
    "analyze_batch",
    "choose_engine",
    "compile_union",
    "plan_rewriting",
    "run_plan",
    "union_signature",
}

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

#: What a third-party backend must write; everything else is derived.
STORAGE_ABSTRACT_CORE = {
    "add", "remove", "__len__", "__contains__", "__iter__", "match", "count",
    "distinct_values", "column_value_counts", "copy",
}

RETIRED_STORAGE_NAMES = {
    "PERMUTATIONS",
    "permutation_key",
    "iter_sorted",
    "match_sorted",
    "match_batches",
    "match_sorted_batches",
    "match_encoded_batches",
}

RETIRED_MODULES = (
    "repro.engine.extents",
    "repro.engine.parallel",
    "repro.query.sparql",
    "repro.selection.stategraph",
)


@pytest.mark.parametrize(
    "function", list(SIGNATURES), ids=lambda function: function.__qualname__
)
def test_signature(function):
    assert list(inspect.signature(function).parameters) == SIGNATURES[function]


@pytest.mark.parametrize(
    "holder",
    [
        repro,
        repro.selection,
        repro.selection.search,
        repro.selection.recommender,
        repro.selection.state,
        repro.selection.costs,
        repro.selection.costs.CostModel,
        repro.selection.transitions.Transition,
    ],
    ids=lambda holder: holder.__name__,
)
def test_retired_selection_names_are_gone(holder):
    assert not RETIRED_SELECTION_NAMES & set(dir(holder))
    assert not RETIRED_SELECTION_NAMES & set(getattr(holder, "__all__", ()))


@pytest.mark.parametrize("module", RETIRED_MODULES)
def test_retired_module_is_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_storage_contract_is_the_abstract_core():
    assert StorageBackend.__abstractmethods__ == STORAGE_ABSTRACT_CORE
    for holder in (StorageBackend, TripleStore, repro.storage):
        assert not RETIRED_STORAGE_NAMES & set(dir(holder)), holder
    assert not RETIRED_STORAGE_NAMES & set(repro.storage.__all__)


def test_engine_exports_resolve_and_hold_no_retired_name():
    for name in repro.engine.__all__:
        assert hasattr(repro.engine, name), name
    assert not RETIRED_NAMES & set(repro.engine.__all__)
    assert not RETIRED_NAMES & set(vars(repro.engine))
    for module in ("mqo", "operators", "planner", "sqlcompile"):
        assert not RETIRED_NAMES & set(vars(getattr(repro.engine, module)))
    for module in (repro.obs.analyze, repro.query.evaluation, repro.server.pool):
        assert not RETIRED_NAMES & set(vars(module))


def test_one_evaluator_under_every_name():
    """``run_query`` and ``evaluate_union`` are ``evaluate`` itself,
    kept under the names the benchmark harness imports."""
    assert run_query is evaluate is evaluate_union is repro.engine.evaluate


def _benchmark_imports():
    """``(file:line, module, name)`` for every ``from repro… import name``
    in ``benchmarks/``, read with ``ast`` — nothing is executed."""
    for path in sorted(BENCHMARKS.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module == "repro" or node.module.startswith("repro.")
            ):
                where = f"{path.relative_to(BENCHMARKS.parent)}:{node.lineno}"
                for alias in node.names:
                    yield where, node.module, alias.name


def test_benchmark_imports_resolve():
    """The benchmarks import the program as a library; every name they
    import is public surface, kept alive even where nothing in ``src/``
    calls it (``benchmarks/e2e/`` is not edited with the program)."""
    imports = list(_benchmark_imports())
    assert any(module == "repro.engine" for _, module, _ in imports)
    for where, module, name in imports:
        imported = importlib.import_module(module)
        assert hasattr(imported, name) or importlib.util.find_spec(
            f"{module}.{name}"
        ), f"{where}: from {module} import {name}"


@pytest.mark.parametrize("build", [build_parser, build_serve_parser])
@pytest.mark.parametrize("flag", ["--engine", "--batch-size", "--window-ms"])
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


def test_workers_is_a_serve_option_only():
    """``serve --workers`` is a process count with a measured caller;
    the recommend verb's frontier-pricing pool is retired."""
    serve = build_serve_parser().parse_args(
        ["--db", "kb.snapshot", "--workers", "3"]
    )
    assert serve.workers == 3
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--queries", "w.dq", "--workers", "2"])


def test_time_limit_spellings_share_one_dest():
    parser = build_parser()
    for flag in ("--time-limit", "--search-budget-seconds"):
        args = parser.parse_args(["--queries", "w.dq", flag, "2.5"])
        assert args.time_limit == 2.5
        assert not hasattr(args, "search_budget_seconds")
    assert parser.parse_args(["--queries", "w.dq"]).time_limit == 30.0


def test_server_config_has_no_engine_knobs():
    fields = {field.name for field in dataclasses.fields(ServerConfig)}
    assert not fields & {"engine", "batch_size", "layout"}


def test_server_config_field_set():
    """Eight knobs; ``window_ms`` went with the batching timer in PR 23
    (batches form from load). A ninth needs two callers that differ."""
    assert [field.name for field in dataclasses.fields(ServerConfig)] == [
        "workers", "backend", "max_batch_requests", "collect_metrics",
        "retries", "request_timeout_s", "max_pending", "test_hooks",
    ]
