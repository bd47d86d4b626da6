"""EXPLAIN ANALYZE correctness (repro.obs.analyze).

The analyzed execution must return exactly the answers the production
routes return, on both backends, and every per-operator annotation must
be internally consistent: rows_in equals the children's rows_out, the
header's answer count equals the real answer set, and estimator
predictions (``est_rows``) sit next to actuals on join steps.
"""

import pytest

from repro.engine import SQL_PUSHDOWN, run_query
from repro.obs.analyze import analyze_batch, analyze_query, analyze_union
from repro.query.evaluation import evaluate, evaluate_union
from repro.query.parser import parse_query


@pytest.fixture
def sqlite_museum(museum_store):
    store = museum_store.copy(backend="sqlite")
    yield store
    store.backend.close()


@pytest.fixture
def stores(museum_store, sqlite_museum):
    return {"memory": museum_store, "sqlite": sqlite_museum}


def _chain():
    return parse_query("qa(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z)")


def _chain_typed():
    return parse_query(
        "qb(X, Z) :- t(X, isParentOf, Y), t(Y, hasPainted, Z), "
        "t(Z, rdf:type, painting)"
    )


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_analyze_matches_evaluate(backend, stores, q_painters):
    store = stores[backend]
    report = analyze_query(q_painters, store)
    assert report.answers == evaluate(q_painters, store)
    assert report.answer_count == len(report.answers)
    header = report.tree
    assert header.label == q_painters.name
    assert header.annotations["rows"] == report.answer_count


def test_pushdown_route_reports_parity_and_backend_plan(
    sqlite_museum, q_painters
):
    report = analyze_query(q_painters, sqlite_museum)
    assert report.route == SQL_PUSHDOWN
    assert report.tree.annotations["parity"] is True
    # SQLite walked the tables in the interpreted tree's join order.
    assert report.tree.annotations["order"] == "kept"
    assert "parity=yes order=kept" in report.text()
    labels = [node.label for node in report.tree.walk()]
    assert "SQLPushdown" in labels
    assert "interpreted equivalent" in labels
    # The compiled statement's SQL rides along as detail lines.
    sql_node = next(n for n in report.tree.walk() if n.label == "SQLPushdown")
    assert any("SELECT" in line for line in sql_node.details)


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_rows_in_equals_child_rows_out(backend, stores, q_painters):
    store = stores[backend]
    report = analyze_query(q_painters, store, pushdown=False)
    checked = 0
    for node in report.tree.walk():
        if "rows_in" not in node.annotations:
            continue
        child_rows = sum(c.annotations.get("rows", 0) for c in node.children)
        assert node.annotations["rows_in"] == child_rows
        checked += 1
    assert checked >= 1  # q_painters has two join steps


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_joins_carry_estimates_next_to_actuals(backend, stores, q_painters):
    report = analyze_query(q_painters, stores[backend], pushdown=False)
    operators = [
        node
        for node in report.tree.walk()
        if not node.header and "rows" in node.annotations
    ]
    assert operators, "the interpreted tree must be annotated"
    root = operators[0]
    assert root.annotations["est_rows"] is not None
    assert root.annotations["batches"] >= 1
    assert root.annotations["time_ms"] >= 0


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_analyzed_actuals_match_run_query_on_fig8(backend, fig8):
    """Every Figure 8 query analyzed once (the pushdown route on
    SQLite, interpreted in memory): the probed answers equal
    ``run_query``'s, distinct encoded images map 1:1 to decoded answers,
    and the probed root cannot report fewer rows than it answered."""
    queries, saturated = fig8
    store = saturated if backend == "memory" else saturated.copy(backend=backend)
    try:
        for query in queries:
            report = analyze_query(query, store)
            assert report.answers == run_query(query, store)
            assert report.distinct_images == report.answer_count >= 1
            assert report.root_rows >= report.answer_count
            assert sum(stats.rows_out for _, stats in report.operators) >= 1
    finally:
        if store is not saturated:
            store.backend.close()


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_analyze_union_matches_evaluate_union(backend, stores):
    store = stores[backend]
    disjuncts = (_chain(), _chain_typed())
    report = analyze_union(disjuncts, store)
    assert report.answers == evaluate_union(disjuncts, store)
    assert report.tree.annotations["rows"] == report.answer_count
    assert report.route == {
        "memory": "interpreted-dag", "sqlite": "per-branch-statements"
    }[backend]
    # _chain is a prefix of _chain_typed: the MQO shares one node here
    # (tests/query/test_mqo.py pins the gate), and the analyzed tree
    # must surface its fan-out accounting.
    assert report.tree.annotations["shared_nodes"] == 1
    assert report.tree.annotations["consuming"] == 2
    shared = [
        node
        for node in report.tree.children
        if node.label.startswith("shared node")
    ]
    assert len(shared) == 1
    assert shared[0].annotations["consumers"] == 2
    assert shared[0].annotations["rows"] >= 1
    branches = [
        node
        for node in report.tree.children
        if node.label.startswith("branch ")
    ]
    assert len(branches) == 2
    assert all("shared" in b.annotations for b in branches)
    statements = [
        node
        for node in report.tree.children
        if node.label == "per-branch statements"
    ]
    assert len(statements) == (backend == "sqlite")


def test_analyze_union_runs_the_per_branch_statements(sqlite_museum):
    """On SQLite the route a union really takes runs next to the DAG:
    every distinct disjunct is a statement run or a branch pruned empty,
    and the statements' answers equal the DAG's."""
    located = "t(X, isLocatedIn, Y), t(Y, isParentOf, Z)"
    disjuncts = (
        _chain(),
        _chain_typed(),
        _chain(),
        # The museum's located-in targets are nobody's parent: the shared
        # prefix probes empty and both branches are pruned.
        parse_query(f"q1(X, A) :- {located}, t(Z, hasPainted, A)"),
        parse_query(f"q2(X, Z) :- {located}, t(Z, rdf:type, painter)"),
    )
    report = analyze_union(disjuncts, sqlite_museum)
    assert report.route == "per-branch-statements"
    assert report.answers == evaluate_union(disjuncts, sqlite_museum)
    (node,) = [
        child
        for child in report.tree.children
        if child.label == "per-branch statements"
    ]
    stats = node.annotations
    assert stats["pruned"] == 2
    assert stats["statements"] + stats["pruned"] == report.tree.annotations[
        "distinct"
    ] == 4
    assert stats["parity"] is True
    assert stats["rows"] == report.answer_count
    assert stats["time_ms"] >= 0
    assert "per-branch statements [statements=2 pruned=2" in report.text()


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_analyze_batch_matches_per_query_evaluation(backend, stores):
    store = stores[backend]
    queries = [_chain(), _chain_typed()]
    tree, answers = analyze_batch(queries, store)
    assert len(answers) == 2
    for query, answer_set in zip(queries, answers):
        assert answer_set == evaluate(query, store)
    assert tree.annotations["shared_nodes"] == 1
    assert tree.annotations["consuming"] == 2


def test_analyze_leaves_cached_plans_unprobed(museum_store, q_painters):
    from repro.engine import plan_query
    from repro.obs.analyze import _Probe

    baseline = plan_query(q_painters, museum_store)
    analyze_query(q_painters, museum_store, pushdown=False)
    cached = plan_query(q_painters, museum_store)
    assert cached is baseline

    def assert_unprobed(op):
        assert not isinstance(op, _Probe)
        for child in op._children():
            assert_unprobed(child)

    assert_unprobed(cached)


def test_analyze_restores_mqo_leaf_rows(museum_store):
    from repro.engine import mqo

    queries = (_chain(), _chain_typed())
    analyze_union(queries, museum_store)
    batch = mqo.plan_batch(list(queries), museum_store)
    compiled = mqo._compiled_batch(batch, museum_store)
    for node in compiled.nodes:
        if node.leaf is not None:
            assert tuple(node.leaf._rows) == ()
    for consumer in compiled.consumers:
        if consumer.leaf is not None:
            assert tuple(consumer.leaf._rows) == ()
