"""EXPLAIN ANALYZE correctness (repro.obs.analyze).

The analyzed execution must return exactly the answers the production
routes return, on both backends, and every per-operator annotation must
be internally consistent: rows_in equals the children's rows_out, the
header's answer count equals the real answer set, and estimator
predictions (``est_rows``) sit next to actuals on join steps.
"""

import pytest

from repro.engine import FACTORISED, INTERPRETED, SQL_PUSHDOWN
from repro.obs.analyze import analyze
from repro.query.evaluation import evaluate, evaluate_nested_loop, evaluate_union
from repro.query.parser import parse_query
from repro.reformulation import reformulate


@pytest.fixture
def sqlite_museum(museum_store):
    store = museum_store.copy(backend="sqlite")
    yield store
    store.backend.close()


@pytest.fixture
def stores(museum_store, sqlite_museum):
    return {"memory": museum_store, "sqlite": sqlite_museum}


def _operator_lines(report):
    """The annotated operator lines of the report's tree: on a statement
    branch, those of the interpreted equivalent it runs beside."""
    root = next(
        (n for n in report.tree.walk() if n.label == "interpreted equivalent"),
        report.tree,
    )
    return [
        node
        for node in root.walk()
        if not node.header and "rows" in node.annotations
    ]


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
    report = analyze(q_painters, store)
    assert report.answers == evaluate(q_painters, store)
    assert report.answer_count == len(report.answers)
    header = report.tree
    assert header.label == q_painters.name
    assert header.annotations["rows"] == report.answer_count


def test_pushdown_route_reports_parity_and_backend_plan(
    sqlite_museum, q_painters
):
    report = analyze(q_painters, sqlite_museum)
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
    report = analyze(q_painters, store)
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
    report = analyze(q_painters, stores[backend])
    operators = _operator_lines(report)
    assert operators, "the interpreted tree must be annotated"
    # Every step of the left-deep spine, the scan it starts from included.
    assert len(operators) == len(q_painters.atoms)
    assert all(node.annotations["est_rows"] is not None for node in operators)
    root = operators[0]
    assert root.annotations["batches"] >= 1
    assert root.annotations["time_ms"] >= 0


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_cartesian_step_and_its_scans_carry_estimates(backend, stores):
    query = parse_query("q(X, Z) :- t(X, hasPainted, Y), t(Z, rdf:type, W)")
    report = analyze(query, stores[backend])
    operators = _operator_lines(report)
    assert [node.label.split("(")[0].split("[")[0] for node in operators] == [
        "CrossJoin", "UnionScan", "UnionScan",
    ]
    assert all(node.annotations["est_rows"] is not None for node in operators)
    assert report.answers == evaluate(query, stores[backend])


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_analyzed_actuals_match_evaluate_on_fig8(backend, fig8):
    """Every Figure 8 query analyzed once (the pushdown route on
    SQLite, interpreted in memory): the probed answers equal
    ``evaluate``'s, distinct encoded images map 1:1 to decoded answers,
    and the probed root cannot report fewer rows than it answered."""
    queries, saturated = fig8
    store = saturated if backend == "memory" else saturated.copy(backend=backend)
    try:
        for query in queries:
            report = analyze(query, store)
            assert report.answers == evaluate(query, store)
            assert report.distinct_images == report.answer_count >= 1
            assert report.root_rows >= report.answer_count
            assert sum(stats.rows_out for _, stats in report.operators) >= 1
    finally:
        if store is not saturated:
            store.backend.close()


def _branches(report):
    return [
        node for node in report.tree.children if node.label.startswith("branch ")
    ]


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_analyze_union_matches_evaluate_union(backend, stores):
    store = stores[backend]
    disjuncts = (_chain(), _chain_typed())
    report = analyze(disjuncts, store)
    assert report.answers == evaluate_union(disjuncts, store)
    assert report.tree.annotations["rows"] == report.answer_count
    assert report.route == {"memory": INTERPRETED, "sqlite": SQL_PUSHDOWN}[backend]
    # One analyzed branch per distinct disjunct, on the route it runs.
    branches = _branches(report)
    assert [b.label for b in branches] == ["branch qa", "branch qb"]
    assert all(b.annotations["route"] == report.route for b in branches)
    assert all(b.annotations["rows"] >= 1 for b in branches)
    assert all(b.children and "rows" in b.children[0].annotations for b in branches)
    assert report.root_rows >= report.answer_count


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_analyze_union_runs_each_distinct_disjunct_once(backend, stores):
    store = stores[backend]
    disjuncts = (_chain(), _chain_typed(), _chain())
    report = analyze(disjuncts, store)
    assert report.answers == evaluate_union(disjuncts, store)
    assert report.tree.annotations["branches"] == 2
    assert [b.label for b in _branches(report)] == ["branch qa", "branch qb"]


def test_analyze_union_runs_the_branch_statements(sqlite_museum):
    """On SQLite each distinct disjunct of a flat union is analyzed as
    the statement it runs, beside its interpreted equivalent: every
    branch reports parity and SQLite's join order."""
    located = "t(X, isLocatedIn, Y), t(Y, isParentOf, Z)"
    disjuncts = (
        _chain(),
        _chain_typed(),
        _chain(),
        # The museum's located-in targets are nobody's parent: these two
        # branches share an empty prefix, and still run.
        parse_query(f"q1(X, A) :- {located}, t(Z, hasPainted, A)"),
        parse_query(f"q2(X, Z) :- {located}, t(Z, rdf:type, painter)"),
    )
    report = analyze(disjuncts, sqlite_museum)
    assert report.route == SQL_PUSHDOWN
    assert report.answers == evaluate_union(disjuncts, sqlite_museum)
    branches = _branches(report)
    assert len(branches) == report.tree.annotations["branches"] == 4
    for branch in branches:
        assert branch.annotations["parity"] is True
        assert branch.annotations["order"] == "kept"
        labels = [node.label for node in branch.children]
        assert labels == ["SQLPushdown", "interpreted equivalent"]
    assert sum(b.annotations["rows"] for b in branches) >= report.answer_count
    assert "order=reordered" not in report.text()


def test_analyze_union_reports_the_sqlite_route_taken(
    sqlite_museum, museum_schema, q_painters, q_pictures
):
    """A reformulation whose atoms' alternatives multiply past its atom
    count is analyzed factorised on SQLite, as it runs; one that stays
    flat is analyzed as its one statement."""
    large = reformulate(q_pictures, museum_schema)
    report = analyze(large, sqlite_museum)
    assert report.route == FACTORISED
    assert report.answers == evaluate_union(large, sqlite_museum)
    assert report.tree.annotations["atoms"] == 2
    assert "route=factorised" in report.text()
    small = reformulate(q_painters, museum_schema)
    report = analyze(small, sqlite_museum)
    assert report.route == SQL_PUSHDOWN
    assert report.answers == evaluate_union(small, sqlite_museum)
    assert report.text().startswith("union [route=sql-pushdown ")
    assert "parity=yes order=kept" in report.text()


def _assert_unprobed(op):
    from repro.obs.analyze import _Probe

    assert not isinstance(op, _Probe)
    for child in op._children():
        _assert_unprobed(child)


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_one_atom_union_is_analyzed_through_its_partitions(
    backend, stores, museum_schema, monkeypatch
):
    """A one-atom union is analyzed on the route it runs: its scan's
    partitions are decoded as they are, never its row set, and the
    header splits the images' ``time_ms`` from the ``decode_ms``."""
    from repro.engine.operators import UnionScan

    store = stores[backend]
    union = reformulate(parse_query("q(X, Y) :- t(X, rdf:type, Y)"), museum_schema)
    expected = set()
    for disjunct in union.disjuncts:
        expected |= evaluate_nested_loop(disjunct, store)

    def refuse(self):
        raise AssertionError("the one-atom union built its rows")

    monkeypatch.setattr(UnionScan, "distinct", refuse)
    report = analyze(union, store)
    assert report.route == FACTORISED
    assert report.answers == expected and expected
    header = report.tree.annotations
    assert header["rows"] == len(expected)
    assert header["time_ms"] >= 0 and header["decode_ms"] >= 0
    # The scan line counts partition values: at least one per answer.
    assert report.root_rows >= len(expected)
    assert " decode_ms=" in report.text().splitlines()[0]
    # hasPainted's domain and range alternatives share one read, as do
    # the instances of a class under each of its ancestors.
    assert "), 15 alternatives, 5 reads)['X', 'Y'] [rows=" in report.text()


def test_analyze_leaves_cached_plans_unprobed(museum_store, q_painters):
    from repro.engine import plan

    _, ((_, baseline),) = plan(q_painters, museum_store)
    analyze(q_painters, museum_store)
    _, ((_, cached),) = plan(q_painters, museum_store)
    assert cached is baseline
    _assert_unprobed(cached)


def test_analyze_union_leaves_cached_plans_unprobed(museum_store, museum_schema):
    """The analyzed branches are probed copies: the cached plans the
    union runs — flat or factorised — stay as they were."""
    from repro.engine import plan

    queries = (_chain(), _chain_typed())
    evaluate_union(queries, museum_store)
    _, baseline = plan(queries, museum_store)
    analyze(queries, museum_store)
    _, branches = plan(queries, museum_store)
    for (_, before), (_, cached) in zip(baseline, branches):
        assert cached is before
        _assert_unprobed(cached)
    union = reformulate(_chain_typed(), museum_schema)
    _, ((_, before),) = plan(union, museum_store)
    analyze(union, museum_store)
    _, ((_, cached),) = plan(union, museum_store)
    assert cached is before
    _assert_unprobed(cached)
