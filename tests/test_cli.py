"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.rdf.ntriples import serialize_ntriples


@pytest.fixture()
def data_file(tmp_path, museum_store):
    path = tmp_path / "data.nt"
    path.write_text(serialize_ntriples(iter(museum_store)))
    return path


@pytest.fixture()
def schema_file(tmp_path, museum_schema):
    path = tmp_path / "schema.nt"
    path.write_text(serialize_ntriples(museum_schema.triples()))
    return path


@pytest.fixture()
def workload_file(tmp_path):
    path = tmp_path / "workload.dq"
    path.write_text(
        "q1(X) :- t(X, hasPainted, starryNight)\n"
        "q2(X, Y) :- t(X, hasPainted, Y), t(X, rdf:type, painter)\n"
    )
    return path


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_basic_run(capsys, data_file, workload_file):
    out = run_cli(
        capsys,
        "--data", str(data_file),
        "--queries", str(workload_file),
        "--time-limit", "2",
    )
    assert "recommended views:" in out
    assert "rewritings:" in out
    assert "q1 =" in out and "q2 =" in out
    assert "cost reduction" in out


def test_show_answers(capsys, data_file, workload_file):
    out = run_cli(
        capsys,
        "--data", str(data_file),
        "--queries", str(workload_file),
        "--time-limit", "2",
        "--show-answers",
    )
    assert "q1: 1 answers" in out


def test_entailment_with_schema_file(capsys, data_file, schema_file, tmp_path):
    workload = tmp_path / "w.dq"
    workload.write_text("q1(X) :- t(X, rdf:type, picture)\n")
    out = run_cli(
        capsys,
        "--data", str(data_file),
        "--queries", str(workload),
        "--schema", str(schema_file),
        "--entailment", "post_reformulation",
        "--time-limit", "2",
        "--show-answers",
    )
    assert "schema: 6 RDFS statements" in out
    # No explicit picture instances exist: every answer is implicit,
    # through the subclass rule and the range typing of hasPainted.
    assert "q1: 6 answers" in out


def test_explain_prints_plans_and_route(capsys, data_file, workload_file):
    out = run_cli(
        capsys,
        "--data", str(data_file),
        "--queries", str(workload_file),
        "--time-limit", "2",
        "--explain",
    )
    assert "physical plans on the store:" in out
    assert "q1 [route=interpreted]:" in out
    assert "q2 [route=interpreted]:" in out
    # q1 is one union scan; q2 scans its rarer atom and probes the other.
    assert "UnionScan(t(X, <http://example.org/hasPainted>" in out
    assert "UnionProbe(t(X, <http://example.org/hasPainted>, Y)" in out


def test_empty_workload_errors(capsys, data_file, tmp_path):
    workload = tmp_path / "empty.dq"
    workload.write_text("# nothing here\n")
    assert main(["--data", str(data_file), "--queries", str(workload)]) == 2


def test_strategy_choices(capsys, data_file, workload_file):
    out = run_cli(
        capsys,
        "--data", str(data_file),
        "--queries", str(workload_file),
        "--strategy", "descent",
        "--time-limit", "2",
    )
    assert "recommended views:" in out


class TestStorageBackends:
    def test_sqlite_backend_end_to_end(self, capsys, data_file, workload_file):
        out = run_cli(
            capsys,
            "--data", str(data_file),
            "--queries", str(workload_file),
            "--backend", "sqlite",
            "--time-limit", "2",
            "--show-answers",
        )
        assert "[sqlite backend]" in out
        assert "q1: 1 answers" in out

    def test_save_then_reopen_snapshot(self, capsys, data_file, workload_file,
                                       tmp_path):
        db = tmp_path / "store.db"
        out = run_cli(
            capsys,
            "--data", str(data_file),
            "--queries", str(workload_file),
            "--db", str(db),
            "--time-limit", "2",
        )
        assert f"saved store snapshot to {db}" in out
        assert db.is_file()
        # Second run: no --data, the snapshot serves the workload.
        for backend in ("sqlite", "memory"):
            out = run_cli(
                capsys,
                "--queries", str(workload_file),
                "--db", str(db),
                "--backend", backend,
                "--time-limit", "2",
                "--show-answers",
            )
            assert f"[{backend} backend]" in out
            assert "q1: 1 answers" in out

    def test_refuses_to_overwrite_existing_db(self, capsys, data_file,
                                              workload_file, tmp_path):
        db = tmp_path / "store.db"
        run_cli(
            capsys,
            "--data", str(data_file),
            "--queries", str(workload_file),
            "--backend", "sqlite",
            "--db", str(db),
            "--time-limit", "2",
        )
        # Refused with either backend: --db + --data on an existing
        # snapshot must never destroy it silently.
        for backend in ("sqlite", "memory"):
            assert main([
                "--data", str(data_file),
                "--queries", str(workload_file),
                "--backend", backend,
                "--db", str(db),
            ]) == 2
            assert "refusing to overwrite" in capsys.readouterr().err

    def test_neither_data_nor_db_errors(self, capsys, workload_file):
        assert main(["--queries", str(workload_file)]) == 2
        assert "either --data or --db" in capsys.readouterr().err

    def test_parse_failure_leaves_no_db_stub(self, capsys, workload_file,
                                             tmp_path):
        bad = tmp_path / "bad.nt"
        bad.write_text("<http://e/a> <http://e/p> missing-brackets .\n")
        db = tmp_path / "store.db"
        assert main([
            "--data", str(bad),
            "--queries", str(workload_file),
            "--backend", "sqlite",
            "--db", str(db),
        ]) == 2
        assert "cannot load" in capsys.readouterr().err
        assert not db.exists()

    def test_missing_data_file_leaves_no_db_stub(self, capsys, workload_file,
                                                 tmp_path):
        db = tmp_path / "store.db"
        assert main([
            "--data", str(tmp_path / "nope.nt"),
            "--queries", str(workload_file),
            "--backend", "sqlite",
            "--db", str(db),
        ]) == 2
        assert "cannot load" in capsys.readouterr().err
        assert not db.exists()

    def test_unwritable_db_path_reports_cleanly(self, capsys, data_file,
                                                workload_file, tmp_path):
        assert main([
            "--data", str(data_file),
            "--queries", str(workload_file),
            "--backend", "sqlite",
            "--db", str(tmp_path / "no" / "such" / "dir" / "x.db"),
        ]) == 2
        assert "cannot create database" in capsys.readouterr().err

    def test_corrupt_db_reports_cleanly(self, capsys, workload_file, tmp_path):
        db = tmp_path / "garbage.db"
        db.write_bytes(b"definitely not a sqlite database, lots of padding")
        assert main([
            "--queries", str(workload_file),
            "--backend", "sqlite",
            "--db", str(db),
        ]) == 2
        assert "cannot open" in capsys.readouterr().err


def test_search_budget_flags(capsys, data_file, workload_file):
    out = run_cli(
        capsys,
        "--data", str(data_file),
        "--queries", str(workload_file),
        "--search-budget-seconds", "2",
        "--search-budget-states", "50",
        "--strategy", "exstr",
    )
    assert "recommended views:" in out
    assert "cost reduction" in out


def test_explain_prints_search_accounting(capsys, data_file, workload_file):
    out = run_cli(
        capsys,
        "--data", str(data_file),
        "--queries", str(workload_file),
        "--time-limit", "2",
        "--strategy", "gstr",
        "--explain",
    )
    assert "search accounting [strategy=gstr" in out
    assert "created" in out
    assert "duplicates" in out
    assert "discarded" in out
    assert "explored" in out
    assert "states/sec" in out


def test_analyze_prints_annotated_plan(capsys, data_file, workload_file):
    out = run_cli(
        capsys,
        "--data", str(data_file),
        "--queries", str(workload_file),
        "--time-limit", "2",
        "--analyze",
    )
    assert "explain analyze on the store:" in out
    assert "q2 [route=interpreted " in out
    assert "rows=" in out and "batches=" in out and "time_ms=" in out
    assert "est_rows=" in out
    assert "workload batch" not in out


def test_analyze_covers_the_pushdown_route(capsys, data_file, workload_file,
                                           tmp_path):
    db = tmp_path / "analyzed.db"
    out = run_cli(
        capsys,
        "--data", str(data_file),
        "--db", str(db),
        "--backend", "sqlite",
        "--queries", str(workload_file),
        "--time-limit", "2",
        "--analyze",
    )
    assert "q2 [route=sql-pushdown " in out
    assert "parity=yes order=kept" in out
    assert "order=reordered" not in out
    assert "SQLPushdown" in out
    assert "CROSS JOIN" in out
    assert "interpreted equivalent:" in out


def test_quiet_suppresses_status_but_keeps_results(capsys, data_file,
                                                   workload_file):
    out = run_cli(
        capsys,
        "--data", str(data_file),
        "--queries", str(workload_file),
        "--time-limit", "2",
        "-q",
    )
    assert "loaded" not in out
    assert "workload:" not in out
    assert "recommended views:" in out
    assert "cost reduction" in out


def test_log_level_warning_matches_quiet(capsys, data_file, workload_file):
    out = run_cli(
        capsys,
        "--data", str(data_file),
        "--queries", str(workload_file),
        "--time-limit", "2",
        "--log-level", "warning",
    )
    assert "loaded" not in out
    assert "recommended views:" in out


def test_slow_query_warnings_go_to_stderr(capsys, data_file, workload_file):
    assert main([
        "--data", str(data_file),
        "--queries", str(workload_file),
        "--time-limit", "2",
        "--slow-query-ms", "0.0001",
        "--show-answers",
    ]) == 0
    captured = capsys.readouterr()
    assert "slow query" in captured.err
    assert "recommended views:" in captured.out
    # The CLI restores the module flag for the next main() in-process.
    from repro.obs import metrics

    assert metrics.slow_query_ms is None


def test_metrics_json_writes_registry_snapshot(capsys, data_file,
                                               workload_file, tmp_path):
    import json

    path = tmp_path / "metrics.json"
    run_cli(
        capsys,
        "--data", str(data_file),
        "--queries", str(workload_file),
        "--time-limit", "2",
        "--metrics-json", str(path),
    )
    snapshot = json.loads(path.read_text())
    assert snapshot["counters"].get("selection.search.runs", 0) >= 1
    assert "selection.memo.view_hit" in snapshot["counters"]
    from repro.obs import metrics

    assert not metrics.enabled


def test_trace_writes_nested_spans(capsys, data_file, workload_file, tmp_path):
    import json

    path = tmp_path / "trace.jsonl"
    run_cli(
        capsys,
        "--data", str(data_file),
        "--queries", str(workload_file),
        "--time-limit", "2",
        "--trace", str(path),
    )
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert events
    names = {event["name"] for event in events}
    assert "selection.run_search" in names
    from repro.obs import tracing

    assert tracing.sink is None
