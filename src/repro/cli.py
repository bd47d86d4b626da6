"""Command-line interface: ``python -m repro``.

Runs the full pipeline from files, the way a storage-tuning wizard would
(the paper's companion demo RDFViewS was exactly that): load an
N-Triples dataset and a datalog-style workload, search for views, and
print the recommended views, the rewritings, and the cost summary.

Example::

    python -m repro --data catalog.nt --queries workload.dq \
        --strategy dfs --entailment post_reformulation --time-limit 10

A second verb, ``serve``, turns a saved store snapshot into a
multi-process query server (see ``docs/server.md``)::

    python -m repro serve --db kb.snapshot --workers 4

prints the socket address + auth key and serves until interrupted;
with ``--replay workload.dq`` it instead replays the workload through
concurrent clients against itself, verifies every served answer
against single-process evaluation, and reports sustained QPS with
latency percentiles (``--json`` writes the report).

The workload file holds one query per line (continuations allowed), in
the syntax of :mod:`repro.query.parser`::

    q1(X, Z) :- t(X, <http://e/hasPainted>, <http://e/starry>), t(X, <http://e/parentOf>, Z)

With ``--schema`` pointing at an N-Triples file of RDFS statements (or
when the data file itself contains ``rdfs:subClassOf`` & co.), the
entailment modes of Section 4.3 become available.

Status chatter routes through stdlib :mod:`logging` (logger ``repro``,
INFO to stdout, WARNING and above to stderr): ``-q`` silences it,
``--log-level debug`` raises it, and ``--slow-query-ms`` makes the
engine warn on every query slower than the threshold. Observability
flags: ``--explain`` prints physical plans, ``--analyze`` executes them
instrumented (per-operator rows/batches/time and actual-vs-estimated
cardinalities), ``--metrics-json`` dumps the metrics registry and
``--trace`` writes structured tracing spans as JSONL.
"""

from __future__ import annotations

import argparse
import json
import logging
import sqlite3
import sys
import time
from pathlib import Path

from repro.engine import (
    INTERPRETED,
    SQL_PUSHDOWN,
    describe_union_sharing,
    plan_pushdown,
    plan_query,
)
from repro.obs import metrics, tracing
from repro.obs.analyze import analyze_query, analyze_union
from repro.obs.render import PlanNode, operator_tree, query_header, render, sql_tree
from repro.query.parser import parse_queries
from repro.rdf.ntriples import NTriplesParseError, parse_ntriples
from repro.rdf.schema import RDFSchema
from repro.rdf.store import TripleStore
from repro.selection.recommender import ENTAILMENT_MODES, ViewSelector
from repro.selection.search import STRATEGY_FACTORIES, SearchBudget
from repro.storage import BACKENDS, SnapshotError, SqliteBackend

_LOG = logging.getLogger("repro.cli")

_LOG_LEVELS = ("debug", "info", "warning", "error")


def _setup_logging(level_name: str) -> None:
    """Fresh handlers on the ``repro`` logger for this ``main()`` run.

    INFO and below go to stdout (they are the CLI's status narration),
    WARNING and above to stderr — so piping stdout captures results
    while slow-query warnings and errors still reach the terminal.
    Handlers are replaced, not appended: tests call ``main()`` many
    times in one process.
    """
    logger = logging.getLogger("repro")
    logger.setLevel(getattr(logging, level_name.upper()))
    logger.propagate = False
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    formatter = logging.Formatter("%(message)s")
    out = logging.StreamHandler(sys.stdout)
    out.addFilter(lambda record: record.levelno < logging.WARNING)
    out.setFormatter(formatter)
    err = logging.StreamHandler(sys.stderr)
    err.setLevel(logging.WARNING)
    err.setFormatter(formatter)
    logger.addHandler(out)
    logger.addHandler(err)


def _non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}"
        )
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Recommend materialized views for an RDF query workload "
        "(View Selection in Semantic Web Databases, VLDB 2011).",
    )
    parser.add_argument("--data", type=Path, default=None,
                        help="N-Triples file with the RDF data (optional when "
                        "--db points at a saved store snapshot)")
    parser.add_argument("--backend", choices=BACKENDS, default="memory",
                        help="storage backend holding the triple table "
                        "(default: memory; sqlite keeps it on disk)")
    parser.add_argument("--db", type=Path, default=None,
                        help="store snapshot file: with --data the loaded "
                        "store is saved here; without --data the snapshot is "
                        "opened instead of parsing N-Triples (with --backend "
                        "sqlite the file is served in place, no load)")
    parser.add_argument("--queries", required=True, type=Path,
                        help="workload file, one datalog-style query per line")
    parser.add_argument("--schema", type=Path, default=None,
                        help="N-Triples file with RDFS statements "
                        "(default: extracted from --data)")
    parser.add_argument("--strategy", choices=sorted(STRATEGY_FACTORIES),
                        default="dfs")
    parser.add_argument("--entailment", choices=ENTAILMENT_MODES, default="none")
    parser.add_argument("--time-limit", "--search-budget-seconds",
                        dest="time_limit", type=float, default=30.0,
                        metavar="SECONDS",
                        help="stoptime budget of the view-selection search "
                        "in seconds (default 30)")
    parser.add_argument("--search-budget-states", type=_non_negative_int,
                        default=None, metavar="STATES",
                        help="bound the number of states the search may "
                        "create (a memory stand-in; default: unlimited)")
    parser.add_argument("--namespace", default="http://example.org/",
                        help="default namespace for bare query constants")
    parser.add_argument("--show-answers", action="store_true",
                        help="materialize the views and print each query's "
                        "answer count")
    parser.add_argument("--explain", action="store_true",
                        help="print each workload query's physical plan on "
                        "the store (the operator tree, or the whole-plan "
                        "SQL pushdown statement on SQL-capable backends), the "
                        "route of each reformulation union (with --schema), "
                        "plus the search's Figure-5 state accounting after "
                        "the recommendation")
    parser.add_argument("--analyze", action="store_true",
                        help="EXPLAIN ANALYZE: execute each workload query "
                        "instrumented and print the annotated plan tree — "
                        "per-operator rows in/out, batches, wall time, and "
                        "actual-vs-estimated cardinalities per join step; "
                        "covers the SQL pushdown route (with the backend's "
                        "EXPLAIN QUERY PLAN and an answer-parity check) and "
                        "each reformulation union (with --schema)")
    parser.add_argument("--log-level", choices=_LOG_LEVELS, default="info",
                        help="verbosity of the status narration on the "
                        "'repro' logger (default info)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress status narration (same as "
                        "--log-level warning); results still print")
    parser.add_argument("--slow-query-ms", type=float, default=None,
                        metavar="MS",
                        help="warn (on stderr) about every engine query "
                        "slower than this many milliseconds")
    parser.add_argument("--metrics-json", type=Path, default=None,
                        metavar="PATH",
                        help="enable the metrics registry and write its "
                        "JSON snapshot to PATH on exit")
    parser.add_argument("--trace", type=Path, default=None, metavar="PATH",
                        help="write structured tracing spans (JSON lines) "
                        "to PATH")
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve a saved store snapshot to concurrent clients "
        "from a pool of worker processes (read-only; zero writes to the "
        "snapshot).",
    )
    parser.add_argument("--db", required=True, type=Path,
                        help="store snapshot file to serve (written by "
                        "TripleStore.save or python -m repro --db)")
    parser.add_argument("--backend", choices=("sqlite", "memory"),
                        default="sqlite",
                        help="how each worker opens the snapshot: sqlite "
                        "serves the file in place through a read-only "
                        "connection (default); memory bulk-loads it per "
                        "worker")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="worker processes answering queries "
                        "(default 2); each holds its own connection and "
                        "prepared-plan cache and runs, as one batch, "
                        "whatever queued while it was busy")
    parser.add_argument("--replay", type=Path, default=None, metavar="PATH",
                        help="instead of serving forever: replay this "
                        "workload file through concurrent clients, verify "
                        "answers against single-process evaluation, report "
                        "QPS and latency percentiles, then exit")
    parser.add_argument("--clients", type=int, default=4, metavar="N",
                        help="concurrent client connections during "
                        "--replay (default 4)")
    parser.add_argument("--repeat", type=int, default=4, metavar="N",
                        help="times each workload query appears in the "
                        "replay schedule (default 4)")
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffle seed of the replay schedule")
    parser.add_argument("--namespace", default="http://example.org/",
                        help="default namespace for bare query constants "
                        "in the replay workload")
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help="write the replay report (QPS, percentiles, "
                        "merged server metrics) as JSON to PATH")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the answer verification against "
                        "single-process evaluation during --replay")
    parser.add_argument("--log-level", choices=_LOG_LEVELS, default="info")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress status narration")
    return parser


def _run_serve(args) -> int:
    from repro.engine import run_query
    from repro.query.parser import parse_queries as _parse_workload
    from repro.server import Server, ServerConfig, ServerError, replay
    from repro.workload.generator import replay_schedule

    if not args.db.is_file():
        _LOG.error(f"snapshot {args.db} does not exist")
        return 2
    config = ServerConfig(workers=args.workers, backend=args.backend)
    try:
        server = Server(args.db, config)
    except ServerError as exc:
        _LOG.error(str(exc))
        return 2
    with server:
        _LOG.info(
            f"serving {args.db} [{args.backend} backend, "
            f"{args.workers} workers] "
            f"pids={server.worker_pids()}"
        )
        if args.replay is None:
            # Foreground mode: announce the connection coordinates and
            # serve until interrupted.
            print(f"address {server.address}")
            print(f"authkey {server.authkey.hex()}")
            sys.stdout.flush()
            try:
                while True:
                    time.sleep(0.5)
            except KeyboardInterrupt:
                _LOG.info("interrupted; shutting down")
            return 0
        queries = _parse_workload(
            args.replay.read_text(), namespace=args.namespace
        )
        if not queries:
            _LOG.error("the replay workload contains no queries")
            return 2
        schedule = replay_schedule(
            queries, repeats=max(1, args.repeat), seed=args.seed
        )
        reference = None
        if not args.no_verify:
            reference_store = TripleStore.open(
                args.db, backend=args.backend,
                read_only=True if args.backend == "sqlite" else None,
            )
            try:
                reference = {
                    str(query): frozenset(run_query(query, reference_store))
                    for query in queries
                }
            finally:
                reference_store.close()
        report = replay(
            server.address, server.authkey, schedule,
            clients=max(1, args.clients), reference=reference,
        )
        summary = report.summary()
        metrics_snapshot = server.metrics_snapshot()
    verified = "verified" if reference is not None else "unverified"
    print(f"replayed {summary['queries']} queries "
          f"({len(queries)} distinct x {max(1, args.repeat)}) "
          f"over {summary['clients']} clients [{verified}]")
    print(f"  qps     {summary['qps']:.1f}")
    latency = summary["latency_ms"]
    print(f"  latency p50 {latency['p50']:.2f}ms  "
          f"p95 {latency['p95']:.2f}ms  p99 {latency['p99']:.2f}ms")
    print(f"  errors {summary['errors']}  mismatches {summary['mismatches']}")
    if args.json is not None:
        payload = {
            "snapshot": str(args.db),
            "backend": args.backend,
            "workers": args.workers,
            "verified": reference is not None,
            "replay": summary,
            "server_metrics": metrics_snapshot,
        }
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        _LOG.info(f"wrote replay report to {args.json}")
    if report.errors or report.mismatches:
        for message in report.error_messages[:5]:
            _LOG.error(f"replay error: {message}")
        return 1
    return 0


def _load_store(args) -> TripleStore | None:
    """Build the store from --data / --db; None (and a message) on misuse."""
    if args.data is None:
        if args.db is None or not args.db.is_file():
            _LOG.error(
                "either --data or --db pointing at an existing snapshot "
                "is required"
            )
            return None
        try:
            store = TripleStore.open(args.db, backend=args.backend)
        except SnapshotError as exc:
            _LOG.error(f"cannot open {args.db}: {exc}")
            return None
        _LOG.info(
            f"opened {len(store)} triples from {args.db} "
            f"[{store.backend_name} backend]"
        )
        return store
    if args.db is not None and args.db.exists():
        _LOG.error(
            f"refusing to overwrite existing {args.db}; "
            "drop --data to open it, or pick a fresh --db path"
        )
        return None
    if args.backend == "sqlite":
        try:
            store = TripleStore(
                backend=SqliteBackend(args.db) if args.db is not None else "sqlite"
            )
        except sqlite3.Error as exc:
            _LOG.error(f"cannot create database {args.db}: {exc}")
            return None
    else:
        store = TripleStore()
    try:
        store.add_all(parse_ntriples(args.data.read_text()))
    except (OSError, NTriplesParseError) as exc:
        _LOG.error(f"cannot load {args.data}: {exc}")
        store.backend.close()
        if args.db is not None:
            # Don't leave a half-loaded stub blocking the next attempt.
            args.db.unlink(missing_ok=True)
        return None
    _LOG.info(
        f"loaded {len(store)} triples from {args.data} "
        f"[{store.backend_name} backend]"
    )
    if args.db is not None:
        store.save(args.db)
        _LOG.info(f"saved store snapshot to {args.db}")
    return store


def _explain_plan(query, store) -> PlanNode:
    """The ``--explain`` plan tree for one query (no execution): the
    route ``run_query`` takes and what it runs there."""
    compiled = plan_pushdown(query, store)
    if compiled is not None:
        header = query_header(query.name, route=SQL_PUSHDOWN)
        header.children.append(sql_tree(compiled))
        return header
    header = query_header(query.name, route=INTERPRETED)
    header.children.append(operator_tree(plan_query(query, store)))
    return header


def _print_explain(queries, store, schema) -> None:
    print(query_header("physical plans on the store").line())
    for query in queries:
        print(render(_explain_plan(query, store), indent=2))
    # Per reformulation union when a schema is present, the route it
    # takes (factorised, or the flat form's branches).
    if schema is not None:
        from repro.reformulation.reformulate import reformulate

        sharing = PlanNode("reformulation unions", header=True)
        for query in queries:
            line = describe_union_sharing(reformulate(query, schema), store)
            sharing.children.append(PlanNode(f"{query.name}: {line}"))
        print(render(sharing, indent=2))
    print()


def _print_analyze(queries, store, schema) -> None:
    print(query_header("explain analyze on the store").line())
    for query in queries:
        print(analyze_query(query, store).text(indent=2))
    if schema is not None:
        from repro.reformulation.reformulate import reformulate

        print("  analyzed reformulation unions:")
        for query in queries:
            report = analyze_union(reformulate(query, schema), store)
            report.tree.label = f"{query.name} {report.tree.label}"
            print(report.text(indent=4))
    print()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        serve_args = build_serve_parser().parse_args(argv[1:])
        _setup_logging(
            "warning" if serve_args.quiet else serve_args.log_level
        )
        return _run_serve(serve_args)
    args = build_parser().parse_args(argv)
    _setup_logging("warning" if args.quiet else args.log_level)
    if args.trace is not None:
        tracing.configure(args.trace)
    if args.metrics_json is not None:
        metrics.reset()
        metrics.enable()
    if args.slow_query_ms is not None:
        metrics.slow_query_ms = args.slow_query_ms
    try:
        return _run(args)
    finally:
        if args.slow_query_ms is not None:
            metrics.slow_query_ms = None
        if args.metrics_json is not None:
            metrics.export_json(args.metrics_json)
            metrics.disable()
            _LOG.info(f"wrote metrics registry to {args.metrics_json}")
        if args.trace is not None:
            tracing.configure(None)
            _LOG.info(f"wrote tracing spans to {args.trace}")


def _run(args) -> int:
    store = _load_store(args)
    if store is None:
        return 2

    schema = None
    if args.schema is not None:
        schema = RDFSchema.from_triples(parse_ntriples(args.schema.read_text()))
    elif args.entailment != "none":
        schema = RDFSchema.from_triples(iter(store))
    if schema is not None:
        _LOG.info(f"schema: {len(schema)} RDFS statements")

    queries = parse_queries(args.queries.read_text(), namespace=args.namespace)
    if not queries:
        _LOG.error("the workload file contains no queries")
        return 2
    _LOG.info(f"workload: {len(queries)} queries, "
              f"{sum(len(q) for q in queries)} atoms\n")

    if args.explain:
        _print_explain(queries, store, schema)
    if args.analyze:
        _print_analyze(queries, store, schema)

    selector = ViewSelector(
        store,
        schema=schema,
        strategy=args.strategy,
        entailment=args.entailment,
        budget=SearchBudget(
            time_limit=args.time_limit, max_states=args.search_budget_states
        ),
    )
    recommendation = selector.recommend(queries)
    result = recommendation.result

    print("recommended views:")
    for view in recommendation.views:
        print(f"  {view}")
    print("\nrewritings:")
    for name, rewriting in sorted(recommendation.state.rewritings.items()):
        rendered = " UNION ".join(str(d.plan) for d in rewriting)
        print(f"  {name} = {rendered}")
    print()
    print(f"initial cost  {result.initial_cost:.1f}")
    print(f"best cost     {result.best_cost:.1f}")
    print(f"cost reduction {result.rcr:.1%} "
          f"({result.stats.created} states in {result.runtime:.1f}s)")

    if args.explain:
        stats = result.stats
        rate = stats.created / result.runtime if result.runtime > 0 else 0.0
        print()
        print(f"search accounting [strategy={result.strategy or args.strategy} "
              f"completed={'yes' if result.completed else 'no (budget)'}]:")
        print(f"  created    {stats.created}")
        print(f"  duplicates {stats.duplicates}")
        print(f"  discarded  {stats.discarded}")
        print(f"  explored   {stats.explored}")
        print(f"  states/sec {rate:.0f}")

    if args.show_answers:
        extents = recommendation.materialize()
        print("\nanswers from the materialized views:")
        for query in queries:
            answers = recommendation.answer(query.name, extents)
            print(f"  {query.name}: {len(answers)} answers")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    raise SystemExit(main())
