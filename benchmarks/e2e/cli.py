"""Command line of the end-to-end benchmark.

``--workload NAME --seed N --seconds S --trace 0|1`` runs one workload in
this process and prints, as its last line, the JSON object the
``BENCHMARK.json`` contract asks for. Without ``--workload`` every
workload runs in a fresh child process each and the results are gathered
into one file; ``--smoke`` does that at a small scale and checks answers
and output schema only; ``--compare A.json B.json`` sets two such files
against each other under the benchmark's own bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from .harness import (
    RECONCILE_LIMIT, Tracer, collector_paused, environment_stamp, mean,
    peak_rss_mb, speed_factor, speed_sample, supported_percentile,
)

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parent.parent
OUT = PACKAGE / "out"

#: Everything the benchmark writes besides ``out/`` — snapshots and the
#: server's socket — goes here, inside the checkout and ignored by git.
#: The name is short because a UNIX socket path may not exceed 107 bytes.
SCRATCH = ROOT / ".bench_tmp"
_SOCKET_PATH_BUDGET = 107 - len("/pymp-12345678/listener-12345678")

WORKLOAD_NAMES = (
    "adhoc-memory", "adhoc-sqlite", "select", "view-maintain", "serve",
)


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- a pinned interpreter -------------------------------------------------


def pinned_environment() -> dict:
    """The environment every measuring process runs under: a fixed hash
    seed (the generated catalog depends on set iteration order) and a
    temporary directory inside the checkout."""
    pinned = {"PYTHONHASHSEED": "0"}
    if len(str(SCRATCH)) <= _SOCKET_PATH_BUDGET:
        pinned["TMPDIR"] = str(SCRATCH)
    return pinned


def ensure_pinned() -> None:
    """Re-exec this interpreter under :func:`pinned_environment` unless
    it already runs under it."""
    pinned = pinned_environment()
    if all(os.environ.get(key) == value for key, value in pinned.items()):
        return
    SCRATCH.mkdir(exist_ok=True)
    sys.stdout.flush()
    os.execve(
        sys.executable, [sys.executable, *sys.orig_argv[1:]],
        {**os.environ, **pinned},
    )


# -- one workload, in this process ----------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale_name: str) -> dict:
    """Set up, warm up, measure and check one workload; returns the full
    result (metrics of the requested mode plus stamp and digests)."""
    import_started = time.perf_counter()
    from repro.obs import metrics as registry

    from .base import SCALES
    from .wl_adhoc import AdhocMemory, AdhocSqlite
    from .wl_maintain import ViewMaintain
    from .wl_select import Select
    from .wl_serve import Serve

    import_s = time.perf_counter() - import_started
    workloads = {
        cls.name: cls
        for cls in (AdhocMemory, AdhocSqlite, Select, ViewMaintain, Serve)
    }
    scale = SCALES[scale_name]
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    workload = workloads[name](scale, seed, workdir)
    layer = traced = None
    try:
        builds, step_runs = [], []
        for repeat in range(scale.setup_repeats):
            if repeat:
                workload.tear_down()
            steps: dict = {}
            builds.append(_at_reference_speed(lambda: workload.build(steps)))
            step_runs.append(steps)
        try:
            warmup_s = _at_reference_speed(workload.warm_up)
            workload.prepare()
            plain = workload.measure(seconds / 2 if trace else seconds, None)
            if trace:
                tracer = Tracer()
                registry.reset()
                with registry.enabled_registry():
                    traced = workload.measure(seconds / 2, tracer)
                with collector_paused():  # the probes are timed too
                    layer = workload.layer_metrics(
                        traced, tracer, registry.snapshot()["counters"]
                    )
                tracer.write(OUT / f"trace-{name}.jsonl")
            workload.check()
        finally:
            workload.tear_down()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = workload.end_to_end(plain)
    samples = measured.pop("samples")
    attempted, failed = plain.attempted, plain.failed
    if trace:
        attempted += traced.attempted
        failed += traced.failed
        again = workload.end_to_end(traced)
        values = {
            **layer,
            **{
                step_name: statistics.median(steps[step_name] for steps in step_runs)
                for step_name in step_runs[0]
            },
            **workload.extra_steps,
            "bench.warmup_s": warmup_s,
            "bench.samples": again["samples"],
            "bench.tail_supported_pct": supported_percentile(again["samples"]) or 0,
            "bench.failed_share": traced.failed_share(),
            "bench.gc_collect_ms": mean(traced.collect_ms),
            "bench.speed_factor": statistics.median(traced.factors),
            "obs.trace_overhead_share": measured["ops_per_s"] / again["ops_per_s"] - 1.0,
        }
        gap = values.get("bench.reconcile_gap_share", 0.0)
        if gap > RECONCILE_LIMIT:
            workload.problem(f"layer spans miss the op time by {gap:.1%}")
        if values.get("server.reconcile_gap", 0):
            workload.problem("server and worker query counts differ")
    else:
        values = {
            "setup_s": import_s + statistics.median(builds) + warmup_s,
            **measured,
            "peak_rss_mb": peak_rss_mb(children=True),
        }
    if failed:
        workload.problem(f"{failed} of {attempted} ops failed")

    declared = load_manifest()["per_layer" if trace else "end_to_end"]
    undeclared = sorted(set(values) - {entry["name"] for entry in declared})
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {undeclared}")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale_name,
        "correct": not workload.problems,
        "attempted": attempted, "failed": failed,
        # A layer the workload never enters did no work: it reports 0.
        "metrics": {
            entry["name"]: {
                "value": values.get(entry["name"], 0), "unit": entry["unit"],
            }
            for entry in declared
        },
        "samples": samples,
        "digests": workload.digests,
        "problems": workload.problems,
        "env": environment_stamp(ROOT),
    }


def _at_reference_speed(action) -> float:
    """Seconds ``action`` took, restated for the reference machine from
    speed samples taken just before and just after it."""
    samples = [speed_sample() for _ in range(3)]
    started = time.perf_counter()
    action()
    elapsed = time.perf_counter() - started
    samples += [speed_sample() for _ in range(3)]
    return elapsed * speed_factor(samples)


def contract_line(result: dict) -> str:
    """The last line of a single run: exactly the contract's four keys."""
    return json.dumps({
        key: result[key] for key in ("correct", "attempted", "failed", "metrics")
    })


def print_result(result: dict) -> None:
    env = result["env"]
    print(
        f"workload {result['workload']}  seed {result['seed']}  "
        f"scale {result['scale']}  trace {result['trace']}  "
        f"samples {result['samples']}"
    )
    print(
        f"  env: nproc={env['nproc']} python={env['python']} "
        f"hashseed={env['hashseed']} commit={env['commit'][:12]} "
        f"platform={env['platform']}"
    )
    for key, digest in sorted(result["digests"].items()):
        print(f"  digest {key} = {digest}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def validate_result(result: dict, manifest: dict) -> list[str]:
    """Schema problems of one result against the manifest (used by
    ``--smoke`` and the tests): every declared metric of the mode, with
    its unit and a number, and nothing else."""
    declared = manifest["per_layer" if result["trace"] else "end_to_end"]
    problems = []
    if set(result["metrics"]) != {entry["name"] for entry in declared}:
        problems.append("metric names differ from BENCHMARK.json")
    for entry in declared:
        metric = result["metrics"].get(entry["name"], {})
        value = metric.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{entry['name']}: value {value!r} is not a number")
        if metric.get("unit") != entry["unit"]:
            problems.append(f"{entry['name']}: unit {metric.get('unit')!r}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("attempted must be a whole number, at least 1")
    if not isinstance(result["failed"], int):
        problems.append("failed must be a whole number")
    return problems


# -- every workload, one child process each --------------------------------


def run_child(name: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    """One workload in a fresh interpreter; returns its full result."""
    result_file = OUT / f"run-{name}-seed{seed}-trace{trace}.json"
    result_file.unlink(missing_ok=True)
    command = [
        sys.executable, "-m", "benchmarks.e2e", "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--scale", scale,
    ]
    env = {**os.environ, **pinned_environment()}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    completed = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=900,
    )
    if completed.returncode or not result_file.exists():
        sys.stdout.write(completed.stdout)
        raise RuntimeError(f"{name} exited with code {completed.returncode}")
    return json.loads(result_file.read_text(encoding="utf-8"))


def run_all(args) -> int:
    """Every workload (or the one named) ``--runs`` times, seeds counting
    up from ``--seed``, one child process per run; with ``--trace`` the
    first seed of each workload is also run traced."""
    manifest = load_manifest()
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    runs, bad = [], 0
    for name in names:
        for repeat in range(args.runs):
            for trace in (0, 1) if args.trace and repeat == 0 else (0,):
                result = run_child(
                    name, args.seed + repeat, args.seconds, trace, args.scale
                )
                print_result(result)
                problems = validate_result(result, manifest) + result["problems"]
                for problem in problems:
                    print(f"  FAILED: {problem}")
                bad += bool(problems)
                runs.append(result)
    out = Path(args.out) if args.out else OUT / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs}, indent=1) + "\n", encoding="utf-8")
    print(f"{len(runs)} runs written to {out}; {bad} not correct")
    return 1 if bad else 0


# -- entry point ------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long one run measures (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: report the per-layer metrics from a traced run",
    )
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument(
        "--runs", type=int, default=None, metavar="N",
        help="run every workload N times, with seeds seed..seed+N-1, each "
        "in a child process, and gather the results (default without "
        "--workload: 1)",
    )
    parser.add_argument("--out", metavar="FILE", help="where gathered results go")
    parser.add_argument(
        "--smoke", action="store_true",
        help="all five workloads at the small scale, both modes, checking "
        "answers and output schema only",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        from .compare import compare_files

        return compare_files(*args.compare, load_manifest())
    ensure_pinned()
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        args.scale, args.seconds, args.trace, args.runs = "smoke", 1.0, 1, 1
        args.workload = None
    if args.seconds is None:
        args.seconds = float(load_manifest()["run_seconds"])
    if args.workload and args.runs is None:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale
        )
        (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1) + "\n", encoding="utf-8"
        )
        print_result(result)
        print(contract_line(result))
        return 0
    args.runs = args.runs or 1
    return run_all(args)
