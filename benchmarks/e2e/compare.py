"""``--compare A.json B.json``: two sets of runs under the benchmark's bounds.

Each file is what ``python -m benchmarks.e2e --runs N --out FILE`` wrote.
One row per workload × end-to-end metric: both medians, both spreads
(inter-quartile distance ÷ median) and a verdict —

* ``unresolved`` when either set's own spread exceeds the metric's
  bound (the sets cannot tell a change that size from noise),
* ``worse`` when B's median is worse than A's by more than the bound,
* ``ok`` otherwise.

Counts that must repeat exactly (same code, same seed) are compared run
by run across the traced runs and must be identical.
"""

from __future__ import annotations

import json
import statistics

from .harness import spread_share

#: Per-layer counts that depend only on the pinned inputs, never on time.
EXACT_COUNTS = (
    "reformulation.disjuncts", "engine.answers", "rdf.saturated_triples",
    "storage.rows_matched", "selection.created",
    "selection.duplicates", "selection.discarded", "selection.explored",
    "selection.rcr", "selection.extent_rows",
)


def _load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def _values(runs, workload: str, metric: str) -> list[float]:
    return [
        run["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload and not run["trace"]
    ]


def verdict(a, b, better: str, bound: float) -> tuple[str, float]:
    """(verdict, how much worse B's median is than A's, as a share of
    A's; negative when B is better)."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse = (median_b - median_a) / abs(median_a) if median_a else 0.0
    if better == "higher":
        worse = -worse
    if min(len(a), len(b)) >= 2 and max(spread_share(a), spread_share(b)) > bound:
        return "unresolved", worse
    return ("worse" if worse > bound else "ok"), worse


def exact_mismatches(runs_a, runs_b) -> list[str]:
    """Exact counts that differ between traced runs of the same workload
    and seed."""
    traced_b = {
        (run["workload"], run["seed"]): run for run in runs_b if run["trace"]
    }
    problems = []
    for run in runs_a:
        other = traced_b.get((run["workload"], run["seed"])) if run["trace"] else None
        if other is None:
            continue
        for name in EXACT_COUNTS:
            mine = run["metrics"][name]["value"]
            theirs = other["metrics"][name]["value"]
            if mine != theirs:
                problems.append(
                    f"{run['workload']} seed {run['seed']}: {name} {mine} != {theirs}"
                )
    return problems


def compare_files(path_a: str, path_b: str, manifest: dict) -> int:
    runs_a, runs_b = _load(path_a), _load(path_b)
    print(f"A = {path_a}")
    print(f"B = {path_b}")
    print(
        f"{'workload':<14} {'metric':<12} {'median A':>11} {'median B':>11} "
        f"{'spread A':>9} {'spread B':>9} {'B worse by':>11} {'bound':>6}  verdict"
    )
    regressions = 0
    for workload in [entry["name"] for entry in manifest["workloads"]]:
        for entry in manifest["end_to_end"]:
            a = _values(runs_a, workload, entry["name"])
            b = _values(runs_b, workload, entry["name"])
            if not a or not b:
                continue
            outcome, worse = verdict(a, b, entry["better"], entry["bound"])
            regressions += outcome == "worse"
            spreads = [
                f"{spread_share(values):>9.1%}" if len(values) >= 2 else f"{'n/a':>9}"
                for values in (a, b)
            ]
            print(
                f"{workload:<14} {entry['name']:<12} {statistics.median(a):>11.5g} "
                f"{statistics.median(b):>11.5g} {spreads[0]} {spreads[1]} "
                f"{worse:>+11.1%} {entry['bound']:>6.0%}  {outcome}"
            )
    mismatches = exact_mismatches(runs_a, runs_b)
    for problem in mismatches:
        print(f"EXACT COUNT DIFFERS: {problem}")
    print(
        f"{regressions} metric(s) worse beyond their bound, "
        f"{len(mismatches)} exact count(s) differ"
    )
    return 1 if regressions or mismatches else 0
