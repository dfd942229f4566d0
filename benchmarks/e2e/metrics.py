"""The metric vocabulary: one place that turns a finished workload into
the named numbers ``BENCHMARK.json`` declares, and compares two sets of
runs under the declared bounds."""

from __future__ import annotations

import json
import math
import resource
import statistics
from collections import defaultdict
from typing import Optional

import reference

#: Counts that must repeat exactly between runs of the same inputs, so
#: they may carry a claim on their own.
EXACT_COUNTS = (
    "analyzer.paths",
    "solver.checks",
    "solver.decisions",
    "solver.cache_hits",
    "solver.scope_reuse",
    "testgen.cases",
    "mtrace.replays",
    "mtrace.mem_accesses",
    "cache.saves",
    "store.puts",
)

KERNELS = ("mono", "scalefs")


def benchmark_spec() -> dict:
    with open(reference.REPO / "BENCHMARK.json") as f:
        return json.load(f)


def tail_percentile(samples: int) -> int:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond
    it; p75 when even that has fewer (the small sizes of the self-tests)."""
    for pct in (99, 95, 90):
        if samples * (100 - pct) >= 1000:
            return pct
    return 75


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """The larger of this process's and its reaped children's peak
    resident set (Linux reports KiB)."""
    return (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024
    )


def end_to_end(workload, setup_s: float) -> dict[str, float]:
    latencies = workload.log.latencies
    return {
        "setup_s": setup_s,
        "wall_s": workload.wall,
        "ops_per_s": len(latencies) / workload.wall,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": percentile(latencies, tail_percentile(len(latencies))) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(workload, untraced_wall: Optional[float]) -> dict[str, float]:
    """Every per-layer metric; 0 where the workload does not reach the
    layer (which is itself the prediction for that workload)."""
    tracer = workload.tracer
    counts = tracer.counts
    durations = tracer.durations()

    def total(name: str) -> float:
        return sum(durations[name])

    out: dict[str, float] = {}

    out["analyzer.analyze_s"] = total("analyzer.analyze")
    out["analyzer.paths"] = counts["analyzer.paths"]
    out["analyzer.us_per_path"] = ratio(out["analyzer.analyze_s"], out["analyzer.paths"]) * 1e6
    for key in ("checks", "decisions", "cache_hits", "scope_reuse"):
        out[f"solver.{key}"] = counts[f"solver.{key}"]
    out["solver.memo_hit_ratio"] = ratio(
        out["solver.cache_hits"], out["solver.checks"] + out["solver.cache_hits"]
    )

    out["testgen.generate_s"] = total("testgen.generate")
    out["testgen.concretize_s"] = total("testgen.concretize")
    out["testgen.groups_s"] = total("testgen.groups")
    out["testgen.enumerate_s"] = (
        out["testgen.generate_s"] - out["testgen.concretize_s"] - out["testgen.groups_s"]
    )
    out["testgen.cases"] = counts["testgen.cases"]
    out["testgen.us_per_case"] = ratio(out["testgen.generate_s"], out["testgen.cases"]) * 1e6

    for kernel in KERNELS:
        out[f"mtrace.replay_s.{kernel}"] = total(f"mtrace.replay.{kernel}")
        out[f"kernels.build_s.{kernel}"] = total(f"kernels.build.{kernel}")
    out["mtrace.replays"] = counts["mtrace.replays"]
    out["mtrace.us_per_replay"] = (
        ratio(sum(out[f"mtrace.replay_s.{k}"] for k in KERNELS), out["mtrace.replays"]) * 1e6
    )
    out["mtrace.mem_accesses"] = counts["mtrace.mem_accesses"]

    wall = workload.wall
    out["sweep.overhead_s"] = wall - counts["jobs.worker_s"] if total("sweep.run") else 0.0
    saves = durations["cache.save"]
    out["cache.load_s"] = total("cache.load")
    out["cache.get_s"] = total("cache.get")
    out["cache.put_s"] = total("cache.put")
    out["cache.save_s"] = sum(saves)
    out["cache.saves"] = len(saves)
    cache_reads = counts["cache.hits"] + counts["cache.misses"]
    out["cache.hit_ratio"] = ratio(counts["cache.hits"], cache_reads)
    out["report.serialize_s"] = total("report.serialize")

    for call in ("submit", "events", "artifact_fetch", "health"):
        spans = durations[f"service.{call}"]
        out[f"service.{call}_ms_p50"] = statistics.median(spans) * 1e3 if spans else 0.0
    out["service.store_hit_ratio"] = ratio(
        counts["store.hits"], counts["store.hits"] + counts["store.misses"]
    )
    out["store.lookup_s"] = total("store.lookup")
    out["store.put_s"] = total("store.put")
    out["store.load_s"] = total("store.load")
    out["store.puts"] = len(durations["store.put"])

    out["trace.overhead_share"] = (wall - untraced_wall) / untraced_wall if untraced_wall else 0.0

    declared = [m["name"] for m in benchmark_spec()["per_layer"]]
    for name in declared:
        out.setdefault(name, 0.0)
    out.update(workload.layer)
    return out


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[list], root: int) -> dict[str, float]:
    """Self time per span name over the tree under ``root``: a span's
    duration minus the part of it its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(index)
    out: dict[str, float] = defaultdict(float)
    todo = [root]
    while todo:
        index = todo.pop()
        name, start, end = spans[index][:3]
        kids = children.get(index, [])
        inside = [(max(start, spans[k][1]), min(end, spans[k][2])) for k in kids]
        out[name] += (end - start) - covered([(a, b) for a, b in inside if b > a])
        todo.extend(kids)
    return dict(out)


def blocking_path(workload) -> list[list]:
    """The per-layer table: ``[span name, self seconds, share]`` rows
    over the tree under the timed phase's root span."""
    spans = workload.tracer.spans
    root = workload.root
    wall = spans[root][2] - spans[root][1]
    rows = sorted(self_times(spans, root).items(), key=lambda kv: -kv[1])
    return [[name, seconds, seconds / wall] for name, seconds in rows]


def with_units(values: dict[str, float], declared: list[dict]) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics."""
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise KeyError(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(names) - set(values))}, "
            f"undeclared {sorted(set(values) - set(names))}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


# ----------------------------------------------------------------------
# --compare


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return abs(q3 - q1) / abs(middle) if middle else 0.0


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict) -> tuple[list[str], int]:
    """Per workload and metric: both medians, how much worse B is, the
    bound, and a verdict.  Returns the lines and the number of breaches
    (a bound exceeded, an exact count that differs, or a failed op)."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    def values(runs: list[dict]) -> dict:
        out: dict = {}
        for run in runs:
            for name, metric in run["metrics"].items():
                out.setdefault((run["workload"], name), []).append(metric["value"])
        return out

    a_values, b_values = values(a_runs), values(b_runs)
    lines = [
        f"{'workload':<20}{'metric':<34}{'A':>14}{'B':>14}{'worse by':>10}{'bound':>8}  verdict"
    ]
    breaches = 0
    for run in a_runs + b_runs:
        if run["failed"] or not run["correct"]:
            breaches += 1
            lines.append(f"{run['workload']:<20}{run['failed']} of {run['attempted']} ops failed")
    for key in sorted(a_values.keys() & b_values.keys()):
        workload, name = key
        metric = declared[name]
        a, b = a_values[key], b_values[key]
        a_mid, b_mid = statistics.median(a), statistics.median(b)
        sign = 1 if metric["better"] == "lower" else -1
        worse = sign * (b_mid - a_mid) / abs(a_mid) if a_mid else 0.0
        bound = metric.get("bound")
        if name in EXACT_COUNTS:
            verdict = "equal" if set(a) == set(b) and len(set(a)) == 1 else "COUNT DIFFERS"
        elif bound is None:
            verdict = ""
        elif worse > bound:
            verdict = "BREACH"
        elif max(spread(a), spread(b)) > bound:
            better = max(b) < min(a) if sign == 1 else min(b) > max(a)
            verdict = "better" if better else "unresolved"
        else:
            verdict = "ok"
        breaches += verdict in ("BREACH", "COUNT DIFFERS")
        lines.append(
            f"{workload:<20}{name:<34}{a_mid:>14.6g}{b_mid:>14.6g}{worse:>+10.1%}"
            f"{'' if bound is None else format(bound, '.0%'):>8}  {verdict}"
        )
    return lines, breaches
