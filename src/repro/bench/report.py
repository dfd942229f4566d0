"""ASCII rendering of the evaluation artifacts (Figure 6 matrix, Figure 7
series) and a machine-readable dump for EXPERIMENTS.md."""

from __future__ import annotations

from typing import Iterable, Optional

from repro.bench.heatmap import HeatmapResult
from repro.bench.statbench import BenchSeries


def render_heatmap(result: HeatmapResult, kernel: str) -> str:
    """The Figure 6 matrix: tests *not* conflict-free per syscall pair."""
    ops = result.op_names
    index = {}
    for cell in result.cells:
        index[(cell.op0, cell.op1)] = cell
        index[(cell.op1, cell.op0)] = cell
    width = max(len(op) for op in ops) + 1
    colw = 9
    header = " " * width + "".join(f"{op[:colw - 1]:>{colw}}" for op in ops)
    lines = [
        f"{kernel}: {result.conflict_free_total(kernel)} of "
        f"{result.total_tests} cases conflict-free "
        f"(cells show failing / total)",
        header,
    ]
    for i, row_op in enumerate(ops):
        row = f"{row_op:<{width}}"
        for j, col_op in enumerate(ops):
            if j < i:
                row += " " * colw
                continue
            cell = index.get((row_op, col_op))
            if cell is None or cell.total == 0:
                row += f"{'-':>{colw}}"
                continue
            bad = cell.not_conflict_free.get(kernel, 0)
            row += f"{'' if bad == 0 else f'{bad}/{cell.total}':>{colw}}"
        lines.append(row)
    return "\n".join(lines)


def render_residues(result: HeatmapResult, kernel: str) -> str:
    """§6.4 difficult-to-scale residue breakdown."""
    residues = result.residues.get(kernel, {})
    if not residues:
        return f"{kernel}: no residual conflicts"
    total = sum(residues.values())
    lines = [f"{kernel}: residual conflict classes ({total} tests)"]
    for label, count in sorted(residues.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {label:<16} {count}")
    return "\n".join(lines)


def render_series(title: str, series_list: Iterable[BenchSeries],
                  unit: str = "ops/Mcycle/core") -> str:
    """Aligned throughput table, one column per mode (Figure 7 style)."""
    series_list = list(series_list)
    cores = series_list[0].cores
    lines = [title, f"{'cores':>6} " + "".join(
        f"{s.label:>18}" for s in series_list
    ) + f"   ({unit})"]
    for i, n in enumerate(cores):
        row = f"{n:>6} "
        for s in series_list:
            row += f"{s.per_core[i]:>18.2f}"
        lines.append(row)
    for s in series_list:
        lines.append(
            f"  {s.label}: total-throughput scaling "
            f"{s.scaling_factor():.1f}x from {cores[0]} to {cores[-1]} cores"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Machine-readable artifacts (the schema repro.browser reads)


def heatmap_to_dict(result: HeatmapResult) -> dict:
    """The Figure 6 artifact: totals, per-pair cells, residues.

    Non-POSIX interface runs carry an ``interface`` key; the default
    POSIX artifact keeps its historical *result* keys unchanged.  The
    execution-accounting keys (``workers``, ``backend``,
    ``backend_stats``, ``elapsed``, cache counts) describe how the sweep
    ran, are volatile by design, and are stripped by
    :func:`strip_volatile_heatmap` before any parity comparison.
    """
    out = {
        "schema": "repro.heatmap/1",
        "kernels": list(result.kernels),
        "ops": list(result.op_names),
        "elapsed": result.elapsed_seconds,
        "workers": result.workers,
        "backend": result.backend,
        "backend_stats": dict(result.backend_stats),
        "cached_pairs": result.cached_pairs,
        "computed_pairs": result.computed_pairs,
        "total": result.total_tests,
        "conflict_free": {
            kernel: result.conflict_free_total(kernel)
            for kernel in result.kernels
        },
        "cells": [
            {
                "op0": cell.op0,
                "op1": cell.op1,
                "total": cell.total,
                "fails": dict(cell.not_conflict_free),
                "mismatches": dict(cell.mismatches),
                "solver": dict(cell.solver_stats),
            }
            for cell in result.cells
        ],
        "residues": {k: dict(v) for k, v in result.residues.items()},
        "solver_totals": result.solver_totals,
    }
    # Results depend on both (they are part of the cache fingerprint);
    # the default POSIX 4-core artifact keeps its historical key set.
    if result.interface != "posix":
        out["interface"] = result.interface
    if result.interface != "posix" or result.ncores != 4:
        out["ncores"] = result.ncores
    return out


def analyze_to_dict(result) -> dict:
    """The ``repro.analyze/1`` artifact of an
    :class:`~repro.pipeline.sweep.AnalysisSweep`: per-pair path counts
    and rendered commutativity conditions, plus the volatile execution
    and solver accounting :func:`strip_volatile_analyze` removes."""
    out = {
        "schema": "repro.analyze/1",
        "ops": result.op_names,
        "elapsed": result.elapsed_seconds,
        "workers": result.workers,
        "backend": result.backend,
        "pairs": [s.to_dict() for s in result.summaries],
        "solver_totals": result.solver_totals,
    }
    if result.interface != "posix":
        out["interface"] = result.interface
    return out


def strip_volatile_analyze(artifact: dict) -> dict:
    """The *result* content of an analyze artifact (the analogue of
    :func:`strip_volatile_heatmap`; what the service stores)."""
    out = {
        k: v for k, v in artifact.items()
        if k not in ("elapsed", "workers", "backend", "solver_totals")
    }
    out["pairs"] = [
        {k: v for k, v in pair.items() if k != "solver_stats"}
        for pair in artifact["pairs"]
    ]
    return out


def series_to_dict(series: BenchSeries) -> dict:
    """One Figure 7 curve."""
    return {
        "label": series.label,
        "cores": list(series.cores),
        "per_core": list(series.per_core),
        "scaling_factor": series.scaling_factor(),
    }


def bench_to_dict(name: str, series_list: Iterable[BenchSeries],
                  unit: str = "ops/Mcycle/core") -> dict:
    """A Figure 7 benchmark artifact: every mode's curve plus the unit."""
    return {
        "schema": "repro.bench/1",
        "benchmark": name,
        "unit": unit,
        "series": [series_to_dict(s) for s in series_list],
    }


def write_artifact(path: str, payload: dict) -> str:
    """Write a JSON artifact, creating the results/ directory as needed."""
    from repro.pipeline.cache import atomic_write_json

    return atomic_write_json(path, payload)


_VOLATILE_HEATMAP_KEYS = (
    "elapsed", "solver_totals", "workers", "cached_pairs", "computed_pairs",
    "backend", "backend_stats",
)


def strip_volatile_heatmap(artifact: dict) -> dict:
    """The *result* content of a heatmap artifact: everything except
    timing, execution (worker count, backend identity and stats), cache,
    and solver accounting, which legitimately differ between runs,
    execution backends, cache states, and solver modes.  The parity
    tests and before/after benchmarks compare artifacts through this
    projection — "byte-identical artifacts across backends" means byte
    identity of this projection (see docs/artifacts.md)."""
    out = {
        k: v for k, v in artifact.items()
        if k not in _VOLATILE_HEATMAP_KEYS
    }
    out["cells"] = [
        {k: v for k, v in cell.items() if k != "solver"}
        for cell in artifact["cells"]
    ]
    return out


# ----------------------------------------------------------------------
# Benchmark reports (the CI regression gate's input)

BENCH_REPORT_SCHEMA = "repro.bench-report/1"


def bench_report_name(raw: str) -> str:
    """Sanitize a benchmark name for use in a ``BENCH_<name>.json`` path."""
    import re

    return re.sub(r"[^A-Za-z0-9._-]+", "_", raw).strip("_")


def write_bench_report(
    name: str,
    wall_s: float,
    counters: Optional[dict] = None,
    directory: str = "results",
) -> str:
    """Emit one ``BENCH_<name>.json``: ``{name, wall_s, counters}``.

    Every benchmark run writes one of these (see ``benchmarks/conftest.py``);
    CI uploads them as artifacts and gates on regressions against the
    committed baseline via :mod:`repro.bench.regression`.
    """
    safe = bench_report_name(name)
    payload = {
        "schema": BENCH_REPORT_SCHEMA,
        "name": safe,
        "wall_s": float(wall_s),
        "counters": {
            k: v
            for k, v in (counters or {}).items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        },
    }
    import os

    return write_artifact(os.path.join(directory, f"BENCH_{safe}.json"), payload)
