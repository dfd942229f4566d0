"""The generic comparison engine: two sweeps, one claim, one artifact.

:func:`run_compare` drives the :mod:`repro.pipeline.sweep` seam —
ANALYZER → TESTGEN → MTRACE through :class:`~repro.pipeline.jobs.PairJob`,
an execution backend and the fingerprinted result cache — for both
sides of a :class:`~repro.compare.spec.Redesign`, summarizes both sweeps,
and evaluates the claim.  Both sides' jobs go through one
:func:`~repro.pipeline.sweep.execute_jobs` batch (each job carries its
own interface, state hooks and kernels, so a heterogeneous batch
schedules like any other): with ``--workers N``, a big baseline side
does not drain before the redesigned side's first job starts.  Each
side's summary equals that of a plain per-side
:func:`~repro.pipeline.sweep.run_sweep`, which
``tests/compare/test_interleaved.py`` pins.

:func:`compare_to_dict` renders the result as the schema-versioned
``results/compare_<name>.json`` artifact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.compare.spec import SIDES, Redesign, get_redesign
from repro.pipeline.sweep import (
    SweepResult,
    build_pair_jobs,
    execute_jobs,
    summarize_interface_sweep,
)

COMPARE_SCHEMA = "repro.compare/1"


@dataclass
class CompareResult:
    """Both sides' sweeps and summaries, plus the evaluated claim."""

    redesign: Redesign
    sweeps: dict[str, SweepResult]
    summaries: dict[str, dict]
    claim: dict
    ncores: int
    tests_per_path: int
    elapsed_seconds: float
    backend: str = "serial"
    backend_stats: dict = field(default_factory=dict)
    cached_pairs: int = 0
    computed_pairs: int = 0

    @property
    def holds(self) -> bool:
        return bool(self.claim["holds"])


def run_compare(
    redesign: Union[str, Redesign],
    tests_per_path: int = 1,
    workers: Optional[int] = None,
    cache: Optional[object] = None,
    ncores: int = 4,
    on_progress: Optional[Callable[[str], None]] = None,
    solver_cache_size: Optional[int] = None,
    backend: Optional[object] = None,
) -> CompareResult:
    """Run one registered comparison end-to-end.

    ``redesign`` is a registered name or a :class:`Redesign` instance.
    The remaining knobs are the sweep's: ``cache`` is shared across both
    sides (pair fingerprints already carry interface and ncores, so a
    compare run reuses — and feeds — the same entries as plain
    ``heatmap`` sweeps of the same interfaces).  ``backend`` and
    ``workers`` pick the execution backend both sides share.

    Jobs carry their interface per unit, so the mixed batch schedules on
    :func:`~repro.pipeline.sweep.execute_jobs` like any homogeneous one;
    the combined cell list is split back into per-side
    :class:`SweepResult`\\ s in matrix order afterwards.  Per-side
    ``elapsed_seconds`` is the shared batch's wall clock — the backend
    is shared, so there is no meaningful per-side split.
    """
    if isinstance(redesign, str):
        redesign = get_redesign(redesign)
    start = time.time()
    jobs = []
    spans = {}
    for side_name in SIDES:
        side = redesign.sides[side_name]
        ops, pair_filter = side.resolve()
        if on_progress is not None:
            on_progress(f"[{side_name}: {side.interface}] "
                        f"{len(ops)} ops")
        side_jobs = build_pair_jobs(
            ops=ops, pair_filter=pair_filter, interface=side.interface,
            tests_per_path=tests_per_path, ncores=ncores,
            solver_cache_size=solver_cache_size,
        )
        spans[side_name] = (ops, side.interface, len(jobs),
                            len(jobs) + len(side_jobs))
        jobs.extend(side_jobs)
    executed = execute_jobs(
        jobs, workers=workers, backend=backend, cache=cache,
        on_progress=on_progress,
    )
    elapsed = time.time() - start
    sweeps = {
        side_name: SweepResult.from_executed(
            executed, ops, interface, ncores, elapsed, lo, hi
        )
        for side_name, (ops, interface, lo, hi) in spans.items()
    }
    summaries = {
        name: summarize_interface_sweep(sweep)
        for name, sweep in sweeps.items()
    }
    claim = redesign.claim.evaluate(
        summaries["baseline"], summaries["redesigned"]
    )
    return CompareResult(
        redesign=redesign,
        sweeps=sweeps,
        summaries=summaries,
        claim=claim,
        ncores=ncores,
        tests_per_path=tests_per_path,
        elapsed_seconds=time.time() - start,
        backend=executed.backend,
        backend_stats=executed.backend_stats,
        cached_pairs=executed.cached_pairs,
        computed_pairs=executed.computed_pairs,
    )


def compare_to_dict(result: CompareResult) -> dict:
    """The ``repro.compare/1`` artifact: spec, both summaries, claim."""
    sides = {}
    for side_name in SIDES:
        record = result.redesign.sides[side_name].to_dict()
        record["summary"] = result.summaries[side_name]
        sides[side_name] = record
    return {
        "schema": COMPARE_SCHEMA,
        "name": result.redesign.name,
        "description": result.redesign.description,
        "ncores": result.ncores,
        "tests_per_path": result.tests_per_path,
        "elapsed": result.elapsed_seconds,
        # Execution accounting (how the batch ran, never what it
        # computed) — volatile like "elapsed"; strip it before parity
        # comparisons (see docs/artifacts.md).
        "execution": {
            "backend": result.backend,
            "stats": result.backend_stats,
        },
        "baseline": sides["baseline"],
        "redesigned": sides["redesigned"],
        "claim": result.claim,
    }


def strip_volatile_compare(artifact: dict) -> dict:
    """The *result* content of a compare artifact: everything except
    timing and execution accounting (what the service stores)."""
    return {
        k: v for k, v in artifact.items() if k not in ("elapsed", "execution")
    }
