"""Many-core scaling sweeps: ``ncores`` as a first-class axis.

The paper's claim is about behavior *at scale* — conflict-freedom
predicts scalability as core counts grow — so one sweep at ``ncores=4``
only samples the regime.  This module runs one interface's pair matrix
across an ``ncores`` *ladder* (default 2 → 480, the Swallow-class
many-core regime) and reports the conflict-fraction-vs-ncores curve per
kernel plus the per-core cost counters of the Amdahl synchronization
model (TLB-shootdown fan-out, socket steal probes, Refcache reconcile
scans — see :mod:`repro.mtrace.memory`'s counter support).

Batching is the point: a :class:`ScalingJob` runs ANALYZER → TESTGEN
*once* per pair and replays the concrete cases through MTRACE at every
rung, instead of re-sweeping (and re-solving) per core count.  Jobs go
through :func:`repro.pipeline.sweep.execute_jobs` as their own
:data:`SCALING_JOBS` kind: cached ladders are split off by fingerprint,
the rest is mapped through any registered execution backend, and
results return in matrix order.

The cache fingerprint covers the base pair fingerprint (ops, state
hooks, kernels, infrastructure), the full ladder, and this module's own
source — so editing the scaling runner invalidates scaling entries and
nothing else.
"""

from __future__ import annotations

import hashlib
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Optional, Sequence

from repro.analyzer.analyzer import analyze_pair
from repro.model.spec import fingerprint_source
from repro.pipeline.cache import job_fingerprint
from repro.pipeline.jobs import PairJob, _testgen_hooks, classify_residue, merge_solver_stats
from repro.pipeline.sweep import JobKind, build_pair_jobs, execute_jobs
from repro.testgen import generate_for_pair

SCALING_SCHEMA = "repro.scaling/1"

#: The default ncores ladder: the artifact-stable default (4), its
#: neighbors, and the many-core regime up to the Swallow-class 480.
DEFAULT_LADDER = (2, 4, 16, 64, 128, 480)


def parse_ladder(raw) -> tuple[int, ...]:
    """An ncores ladder from ``"2,16,64"`` (or any int sequence; a
    ``bool`` is not a rung): deduplicated, ascending, every rung >= 1."""
    if isinstance(raw, str):
        parts = [part.strip() for part in raw.split(",") if part.strip()]
        if not parts:
            raise ValueError("empty ncores ladder")
        values = [int(part) for part in parts]
    else:
        if any(isinstance(value, bool) for value in raw):
            raise ValueError(f"ncores rungs must be ints, got {list(raw)!r}")
        values = [int(value) for value in raw]
        if not values:
            raise ValueError("empty ncores ladder")
    for value in values:
        if value < 1:
            raise ValueError(f"ncores must be >= 1, got {value}")
    return tuple(sorted(set(values)))


@dataclass
class ScalingJob:
    """One pair across the whole ladder: ANALYZER + TESTGEN once,
    MTRACE per rung (the batching that makes 480 cores tractable)."""

    base: PairJob
    ladder: tuple[int, ...] = DEFAULT_LADDER

    @property
    def key(self) -> str:
        """Cache key: scaling entries get their own key space, per
        (interface, ladder), so ladders coexist in one cache file."""
        pair = "|".join(sorted((self.base.op0.name, self.base.op1.name)))
        rungs = "-".join(str(n) for n in self.ladder)
        return f"scaling|{self.base.interface}|{rungs}|{pair}"


@lru_cache(maxsize=None)
def _scaling_context_hash() -> str:
    """Content hash of this module: editing the scaling runner must
    invalidate scaling cache entries (and only those)."""
    return hashlib.sha256(fingerprint_source(sys.modules[__name__]).encode()).hexdigest()


def scaling_fingerprint(job: ScalingJob) -> str:
    """Fingerprint guarding one ladder's cached result: the base pair
    fingerprint (ops, hooks, kernels, infrastructure) plus the ladder
    itself plus the scaling runner's source."""
    h = hashlib.sha256()
    h.update(job_fingerprint(job.base).encode())
    h.update(("ladder:" + ",".join(str(n) for n in job.ladder)).encode())
    h.update(_scaling_context_hash().encode())
    return h.hexdigest()


@dataclass
class ScalingCellData:
    """Plain-data result of one scaling job (JSON- and pickle-safe).

    ``rungs`` maps each ncores rung to that rung's MTRACE outcome:
    ``not_conflict_free`` / ``mismatches`` / ``residues`` per kernel
    (exactly a :class:`~repro.pipeline.jobs.PairCellData`'s fields) plus
    ``cost``, the summed Amdahl-model counters per kernel.
    """

    op0: str
    op1: str
    total: int = 0
    explored_paths: int = 0
    commutative_paths: int = 0
    rungs: dict = field(default_factory=dict)
    solver_stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "op0": self.op0,
            "op1": self.op1,
            "total": self.total,
            "explored_paths": self.explored_paths,
            "commutative_paths": self.commutative_paths,
            "rungs": {
                str(ncores): {
                    "not_conflict_free": dict(rung["not_conflict_free"]),
                    "mismatches": dict(rung["mismatches"]),
                    "residues": {k: dict(v) for k, v in rung["residues"].items()},
                    "cost": {k: dict(v) for k, v in rung["cost"].items()},
                }
                for ncores, rung in self.rungs.items()
            },
            "solver_stats": dict(self.solver_stats),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ScalingCellData":
        return cls(
            op0=raw["op0"],
            op1=raw["op1"],
            total=raw["total"],
            explored_paths=raw.get("explored_paths", 0),
            commutative_paths=raw.get("commutative_paths", 0),
            rungs={
                int(ncores): {
                    "not_conflict_free": dict(rung.get("not_conflict_free", {})),
                    "mismatches": dict(rung.get("mismatches", {})),
                    "residues": {k: dict(v) for k, v in rung.get("residues", {}).items()},
                    "cost": {k: dict(v) for k, v in rung.get("cost", {}).items()},
                }
                for ncores, rung in raw.get("rungs", {}).items()
            },
            solver_stats=dict(raw.get("solver_stats", {})),
        )


def run_scaling_job(job: ScalingJob) -> ScalingCellData:
    """ANALYZER → TESTGEN once, then MTRACE at every ladder rung.

    The concrete test cases do not depend on ``ncores`` (TESTGEN
    concretizes the model, not a kernel), so one concretization is
    valid at every rung; only the kernels are rebuilt per (rung, case).
    """
    from repro.mtrace.runner import run_testcase

    base = job.base
    pair = analyze_pair(
        base.build_state,
        base.state_equal,
        base.op0,
        base.op1,
        solver_cache_size=base.solver_cache_size,
    )
    cases = generate_for_pair(pair, tests_per_path=base.tests_per_path, **_testgen_hooks(base))
    cell = ScalingCellData(
        op0=base.op0.name,
        op1=base.op1.name,
        total=len(cases),
        explored_paths=len(pair.paths),
        commutative_paths=len(pair.commutative_paths),
        solver_stats=dict(pair.solver_stats),
    )
    for ncores in job.ladder:
        rung = {"not_conflict_free": {}, "mismatches": {}, "residues": {}, "cost": {}}
        for kernel_name, factory in base.kernels:
            bad = 0
            mismatched = 0
            bucket: dict[str, int] = {}
            cost: dict[str, int] = {}
            for case in cases:
                result = run_testcase(factory, case, ncores=ncores)
                if not result.conflict_free:
                    bad += 1
                    classify_residue(bucket, result)
                if result.mismatch is not None:
                    mismatched += 1
                for counter, value in (result.cost or {}).items():
                    cost[counter] = cost.get(counter, 0) + value
            rung["not_conflict_free"][kernel_name] = bad
            rung["mismatches"][kernel_name] = mismatched
            rung["residues"][kernel_name] = bucket
            rung["cost"][kernel_name] = cost
        cell.rungs[ncores] = rung
    return cell


def _scaling_progress(job: ScalingJob, cell: ScalingCellData, cached: bool) -> str:
    tests = f"{cell.total} tests x {len(job.ladder)} rungs"
    if cached:
        return f"cached ({tests})"
    worst = max(job.ladder)
    fails = ", ".join(
        f"{kernel} fails {cell.rungs[worst]['not_conflict_free'].get(kernel, 0)}"
        for kernel, _ in job.base.kernels
    )
    return f"{tests}, at {worst} cores: {fails}"


#: Scaling jobs as :func:`~repro.pipeline.sweep.execute_jobs` sees them.
SCALING_JOBS = JobKind(
    fingerprint=scaling_fingerprint,
    run=run_scaling_job,
    decode=ScalingCellData.from_dict,
    pair=attrgetter("base"),
    progress=_scaling_progress,
)


@dataclass
class ScalingSweepResult:
    """One interface's matrix across the ladder, plus execution
    accounting (the scaling analogue of
    :class:`~repro.pipeline.sweep.SweepResult`)."""

    cells: list
    kernels: tuple
    op_names: list
    ladder: tuple
    interface: str
    elapsed_seconds: float
    workers: int = 1
    cached_pairs: int = 0
    computed_pairs: int = 0
    backend: str = "serial"
    backend_stats: dict = field(default_factory=dict)

    @property
    def total_tests(self) -> int:
        """Concrete cases per rung (every rung replays the same cases)."""
        return sum(cell.total for cell in self.cells)

    def conflict_free_total(self, kernel: str, ncores: int) -> int:
        return self.total_tests - sum(
            cell.rungs[ncores]["not_conflict_free"].get(kernel, 0) for cell in self.cells
        )

    def conflict_free_fraction(self, kernel: str, ncores: int) -> float:
        total = self.total_tests
        return self.conflict_free_total(kernel, ncores) / total if total else 0.0

    def rung_mismatches(self, kernel: str, ncores: int) -> int:
        return sum(cell.rungs[ncores]["mismatches"].get(kernel, 0) for cell in self.cells)

    def rung_residues(self, ncores: int) -> dict:
        merged: dict[str, dict[str, int]] = {kernel: {} for kernel in self.kernels}
        for cell in self.cells:
            for kernel, bucket in cell.rungs[ncores]["residues"].items():
                out = merged.setdefault(kernel, {})
                for label, count in bucket.items():
                    out[label] = out.get(label, 0) + count
        return merged

    def rung_cost(self, ncores: int) -> dict:
        """Summed Amdahl-model cost counters per kernel at one rung."""
        merged: dict[str, dict[str, int]] = {kernel: {} for kernel in self.kernels}
        for cell in self.cells:
            for kernel, counters in cell.rungs[ncores]["cost"].items():
                out = merged.setdefault(kernel, {})
                for counter, value in counters.items():
                    out[counter] = out.get(counter, 0) + value
        return merged

    def curve(self) -> list:
        """The scaling curve: one entry per rung, ascending ncores."""
        entries = []
        for ncores in self.ladder:
            conflict_free = {}
            fraction = {}
            mismatches = {}
            for kernel in self.kernels:
                conflict_free[kernel] = self.conflict_free_total(kernel, ncores)
                fraction[kernel] = self.conflict_free_fraction(kernel, ncores)
                mismatches[kernel] = self.rung_mismatches(kernel, ncores)
            entries.append(
                {
                    "ncores": ncores,
                    "conflict_free": conflict_free,
                    "conflict_free_fraction": fraction,
                    "mismatches": mismatches,
                    "residues": self.rung_residues(ncores),
                    "cost": self.rung_cost(ncores),
                }
            )
        return entries

    @property
    def solver_totals(self) -> dict:
        return merge_solver_stats(self.cells)


def conflict_free_monotonic(result: ScalingSweepResult, kernel: str) -> dict:
    """The monotonicity claim for one kernel: its conflict-free fraction
    must not decrease as ncores grows (the rule's prediction for a
    scalable implementation; the CI gate checks scalefs with this)."""
    fractions = [result.conflict_free_fraction(kernel, ncores) for ncores in result.ladder]
    nondecreasing = all(b >= a for a, b in zip(fractions, fractions[1:]))
    return {"kernel": kernel, "fractions": fractions, "nondecreasing": nondecreasing}


def run_scaling_sweep(
    interface: str = "posix",
    ladder: Sequence[int] = DEFAULT_LADDER,
    ops=None,
    pair_filter: Optional[Callable] = None,
    tests_per_path: int = 1,
    workers: Optional[int] = None,
    backend=None,
    cache=None,
    on_progress: Optional[Callable[[str], None]] = None,
    solver_cache_size: Optional[int] = None,
) -> ScalingSweepResult:
    """One interface's pair matrix across an ncores ladder.

    ``cache`` is a path or a :class:`~repro.pipeline.cache.ResultCache`
    and is shared with the per-ncores sweeps (scaling entries have their
    own key space).
    """
    from repro.model.registry import get_interface

    ladder = parse_ladder(ladder)
    ops = list(get_interface(interface).ops) if ops is None else list(ops)
    start = time.time()
    base_jobs = build_pair_jobs(
        ops=ops,
        tests_per_path=tests_per_path,
        pair_filter=pair_filter,
        solver_cache_size=solver_cache_size,
        interface=interface,
        ncores=ladder[0],
    )
    executed = execute_jobs(
        [ScalingJob(base, ladder) for base in base_jobs],
        workers=workers,
        cache=cache,
        on_progress=on_progress,
        backend=backend,
        kind=SCALING_JOBS,
    )
    return ScalingSweepResult(
        cells=executed.cells,
        kernels=tuple(name for name, _ in (base_jobs[0].kernels if base_jobs else ())),
        op_names=[op.name for op in ops],
        ladder=ladder,
        interface=interface,
        elapsed_seconds=time.time() - start,
        workers=executed.workers,
        cached_pairs=executed.cached_pairs,
        computed_pairs=executed.computed_pairs,
        backend=executed.backend,
        backend_stats=executed.backend_stats,
    )


# ----------------------------------------------------------------------
# Artifact (schema repro.scaling/1) and projections


def scaling_to_dict(result: ScalingSweepResult) -> dict:
    """The ``results/scaling_<interface>.json`` artifact: the per-kernel
    scaling curve, per-pair per-rung cells, the monotonicity verdicts,
    and the usual volatile execution-accounting keys (stripped by
    :func:`strip_volatile_scaling` for parity comparisons)."""
    monotonicity = {}
    for kernel in result.kernels:
        verdict = conflict_free_monotonic(result, kernel)
        monotonicity[kernel] = {
            "fractions": verdict["fractions"],
            "nondecreasing": verdict["nondecreasing"],
        }
    return {
        "schema": SCALING_SCHEMA,
        "interface": result.interface,
        "ladder": list(result.ladder),
        "kernels": list(result.kernels),
        "ops": list(result.op_names),
        "pairs": len(result.cells),
        "total": result.total_tests,
        "curve": result.curve(),
        "cells": [
            {
                "op0": cell.op0,
                "op1": cell.op1,
                "total": cell.total,
                "explored_paths": cell.explored_paths,
                "commutative_paths": cell.commutative_paths,
                "rungs": {
                    str(ncores): {
                        "fails": dict(rung["not_conflict_free"]),
                        "mismatches": dict(rung["mismatches"]),
                        "cost": {k: dict(v) for k, v in rung["cost"].items()},
                    }
                    for ncores, rung in cell.rungs.items()
                },
                "solver": dict(cell.solver_stats),
            }
            for cell in result.cells
        ],
        "monotonicity": monotonicity,
        # Volatile execution accounting:
        "elapsed": result.elapsed_seconds,
        "workers": result.workers,
        "backend": result.backend,
        "backend_stats": dict(result.backend_stats),
        "cached_pairs": result.cached_pairs,
        "computed_pairs": result.computed_pairs,
        "solver_totals": result.solver_totals,
    }


_VOLATILE_SCALING_KEYS = (
    "elapsed",
    "solver_totals",
    "workers",
    "cached_pairs",
    "computed_pairs",
    "backend",
    "backend_stats",
)


def strip_volatile_scaling(artifact: dict) -> dict:
    """The *result* content of a scaling artifact: everything except
    timing, execution, cache, and solver accounting (the scaling
    analogue of :func:`repro.bench.report.strip_volatile_heatmap`)."""
    out = {k: v for k, v in artifact.items() if k not in _VOLATILE_SCALING_KEYS}
    out["cells"] = [{k: v for k, v in c.items() if k != "solver"} for c in artifact["cells"]]
    return out


def rung_heatmap_cells(result: ScalingSweepResult, ncores: int) -> list:
    """One rung projected to heatmap-artifact cell shape (op0/op1/total/
    fails/mismatches) — the regression tests pin this byte-identical to
    a plain per-ncores :func:`~repro.pipeline.sweep.run_sweep`, proving
    the batched runner computes exactly what re-sweeping would."""
    return [
        {
            "op0": cell.op0,
            "op1": cell.op1,
            "total": cell.total,
            "fails": dict(cell.rungs[ncores]["not_conflict_free"]),
            "mismatches": dict(cell.rungs[ncores]["mismatches"]),
        }
        for cell in result.cells
    ]
