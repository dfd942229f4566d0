"""Sweep orchestration: pair matrix → jobs → cache → backend → cells.

This is the seam everything above the pipeline builds on: the matrix of
unordered op pairs is turned into independent
:class:`~repro.pipeline.jobs.PairJob` units, and :func:`execute_jobs` —
the one cached-batch executor, for pair jobs and scaling jobs alike —
splits cached results off by fingerprint, maps the remainder through an
execution backend (see :mod:`repro.pipeline.backends`), persists each
result as it arrives, and returns the merged cells in deterministic
input order regardless of execution order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional, Sequence

from repro.model.base import OpDef
from repro.pipeline.backends import get_backend
from repro.pipeline.cache import as_cache, job_fingerprint
from repro.pipeline.jobs import (
    DEFAULT_KERNELS,
    PairCellData,
    PairJob,
    PairSummary,
    merge_residues,
    merge_solver_stats,
    run_analyze_job,
    run_pair_job,
)


@dataclass
class TimedPairResult:
    """A pair cell plus how long its worker spent computing it.

    Produced by :func:`run_pair_job_timed` when a caller asked for
    structured per-pair progress (the service's NDJSON events); the
    elapsed time is measured *in the worker*, so it is honest under any
    execution backend, and is deliberately kept outside
    :class:`PairCellData` so cache entries and artifacts never carry it.
    (It lives here, not in :mod:`repro.pipeline.jobs`, because that
    module's source is part of every cache fingerprint and progress
    plumbing must never invalidate cached results.)
    """

    cell: PairCellData
    elapsed: float


def run_pair_job_timed(job: PairJob) -> TimedPairResult:
    """:func:`run_pair_job` plus worker-side wall-clock accounting."""
    start = time.perf_counter()
    cell = run_pair_job(job)
    return TimedPairResult(cell, time.perf_counter() - start)


@dataclass
class SweepResult:
    """The full matrix in plain data, plus execution accounting (also
    known as :class:`repro.bench.heatmap.HeatmapResult`).

    ``residues`` is derived from ``cells`` unless given.
    """

    cells: list[PairCellData]
    kernels: tuple[str, ...]
    op_names: list[str]
    elapsed_seconds: float
    workers: int = 1
    cached_pairs: int = 0
    computed_pairs: int = 0
    interface: str = "posix"
    ncores: int = 4
    backend: str = "serial"
    backend_stats: dict = field(default_factory=dict)
    residues: Optional[dict[str, dict[str, int]]] = None

    def __post_init__(self):
        if self.residues is None:
            self.residues = merge_residues(self.cells)
            for kernel in self.kernels:
                self.residues.setdefault(kernel, {})

    @classmethod
    def from_executed(
        cls,
        executed: ExecutedJobs,
        ops: Sequence[OpDef],
        interface: str,
        ncores: int,
        elapsed_seconds: float,
        lo: int = 0,
        hi: Optional[int] = None,
        kernels: Optional[tuple[str, ...]] = None,
    ) -> SweepResult:
        """One interface's sweep out of the ``[lo:hi]`` span of an
        executed batch.  ``kernels`` defaults to the span's own (none
        for an empty span)."""
        jobs = executed.jobs[lo:hi]
        cached = sum(executed.cached[lo:hi])
        if kernels is None:
            kernels = tuple(name for name, _ in jobs[0].kernels) if jobs else ()
        return cls(
            cells=executed.cells[lo:hi],
            kernels=kernels,
            op_names=[op.name for op in ops],
            elapsed_seconds=elapsed_seconds,
            workers=executed.workers,
            cached_pairs=cached,
            computed_pairs=len(jobs) - cached,
            interface=interface,
            ncores=ncores,
            backend=executed.backend,
            backend_stats=executed.backend_stats,
        )

    @property
    def total_tests(self) -> int:
        return sum(c.total for c in self.cells)

    def conflict_free_total(self, kernel: str) -> int:
        return self.total_tests - sum(
            c.not_conflict_free.get(kernel, 0) for c in self.cells
        )

    @property
    def solver_totals(self) -> dict:
        """Sweep-wide solver counters (decisions, cache hits, scope reuse)."""
        return merge_solver_stats(self.cells)

    def summary(self) -> str:
        parts = [f"{self.total_tests} commutative test cases"]
        for kernel in self.kernels:
            parts.append(
                f"{kernel}: {self.conflict_free_total(kernel)} of "
                f"{self.total_tests} conflict-free"
            )
        return "; ".join(parts)


def iter_pairs(
    ops: Sequence[OpDef],
    pair_filter: Optional[Callable[[OpDef, OpDef], bool]] = None,
) -> list[tuple[OpDef, OpDef]]:
    """Every unordered pair (including self-pairs), in matrix order."""
    pairs = []
    for i, a in enumerate(ops):
        for b in ops[i:]:
            if pair_filter is not None and not pair_filter(a, b):
                continue
            pairs.append((a, b))
    return pairs


def make_pair_filter(
    pairs: Sequence[tuple[str, str]],
) -> Callable[[OpDef, OpDef], bool]:
    """Filter restricting the matrix to named pairs (order-insensitive)."""
    wanted = {frozenset(p) for p in pairs}
    return lambda a, b: frozenset((a.name, b.name)) in wanted


def build_pair_jobs(
    ops: Optional[Sequence[OpDef]] = None,
    kernels: Optional[Sequence[tuple[str, Callable]]] = None,
    tests_per_path: int = 1,
    pair_filter: Optional[Callable[[OpDef, OpDef], bool]] = None,
    build_state: Optional[Callable] = None,
    state_equal: Optional[Callable] = None,
    solver_cache_size: Optional[int] = None,
    interface: str = "posix",
    ncores: int = 4,
) -> list[PairJob]:
    """One interface's pair matrix as independent :class:`PairJob`\\ s.

    Registry defaults (ops, kernels, state hooks) resolve exactly as in
    :func:`run_sweep`; the job list is the unit :func:`execute_jobs`
    schedules, so callers may concatenate lists from *different*
    interfaces into one heterogeneous batch (the compare engine's
    interleaved scheduling does).
    """
    from repro.model.registry import get_interface

    iface = get_interface(interface)
    if ops is None:
        ops = iface.ops
    kernel_items = tuple(kernels) if kernels is not None \
        else tuple(iface.kernels)
    return [
        PairJob(a, b, tests_per_path=tests_per_path, kernels=kernel_items,
                solver_cache_size=solver_cache_size,
                build_state=build_state if build_state is not None
                else iface.build_state,
                state_equal=state_equal if state_equal is not None
                else iface.state_equal,
                interface=interface, ncores=ncores)
        for a, b in iter_pairs(list(ops), pair_filter)
    ]


@dataclass(frozen=True)
class JobKind:
    """What :func:`execute_jobs` needs to know about one kind of job
    (besides ``job.key``, the cache key every kind has)."""

    #: job -> the fingerprint guarding its cache entry
    fingerprint: Callable
    #: job -> cell; handed to the backend as is, never wrapped (the
    #: subprocess-shard and cluster backends pickle it by name)
    run: Callable
    #: cached dict -> cell (the inverse of ``cell.to_dict()``)
    decode: Callable
    #: job -> the :class:`PairJob` it is about (names and interface)
    pair: Callable
    #: (job, cell, cached) -> the progress line after ``"op0/op1: "``
    progress: Callable
    #: ``run`` plus worker-side timing, used when ``on_pair`` listens
    run_timed: Optional[Callable] = None


def _pair_progress(job: PairJob, cell: PairCellData, cached: bool) -> str:
    if cached:
        return f"cached ({cell.total} tests)"
    return f"{cell.total} tests, " + ", ".join(
        f"{k} fails {cell.not_conflict_free.get(k, 0)}" for k, _ in job.kernels
    )


PAIR_JOBS = JobKind(
    fingerprint=job_fingerprint,
    run=run_pair_job,
    decode=PairCellData.from_dict,
    pair=lambda job: job,
    progress=_pair_progress,
    run_timed=run_pair_job_timed,
)


@dataclass
class ExecutedJobs:
    """The result of one (possibly heterogeneous) job batch."""

    jobs: list
    cells: list
    cached: list[bool]       # per job, in input order
    workers: int
    backend: str = "serial"
    backend_stats: dict = field(default_factory=dict)

    @property
    def cached_pairs(self) -> int:
        return sum(self.cached)

    @property
    def computed_pairs(self) -> int:
        return len(self.cells) - self.cached_pairs


def execute_jobs(
    jobs: Sequence,
    workers: Optional[int] = None,
    cache: Optional[object] = None,
    on_progress: Optional[Callable[[str], None]] = None,
    backend: Optional[object] = None,
    on_pair: Optional[Callable[[object, object, bool, float], None]] = None,
    kind: JobKind = PAIR_JOBS,
) -> ExecutedJobs:
    """Run a batch of jobs: cache split, one backend pass, merge.

    The batch may mix interfaces, core counts and kernels — each job
    carries everything its worker needs, and every cache entry is keyed
    and fingerprinted per job — so the two sides of a comparison (or any
    number of sweeps) can share a single worker pool instead of draining
    sequentially.  Results come back in input order regardless of
    execution order.  ``kind`` says what the jobs are (pair jobs unless
    told otherwise; :data:`repro.pipeline.scaling.SCALING_JOBS` is the
    other kind).

    ``backend`` and ``workers`` resolve through
    :func:`~repro.pipeline.backends.get_backend`.  The backend changes
    *where* jobs run, never what they compute: cells and cache entries
    are identical for every choice, and backend identity is deliberately
    absent from cache fingerprints.  ``cache`` is a path or anything with
    ``get``/``put``/``save``.

    ``on_pair(job, cell, cached, elapsed)`` is the structured sibling of
    ``on_progress``: it fires once per job, in completion order, with
    the plain-data cell, whether it was served from the cache, and the
    worker-side seconds spent computing it (0.0 for cache hits and for
    kinds without a timed runner).  The service's NDJSON event stream is
    built on it.
    """
    jobs = list(jobs)
    cache = as_cache(cache)
    heterogeneous = len({kind.pair(job).interface for job in jobs}) > 1

    def announce(job, cell, cached: bool, elapsed: float) -> None:
        if on_progress is not None:
            pair = kind.pair(job)
            tag = f"[{pair.interface}] " if heterogeneous else ""
            on_progress(
                f"{tag}{pair.op0.name}/{pair.op1.name}: "
                + kind.progress(job, cell, cached)
            )
        if on_pair is not None:
            on_pair(job, cell, cached, elapsed)

    cells: list = [None] * len(jobs)
    todo: list[int] = []
    fingerprints: dict[int, str] = {}
    for index, job in enumerate(jobs):
        if cache is not None:
            fingerprints[index] = kind.fingerprint(job)
            hit = cache.get(job.key, fingerprints[index])
            if hit is not None:
                cells[index] = kind.decode(hit)
                announce(job, cells[index], True, 0.0)
                continue
        todo.append(index)

    fingerprint_of = {id(jobs[i]): fingerprints.get(i) for i in todo}

    def report(job, result) -> None:
        if isinstance(result, TimedPairResult):
            cell, elapsed = result.cell, result.elapsed
        else:
            cell, elapsed = result, 0.0
        if cache is not None:
            # Persist as results arrive so an interrupted or failing
            # sweep keeps every job already computed (the point of the
            # cache); the write is atomic, so this is always safe.
            cache.put(job.key, fingerprint_of[id(job)], cell.to_dict())
            cache.save()
        announce(job, cell, False, elapsed)

    # The timed runner only rides along when someone is listening;
    # either way the backend gets the bare module-level function.
    timed = on_pair is not None and kind.run_timed is not None
    resolved = get_backend(backend, workers)
    computed = resolved.map(
        kind.run_timed if timed else kind.run,
        [jobs[i] for i in todo],
        on_result=report,
    )
    for index, result in zip(todo, computed):
        cells[index] = (
            result.cell if isinstance(result, TimedPairResult) else result
        )

    todo_set = set(todo)
    return ExecutedJobs(
        jobs=jobs,
        cells=cells,
        cached=[i not in todo_set for i in range(len(jobs))],
        workers=resolved.workers,
        backend=resolved.name,
        backend_stats=resolved.stats(),
    )


def run_sweep(
    ops: Optional[Sequence[OpDef]] = None,
    kernels: Optional[Sequence[tuple[str, Callable]]] = None,
    tests_per_path: int = 1,
    workers: Optional[int] = None,
    cache: Optional[object] = None,
    pair_filter: Optional[Callable[[OpDef, OpDef], bool]] = None,
    on_progress: Optional[Callable[[str], None]] = None,
    build_state: Optional[Callable] = None,
    state_equal: Optional[Callable] = None,
    solver_cache_size: Optional[int] = None,
    interface: str = "posix",
    ncores: int = 4,
    backend: Optional[object] = None,
    on_pair: Optional[Callable[[PairJob, PairCellData, bool, float], None]] = None,
) -> SweepResult:
    """The Figure 6 pipeline over the pair matrix.

    ``cache`` is a path or a :class:`ResultCache`; pairs whose fingerprint
    matches a stored entry are not recomputed.  ``backend`` (a registered
    execution-backend name or instance) and ``workers`` pick the execution
    strategy; results are identical for every choice.
    ``solver_cache_size`` bounds each pair's solver memo (0 = unbounded).
    ``interface`` selects a registered interface bundle: its ops, state
    constructor, equivalence, kernels and TESTGEN hooks (explicit ``ops``/
    ``kernels``/``build_state``/``state_equal`` arguments still override).
    ``ncores`` sizes the kernels under test (default 4 for artifact
    stability).
    """
    from repro.model.registry import get_interface

    iface = get_interface(interface)
    if ops is None:
        ops = iface.ops
    ops = list(ops)
    kernel_items = tuple(kernels) if kernels is not None \
        else tuple(iface.kernels)
    start = time.time()
    jobs = build_pair_jobs(
        ops=ops, kernels=kernel_items, tests_per_path=tests_per_path,
        pair_filter=pair_filter, build_state=build_state,
        state_equal=state_equal, solver_cache_size=solver_cache_size,
        interface=interface, ncores=ncores,
    )
    executed = execute_jobs(
        jobs, workers=workers, cache=cache,
        on_progress=on_progress, backend=backend, on_pair=on_pair,
    )
    return SweepResult.from_executed(
        executed, ops, interface, ncores, time.time() - start,
        kernels=tuple(name for name, _ in kernel_items),
    )


def summarize_interface_sweep(sweep: SweepResult) -> dict:
    """Plain-data summary of one interface's sweep: path and test totals,
    commutative fraction, and per-kernel conflict-freedom fractions (the
    quantities the §4.3 ordered-vs-unordered comparison reports)."""
    explored = sum(c.explored_paths for c in sweep.cells)
    commutative = sum(c.commutative_paths for c in sweep.cells)
    total = sweep.total_tests
    conflict_free = {
        kernel: sweep.conflict_free_total(kernel) for kernel in sweep.kernels
    }
    mismatches = {
        kernel: sum(c.mismatches.get(kernel, 0) for c in sweep.cells)
        for kernel in sweep.kernels
    }
    return {
        "interface": sweep.interface,
        "ops": list(sweep.op_names),
        "pairs": len(sweep.cells),
        "explored_paths": explored,
        "commutative_paths": commutative,
        "commutative_fraction":
            commutative / explored if explored else 0.0,
        "total_tests": total,
        "conflict_free": conflict_free,
        "conflict_free_fraction": {
            kernel: (count / total if total else 0.0)
            for kernel, count in conflict_free.items()
        },
        "mismatches": mismatches,
    }


@dataclass
class AnalysisSweep:
    """ANALYZER-only sweep output (the ``analyze`` CLI)."""

    summaries: list[PairSummary]
    op_names: list[str]
    elapsed_seconds: float
    workers: int = 1
    interface: str = "posix"
    backend: str = "serial"
    backend_stats: dict = field(default_factory=dict)

    @property
    def commutative_pairs(self) -> int:
        return sum(1 for s in self.summaries if s.commutative_paths)

    @property
    def solver_totals(self) -> dict:
        return merge_solver_stats(self.summaries)


def _analysis_progress(job: PairJob, summary: PairSummary, cached: bool) -> str:
    return f"{summary.commutative_paths}/{summary.explored_paths} paths commute"


def build_analysis_jobs(
    ops: Sequence[OpDef],
    pair_filter: Optional[Callable[[OpDef, OpDef], bool]] = None,
    solver_cache_size: Optional[int] = None,
    interface: str = "posix",
) -> list[PairJob]:
    """The ANALYZER-only matrix as :class:`PairJob`\\ s.  No kernel runs,
    so every interface's jobs carry the default kernels — which is what
    the service's ``analyze`` request keys have always fingerprinted."""
    return build_pair_jobs(
        ops=ops, kernels=DEFAULT_KERNELS, pair_filter=pair_filter,
        solver_cache_size=solver_cache_size, interface=interface,
    )


def run_analysis(
    ops: Optional[Sequence[OpDef]] = None,
    workers: Optional[int] = None,
    pair_filter: Optional[Callable[[OpDef, OpDef], bool]] = None,
    on_progress: Optional[Callable[[str], None]] = None,
    condition_chars: Optional[int] = 4000,
    solver_cache_size: Optional[int] = None,
    interface: str = "posix",
    backend: Optional[object] = None,
    on_pair: Optional[Callable[[PairJob, PairSummary, bool, float], None]] = None,
) -> AnalysisSweep:
    """ANALYZER over the pair matrix, summaries only (no TESTGEN/MTRACE).

    An uncached :func:`execute_jobs` batch, so ``on_progress`` and
    ``on_pair`` mean what they mean for :func:`run_sweep`."""
    from repro.model.registry import get_interface

    if ops is None:
        ops = get_interface(interface).ops
    ops = list(ops)
    start = time.time()
    executed = execute_jobs(
        build_analysis_jobs(ops, pair_filter, solver_cache_size, interface),
        workers=workers, on_progress=on_progress, backend=backend,
        on_pair=on_pair,
        kind=replace(
            PAIR_JOBS,
            run=partial(run_analyze_job, condition_chars=condition_chars),
            progress=_analysis_progress, run_timed=None,
        ),
    )
    return AnalysisSweep(
        summaries=executed.cells,
        op_names=[op.name for op in ops],
        elapsed_seconds=time.time() - start,
        workers=executed.workers,
        interface=interface,
        backend=executed.backend,
        backend_stats=executed.backend_stats,
    )
