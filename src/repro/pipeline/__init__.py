"""Parallel COMMUTER pipeline: sharded pair jobs, backends, result cache.

The paper ran its ANALYZER → TESTGEN → MTRACE sweep over all 18×18 POSIX
operation pairs on a 48-core machine; this package is that sweep's
execution layer.  Pair jobs are independent — they commute — so the
scalable commutativity rule applies to our own tooling: any execution
order (and any sharding across workers) must produce identical results,
and the test suite holds every execution backend to bitwise parity.

Layers
======

:mod:`repro.pipeline.jobs`
    :class:`PairJob` — one op pair end-to-end — and its plain-data
    results (:class:`PairCellData`, :class:`PairSummary`), which cross
    process boundaries and the JSON cache without symbolic state.
:mod:`repro.pipeline.backends`
    The named execution-backend registry: :class:`ExecutionBackend`,
    the registered backends — ``serial``, ``pool`` (a
    ``ProcessPoolExecutor`` shard), ``work-stealing`` (one shared deque
    with steal accounting), ``subprocess-shard`` (content-hash partition
    across worker subprocesses over a stdio/JSON protocol) and
    ``cluster`` (:mod:`repro.cluster`) — and :func:`get_backend`, the
    one way a backend is picked.  All map jobs to results in input
    order; which one ran is execution accounting, never part of a
    result or a cache fingerprint.
:mod:`repro.pipeline.cache`
    :class:`ResultCache`, a persistent JSON cache keyed by pair name and
    guarded by a SHA-256 fingerprint of the op definitions, model
    equivalence functions, kernels, and pipeline infrastructure — so
    re-runs only recompute pairs whose inputs changed.
:mod:`repro.pipeline.sweep`
    :func:`execute_jobs`, the one cached-batch executor (cache split →
    backend → persist → merge in input order) for pair and scaling jobs,
    and :func:`run_sweep` / :func:`run_analysis`, the orchestration the
    public entry points (:func:`repro.bench.heatmap.run_heatmap`, the
    compare engine and the kinds table) build on.
:mod:`repro.pipeline.scaling`
    The many-core axis: :func:`run_scaling_sweep` runs one interface's
    matrix across an ncores ladder (ANALYZER/TESTGEN once per pair,
    MTRACE replayed per rung) and writes the schema-versioned
    ``results/scaling_<interface>.json`` conflict-fraction-vs-ncores
    curve with per-core Amdahl-model cost counters.

The command line over all of this is :mod:`repro.cli` (reference:
``docs/cli.md``, generated from the parser); the sweep kinds it and the
service offer are declared once, in :mod:`repro.kinds`.

Cache layout
============

The cache is one JSON file (default ``results/pipeline-cache.json``)::

    {"version": 1,
     "entries": {"open|rename": {"fingerprint": "<sha256>",
                                 "cell": {...PairCellData...}}}}

Editing one op's model body changes that op's fingerprint and
invalidates exactly the row/column of pairs that use it; editing the
analyzer, solver, testgen, mtrace, or kernel sources invalidates
everything.  Delete the file (or pass a fresh ``--cache``) to force a
full recompute.
"""

from repro.pipeline.backends import (
    ExecutionBackend,
    PoolBackend,
    SerialBackend,
    SubprocessShardBackend,
    UnknownBackendError,
    WorkStealingBackend,
    backend_names,
    default_workers,
    get_backend,
    normalize_workers,
    register_backend,
)
from repro.pipeline.cache import ResultCache, job_fingerprint, op_fingerprint
from repro.pipeline.jobs import (
    PairCellData,
    PairJob,
    PairSummary,
    classify_residue,
    merge_residues,
    run_analyze_job,
    run_pair_job,
)
from repro.pipeline.scaling import (
    DEFAULT_LADDER,
    ScalingCellData,
    ScalingJob,
    ScalingSweepResult,
    SCALING_JOBS,
    conflict_free_monotonic,
    parse_ladder,
    run_scaling_job,
    run_scaling_sweep,
    scaling_fingerprint,
    scaling_to_dict,
    strip_volatile_scaling,
)
from repro.pipeline.sweep import (
    AnalysisSweep,
    PAIR_JOBS,
    ExecutedJobs,
    JobKind,
    SweepResult,
    TimedPairResult,
    build_pair_jobs,
    execute_jobs,
    iter_pairs,
    make_pair_filter,
    run_analysis,
    run_pair_job_timed,
    run_sweep,
    summarize_interface_sweep,
)

__all__ = [
    "AnalysisSweep",
    "DEFAULT_LADDER",
    "ExecutedJobs",
    "ExecutionBackend",
    "JobKind",
    "PAIR_JOBS",
    "PairCellData",
    "PairJob",
    "PairSummary",
    "PoolBackend",
    "ResultCache",
    "SCALING_JOBS",
    "ScalingCellData",
    "ScalingJob",
    "ScalingSweepResult",
    "SerialBackend",
    "SubprocessShardBackend",
    "SweepResult",
    "TimedPairResult",
    "UnknownBackendError",
    "WorkStealingBackend",
    "backend_names",
    "build_pair_jobs",
    "classify_residue",
    "conflict_free_monotonic",
    "default_workers",
    "execute_jobs",
    "get_backend",
    "normalize_workers",
    "parse_ladder",
    "register_backend",
    "iter_pairs",
    "job_fingerprint",
    "make_pair_filter",
    "merge_residues",
    "op_fingerprint",
    "run_analysis",
    "run_analyze_job",
    "run_pair_job",
    "run_pair_job_timed",
    "run_scaling_job",
    "run_scaling_sweep",
    "run_sweep",
    "scaling_fingerprint",
    "scaling_to_dict",
    "strip_volatile_scaling",
    "summarize_interface_sweep",
]
