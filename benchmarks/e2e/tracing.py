"""Spans recorded from outside the program, and the timing proxies and
job mirrors that produce them.

Every span is made by benchmark code around a call into one layer's
public function, or by a proxy standing where the program already takes
a collaborator (``cache=``, ``store=``, ``backend=``, ``setup_builder=``,
``groups_builder=``, the kernel factory).  Nothing under ``src/`` knows
it is being traced.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Optional

import reference

reference.add_src_to_path()

from repro.analyzer.analyzer import analyze_pair  # noqa: E402
from repro.model.registry import get_interface  # noqa: E402
from repro.mtrace.runner import run_testcase  # noqa: E402
from repro.pipeline.backends import SerialBackend  # noqa: E402
from repro.pipeline.cache import ResultCache  # noqa: E402
from repro.pipeline.jobs import PairCellData, classify_residue  # noqa: E402
from repro.pipeline.scaling import ScalingCellData, run_scaling_job  # noqa: E402
from repro.pipeline.sweep import TimedPairResult, run_pair_job_timed  # noqa: E402
from repro.service.store import ArtifactStore  # noqa: E402
from repro.testgen import generate_for_pair  # noqa: E402

# posix registers no groups_builder; generate_for_pair then falls back
# to this private default, which the traced run has to name to wrap it.
from repro.testgen.testgen import _groups_for_path  # noqa: E402

SPAN_FIELDS = ("name", "start", "end", "parent", "thread", "op")


class _Span:
    """Context manager for one span; cheaper than a generator."""

    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer.spans[self.index][2] = end
        self.tracer._stack().pop()
        return False


class Tracer:
    """In-memory span and counter store for one workload run.

    Spans nest per thread: a span's parent is the innermost span open in
    the same thread.  Times are ``perf_counter`` seconds relative to the
    tracer's creation.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._local = threading.local()
        self._threads: dict[int, int] = {}
        self._lock = threading.Lock()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            with self._lock:
                self._local.thread = self._threads.setdefault(
                    threading.get_ident(), len(self._threads)
                )
            return self._local.stack

    def span(self, name: str, op: Optional[str] = None) -> _Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, 0.0, None, parent, self._local.thread, op])
        stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return _Span(self, index)

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None) -> int:
        """A span derived from stamps taken at a boundary (first and
        last verdict of a drain), not from a call."""
        self._stack()
        with self._lock:
            self.spans.append([name, start, end, parent, self._local.thread, None])
            return len(self.spans) - 1

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- reading --------------------------------------------------------

    def durations(self) -> dict[str, list[float]]:
        """Every finished span's duration, by span name."""
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, *_ in self.spans:
            if end is not None:
                out[name].append(end - start)
        return out

    def to_dict(self) -> dict:
        """The ``trace_<workload>.json`` payload: one row per span, in
        ``fields`` order; ``parent`` is a row index."""
        return {
            "workload": self.workload,
            "fields": list(SPAN_FIELDS),
            "spans": self.spans,
            "counts": dict(self.counts),
        }


# ----------------------------------------------------------------------
# Proxies for collaborators the program already accepts


def timed(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``fn`` with a span around every call; the signature is kept so
    callers that inspect it (``run_testcase`` looks for ``ncores``) see
    the original."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


class CacheProxy:
    """A ``ResultCache`` with a span around each call the sweep makes."""

    def __init__(self, tracer: Tracer, path: str):
        self._tracer = tracer
        with tracer.span("cache.load"):
            self._cache = ResultCache(path)

    def get(self, key, fingerprint):
        with self._tracer.span("cache.get"):
            hit = self._cache.get(key, fingerprint)
        self._tracer.count("cache.hits" if hit is not None else "cache.misses")
        return hit

    def put(self, key, fingerprint, cell):
        with self._tracer.span("cache.put"):
            self._cache.put(key, fingerprint, cell)

    def save(self):
        with self._tracer.span("cache.save"):
            self._cache.save()


def traced_store(tracer: Tracer, root: str):
    """An ``ArtifactStore`` with a span around each call the job manager
    and the HTTP layer make.  A subclass, because the server also reads
    the paths of the store it was given."""

    class TracedStore(ArtifactStore):
        def lookup(self, request_key):
            with tracer.span("store.lookup"):
                digest = super().lookup(request_key)
            tracer.count("store.hits" if digest is not None else "store.misses")
            return digest

        def put(self, payload, kind, request_key=None):
            with tracer.span("store.put"):
                return super().put(payload, kind, request_key)

        def load(self, digest):
            with tracer.span("store.load"):
                return super().load(digest)

    return TracedStore(root)


# ----------------------------------------------------------------------
# Mirrors of run_pair_job / run_scaling_job


def _replay(tracer: Tracer, job, cases, ncores: int, stats: dict) -> dict:
    """MTRACE on every kernel at one core count, as both job runners do
    it; returns the per-kernel verdict fields plus summed cost."""
    out = {"not_conflict_free": {}, "mismatches": {}, "residues": {}, "cost": {}}
    for kernel_name, factory in job.kernels:
        build = timed(tracer, f"kernels.build.{kernel_name}", factory)
        span_name = f"mtrace.replay.{kernel_name}"
        bad = mismatched = 0
        bucket: dict[str, int] = {}
        cost: dict[str, int] = {}
        for case in cases:
            with tracer.span(span_name):
                result = run_testcase(build, case, ncores=ncores)
            if not result.conflict_free:
                bad += 1
                classify_residue(bucket, result)
            if result.mismatch is not None:
                mismatched += 1
            for counter, value in result.cost.items():
                cost[counter] = cost.get(counter, 0) + value
        out["not_conflict_free"][kernel_name] = bad
        out["mismatches"][kernel_name] = mismatched
        out["residues"][kernel_name] = bucket
        out["cost"][kernel_name] = cost
        stats["mtrace.replays"] += len(cases)
        stats["mtrace.mem_accesses"] += cost.get("mem_accesses", 0)
    return out


def _analyze_and_generate(tracer: Tracer, job, stats: dict):
    op = f"{job.op0.name}|{job.op1.name}"
    with tracer.span("analyzer.analyze", op=op):
        pair = analyze_pair(
            job.build_state,
            job.state_equal,
            job.op0,
            job.op1,
            solver_cache_size=job.solver_cache_size,
        )
    iface = get_interface(job.interface)
    groups = iface.groups_builder if iface.groups_builder is not None else _groups_for_path
    with tracer.span("testgen.generate", op=op):
        cases = generate_for_pair(
            pair,
            tests_per_path=job.tests_per_path,
            setup_builder=timed(tracer, "testgen.concretize", iface.setup_builder),
            groups_builder=timed(tracer, "testgen.groups", groups),
        )
    stats["analyzer.paths"] += len(pair.paths)
    stats["testgen.cases"] += len(cases)
    for key in ("checks", "decisions", "cache_hits", "scope_reuse"):
        stats[f"solver.{key}"] += pair.solver_stats.get(key, 0)
    return pair, cases


def traced_pair_job(tracer: Tracer, job):
    """``run_pair_job`` with a span around each layer's public call."""
    stats = tracer.counts
    pair, cases = _analyze_and_generate(tracer, job, stats)
    cell = PairCellData(
        op0=job.op0.name,
        op1=job.op1.name,
        total=len(cases),
        explored_paths=len(pair.paths),
        commutative_paths=len(pair.commutative_paths),
        solver_stats=dict(pair.solver_stats),
    )
    rung = _replay(tracer, job, cases, job.ncores, stats)
    cell.not_conflict_free = rung["not_conflict_free"]
    cell.mismatches = rung["mismatches"]
    cell.residues = rung["residues"]
    return cell


def traced_scaling_job(tracer: Tracer, job):
    """``run_scaling_job`` with a span around each layer's public call."""
    stats = tracer.counts
    pair, cases = _analyze_and_generate(tracer, job.base, stats)
    cell = ScalingCellData(
        op0=job.base.op0.name,
        op1=job.base.op1.name,
        total=len(cases),
        explored_paths=len(pair.paths),
        commutative_paths=len(pair.commutative_paths),
        solver_stats=dict(pair.solver_stats),
    )
    for ncores in job.ladder:
        cell.rungs[ncores] = _replay(tracer, job.base, cases, ncores, stats)
    return cell


def mirror_backend(tracer: Tracer):
    """A serial execution backend that runs the traced mirrors in place
    of the function the sweep hands it, so the sweep's own cache split,
    persistence and ordering code runs unchanged around them."""
    class MirrorBackend(SerialBackend):
        def _execute(self, pending, on_result):
            results = []
            for fn, job in pending:
                with tracer.span("jobs.run"):
                    start = time.perf_counter()
                    if fn is run_scaling_job:
                        result = traced_scaling_job(tracer, job)
                    else:
                        result = traced_pair_job(tracer, job)
                    elapsed = time.perf_counter() - start
                tracer.count("jobs.worker_s", elapsed)
                if fn is run_pair_job_timed:
                    result = TimedPairResult(result, elapsed)
                results.append(result)
                if on_result is not None:
                    on_result(job, result)
            return results

    return MirrorBackend()
