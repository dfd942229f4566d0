"""Job manager for the COMMUTER service: async sweeps over the pipeline.

A :class:`JobManager` accepts jobs (``analyze`` / ``heatmap`` /
``compare`` / ``scaling``), runs each through the existing
:func:`~repro.pipeline.sweep.build_pair_jobs` /
:func:`~repro.pipeline.sweep.execute_jobs` seam on a bounded worker
pool, and exposes their lifecycle::

    queued -> running -> done | error | cancelled

Every job carries a seq-numbered event log — one ``pair`` event per
op pair as it completes (name, verdict, cached?, worker seconds) plus
``status`` / ``done`` / ``error`` markers — which the HTTP layer streams
as NDJSON.  Finished artifacts go into the content-addressed
:class:`~repro.service.store.ArtifactStore` as the *stripped volatile
projection* (see :func:`repro.bench.report.strip_volatile_heatmap`), so
a service artifact is byte-identical to the same request's batch-CLI
artifact under the same projection.

Incrementality is layered:

* **request level** — ``analyze`` and ``heatmap`` jobs are memoized in
  the store by a request key that folds in every pair's cache
  fingerprint; an exact repeat is served with zero pairs executed
  (``store_hit``).
* **pair level** — all kinds share one thread-safe
  :class:`~repro.pipeline.cache.ResultCache`, so after a spec edit only
  the invalidated rows/columns recompute; the per-pair ``cached`` flags
  in the event stream make that observable.

Cancellation is chunked: jobs execute their pair batch one
backend-worker-sized chunk at a time and check the cancel flag between
chunks (per pair under the serial backend), so a DELETE lands
mid-sweep without abandoning already-computed entries — the cache
persists per pair.
"""

from __future__ import annotations

import hashlib
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from repro.pipeline.backends import backend_names, get_backend
from repro.pipeline.cache import as_cache, job_fingerprint
from repro.pipeline.jobs import PairJob, run_analyze_job
from repro.pipeline.sweep import (
    ExecutedJobs,
    SweepResult,
    build_pair_jobs,
    execute_jobs,
    iter_pairs,
    make_pair_filter,
)
from repro.service.store import ArtifactStore, canonical_bytes

JOB_SCHEMA = "repro.job/1"

JOB_KINDS = ("analyze", "heatmap", "compare", "scaling")

#: Statuses after which a job's record and events stop changing.
TERMINAL = ("done", "error", "cancelled")

DEFAULT_CACHE = "results/pipeline-cache.json"


class BadRequest(ValueError):
    """Invalid job submission (unknown kind/interface/op/...)."""


class JobCancelled(Exception):
    """Raised inside a job when its cancel flag is observed."""


@dataclass
class JobRecord:
    """One job's full lifecycle state (``repro.job/1``)."""

    id: str
    kind: str
    params: dict
    status: str = "queued"
    created: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    events: list = field(default_factory=list)
    summary: Optional[dict] = None
    artifact: Optional[str] = None
    error: Optional[str] = None
    cached_pairs: int = 0
    computed_pairs: int = 0
    store_hit: bool = False
    cancel: threading.Event = field(default_factory=threading.Event)
    cond: threading.Condition = field(default_factory=threading.Condition)

    def to_dict(self) -> dict:
        with self.cond:
            return {
                "schema": JOB_SCHEMA,
                "id": self.id,
                "kind": self.kind,
                "params": dict(self.params),
                "status": self.status,
                "created": self.created,
                "started": self.started,
                "finished": self.finished,
                "events": len(self.events),
                "summary": self.summary,
                "artifact": self.artifact,
                "error": self.error,
                "cached_pairs": self.cached_pairs,
                "computed_pairs": self.computed_pairs,
                "store_hit": self.store_hit,
            }


class JobManager:
    """Bounded async executor over the pipeline's job seam.

    ``workers`` bounds how many jobs run concurrently (each job then
    fans its pairs out through its own execution backend); every job
    shares one thread-safe :class:`ResultCache` and one
    :class:`ArtifactStore`, which is what makes the service's
    incremental re-analysis work across jobs.
    """

    def __init__(
        self,
        cache: Optional[object] = DEFAULT_CACHE,
        store: Optional[ArtifactStore] = None,
        workers: int = 2,
        backend: Optional[str] = None,
        backend_workers: Optional[int] = None,
    ):
        self.cache = as_cache(cache)
        self.store = store if store is not None else ArtifactStore()
        self.default_backend = backend
        self.default_workers = backend_workers
        self._jobs: dict[str, JobRecord] = {}
        self._lock = threading.Lock()
        self._counter = 0
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="repro-job"
        )

    # -- submission ------------------------------------------------------

    def submit(self, kind: str, params: Optional[dict] = None) -> JobRecord:
        """Validate, enqueue, and return the new job's record.

        Parameter validation happens here, synchronously, so a bad
        submission fails the POST instead of surfacing later as an
        error job.
        """
        if kind not in JOB_KINDS:
            raise BadRequest(
                f"unknown job kind {kind!r} (kinds: {', '.join(JOB_KINDS)})"
            )
        normalized = self._normalize_params(kind, dict(params or {}))
        with self._lock:
            self._counter += 1
            job_id = f"j{self._counter:04d}"
            record = JobRecord(
                id=job_id, kind=kind, params=normalized, created=time.time()
            )
            self._jobs[job_id] = record
        self._emit(record, "status", status="queued")
        self._pool.submit(self._run, record)
        return record

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise KeyError(f"no such job {job_id!r}")
        return record

    def list(self) -> list[dict]:
        with self._lock:
            records = sorted(self._jobs.values(), key=lambda r: r.id)
        return [r.to_dict() for r in records]

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True unless the job already finished.

        A queued job cancels before its first pair; a running one stops
        at the next chunk boundary (per pair under the serial backend).
        """
        record = self.get(job_id)
        with record.cond:
            if record.status in TERMINAL:
                return False
        record.cancel.set()
        return True

    def shutdown(self) -> None:
        """Cancel everything outstanding and release the worker pool."""
        with self._lock:
            records = list(self._jobs.values())
        for record in records:
            record.cancel.set()
        self._pool.shutdown(wait=True, cancel_futures=True)

    # -- events ----------------------------------------------------------

    def _emit(self, record: JobRecord, event: str, **fields) -> None:
        with record.cond:
            payload = {"seq": len(record.events) + 1, "event": event}
            payload.update(fields)
            record.events.append(payload)
            record.cond.notify_all()

    def events_since(self, job_id: str, since: int = 0) -> list[dict]:
        """Events with seq > ``since`` (the NDJSON resume cursor)."""
        record = self.get(job_id)
        with record.cond:
            return [e for e in record.events if e["seq"] > since]

    def wait_events(
        self, job_id: str, since: int = 0, timeout: float = 10.0
    ) -> tuple[list[dict], bool]:
        """Block until events past ``since`` exist (or the job ends).

        Returns ``(fresh_events, finished)``; a timeout returns
        ``([], finished)`` so pollers can keep streaming keep-alives.
        """
        record = self.get(job_id)
        deadline = time.monotonic() + timeout
        with record.cond:
            while True:
                fresh = [e for e in record.events if e["seq"] > since]
                finished = record.status in TERMINAL
                if fresh or finished:
                    return fresh, finished
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return [], finished
                record.cond.wait(remaining)

    # -- parameter normalization ----------------------------------------

    def _normalize_params(self, kind: str, params: dict) -> dict:
        """Validate and canonicalize a submission's parameters.

        The normalized dict is what the job record reports *and* what
        the request key hashes — minus the execution knobs (``backend``,
        ``workers``), which never change results and therefore must not
        break request-level memoization.
        """
        from repro.model.registry import (
            UnknownInterfaceError,
            UnknownOperationError,
            get_interface,
            resolve_ops,
        )

        known = {
            "interface", "ops", "pairs", "ncores", "tests_per_path",
            "backend", "workers", "name", "ladder",
        }
        unknown = sorted(set(params) - known)
        if unknown:
            raise BadRequest(f"unknown parameter(s): {', '.join(unknown)}")

        out: dict = {}
        interface = params.get("interface", "posix")
        if kind != "compare":
            try:
                get_interface(interface)
            except UnknownInterfaceError as exc:
                raise BadRequest(str(exc.args[0])) from None
            out["interface"] = interface

        ops = params.get("ops")
        if ops is not None:
            if isinstance(ops, str):
                ops = [o.strip() for o in ops.split(",") if o.strip()]
            if not isinstance(ops, list) or not all(
                isinstance(o, str) for o in ops
            ):
                raise BadRequest("ops must be a list of operation names")
        pairs = params.get("pairs")
        if pairs is not None:
            try:
                pairs = [(str(a), str(b)) for a, b in pairs]
            except (TypeError, ValueError):
                raise BadRequest(
                    "pairs must be a list of [op0, op1] pairs"
                ) from None
        if kind != "compare":
            if ops is None and pairs is not None:
                seen: list[str] = []
                for a, b in pairs:
                    for name in (a, b):
                        if name not in seen:
                            seen.append(name)
                ops = seen
            try:
                resolve_ops(interface, ops)
            except UnknownOperationError as exc:
                raise BadRequest(str(exc.args[0])) from None
            if ops is not None:
                out["ops"] = list(ops)
            if pairs is not None:
                out["pairs"] = [list(p) for p in pairs]

        if kind == "compare":
            from repro.compare import UnknownRedesignError, get_redesign

            name = params.get("name")
            if not isinstance(name, str):
                raise BadRequest("compare jobs need a 'name' parameter")
            try:
                get_redesign(name)
            except UnknownRedesignError as exc:
                raise BadRequest(str(exc.args[0])) from None
            out["name"] = name

        if kind in ("heatmap", "compare"):
            ncores = params.get("ncores", 4)
            if not _is_int(ncores) or ncores < 1:
                raise BadRequest(f"ncores must be an int >= 1, got {ncores!r}")
            out["ncores"] = ncores
        if kind == "scaling":
            from repro.pipeline.scaling import DEFAULT_LADDER, parse_ladder

            try:
                ladder = parse_ladder(params.get("ladder", DEFAULT_LADDER))
            except (TypeError, ValueError) as exc:
                raise BadRequest(
                    f"ladder must be ints >= 1 (a list or 'a,b,c'): {exc}"
                ) from None
            out["ladder"] = list(ladder)
        if kind != "analyze":
            tests_per_path = params.get("tests_per_path", 1)
            if not _is_int(tests_per_path) or tests_per_path < 1:
                raise BadRequest(
                    f"tests_per_path must be an int >= 1, "
                    f"got {tests_per_path!r}"
                )
            out["tests_per_path"] = tests_per_path

        backend = params.get("backend", self.default_backend)
        if backend is not None and backend not in backend_names():
            raise BadRequest(
                f"unknown backend {backend!r} "
                f"(backends: {', '.join(backend_names())})"
            )
        workers = params.get("workers", self.default_workers)
        if workers is not None and (not _is_int(workers) or workers < 0):
            raise BadRequest(f"workers must be an int >= 0, got {workers!r}")
        out["backend"] = backend
        out["workers"] = workers
        return out

    def _request_key(self, kind: str, params: dict, jobs: list) -> str:
        """Store memoization key: the request plus every pair's cache
        fingerprint, minus execution knobs.  A spec edit changes the
        fingerprints, so the memo honestly misses and the sweep re-runs
        (through the pair cache)."""
        result_params = {
            k: v for k, v in params.items() if k not in ("backend", "workers")
        }
        payload = {
            "kind": kind,
            "params": result_params,
            "fingerprints": sorted(job_fingerprint(j) for j in jobs),
        }
        return hashlib.sha256(canonical_bytes(payload)).hexdigest()

    # -- execution -------------------------------------------------------

    def _run(self, record: JobRecord) -> None:
        try:
            self._check_cancel(record)
            with record.cond:
                record.status = "running"
                record.started = time.time()
            self._emit(record, "status", status="running")
            runner = getattr(self, f"_run_{record.kind}")
            runner(record)
        except JobCancelled:
            self._finish(record, "cancelled")
        except Exception:
            with record.cond:
                record.error = traceback.format_exc()
            self._finish(record, "error")
        else:
            self._finish(record, "done")

    def _finish(self, record: JobRecord, status: str) -> None:
        with record.cond:
            record.status = status
            record.finished = time.time()
        fields = {
            "status": status,
            "cached_pairs": record.cached_pairs,
            "computed_pairs": record.computed_pairs,
        }
        if record.artifact is not None:
            fields["artifact"] = record.artifact
        if record.error is not None:
            fields["traceback"] = record.error
        self._emit(record, status if status != "done" else "done", **fields)

    def _check_cancel(self, record: JobRecord) -> None:
        if record.cancel.is_set():
            raise JobCancelled(record.id)

    def _on_pair(self, record: JobRecord):
        """The ``execute_jobs`` structured-progress hook -> one NDJSON
        ``pair`` event, plus the record's cached/computed accounting."""

        def on_pair(job, cell, cached, elapsed):
            kernels = [name for name, _ in job.kernels]
            fails = {k: cell.not_conflict_free.get(k, 0) for k in kernels}
            with record.cond:
                if cached:
                    record.cached_pairs += 1
                else:
                    record.computed_pairs += 1
            self._emit(
                record, "pair",
                pair=f"{cell.op0}|{cell.op1}",
                verdict="clean" if not any(fails.values()) else "conflicts",
                cached=bool(cached),
                elapsed=round(elapsed, 6),
                total=cell.total,
                fails=fails,
            )

        return on_pair

    def _store_fast_path(self, record: JobRecord, request_key: str,
                         pairs: int) -> bool:
        """Serve a memoized request straight from the store (no pairs
        executed at all); False when the request must run."""
        digest = self.store.lookup(request_key)
        if digest is None:
            return False
        with record.cond:
            record.store_hit = True
            record.cached_pairs = pairs
            record.artifact = digest
        self._emit(record, "store", artifact=digest, pairs=pairs)
        return True

    def _backend(self, params: dict):
        return get_backend(params["backend"], params["workers"])

    def _run_heatmap(self, record: JobRecord) -> None:
        from repro.bench.report import heatmap_to_dict, strip_volatile_heatmap
        from repro.model.registry import resolve_ops

        p = record.params
        ops = resolve_ops(p["interface"], p.get("ops"))
        pair_filter = (
            make_pair_filter([tuple(x) for x in p["pairs"]])
            if p.get("pairs") else None
        )
        jobs = build_pair_jobs(
            ops=ops, tests_per_path=p["tests_per_path"],
            pair_filter=pair_filter, interface=p["interface"],
            ncores=p["ncores"],
        )
        request_key = self._request_key(record.kind, p, jobs)
        if self._store_fast_path(record, request_key, len(jobs)):
            record.summary = self._heatmap_summary(
                self.store.load(record.artifact)
            )
            return

        resolved = self._backend(p)
        on_pair = self._on_pair(record)
        start = time.time()
        cells, cached = [], []
        for chunk in _chunks(jobs, max(1, resolved.workers)):
            self._check_cancel(record)
            executed = execute_jobs(
                chunk, backend=resolved, cache=self.cache, on_pair=on_pair
            )
            cells.extend(executed.cells)
            cached.extend(executed.cached)
        result = SweepResult.from_executed(
            ExecutedJobs(
                jobs, cells, cached, resolved.workers,
                resolved.name, resolved.stats(),
            ),
            ops, p["interface"], p["ncores"], time.time() - start,
        )
        payload = strip_volatile_heatmap(heatmap_to_dict(result))
        with record.cond:
            record.artifact = self.store.put(
                payload, record.kind, request_key
            )
            record.summary = self._heatmap_summary(payload)

    @staticmethod
    def _heatmap_summary(payload: dict) -> dict:
        return {
            "pairs": len(payload["cells"]),
            "total_tests": payload["total"],
            "conflict_free": dict(payload["conflict_free"]),
        }

    def _run_analyze(self, record: JobRecord) -> None:
        from repro.model.registry import get_interface, resolve_ops

        p = record.params
        iface = get_interface(p["interface"])
        ops = resolve_ops(p["interface"], p.get("ops"))
        pair_filter = (
            make_pair_filter([tuple(x) for x in p["pairs"]])
            if p.get("pairs") else None
        )
        jobs = [
            PairJob(a, b, build_state=iface.build_state,
                    state_equal=iface.state_equal, interface=iface.name)
            for a, b in iter_pairs(ops, pair_filter)
        ]
        request_key = self._request_key(record.kind, p, jobs)
        if self._store_fast_path(record, request_key, len(jobs)):
            record.summary = self._analyze_summary(
                self.store.load(record.artifact)
            )
            return

        resolved = self._backend(p)
        summaries = []

        def report(job, summary):
            with record.cond:
                record.computed_pairs += 1
            self._emit(
                record, "pair",
                pair=f"{summary.op0}|{summary.op1}",
                verdict=(
                    "commutes" if summary.commutative_paths else "never"
                ),
                cached=False,
                elapsed=0.0,
                commutative_paths=summary.commutative_paths,
                explored_paths=summary.explored_paths,
            )

        for chunk in _chunks(jobs, max(1, resolved.workers)):
            self._check_cancel(record)
            summaries.extend(
                resolved.map(run_analyze_job, chunk, on_result=report)
            )
        payload = {
            "schema": "repro.analyze/1",
            "ops": [op.name for op in ops],
            "pairs": [
                {k: v for k, v in s.to_dict().items() if k != "solver_stats"}
                for s in summaries
            ],
        }
        if iface.name != "posix":
            payload["interface"] = iface.name
        with record.cond:
            record.artifact = self.store.put(
                payload, record.kind, request_key
            )
            record.summary = self._analyze_summary(payload)

    @staticmethod
    def _analyze_summary(payload: dict) -> dict:
        return {
            "pairs": len(payload["pairs"]),
            "commutative_pairs": sum(
                1 for s in payload["pairs"] if s["commutative_paths"]
            ),
        }

    def _run_compare(self, record: JobRecord) -> None:
        from repro.compare import compare_to_dict, run_compare

        p = record.params

        def on_progress(line: str) -> None:
            # run_compare has no chunked seam, but its progress callback
            # fires per pair in this thread, which is exactly the
            # cancellation (and event) granularity the chunked kinds get.
            self._check_cancel(record)
            with record.cond:
                record.computed_pairs += 1
            self._emit(record, "progress", line=line)

        result = run_compare(
            p["name"], tests_per_path=p["tests_per_path"],
            workers=p["workers"], backend=p["backend"],
            cache=self.cache, ncores=p["ncores"], on_progress=on_progress,
        )
        payload = {
            k: v for k, v in compare_to_dict(result).items()
            if k not in ("elapsed", "execution")
        }
        with record.cond:
            record.cached_pairs = sum(
                s.cached_pairs for s in result.sweeps.values()
            )
            record.computed_pairs = sum(
                s.computed_pairs for s in result.sweeps.values()
            )
            record.artifact = self.store.put(payload, record.kind)
            record.summary = {
                "name": result.redesign.name,
                "holds": result.holds,
            }

    def _run_scaling(self, record: JobRecord) -> None:
        from repro.model.registry import resolve_ops
        from repro.pipeline.scaling import (
            run_scaling_sweep,
            scaling_to_dict,
            strip_volatile_scaling,
        )

        p = record.params
        ops = resolve_ops(p["interface"], p.get("ops"))
        pair_filter = (
            make_pair_filter([tuple(x) for x in p["pairs"]])
            if p.get("pairs") else None
        )

        def on_progress(line: str) -> None:
            self._check_cancel(record)
            self._emit(record, "progress", line=line)

        result = run_scaling_sweep(
            interface=p["interface"], ladder=p["ladder"], ops=ops,
            pair_filter=pair_filter, tests_per_path=p["tests_per_path"],
            workers=p["workers"], backend=p["backend"], cache=self.cache,
            on_progress=on_progress,
        )
        payload = strip_volatile_scaling(scaling_to_dict(result))
        with record.cond:
            record.cached_pairs = result.cached_pairs
            record.computed_pairs = result.computed_pairs
            record.artifact = self.store.put(payload, record.kind)
            record.summary = {
                "interface": result.interface,
                "ladder": list(result.ladder),
                "pairs": len(result.cells),
            }


def _is_int(value) -> bool:
    """An int that is not a bool: JSON ``true`` is not a count, and as
    ``"ncores": true`` it would key and store a second copy of the
    ``"ncores": 1`` artifact."""
    return isinstance(value, int) and not isinstance(value, bool)


def _chunks(seq: list, size: int):
    for i in range(0, len(seq), size):
        yield seq[i:i + size]
