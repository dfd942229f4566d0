"""Job manager for the COMMUTER service: async sweeps over the pipeline.

A :class:`JobManager` accepts jobs of every registered sweep kind
(:mod:`repro.kinds` — the table the batch CLI reads too), runs each on
a bounded worker pool, and exposes their lifecycle::

    queued -> running -> done | error | cancelled

Every job carries a seq-numbered event log — one ``pair`` event per
op pair as it completes (name, verdict, cached?, worker seconds) plus
``status`` / ``done`` / ``error`` markers — which the HTTP layer streams
as NDJSON.  Finished artifacts go into the content-addressed
:class:`~repro.service.store.ArtifactStore` as the kind's *stripped
volatile projection* (see :func:`repro.bench.report.strip_volatile_heatmap`),
so a service artifact is byte-identical to the same request's batch-CLI
artifact under the same projection.

Incrementality is layered:

* **request level** — kinds that say how to build their jobs
  (``analyze``, ``heatmap``) are memoized in the store by a request key
  that folds in every pair's cache fingerprint; an exact repeat is
  served with zero pairs executed (``store_hit``).
* **pair level** — all kinds share one thread-safe
  :class:`~repro.pipeline.cache.ResultCache`, so after a spec edit only
  the invalidated rows/columns recompute; the per-pair ``cached`` flags
  in the event stream make that observable.

Cancellation rides the sweep's own progress callbacks: each fires after
a finished pair has been persisted to the cache and raises
:class:`JobCancelled` once the cancel flag is set, so a DELETE lands
mid-sweep without abandoning already-computed entries, and a job is one
backend drain however it ends (one coordinator lifecycle under
``--backend cluster``).
"""

from __future__ import annotations

import hashlib
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

from repro.kinds import get_kind, kind_names, normalize
from repro.pipeline.cache import DEFAULT_CACHE, as_cache, job_fingerprint
from repro.service.store import ArtifactStore, canonical_bytes

JOB_SCHEMA = "repro.job/1"

JOB_KINDS = kind_names()

#: Statuses after which a job's record and events stop changing.
TERMINAL = ("done", "error", "cancelled")


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
        #: the server's execution knobs, which a request may override
        self.defaults = {"backend": backend, "workers": backend_workers}
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
        normalized = normalize(kind, {**self.defaults, **(params or {})})
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
        when its next pair finishes.
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

    # -- execution -------------------------------------------------------

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

    def _run(self, record: JobRecord) -> None:
        try:
            self._check_cancel(record)
            with record.cond:
                record.status = "running"
                record.started = time.time()
            self._emit(record, "status", status="running")
            self._execute(record)
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
        self._emit(record, status, **fields)

    def _check_cancel(self, record: JobRecord) -> None:
        if record.cancel.is_set():
            raise JobCancelled(record.id)

    def _execute(self, record: JobRecord) -> None:
        """Run one job of any kind: store memo, one sweep, store."""
        kind, p = get_kind(record.kind), record.params
        request_key = None
        if kind.build_jobs is not None:
            jobs = kind.build_jobs(p)
            request_key = self._request_key(record.kind, p, jobs)
            digest = self.store.lookup(request_key)
            if digest is not None:
                # Memoized: served straight from the store, no pairs run.
                with record.cond:
                    record.store_hit = True
                    record.cached_pairs = len(jobs)
                    record.artifact = digest
                self._emit(record, "store", artifact=digest, pairs=len(jobs))
                record.summary = kind.summary(self.store.load(digest))
                return

        def on_pair(job, cell, cached, elapsed):
            verdict, details = kind.event(job, cell)
            with record.cond:
                if cached:
                    record.cached_pairs += 1
                else:
                    record.computed_pairs += 1
            self._emit(
                record, "pair", pair=f"{cell.op0}|{cell.op1}",
                verdict=verdict, cached=bool(cached),
                elapsed=round(elapsed, 6), **details,
            )
            self._check_cancel(record)

        def on_progress(line: str) -> None:
            self._emit(record, "progress", line=line)
            self._check_cancel(record)

        structured = kind.event is not None
        result = kind.run(
            p, {}, cache=self.cache, backend=p["backend"],
            workers=p["workers"],
            on_progress=None if structured else on_progress,
            on_pair=on_pair if structured else None,
        )
        payload = kind.strip(kind.to_dict(result))
        with record.cond:
            if not structured:
                record.cached_pairs = result.cached_pairs
                record.computed_pairs = result.computed_pairs
            record.artifact = self.store.put(
                payload, record.kind, request_key
            )
            record.summary = kind.summary(payload)
