"""Named execution backends: where and in what order jobs run.

A *registry* of :class:`ExecutionBackend` implementations selected by
name (the CLI's ``--backend``), the same way interfaces and redesigns
are selected.  A backend decides only *where and in what order* jobs
run — never what they compute — so every backend must
produce identical results for the same job batch, a property the test
suite enforces and the result cache depends on (backend identity is
deliberately **not** part of any cache fingerprint).

Registered backends
===================

``serial``
    In-process, in submit order.  No picklability requirements; the
    only backend that can run closures and ad-hoc jobs.
``pool``
    A :class:`concurrent.futures.ProcessPoolExecutor` shard with a
    bounded submission window.
``work-stealing``
    A process pool scheduled from one shared deque instead of static
    chunks: jobs are *owned* by a lane under static contiguous
    chunking (what a naive shard would do), but every idle lane pulls
    the next job from the shared deque, so no lane ever idles behind
    another's backlog.  Built for heterogeneous batches (a
    multi-interface compare mixes pair jobs whose cost varies ~10×)
    where static chunking leaves workers idle behind one expensive
    lane.  ``stats()`` reports ``jobs_stolen`` — how many jobs ran on
    a lane other than their static owner, i.e. exactly the
    rebalancing static chunking would not have done.
``subprocess-shard``
    Partitions jobs across N freshly spawned worker subprocesses by a
    content hash of each pickled job, speaking line-delimited JSON
    (with base64-pickled payloads) over stdin/stdout — the minimal
    honest stand-in for a remote/multi-host backend: it proves every
    job really is self-contained picklable data that can leave the
    parent process through a byte stream and come back as a result.

Lifecycle and contract
======================

A backend is ``submit`` / ``drain`` / ``stats``:

* ``submit(fn, job)`` enqueues one unit of work;
* ``drain(on_result=None)`` executes everything queued and returns the
  results **in submit order** (the invariant every caller relies on);
  ``on_result(job, result)`` fires as results arrive, in completion
  order, and is the hook the result cache persists through;
* ``stats()`` returns the last drain's execution accounting (a plain
  dict: always ``backend``/``workers``/``jobs``, plus backend-specific
  counters like ``jobs_stolen`` or ``shard_jobs``).  Stats describe
  *how* the batch ran, never what it computed, and are therefore kept
  out of result content and cache fingerprints.

``map(fn, jobs, on_result)`` is the one-shot convenience the sweep
uses.  One capability flag describes what a backend can accept:
``requires_picklable`` (jobs/results cross a process boundary).  Every
backend must schedule heterogeneous multi-interface batches — each job
carries everything its worker needs.

:func:`get_backend` is the one way a backend is picked: a registered
name, an instance, or ``None`` for the ``workers`` rule.

Worker-count semantics (one place, used by every backend and the CLI):
see :func:`normalize_workers` — ``None`` means "the context default",
``0`` means "all cores", ``N >= 1`` means exactly N, negative is an
error.  ``serial`` always runs with ``workers == 1``.

Authoring guide: ``docs/backends.md``.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import pickle
import queue
import subprocess
import sys
import tempfile
import threading
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Optional, Sequence, Union

from repro.pipeline.protocol import (
    ProtocolError,
    decode_payload,
    dump_frame,
    encode_payload,
    read_frames,
)


def default_workers() -> int:
    """Worker count when the caller does not choose one: the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def normalize_workers(workers: Optional[int], none_means: int = 1) -> int:
    """The single home of the 0/None/1 worker-count semantics.

    * ``None`` — the caller did not choose: use ``none_means`` (the
      context default — ``1`` when no backend is named, ``0`` for the
      parallel backends, which then resolves to all cores);
    * ``0`` — all cores (:func:`default_workers`);
    * ``N >= 1`` — exactly N;
    * negative — ``ValueError``.
    """
    if workers is None:
        workers = none_means
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = all cores), got {workers}")
    if workers == 0:
        return default_workers()
    return workers


class ExecutionBackend(ABC):
    """Interface: run submitted jobs, results in submit order.

    Subclasses implement :meth:`_execute` over the queued ``(fn, job)``
    list; the submit/drain bookkeeping, stats plumbing, and the
    ``map`` convenience live here.
    """

    #: Registry name (the CLI's ``--backend`` value).
    name = "abstract"
    #: Jobs, fns and results must survive pickling (they leave the
    #: parent process).  ``serial`` is the only backend without this.
    requires_picklable = True
    #: ``None`` resolved through :func:`normalize_workers` with this
    #: context default (0 = all cores for the parallel backends).
    none_workers_means = 0

    def __init__(self, workers: Optional[int] = None):
        self.workers = normalize_workers(workers, none_means=self.none_workers_means)
        self._pending: list[tuple[Callable, object]] = []
        self._stats: dict = self._base_stats(0)

    # -- lifecycle ------------------------------------------------------

    def submit(self, fn: Callable, job) -> None:
        """Enqueue one job for the next :meth:`drain`."""
        self._pending.append((fn, job))

    def drain(self, on_result: Optional[Callable] = None) -> list:
        """Run everything queued; results in submit order."""
        pending, self._pending = self._pending, []
        self._stats = self._base_stats(len(pending))
        if not pending:
            return []
        return self._execute(pending, on_result)

    def stats(self) -> dict:
        """Execution accounting for the last drain (plain data)."""
        return dict(self._stats)

    def map(
        self,
        fn: Callable,
        jobs: Sequence,
        on_result: Optional[Callable] = None,
    ) -> list:
        """Submit every job and drain: the sweep's one-shot entry."""
        for job in jobs:
            self.submit(fn, job)
        return self.drain(on_result)

    # -- subclass surface ----------------------------------------------

    @abstractmethod
    def _execute(
        self,
        pending: list[tuple[Callable, object]],
        on_result: Optional[Callable],
    ) -> list:
        """Run ``pending`` (non-empty), return results in input order.

        Implementations update ``self._stats`` in place with their
        backend-specific counters.
        """

    def _base_stats(self, jobs: int) -> dict:
        return {"backend": self.name, "workers": self.workers, "jobs": jobs}

    def _run_serially(self, pending, on_result) -> list:
        """Shared in-process fallback (single worker / single job)."""
        results = []
        for fn, job in pending:
            result = fn(job)
            results.append(result)
            if on_result is not None:
                on_result(job, result)
        return results

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


# ----------------------------------------------------------------------
# The registry


class UnknownBackendError(ValueError):
    """Raised for a backend name with no registry entry."""


_REGISTRY: dict[str, type] = {}

#: Backends that live above this package: name -> the module that
#: registers it, imported the first time the name is asked for.
_ELSEWHERE = {"cluster": "repro.cluster.backend"}


def register_backend(cls: type) -> type:
    """Register an :class:`ExecutionBackend` subclass under ``cls.name``
    (usable as a class decorator; see ``docs/backends.md``)."""
    _REGISTRY[cls.name] = cls
    return cls


def backend_names() -> list[str]:
    """Registered backend names, in registration order."""
    return list(_REGISTRY) + [n for n in _ELSEWHERE if n not in _REGISTRY]


def get_backend(
    backend: Union[str, ExecutionBackend, None],
    workers: Optional[int] = None,
) -> ExecutionBackend:
    """The one way a backend is picked: a registered name sized by
    ``workers``, or an instance (passed through as is).

    ``None`` is the ``workers`` rule every ``--workers N`` command line
    without ``--backend`` relies on: ``workers`` absent or ``1`` is
    serial, anything else (``0`` = all cores) is the process pool.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        if normalize_workers(workers, none_means=1) == 1:
            return SerialBackend()
        return PoolBackend(workers=workers)
    if backend in _ELSEWHERE:
        importlib.import_module(_ELSEWHERE[backend])
    try:
        cls = _REGISTRY[backend]
    except KeyError:
        raise UnknownBackendError(
            f"unknown execution backend {backend!r}; registered backends: "
            + ", ".join(backend_names())
        ) from None
    return cls(workers=workers)


# ----------------------------------------------------------------------
# Built-in backends


@register_backend
class SerialBackend(ExecutionBackend):
    """Run every job in-process, in order (the seed repo's behavior)."""

    name = "serial"
    requires_picklable = False
    none_workers_means = 1

    def __init__(self, workers: Optional[int] = None):
        # A serial backend is one worker by definition; an explicit
        # --workers value is accepted and ignored (documented in
        # docs/backends.md) so `--backend serial` composes with shared
        # command lines.
        super().__init__(workers=None)

    def _execute(self, pending, on_result):
        return self._run_serially(pending, on_result)


@register_backend
class PoolBackend(ExecutionBackend):
    """Shard jobs across a process pool.

    ``max_pending`` bounds how many jobs are enqueued at once so a large
    sweep (the full 171-pair matrix) does not hold every pickled job in
    the executor queue simultaneously.
    """

    name = "pool"

    def __init__(self, workers: Optional[int] = None, max_pending: int = 0):
        super().__init__(workers=workers)
        self.max_pending = max_pending if max_pending > 0 else 4 * self.workers

    def _execute(self, pending, on_result):
        if self.workers <= 1 or len(pending) == 1:
            # A pool of one only adds pickling overhead; keep semantics.
            self._stats["inline"] = True
            return self._run_serially(pending, on_result)
        results: list = [None] * len(pending)
        self._stats["max_pending"] = self.max_pending
        with ProcessPoolExecutor(max_workers=min(self.workers, len(pending))) as pool:
            in_flight = {}
            next_job = 0
            try:
                while next_job < len(pending) or in_flight:
                    while next_job < len(pending) and len(in_flight) < self.max_pending:
                        fn, job = pending[next_job]
                        future = pool.submit(fn, job)
                        in_flight[future] = next_job
                        next_job += 1
                    done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                    for future in done:
                        index = in_flight.pop(future)
                        results[index] = future.result()
                        if on_result is not None:
                            on_result(pending[index][1], results[index])
            finally:
                # A job or on_result raised (a cancelled service job does):
                # what has not started must not run before the pool exits.
                for future in in_flight:
                    future.cancel()
        return results


@register_backend
class WorkStealingBackend(ExecutionBackend):
    """A process pool scheduled from one shared deque, with steal
    accounting against static chunking.

    Jobs are *owned* by lanes under static contiguous chunking (what a
    naive shard would do: lane ``i`` gets the ``i``-th contiguous slice
    of the batch).  Execution ignores the chunks: every idle lane pulls
    the next job from the front of one shared deque, so the moment any
    lane would go idle behind another's backlog it takes that backlog's
    next job instead — stealing is eager rather than
    waiting-until-empty, which keeps the schedule deterministic in
    structure (no races on near-zero-cost jobs) while still modelling
    exactly the rebalancing static chunking forbids.  With the ~10×
    per-interface cost spread of a heterogeneous compare batch, this is
    what keeps cheap lanes from idling behind the expensive side.

    ``stats()``: ``jobs_stolen`` (jobs that executed on a lane other
    than their static-chunk owner — the schedule's deviation from a
    static shard), ``lane_owned`` / ``lane_executed`` (per-lane job
    counts before and after rebalancing), and
    ``max_steal_queue_depth`` (the shared-queue depth at the deepest
    steal — how much backlog rebalancing relieved).
    """

    name = "work-stealing"

    def _execute(self, pending, on_result):
        lanes = min(self.workers, len(pending))
        if lanes <= 1:
            self._stats.update({"inline": True, "lanes": 1, "jobs_stolen": 0})
            return self._run_serially(pending, on_result)
        total = len(pending)
        owner = [index * lanes // total for index in range(total)]
        lane_owned = [owner.count(lane) for lane in range(lanes)]
        shared: deque[int] = deque(range(total))
        lane_executed = [0] * lanes
        stolen = 0
        max_steal_depth = 0

        results: list = [None] * total
        with ProcessPoolExecutor(max_workers=lanes) as pool:
            in_flight: dict = {}
            idle: deque[int] = deque(range(lanes))
            while shared or in_flight:
                while idle and shared:
                    lane = idle.popleft()
                    depth = len(shared)
                    index = shared.popleft()
                    if owner[index] != lane:
                        stolen += 1
                        max_steal_depth = max(max_steal_depth, depth)
                    fn, job = pending[index]
                    in_flight[pool.submit(fn, job)] = (lane, index)
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    lane, index = in_flight.pop(future)
                    results[index] = future.result()
                    lane_executed[lane] += 1
                    idle.append(lane)
                    if on_result is not None:
                        on_result(pending[index][1], results[index])
        self._stats.update(
            {
                "lanes": lanes,
                "jobs_stolen": stolen,
                "lane_owned": lane_owned,
                "lane_executed": lane_executed,
                "max_steal_queue_depth": max_steal_depth,
            }
        )
        return results


@register_backend
class SubprocessShardBackend(ExecutionBackend):
    """Shard jobs across worker subprocesses over a stdio/JSON protocol.

    Each job is assigned to one of N shards by a SHA-256 over its
    pickled bytes — a pure content-hash partition, so the same batch
    shards identically on every run and no shard needs any state beyond
    the jobs it receives.  Every shard is a fresh ``python -m
    repro.pipeline.shard_worker`` subprocess speaking line-delimited
    JSON: ``{"id", "fn", "job"}`` down (payloads base64-pickled),
    ``{"id", "ok", "result"|"error"}`` back up.

    This is the minimal honest stand-in for a remote backend: results
    reach the parent only through a byte stream, so anything that would
    break on a multi-host work queue (closures, unpicklable state,
    results that rely on shared memory) breaks here first, loudly.

    ``stats()``: ``shards``, per-shard ``shard_jobs``, and
    ``shard_spread`` (max - min shard load, the balance of the
    content-hash partition).
    """

    name = "subprocess-shard"

    def _execute(self, pending, on_result):
        shards = min(self.workers, len(pending))
        assignment = [self._shard_of(job, shards) for _, job in pending]
        shard_jobs = [assignment.count(s) for s in range(shards)]
        per_shard: dict[int, list[int]] = {}
        for index, shard in enumerate(assignment):
            per_shard.setdefault(shard, []).append(index)

        results: list = [None] * len(pending)
        inbox: queue.Queue = queue.Queue()
        workers = [
            _ShardWorker(shard, [(i, *pending[i]) for i in indices], inbox)
            for shard, indices in sorted(per_shard.items())
        ]
        try:
            for worker in workers:
                worker.start()
            for _ in range(len(pending)):
                index, ok, payload = inbox.get()
                if not ok:
                    raise RuntimeError(
                        f"subprocess-shard job {index} failed in its worker:\n{payload}"
                    )
                results[index] = payload
                if on_result is not None:
                    on_result(pending[index][1], results[index])
        finally:
            for worker in workers:
                worker.close()
        self._stats.update(
            {
                "shards": shards,
                "shard_jobs": shard_jobs,
                "shard_spread": max(shard_jobs) - min(shard_jobs),
            }
        )
        return results

    @staticmethod
    def _shard_of(job, shards: int) -> int:
        blob = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(blob).digest()
        return int.from_bytes(digest[:8], "big") % shards


class _ShardWorker:
    """One shard subprocess: feeds jobs in, relays results to a queue."""

    def __init__(self, shard: int, items: list, inbox: queue.Queue):
        self.shard = shard
        self.items = items  # (index, fn, job)
        self.inbox = inbox
        self.process: Optional[subprocess.Popen] = None
        self.stderr_file = None
        self.threads: list[threading.Thread] = []

    def start(self) -> None:
        env = dict(os.environ)
        # The worker must import repro even from a bare checkout where
        # only the parent's sys.path knows about src/.
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.stderr_file = tempfile.TemporaryFile()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.pipeline.shard_worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.stderr_file,
            env=env,
            text=True,
        )
        self.threads = [
            threading.Thread(target=self._feed, daemon=True),
            threading.Thread(target=self._collect, daemon=True),
        ]
        for thread in self.threads:
            thread.start()

    def _feed(self) -> None:
        try:
            for index, fn, job in self.items:
                frame = {"id": index, "fn": encode_payload(fn), "job": encode_payload(job)}
                self.process.stdin.write(dump_frame(frame) + "\n")
                self.process.stdin.flush()
            self.process.stdin.close()
        except (BrokenPipeError, OSError):
            pass  # the collector reports the death with stderr attached

    def _collect(self) -> None:
        seen = 0
        try:
            for msg in read_frames(self.process.stdout):
                if msg.get("ok"):
                    payload = decode_payload(msg["result"])
                    self.inbox.put((msg["id"], True, payload))
                else:
                    self.inbox.put((msg["id"], False, msg.get("error", "")))
                seen += 1
        except ProtocolError:
            pass  # a dying worker's half-written frame; handled below
        if seen < len(self.items):
            # The worker died mid-batch; fail every job still owed.
            self.process.wait()
            self.stderr_file.seek(0)
            stderr = self.stderr_file.read().decode(errors="replace")
            detail = (
                f"shard {self.shard} worker exited with code "
                f"{self.process.returncode} after {seen}/{len(self.items)} "
                f"results; stderr:\n{stderr}"
            )
            for index, _, _ in self.items[seen:]:
                self.inbox.put((index, False, detail))

    def close(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
        for thread in self.threads:
            thread.join(timeout=10)
        if self.process is not None:
            self.process.wait()
            for stream in (self.process.stdin, self.process.stdout):
                if stream is not None and not stream.closed:
                    stream.close()
        if self.stderr_file is not None:
            self.stderr_file.close()


def format_backend_stats(stats: dict) -> str:
    """One-line ``key=value`` rendering of a stats dict (CLI summaries);
    the identity keys every backend carries are left out."""
    parts = []
    for key in sorted(stats):
        if key in ("backend", "workers"):
            continue
        parts.append(f"{key}={stats[key]}")
    return " ".join(parts)
