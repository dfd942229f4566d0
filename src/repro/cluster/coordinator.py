"""The cluster coordinator: dispatch, liveness, and recovery.

One :class:`Coordinator` owns a listening TCP socket.  Each worker that
connects is verified by a versioned handshake (protocol version,
analysis-context fingerprint, interface coverage — a mismatched
checkout is *rejected*, not trusted), then served by a reader thread
that feeds one central event queue.  :meth:`run_batch` is the dispatch
loop the backend drives:

* jobs go out **slot-bounded** — a worker holding K slots never has
  more than K jobs in flight, which is the backpressure that keeps a
  slow worker from hoarding the queue;
* results stream back per pair and are recorded **first-wins** by job
  id, so a late result from a worker we wrongly declared dead is
  deduplicated (counted in ``duplicate_results``), never double-applied;
* every frame a worker sends refreshes its liveness clock; a worker
  silent past ``heartbeat_timeout`` — or one whose socket drops — is
  declared lost and its in-flight jobs are requeued at the *front* of
  the work deque (counted in ``jobs_requeued``), so recovery work is
  done before new work;
* if the last live worker dies with jobs outstanding, the loop waits
  ``join_timeout`` for a replacement to connect before giving up —
  a restarted worker (``--reconnect``) resumes the sweep.

Faults from :class:`repro.cluster.faults.FaultPlan` are applied inside
the same loop, *after* the triggering worker's slots are refilled —
guaranteeing the killed worker has in-flight work to requeue, which is
what makes ``jobs_requeued >= 1`` deterministic for the tests and CI.

The coordinator never unpickles job results on its reader threads:
payload decoding happens in :meth:`run_batch` on the caller's thread,
so a malformed payload surfaces as an ordered, typed failure.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from collections import deque
from typing import Callable, Optional

from repro.cluster.faults import FaultPlan
from repro.pipeline.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_payload,
    encode_frame,
    encode_payload,
    read_frames,
)

#: Dispatch-loop tick: the queue-get timeout between liveness scans.
_TICK_SECONDS = 0.2


class ClusterError(RuntimeError):
    """The batch cannot make progress (no workers, or a job failed)."""


class _WorkerConn:
    """Coordinator-side state for one connected worker."""

    def __init__(self, sock: socket.socket, name: str, slots: int, rfile=None):
        self.sock = sock
        self.rfile = rfile if rfile is not None else sock.makefile("rb")
        self.name = name
        self.slots = max(1, slots)
        self.wlock = threading.Lock()
        self.in_flight: set[int] = set()
        self.alive = True
        self.ignore_heartbeats = False
        self.last_seen = time.monotonic()
        self.jobs_done = 0

    def send(self, frame: dict) -> None:
        data = encode_frame(frame)
        with self.wlock:
            self.sock.sendall(data)

    def close(self) -> None:
        for closer in (
            lambda: self.sock.shutdown(socket.SHUT_RDWR),
            self.rfile.close,
            self.sock.close,
        ):
            try:
                closer()
            except OSError:
                pass


class Coordinator:
    """Accepts workers on a TCP port and runs job batches across them.

    ``port=0`` binds an ephemeral port (tests, ``--spawn-local``);
    :attr:`address` reports the bound ``(host, port)`` after
    :meth:`start`.  ``fingerprint`` and ``interfaces`` default to this
    process's own analysis context — pass explicit values only to test
    the rejection paths.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        heartbeat_timeout: float = 10.0,
        join_timeout: float = 10.0,
        fault: Optional[FaultPlan] = None,
        fingerprint: Optional[str] = None,
        interfaces: Optional[list] = None,
        on_event: Optional[Callable[[str], None]] = None,
    ):
        if fingerprint is None:
            from repro.pipeline.cache import context_fingerprint

            fingerprint = context_fingerprint()
        if interfaces is None:
            from repro.model.registry import interface_names

            interfaces = list(interface_names())
        self.host = host
        self.port = port
        self.heartbeat_timeout = heartbeat_timeout
        self.join_timeout = join_timeout
        self.fault = fault or FaultPlan()
        self.fingerprint = fingerprint
        self.interfaces = list(interfaces)
        self.on_event = on_event
        self.address: Optional[tuple[str, int]] = None

        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._closing = False
        self._lock = threading.Lock()
        self._joined = threading.Condition(self._lock)
        self._workers: list[_WorkerConn] = []
        self._events: queue.Queue = queue.Queue()
        self._results_seen = 0
        self.counters = {
            "workers_joined": 0,
            "workers_rejected": 0,
            "workers_lost": 0,
            "jobs_requeued": 0,
            "duplicate_results": 0,
            "heartbeats_received": 0,
        }

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "Coordinator":
        self._listener = socket.create_server(
            (self.host, self.port), reuse_port=False
        )
        self.address = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="cluster-accept", daemon=True
        )
        self._accept_thread.start()
        self._log(f"listening on {self.address[0]}:{self.address[1]}")
        return self

    def close(self) -> None:
        """Broadcast shutdown and tear down every socket."""
        self._closing = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            workers = list(self._workers)
        for conn in workers:
            try:
                conn.send({"type": "shutdown"})
            except OSError:
                pass
            conn.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)

    def wait_for_workers(self, count: int, timeout: float = 30.0) -> None:
        """Block until ``count`` live workers have joined."""
        deadline = time.monotonic() + timeout
        with self._joined:
            while len([c for c in self._workers if c.alive]) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ClusterError(
                        f"only {len([c for c in self._workers if c.alive])} "
                        f"of {count} workers joined within {timeout:.0f}s"
                    )
                self._joined.wait(timeout=remaining)

    def live_workers(self) -> int:
        with self._lock:
            return len([c for c in self._workers if c.alive])

    def stats(self) -> dict:
        """Recovery/liveness counters plus the per-worker job tally."""
        with self._lock:
            stats = dict(self.counters)
            stats["cluster_workers"] = len(self._workers)
            stats["slots_total"] = sum(
                c.slots for c in self._workers if c.alive
            )
            stats["worker_jobs"] = [c.jobs_done for c in self._workers]
        return stats

    # -- handshake and per-worker reader --------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._serve_connection,
                args=(sock,),
                name="cluster-handshake",
                daemon=True,
            ).start()

    def _serve_connection(self, sock: socket.socket) -> None:
        sock.settimeout(30.0)
        rfile = sock.makefile("rb")
        try:
            hello = next(read_frames(rfile), None)
        except ProtocolError as exc:
            self._reject(sock, f"bad handshake frame: {exc}")
            return
        reason = self._hello_problem(hello)
        if reason is not None:
            self._reject(sock, reason)
            return
        sock.settimeout(None)
        conn = _WorkerConn(
            sock,
            name=str(hello.get("name") or "worker"),
            slots=int(hello.get("slots", 1)),
            rfile=rfile,
        )
        try:
            conn.send({"type": "welcome", "version": PROTOCOL_VERSION})
        except OSError:
            conn.close()
            return
        with self._joined:
            self._workers.append(conn)
            self.counters["workers_joined"] += 1
            self._joined.notify_all()
        self._log(f"worker {conn.name} joined with {conn.slots} slot(s)")
        self._events.put(("join", conn, None))
        self._read_loop(conn)

    def _hello_problem(self, hello: Optional[dict]) -> Optional[str]:
        """Why this hello frame must be rejected, or None to admit."""
        if hello is None or hello.get("type") != "hello":
            return "first frame was not a hello"
        if hello.get("version") != PROTOCOL_VERSION:
            return (
                f"protocol version {hello.get('version')!r} != "
                f"{PROTOCOL_VERSION}"
            )
        if hello.get("fingerprint") != self.fingerprint:
            return (
                "analysis-context fingerprint mismatch (worker checkout "
                "differs from coordinator)"
            )
        offered = set(hello.get("interfaces") or [])
        missing = [name for name in self.interfaces if name not in offered]
        if missing:
            return f"worker lacks interfaces: {', '.join(missing)}"
        return None

    def _reject(self, sock: socket.socket, reason: str) -> None:
        with self._lock:
            self.counters["workers_rejected"] += 1
        self._log(f"rejected worker: {reason}")
        try:
            sock.sendall(encode_frame({"type": "reject", "reason": reason}))
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    def _read_loop(self, conn: _WorkerConn) -> None:
        try:
            for frame in read_frames(conn.rfile):
                if not conn.ignore_heartbeats:
                    conn.last_seen = time.monotonic()
                kind = frame.get("type")
                if kind == "heartbeat":
                    with self._lock:
                        self.counters["heartbeats_received"] += 1
                elif kind == "result":
                    self._events.put(("result", conn, frame))
        except (ProtocolError, OSError) as exc:
            self._events.put(("lost", conn, f"read failed: {exc}"))
            return
        self._events.put(("lost", conn, "connection closed"))

    # -- the dispatch loop ----------------------------------------------

    def run_batch(self, pending: list, on_result: Optional[Callable] = None) -> list:
        """Run ``pending`` ``(fn, job)`` pairs; results in input order.

        Reusable: one coordinator (and its fleet) serves any number of
        sequential batches.
        """
        total = len(pending)
        if total == 0:
            return []
        results: list = [None] * total
        done: set[int] = set()
        work: deque[int] = deque(range(total))
        frames = [
            {
                "type": "job",
                "id": index,
                "fn": encode_payload(fn),
                "job": encode_payload(job),
            }
            for index, (fn, job) in enumerate(pending)
        ]
        starved_since: Optional[float] = None

        while len(done) < total:
            # Liveness runs every iteration, not just on idle ticks: a
            # busy fleet streaming results must still notice the one
            # silent worker sitting on an undelivered job.
            self._scan_liveness(work, done)
            self._dispatch(work, frames, done)
            try:
                kind, conn, payload = self._events.get(timeout=_TICK_SECONDS)
            except queue.Empty:
                starved_since = self._check_starvation(done, total, starved_since)
                continue
            if kind == "join":
                starved_since = None
            elif kind == "lost":
                self._fail_worker(conn, payload, work, done, close=True)
            elif kind == "result":
                self._handle_result(
                    conn, payload, pending, results, done, work, frames, on_result
                )
        return results

    def _dispatch(self, work: deque, frames: list, done: set) -> None:
        """Fill every live worker's free slots from the front of ``work``."""
        with self._lock:
            workers = [c for c in self._workers if c.alive]
        for conn in workers:
            while work and len(conn.in_flight) < conn.slots:
                index = work[0]
                if index in done:
                    work.popleft()
                    continue
                try:
                    conn.send(frames[index])
                except OSError as exc:
                    self._fail_worker(
                        conn, f"send failed: {exc}", work, done, close=True
                    )
                    break
                work.popleft()
                conn.in_flight.add(index)

    def _handle_result(
        self, conn, frame, pending, results, done, work, frames, on_result
    ) -> None:
        index = frame.get("id")
        conn.in_flight.discard(index)
        if index in done:
            # A worker we declared dead delivered late: first-wins.
            with self._lock:
                self.counters["duplicate_results"] += 1
            return
        if not frame.get("ok"):
            raise ClusterError(
                f"cluster job {index} failed on worker {conn.name}:\n"
                f"{frame.get('error', '')}"
            )
        results[index] = decode_payload(frame["result"])
        done.add(index)
        conn.jobs_done += 1
        self._results_seen += 1
        if on_result is not None:
            on_result(pending[index][1], results[index])
        # Refill this worker *before* applying a scheduled fault, so a
        # killed worker deterministically has in-flight work to requeue.
        if conn.alive:
            self._dispatch(work, frames, done)
        self._apply_fault(conn, work, done)

    def _apply_fault(self, conn, work, done) -> None:
        if self.fault.kill_after_result == self._results_seen:
            self._log(
                f"fault: killing worker {conn.name} after result "
                f"{self._results_seen}"
            )
            self._fail_worker(
                conn, "fault: kill-after-result", work, done, close=True
            )
        if self.fault.timeout_after_result == self._results_seen:
            self._log(
                f"fault: silencing worker {conn.name} after result "
                f"{self._results_seen}"
            )
            conn.ignore_heartbeats = True
            self._fail_worker(
                conn, "fault: timeout-after-result", work, done, close=False
            )

    def _fail_worker(
        self, conn, reason, work: deque, done: set, *, close: bool
    ) -> None:
        """Declare a worker dead and requeue its undone in-flight jobs."""
        if not conn.alive:
            return
        conn.alive = False
        requeue = sorted(i for i in conn.in_flight if i not in done)
        conn.in_flight.clear()
        work.extendleft(reversed(requeue))
        with self._lock:
            self.counters["workers_lost"] += 1
            self.counters["jobs_requeued"] += len(requeue)
        self._log(
            f"worker {conn.name} lost ({reason}); "
            f"requeued {len(requeue)} job(s)"
        )
        if close:
            conn.close()

    def _scan_liveness(self, work: deque, done: set) -> None:
        now = time.monotonic()
        with self._lock:
            workers = [c for c in self._workers if c.alive]
        for conn in workers:
            if now - conn.last_seen > self.heartbeat_timeout:
                # Keep the socket open: a worker that is merely slow may
                # still deliver results, which dedup then discards or
                # accepts first-wins.
                self._fail_worker(
                    conn,
                    f"heartbeat timeout ({self.heartbeat_timeout:.1f}s)",
                    work,
                    done,
                    close=False,
                )

    def _check_starvation(
        self, done: set, total: int, starved_since: Optional[float]
    ) -> Optional[float]:
        """Give up only after ``join_timeout`` with zero live workers."""
        if self.live_workers() > 0:
            return None
        now = time.monotonic()
        if starved_since is None:
            self._log(
                f"no live workers with {total - len(done)} job(s) "
                f"outstanding; waiting {self.join_timeout:.0f}s for a join"
            )
            return now
        if now - starved_since > self.join_timeout:
            raise ClusterError(
                f"no live workers and none joined within "
                f"{self.join_timeout:.0f}s; {total - len(done)} of {total} "
                "job(s) unfinished"
            )
        return starved_since

    def _log(self, message: str) -> None:
        if self.on_event is not None:
            self.on_event(message)
