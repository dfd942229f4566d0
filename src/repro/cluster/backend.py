"""``--backend cluster``: the fleet as an ordinary execution backend.

:class:`ClusterBackend` plugs the coordinator/worker fleet into the
execution-backend registry, so every command that takes ``--backend``
— analyze, heatmap, compare, scaling, the service — can drive N hosts
without knowing anything changed.  Backend identity stays out of cache
fingerprints, so a cluster sweep's artifacts are byte-identical to
``serial``'s; the only trace is ``backend_stats`` (``jobs_requeued``,
``workers_lost``, …) alongside the results.

Each :meth:`drain` is one complete coordinator lifecycle: bind, spawn
any ``--spawn-local`` workers, wait for the fleet, run the batch,
tear everything down.  A sweep — a batch command or a service job — is
one drain, so it pays that startup once, and nothing outlives it
(leak-free under pytest); the benchmark measures exactly that
coordination tax (the Amdahl term the paper says to measure, not
hide).

Configuration resolves flag → environment → default, so the service
(which builds backends per job from a name) is configured with the
same ``REPRO_CLUSTER_*`` variables the CLI flags set:

=============================  =======================================
``REPRO_CLUSTER_SPAWN_LOCAL``  fork N localhost workers per drain
``REPRO_CLUSTER_LISTEN``       HOST:PORT to accept external workers on
``REPRO_CLUSTER_MIN_WORKERS``  wait for this many workers before
                               dispatch (default: spawn count, else 1)
``REPRO_CLUSTER_SLOTS``        slots per spawned local worker
``REPRO_CLUSTER_FAULT``        fault plan (docs/cluster.md)
``REPRO_CLUSTER_HEARTBEAT_TIMEOUT`` / ``REPRO_CLUSTER_JOIN_TIMEOUT``
                               liveness/starvation patience, seconds
=============================  =======================================
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from typing import Callable, Optional

from repro.cluster.coordinator import ClusterError, Coordinator
from repro.cluster.faults import FAULT_ENV, FaultPlan, parse_fault
from repro.cluster.worker import parse_address
from repro.pipeline.backends import (
    ExecutionBackend,
    normalize_workers,
    register_backend,
)


def _env(name: str, cast, default):
    value = os.environ.get(name)
    if value is None or value == "":
        return default
    return cast(value)


class _LocalWorker:
    """One forked localhost worker subprocess, stderr kept for autopsy."""

    def __init__(self, address: tuple[str, int], slots: int):
        self.stderr_file = tempfile.TemporaryFile()
        env = dict(os.environ)
        # The worker must import repro even from a bare checkout where
        # only the parent's sys.path knows about src/.
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # A spawned worker must not re-spawn or re-fault recursively.
        env.pop("REPRO_CLUSTER_SPAWN_LOCAL", None)
        env.pop(FAULT_ENV, None)
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cluster.worker",
                "--connect",
                f"{address[0]}:{address[1]}",
                "--slots",
                str(slots),
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self.stderr_file,
            env=env,
        )

    def stderr_tail(self, limit: int = 2000) -> str:
        try:
            self.stderr_file.seek(0)
            text = self.stderr_file.read().decode(errors="replace")
        except (OSError, ValueError):
            return ""
        return text[-limit:]

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.stderr_file.close()


@register_backend
class ClusterBackend(ExecutionBackend):
    """Run jobs across a TCP worker fleet with failure recovery.

    Default shape (no listen address configured): fork ``workers``
    localhost workers per drain — the full network path with zero
    deployment.  With ``listen`` set, the coordinator binds that
    address and external workers (``repro cluster worker --connect``)
    carry the batch; ``spawn_local`` can still add local helpers.

    ``stats()``: ``cluster_workers``, ``slots_total``, per-worker
    ``worker_jobs``, and the recovery counters ``jobs_requeued``,
    ``workers_lost``, ``duplicate_results``, ``workers_joined``,
    ``workers_rejected``, ``heartbeats_received``.
    """

    name = "cluster"

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        listen: Optional[str] = None,
        spawn_local: Optional[int] = None,
        slots: Optional[int] = None,
        min_workers: Optional[int] = None,
        heartbeat_timeout: Optional[float] = None,
        join_timeout: Optional[float] = None,
        fault: Optional[FaultPlan] = None,
        on_event: Optional[Callable[[str], None]] = None,
        on_listening: Optional[Callable[[str, int], None]] = None,
    ):
        super().__init__(workers=workers)
        if listen is None:
            listen = _env("REPRO_CLUSTER_LISTEN", str, None)
        if spawn_local is None:
            spawn_local = _env("REPRO_CLUSTER_SPAWN_LOCAL", int, None)
        if slots is None:
            slots = _env("REPRO_CLUSTER_SLOTS", int, 1)
        if min_workers is None:
            min_workers = _env("REPRO_CLUSTER_MIN_WORKERS", int, None)
        if heartbeat_timeout is None:
            heartbeat_timeout = _env(
                "REPRO_CLUSTER_HEARTBEAT_TIMEOUT", float, 10.0
            )
        if join_timeout is None:
            join_timeout = _env("REPRO_CLUSTER_JOIN_TIMEOUT", float, 30.0)
        if fault is None:
            fault = parse_fault(os.environ.get(FAULT_ENV))

        if listen is None and spawn_local is None:
            # Bare `--backend cluster`: a localhost fleet sized like the
            # other parallel backends size themselves.
            spawn_local = self.workers
        if spawn_local is not None:
            spawn_local = normalize_workers(spawn_local, none_means=0)
            self.workers = spawn_local
        self.listen_address = (
            parse_address(listen) if listen is not None else ("127.0.0.1", 0)
        )
        self.spawn_local = spawn_local or 0
        self.slots = max(1, slots)
        self.min_workers = (
            min_workers
            if min_workers is not None
            else (self.spawn_local if self.spawn_local else 1)
        )
        self.heartbeat_timeout = heartbeat_timeout
        self.join_timeout = join_timeout
        self.fault = fault
        self.on_event = on_event
        self.on_listening = on_listening

    def _execute(self, pending, on_result):
        coordinator = Coordinator(
            self.listen_address[0],
            self.listen_address[1],
            heartbeat_timeout=self.heartbeat_timeout,
            join_timeout=self.join_timeout,
            fault=self.fault,
            on_event=self.on_event,
        )
        coordinator.start()
        locals_: list[_LocalWorker] = []
        try:
            if self.on_listening is not None:
                self.on_listening(*coordinator.address)
            for _ in range(self.spawn_local):
                locals_.append(_LocalWorker(coordinator.address, self.slots))
            try:
                coordinator.wait_for_workers(
                    self.min_workers, timeout=self.join_timeout
                )
                results = coordinator.run_batch(pending, on_result)
            except ClusterError as exc:
                raise ClusterError(
                    str(exc) + self._worker_autopsy(locals_)
                ) from None
            self._stats.update(coordinator.stats())
            return results
        finally:
            coordinator.close()
            for worker in locals_:
                worker.close()

    @staticmethod
    def _worker_autopsy(locals_: list) -> str:
        tails = []
        for index, worker in enumerate(locals_):
            tail = worker.stderr_tail()
            if tail.strip():
                tails.append(f"--- local worker {index} stderr ---\n{tail}")
        if not tails:
            return ""
        return "\n" + "\n".join(tails)
