"""The five end-to-end workloads.

Each workload is a closed loop of operations over inputs drawn from
``--seed``; the program under test only ever receives the drawn pairs,
ops and requests.  A workload has three phases: ``prepare`` (set-up,
reported as ``setup_s``), ``measure`` (the timed phase) and ``close``.
Sizes are given for ``--seconds`` = ``REFERENCE_SECONDS`` and scale
linearly with it.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import threading
import time
import traceback
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import reference
from reference import Fixture, RefPair
from tracing import CacheProxy, Tracer, mirror_backend, traced_store

from repro.bench.heatmap import run_heatmap
from repro.bench.report import heatmap_to_dict, write_artifact
from repro.cluster.backend import ClusterBackend
from repro.pipeline import protocol
from repro.pipeline.cache import ResultCache, job_fingerprint
from repro.pipeline.scaling import run_scaling_sweep
from repro.pipeline.sweep import (
    TimedPairResult,
    build_pair_jobs,
    execute_jobs,
    make_pair_filter,
    run_pair_job_timed,
)
from repro.service.client import ServiceClient
from repro.service.http import ServiceServer
from repro.service.jobs import JobManager
from repro.service.store import ArtifactStore

#: The ``--seconds`` the sizes below are written for (``run_seconds``
#: in BENCHMARK.json).
REFERENCE_SECONDS = 16

LADDER = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 160, 192, 224,
          256, 288, 320, 352, 384, 416, 448, 480)  # fmt: skip


@dataclass
class Run:
    """What one workload run is given."""

    seed: int
    seconds: float
    scratch: Path
    fixture: Fixture
    tracer: Optional[Tracer] = None

    def scaled(self, count: int, minimum: int = 1) -> int:
        return max(minimum, round(count * self.seconds / REFERENCE_SECONDS))

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.seed}/{purpose}")


@dataclass
class OpLog:
    """Completions seen by one load-generating thread.  An operation's
    latency runs from the completion that freed its place (or the
    thread's start) to its own: the previous completion when the thread
    keeps one operation outstanding, the completion ``outstanding``
    earlier when it keeps several (``fleet_drain``: one per worker).  By
    Little's law the mean is the operations' mean latency either way; a
    stall still lengthens every operation that spans it."""

    outstanding: int = 1
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    _freed: deque = field(default_factory=deque)

    def start(self) -> None:
        self._freed = deque([time.perf_counter()] * self.outstanding)

    def done(self, ok: bool = True) -> None:
        now = time.perf_counter()
        self.latencies.append(now - self._freed.popleft())
        self._freed.append(now)
        if not ok:
            self.failed += 1


class Workload:
    """Base: bookkeeping shared by the five workloads."""

    name = ""

    def __init__(self, run: Run):
        self.run = run
        self.tracer = run.tracer
        self.log = OpLog()
        self.attempted = 0
        #: Violated run-level invariants (counts that must hold for the
        #: outputs to be correct, beyond each op's own verdict).
        self.problems: list[str] = []
        #: Per-layer numbers measured beside the spans.
        self.layer: dict[str, float] = {}
        #: The span the per-layer table is rooted at (traced runs).
        self.root: Optional[int] = None
        self.wall = 0.0

    def prepare(self) -> None:
        raise NotImplementedError

    def measure(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- helpers --------------------------------------------------------

    def check_cells(self, cells, expected: list[RefPair]) -> int:
        """How many of ``cells`` differ from their known answer."""
        wrong = 0
        for cell, ref in zip(cells, expected):
            if cell is None or not reference.cell_matches(ref.cell, cell.to_dict()):
                wrong += 1
                got = None if cell is None else reference.verdict(cell.to_dict())
                print(f"{self.name}: {ref.key}: verdict differs: {got}", file=sys.stderr)
        return wrong

    def matrix_order(self, pairs: list[RefPair]) -> list[RefPair]:
        wanted = {pair.key for pair in pairs}
        return [pair for pair in self.run.fixture.pairs if pair.key in wanted]

    def posix_jobs(self, pairs: Optional[list[RefPair]] = None):
        pair_filter = None if pairs is None else make_pair_filter([p.ops for p in pairs])
        return build_pair_jobs(interface="posix", pair_filter=pair_filter)

    def side_measurements(self, pairs: Optional[list[RefPair]]) -> list:
        """``build_pair_jobs`` and ``job_fingerprint`` over the workload's
        pairs, each timed on its own; returns (job, fingerprint) pairs."""
        start = time.perf_counter()
        jobs = self.posix_jobs(pairs)
        built = time.perf_counter()
        prints = [job_fingerprint(job) for job in jobs]
        done = time.perf_counter()
        self.layer["jobs.build_s"] = built - start
        self.layer["cache.fingerprint_s"] = done - built
        self.layer["cache.fingerprint_us_per_job"] = (done - built) / len(jobs) * 1e6
        return list(zip(jobs, prints))

    def seed_caches(self, paths: dict[str, Optional[str]]) -> None:
        """Write a warm cache file at each path: every fixture cell,
        under the fingerprint the current tree computes for its job,
        except the pairs of the op the path maps to."""
        by_key = self.run.fixture.by_key
        fingerprinted = self.side_measurements(None)
        for path, evicted_op in paths.items():
            cache = ResultCache(path)
            for job, fingerprint in fingerprinted:
                if evicted_op not in (job.op0.name, job.op1.name):
                    cache.put(job.key, fingerprint, by_key[job.key].cell)
            cache.save()

    def span(self, name: str, op: Optional[str] = None):
        """A span in a traced run, nothing in an untraced one."""
        return nullcontext() if self.tracer is None else self.tracer.span(name, op)

    def sweep_collaborators(self, cache_path: Optional[str]):
        """``(backend, cache)`` for a sweep: the real ones, or in a
        traced run the mirror backend and the cache proxy."""
        if self.tracer is None:
            return "serial", cache_path
        cache = None if cache_path is None else CacheProxy(self.tracer, cache_path)
        return mirror_backend(self.tracer), cache

    def timed_phase(self, root: str, body) -> None:
        """Run ``body`` as the timed phase under a root span; whatever
        it does not complete has failed."""
        with self.span(root) as span:
            self.root = getattr(span, "index", None)
            start = time.perf_counter()
            self.log.start()
            try:
                body()
            except Exception:
                traceback.print_exc()
                self.problems.append("the timed phase raised")
            self.wall = time.perf_counter() - start


# ----------------------------------------------------------------------


class MatrixCold(Workload):
    """1 heavy + 3 medium + 36 light posix pairs, cold, serial, into a
    fresh cache file: the paper's sweep in miniature."""

    name = "matrix_cold"
    counts = {"heavy": 1, "medium": 3, "light": 36}

    def draw(self) -> list[RefPair]:
        counts = {
            "heavy": self.run.scaled(self.counts["heavy"], minimum=0),
            "medium": self.run.scaled(self.counts["medium"], minimum=0),
            "light": self.run.scaled(self.counts["light"], minimum=2),
        }
        return reference.balanced_draw(self.run.rng(self.name), self.run.fixture.strata(), counts)

    def prepare(self) -> None:
        self.pairs = self.matrix_order(self.draw())
        self.attempted = len(self.pairs)
        self.cache_path = str(self.run.scratch / "cold-cache.json")
        if self.tracer is not None:
            self.side_measurements(self.pairs)

    def measure(self) -> None:
        pair_filter = make_pair_filter([p.ops for p in self.pairs])

        def sweep():
            backend, cache = self.sweep_collaborators(self.cache_path)
            result = run_heatmap(
                interface="posix",
                pair_filter=pair_filter,
                backend=backend,
                cache=cache,
                on_progress=lambda line: self.log.done(),
            )
            self.log.failed += self.check_cells(result.cells, self.pairs)
            if result.cached_pairs:
                self.problems.append(f"{result.cached_pairs} pairs came from a fresh cache")

        self.timed_phase("sweep.run", sweep)
        self.layer["cache.file_bytes"] = os.path.getsize(self.cache_path)


class MatrixIncremental(Workload):
    """The full 171-pair heatmap against a warm cache from which one
    op's row and column (18 pairs) were evicted, once for each of the
    four lightest ops, in seeded order."""

    name = "matrix_incremental"
    reruns = 4

    def lightest_ops(self) -> list[str]:
        fixture = self.run.fixture
        cost = {
            op: sum(pair.ref_s for pair in fixture.pairs if op in pair.ops) for op in fixture.ops
        }
        return sorted(fixture.ops, key=lambda op: cost[op])[: self.reruns]

    def draw(self) -> list[str]:
        ops = self.lightest_ops()
        self.run.rng(self.name).shuffle(ops)
        reruns = self.run.scaled(self.reruns)
        return [ops[i % len(ops)] for i in range(reruns)]

    def prepare(self) -> None:
        evicted = self.draw()
        self.cache_paths = [
            str(self.run.scratch / f"rerun-{index}.json") for index in range(len(evicted))
        ]
        self.seed_caches(dict(zip(self.cache_paths, evicted)))
        self.attempted = len(evicted) * len(self.run.fixture.pairs)

    def measure(self) -> None:
        fixture = self.run.fixture
        row = len(fixture.ops)

        def reruns():
            for index, cache_path in enumerate(self.cache_paths):
                backend, cache = self.sweep_collaborators(cache_path)
                result = run_heatmap(
                    interface="posix",
                    backend=backend,
                    cache=cache,
                    on_progress=lambda line: self.log.done(),
                )
                artifact = str(self.run.scratch / f"heatmap-{index}.json")
                with self.span("report.serialize"):
                    write_artifact(artifact, heatmap_to_dict(result))
                self.log.failed += self.check_cells(result.cells, list(fixture.pairs))
                split = (result.computed_pairs, result.cached_pairs)
                if split != (row, len(fixture.pairs) - row):
                    self.problems.append(f"rerun {index}: {split} pairs computed and cached")

        self.timed_phase("sweep.run", reruns)
        self.layer["cache.file_bytes"] = os.path.getsize(self.cache_paths[-1])


class ScalingLadder(Workload):
    """40 of the 80 lightest posix pairs through a 24-rung ncores
    ladder: ANALYZER and TESTGEN once, MTRACE 48 times per case."""

    name = "scaling_ladder"
    pairs_at_reference = 40
    pool = 80
    #: Seconds per replay when the fixture was made; weighs the ladder's
    #: replays against a pair's reference cost when bins are cut.
    replay_s = 1e-4

    def cost(self, pair: RefPair) -> float:
        replays = pair.cell["total"] * len(self.run.fixture.kernels) * (len(LADDER) - 1)
        return pair.ref_s + replays * self.replay_s

    def draw(self) -> list[RefPair]:
        fixture = self.run.fixture
        lightest = sorted(fixture.pairs, key=lambda p: (p.cell["total"], p.key))[: self.pool]
        lightest.sort(key=lambda p: (self.cost(p), p.key))
        count = self.run.scaled(self.pairs_at_reference, minimum=2)
        return reference.stratified_draw(self.run.rng(self.name), lightest, count)

    def prepare(self) -> None:
        self.pairs = self.matrix_order(self.draw())
        self.attempted = len(self.pairs)
        if self.tracer is not None:
            self.side_measurements(self.pairs)

    def measure(self) -> None:
        pair_filter = make_pair_filter([p.ops for p in self.pairs])

        def sweep():
            backend, _ = self.sweep_collaborators(None)
            result = run_scaling_sweep(
                interface="posix",
                ladder=LADDER,
                pair_filter=pair_filter,
                backend=backend,
                on_progress=lambda line: self.log.done(),
            )
            for cell, ref in zip(result.cells, self.pairs):
                if not self.curve_matches(cell, ref):
                    self.log.failed += 1
                    print(f"{self.name}: {ref.key}: curve differs", file=sys.stderr)

        self.timed_phase("sweep.run", sweep)

    @staticmethod
    def curve_matches(cell, ref: RefPair) -> bool:
        """Path and test counts and the 4-core rung equal the fixture;
        no rung reports a return-value mismatch."""
        if cell is None or set(cell.rungs) != set(LADDER):
            return False
        want = ref.cell
        counts = ("total", "explored_paths", "commutative_paths")
        if any(getattr(cell, key) != want[key] for key in counts):
            return False
        rung = cell.rungs[4]
        if any(rung[key] != want[key] for key in ("not_conflict_free", "mismatches", "residues")):
            return False
        mismatches = [rung["mismatches"] for rung in cell.rungs.values()]
        return not any(count for by_kernel in mismatches for count in by_kernel.values())


class ServiceRoundtrip(Workload):
    """Two closed-loop clients against an in-process server whose every
    answer comes from the artifact store or the warm pair cache."""

    name = "service_roundtrip"
    clients = 2
    requests_per_client = 70
    pool_size = 32
    #: Ops per subset by popularity rank, repeating: fixed, so that a
    #: seed changes which ops are asked for and in what order, not how
    #: much fingerprinting the request mix costs.
    subset_sizes = (4, 2, 6, 3, 5)
    server = None

    def draw(self) -> tuple[list[tuple[str, ...]], list[list[int]]]:
        """The subset pool (by rank) and each client's request sequence
        (ranks).  Zipf(1) frequencies are realised exactly, by largest
        remainder, then shuffled and dealt to the clients."""
        rng = self.run.rng(self.name)
        ops = list(self.run.fixture.ops)
        pool: list[tuple[str, ...]] = []
        while len(pool) < self.pool_size:
            size = self.subset_sizes[len(pool) % len(self.subset_sizes)]
            subset = tuple(sorted(rng.sample(ops, size), key=ops.index))
            if subset not in pool:
                pool.append(subset)
        total = self.clients * self.run.scaled(self.requests_per_client, minimum=2)
        weights = [1.0 / rank for rank in range(1, self.pool_size + 1)]
        shares = [total * w / sum(weights) for w in weights]
        counts = [int(share) for share in shares]
        by_remainder = sorted(range(self.pool_size), key=lambda i: counts[i] - shares[i])
        for i in by_remainder[: total - sum(counts)]:
            counts[i] += 1
        sequence = [rank for rank, count in enumerate(counts) for _ in range(count)]
        rng.shuffle(sequence)
        return pool, [sequence[client :: self.clients] for client in range(self.clients)]

    def expected_digest(self, subset: tuple[str, ...]) -> str:
        fixture = self.run.fixture
        by_key = fixture.by_key
        cells = [
            by_key[reference.pair_key(a, b)].cell
            for i, a in enumerate(subset)
            for b in subset[i:]
        ]
        stripped = reference.stripped_heatmap(fixture.kernels, subset, cells)
        return reference.heatmap_digest(stripped)

    def prepare(self) -> None:
        self.pool, self.sequences = self.draw()
        self.attempted = sum(len(seq) for seq in self.sequences)
        self.digests = [self.expected_digest(subset) for subset in self.pool]
        self.cache_path = str(self.run.scratch / "warm-cache.json")
        self.seed_caches({self.cache_path: None})
        store_root = str(self.run.scratch / "store")
        if self.tracer is None:
            cache, self.store = self.cache_path, ArtifactStore(store_root)
        else:
            cache = CacheProxy(self.tracer, self.cache_path)
            self.store = traced_store(self.tracer, store_root)
        # One job at a time: with two job threads, concurrent
        # job_fingerprint calls race in inspect.getsource/ast.parse on
        # 3.11 and about one request in sixty dies (see README).
        manager = JobManager(cache=cache, store=self.store, workers=1)
        self.server = ServiceServer(manager, port=0).start_background()
        self.client = ServiceClient(port=self.server.port)
        if self.tracer is not None:
            for _ in range(20):
                with self.tracer.span("service.health"):
                    self.client.health()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop_background()

    def roundtrip(self, rank: int) -> bool:
        """submit -> drain events -> job record -> artifact bytes."""
        client = self.client
        subset = self.pool[rank]
        with self.span("service.roundtrip", op=",".join(subset)):
            with self.span("service.submit"):
                job_id = client.submit("heatmap", {"ops": list(subset)})["id"]
            with self.span("service.events"):
                for _ in client.events(job_id):
                    pass
            with self.span("service.job"):
                record = client.job(job_id)
            with self.span("service.artifact_fetch"):
                blob = client.artifact_bytes(record["artifact"]) if record["artifact"] else b""
        return (
            record["status"] == "done"
            and record["computed_pairs"] == 0
            and hashlib.sha256(blob).hexdigest() == self.digests[rank]
        )

    def client_loop(self, sequence: list[int], log: OpLog) -> None:
        log.start()
        for rank in sequence:
            try:
                ok = self.roundtrip(rank)
            except Exception:
                traceback.print_exc()
                ok = False
            log.done(ok)

    def measure(self) -> None:
        logs = [self.log] + [OpLog() for _ in self.sequences[1:]]

        def clients():
            threads = [
                threading.Thread(target=self.client_loop, args=(seq, log))
                for seq, log in zip(self.sequences[1:], logs[1:])
            ]
            for thread in threads:
                thread.start()
            self.client_loop(self.sequences[0], logs[0])
            for thread in threads:
                thread.join()

        self.timed_phase("service.run", clients)
        for log in logs[1:]:
            self.log.latencies.extend(log.latencies)
            self.log.failed += log.failed
        index = self.store.index_path
        self.layer["store.index_bytes"] = os.path.getsize(index) if os.path.exists(index) else 0
        self.layer["cache.file_bytes"] = os.path.getsize(self.cache_path)


class FleetDrain(Workload):
    """The 100 light posix pairs, in seeded order, through a two-worker
    localhost cluster, no cache; fleet boot and teardown are inside the
    timed phase because every drain pays them."""

    name = "fleet_drain"
    pairs_at_reference = 100
    workers = 2

    def draw(self) -> list[RefPair]:
        rng = self.run.rng(self.name)
        light = self.run.fixture.strata()["light"]
        pairs = reference.stratified_draw(rng, light, self.run.scaled(self.pairs_at_reference, 4))
        rng.shuffle(pairs)
        return pairs

    def prepare(self) -> None:
        self.log = OpLog(outstanding=self.workers)
        self.pairs = self.draw()
        by_key = {job.key: job for job in self.posix_jobs(self.pairs)}
        self.jobs = [by_key[pair.key] for pair in self.pairs]
        self.attempted = len(self.jobs)
        if self.tracer is not None:
            self.side_measurements(self.pairs)
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import repro.cluster.worker"],
                check=True,
                env={**os.environ, "PYTHONPATH": str(reference.REPO / "src")},
            )
            self.layer["cluster.worker_import_s"] = time.perf_counter() - start

    def measure(self) -> None:
        stamps: list[float] = []
        busy: dict[str, float] = {}

        def on_pair(job, cell, cached, elapsed):
            self.log.done()
            stamps.append(time.perf_counter())
            busy[job.key] = elapsed

        def drain():
            start = time.perf_counter()
            executed = execute_jobs(
                self.jobs, backend=ClusterBackend(spawn_local=self.workers), on_pair=on_pair
            )
            end = time.perf_counter()
            self.log.failed += self.check_cells(executed.cells, self.pairs)
            stats = executed.backend_stats
            for counter in ("jobs_requeued", "workers_lost"):
                if stats.get(counter):
                    self.problems.append(f"{counter} = {stats[counter]}")
            worker_s = sum(busy.values())
            self.layer.update(
                {
                    "cluster.drain_s": end - start,
                    "cluster.first_result_s": stamps[0] - start,
                    "cluster.teardown_s": end - stamps[-1],
                    "cluster.worker_busy_s": worker_s,
                    "cluster.coordination_tax_s": (end - start) - worker_s / self.workers,
                    "cluster.heartbeats_received": stats.get("heartbeats_received", 0),
                    "cluster.jobs_requeued": stats.get("jobs_requeued", 0),
                }
            )
            if self.tracer is not None:
                for name, a, b in (
                    ("cluster.first_result", start, stamps[0]),
                    ("cluster.results", stamps[0], stamps[-1]),
                    ("cluster.teardown", stamps[-1], end),
                ):
                    self.tracer.add(name, a, b, self.root)
                self.results = [
                    TimedPairResult(cell, busy[job.key])
                    for job, cell in zip(self.jobs, executed.cells)
                ]

        self.timed_phase("cluster.drain", drain)
        if self.tracer is not None and not self.problems:
            self.measure_protocol()
            self.measure_other_backends()

    def measure_protocol(self) -> None:
        """The wire cost of this batch: every job and every result
        through the framing the coordinator and workers use."""

        def there_and_back(frames: list[dict], payload_keys: tuple[str, ...]) -> tuple:
            start = time.perf_counter()
            wire = []
            for frame in frames:
                for key in payload_keys:
                    frame[key] = protocol.encode_payload(frame[key])
                wire.append(protocol.encode_frame(frame))
            encoded = time.perf_counter()
            for line in wire:
                frame = protocol.decode_frame(line)
                for key in payload_keys:
                    protocol.decode_payload(frame[key])
            decoded = time.perf_counter()
            return encoded - start, decoded - encoded, sum(map(len, wire)) / len(wire)

        jobs = [
            {"type": "job", "id": i, "fn": run_pair_job_timed, "job": job}
            for i, job in enumerate(self.jobs)
        ]
        results = [
            {"type": "result", "id": i, "result": result} for i, result in enumerate(self.results)
        ]
        job_enc, job_dec, job_bytes = there_and_back(jobs, ("fn", "job"))
        res_enc, res_dec, res_bytes = there_and_back(results, ("result",))
        self.layer.update(
            {
                "protocol.encode_s": job_enc + res_enc,
                "protocol.decode_s": job_dec + res_dec,
                "protocol.bytes_per_job": job_bytes,
                "protocol.bytes_per_result": res_bytes,
            }
        )

    def measure_other_backends(self) -> None:
        """Reference rows: the same jobs through each local backend."""
        for backend in ("pool", "work-stealing", "subprocess-shard"):
            start = time.perf_counter()
            executed = execute_jobs(
                self.jobs, backend=backend, workers=self.workers, on_pair=lambda *args: None
            )
            self.layer[f"backends.{backend}.drain_s"] = time.perf_counter() - start
            if self.check_cells(executed.cells, self.pairs):
                self.problems.append(f"backend {backend} returned a wrong verdict")


WORKLOADS = {
    cls.name: cls
    for cls in (MatrixCold, MatrixIncremental, ScalingLadder, ServiceRoundtrip, FleetDrain)
}
