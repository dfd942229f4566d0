"""The execution-backend registry: every backend is interchangeable.

Pair jobs commute, so every registered backend must produce
byte-identical sweep artifacts (through the volatile-stripping
projection — see docs/artifacts.md) and identical cache behavior;
backend identity must never reach a cache fingerprint.
"""

import json
import os
import time

import pytest

from repro.bench.heatmap import run_heatmap
from repro.bench.report import heatmap_to_dict, strip_volatile_heatmap
from repro.model.posix import op_by_name
from repro.pipeline.backends import (
    ExecutionBackend,
    PoolBackend,
    SerialBackend,
    SubprocessShardBackend,
    UnknownBackendError,
    WorkStealingBackend,
    backend_names,
    default_workers,
    format_backend_stats,
    get_backend,
    normalize_workers,
)

BACKENDS = ("serial", "pool", "work-stealing", "subprocess-shard",
            "cluster")
OPS = ("link", "stat")


def _ops():
    return [op_by_name(name) for name in OPS]


def square(n):
    return n * n


def boom(n):
    raise ValueError(f"boom on {n}")


class TestRegistry:
    def test_builtin_names_in_registration_order(self):
        assert backend_names() == list(BACKENDS)

    def test_get_backend_by_name(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("pool", workers=3), PoolBackend)
        assert get_backend("work-stealing", workers=3).workers == 3
        assert isinstance(
            get_backend("subprocess-shard"), SubprocessShardBackend
        )

    def test_unknown_name_lists_registered(self):
        with pytest.raises(UnknownBackendError, match="work-stealing"):
            get_backend("bogus")

    def test_instance_passes_through(self):
        backend = WorkStealingBackend(workers=2)
        assert get_backend(backend) is backend
        assert get_backend(backend, workers=8) is backend

    def test_none_is_the_legacy_workers_alias(self):
        assert isinstance(get_backend(None), SerialBackend)
        assert isinstance(get_backend(None, workers=1), SerialBackend)
        assert isinstance(get_backend(None, workers=4), PoolBackend)
        assert get_backend(None, workers=4).workers == 4
        # 0 = all cores; on a single-core host that resolves to serial.
        all_cores = get_backend(None, workers=0)
        if default_workers() > 1:
            assert isinstance(all_cores, PoolBackend)
        else:
            assert isinstance(all_cores, SerialBackend)

    def test_name_defaults_to_all_cores(self):
        assert get_backend("pool").workers == default_workers()
        assert get_backend("subprocess-shard").workers == default_workers()


class TestNormalizeWorkers:
    def test_none_uses_context_default(self):
        assert normalize_workers(None, none_means=1) == 1
        assert normalize_workers(None, none_means=0) == default_workers()
        assert normalize_workers(None, none_means=3) == 3

    def test_zero_means_all_cores(self):
        assert normalize_workers(0) == default_workers()

    def test_explicit_count(self):
        assert normalize_workers(1) == 1
        assert normalize_workers(7) == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            normalize_workers(-2)

    def test_serial_ignores_workers(self):
        assert SerialBackend(workers=8).workers == 1


class TestCapabilities:
    def test_serial_is_the_only_unpicklable_safe_backend(self):
        flags = {
            name: get_backend(name).requires_picklable for name in BACKENDS
        }
        assert flags == {
            "serial": False, "pool": True, "work-stealing": True,
            "subprocess-shard": True, "cluster": True,
        }

    def test_serial_runs_closures(self):
        captured = []
        assert SerialBackend().map(
            lambda n: captured.append(n) or n + 1, [1, 2]
        ) == [2, 3]
        assert captured == [1, 2]


class TestBackendContract:
    """Submit/drain semantics every backend must share."""

    @pytest.fixture(params=BACKENDS)
    def backend(self, request) -> ExecutionBackend:
        return get_backend(request.param, workers=2)

    def test_results_in_input_order(self, backend):
        jobs = [3, 1, 4, 1, 5, 9]
        assert backend.map(square, jobs) == [n * n for n in jobs]

    def test_on_result_sees_every_job(self, backend):
        seen = []
        backend.map(square, [1, 2, 3],
                    on_result=lambda job, r: seen.append((job, r)))
        assert sorted(seen) == [(1, 1), (2, 4), (3, 9)]

    def test_empty_job_list(self, backend):
        assert backend.map(square, []) == []
        assert backend.stats()["jobs"] == 0

    def test_stats_identity_keys(self, backend):
        backend.map(square, [1, 2, 3, 4])
        stats = backend.stats()
        assert stats["backend"] == backend.name
        assert stats["workers"] == backend.workers
        assert stats["jobs"] == 4


class TestWorkStealing:
    def test_steals_are_counted_against_static_chunking(self):
        backend = WorkStealingBackend(workers=2)
        backend.map(square, list(range(6)))
        stats = backend.stats()
        assert stats["lanes"] == 2
        assert stats["lane_owned"] == [3, 3]
        assert sum(stats["lane_executed"]) == 6
        # The shared deque rebalances eagerly: with >= 2 lanes and more
        # jobs than lanes, some job always executes off its owner lane.
        assert stats["jobs_stolen"] >= 1
        assert stats["max_steal_queue_depth"] >= 1

    def test_single_lane_inlines_without_steals(self):
        backend = WorkStealingBackend(workers=1)
        assert backend.map(square, [2, 3]) == [4, 9]
        stats = backend.stats()
        assert stats["inline"] is True
        assert stats["jobs_stolen"] == 0

    def test_uneven_chunk_ownership(self):
        backend = WorkStealingBackend(workers=3)
        backend.map(square, list(range(7)))
        stats = backend.stats()
        assert sorted(stats["lane_owned"]) == [2, 2, 3]
        assert sum(stats["lane_executed"]) == 7


class TestSubprocessShard:
    def test_shard_stats_partition_every_job(self):
        backend = SubprocessShardBackend(workers=2)
        backend.map(square, list(range(8)))
        stats = backend.stats()
        assert stats["shards"] == 2
        assert sum(stats["shard_jobs"]) == 8
        assert stats["shard_spread"] == \
            max(stats["shard_jobs"]) - min(stats["shard_jobs"])

    def test_content_hash_partition_is_deterministic(self):
        first = SubprocessShardBackend(workers=3)
        second = SubprocessShardBackend(workers=3)
        jobs = list(range(9))
        assert first.map(square, jobs) == second.map(square, jobs)
        assert first.stats()["shard_jobs"] == second.stats()["shard_jobs"]

    def test_worker_exception_carries_traceback(self):
        backend = SubprocessShardBackend(workers=2)
        with pytest.raises(RuntimeError, match="boom on"):
            backend.map(boom, [1, 2, 3])


class TestSweepParity:
    """The acceptance bar: same batch, every backend, one artifact."""

    @pytest.fixture(scope="class")
    def artifacts(self):
        out = {}
        for name in BACKENDS:
            result = run_heatmap(ops=_ops(), backend=name, workers=2)
            assert result.backend == name
            out[name] = heatmap_to_dict(result)
        return out

    def test_projection_byte_identical_across_backends(self, artifacts):
        projections = {
            name: json.dumps(strip_volatile_heatmap(artifact),
                             sort_keys=True)
            for name, artifact in artifacts.items()
        }
        assert len(set(projections.values())) == 1

    def test_backend_identity_is_volatile_only(self, artifacts):
        for name, artifact in artifacts.items():
            assert artifact["backend"] == name
            stripped = strip_volatile_heatmap(artifact)
            assert "backend" not in stripped
            assert "backend_stats" not in stripped


class TestCacheAcrossBackends:
    def test_cached_rerun_computes_nothing_on_any_backend(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        seeded = run_heatmap(ops=_ops(), cache=cache)
        assert seeded.computed_pairs == 3
        reference = heatmap_to_dict(seeded)
        for name in BACKENDS:
            rerun = run_heatmap(ops=_ops(), backend=name, workers=2,
                                cache=cache)
            # Backend identity is not in the fingerprint: every backend
            # reuses the serial run's entries wholesale.
            assert rerun.computed_pairs == 0
            assert rerun.cached_pairs == 3
            assert strip_volatile_heatmap(heatmap_to_dict(rerun)) == \
                strip_volatile_heatmap(reference)


def _mark_and_linger(path):
    open(path, "w").close()
    time.sleep(0.2)
    return path


class TestRaisingOnResult:
    def test_pool_drops_queued_jobs_when_on_result_raises(self, tmp_path):
        """A cancelled service job raises from ``on_result``; the pool
        must not run its whole submission window before unwinding."""
        jobs = [str(tmp_path / f"job{i}") for i in range(8)]

        def stop(job, result):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            PoolBackend(workers=2).map(_mark_and_linger, jobs, on_result=stop)
        started = [job for job in jobs if os.path.exists(job)]
        assert 1 <= len(started) < len(jobs)


class TestStatsFormatting:
    def test_identity_keys_suppressed(self):
        line = format_backend_stats(
            {"backend": "pool", "workers": 4, "jobs": 6, "inline": True}
        )
        assert line == "inline=True jobs=6"


class TestRemovedNamesStayRemoved:
    """PR 13 folded the compat layer into one seam; keep it folded."""

    REMOVED = ("driver_for", "resolve_backend", "SerialDriver",
               "ParallelDriver", "Driver", "legacy_sockets_payload",
               "PairCells")

    def test_pipeline_all_resolves(self):
        import repro.pipeline

        missing = [name for name in repro.pipeline.__all__
                   if not hasattr(repro.pipeline, name)]
        assert missing == []

    @pytest.mark.parametrize(
        "package", ["repro.pipeline", "repro.compare", "repro.bench"]
    )
    def test_compat_names_are_not_importable(self, package):
        import importlib

        module = importlib.import_module(package)
        assert [n for n in self.REMOVED if hasattr(module, n)] == []

    def test_hand_kept_kind_copies_are_not_importable(self):
        """PR 14 made the kinds table (``repro.kinds``) the one
        declaration; the per-kind copies around it stay deleted."""
        import importlib.util

        import repro.cli.cluster
        import repro.cli.service
        import repro.cli.sweeps
        import repro.service.jobs

        assert importlib.util.find_spec("repro.pipeline.cli") is None
        removed = ("cmd_cluster_coordinator", "cmd_analyze", "cmd_heatmap",
                   "cmd_scaling", "cmd_compare", "_submit_params", "_chunks")
        for module in (repro.cli.cluster, repro.cli.service,
                       repro.cli.sweeps, repro.service.jobs):
            assert [n for n in removed if hasattr(module, n)] == []
        runners = [n for n in vars(repro.service.jobs.JobManager)
                   if n.startswith("_run_") or n == "_normalize_params"]
        assert runners == []

    def test_cluster_registers_on_first_use(self):
        """``pipeline`` no longer imports ``cluster``: the name is
        listed from a name -> module entry and imported when asked for."""
        import subprocess
        import sys

        code = (
            "import sys, repro.pipeline.backends as b\n"
            "assert b.backend_names()[-1] == 'cluster'\n"
            "assert 'repro.cluster.backend' not in sys.modules\n"
            "assert b.get_backend('cluster', 1).name == 'cluster'\n"
            "assert 'repro.cluster.backend' in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={"PYTHONPATH": os.pathsep.join(sys.path)})
