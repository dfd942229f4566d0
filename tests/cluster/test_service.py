"""The job service drives the cluster backend like any other.

The service builds one backend per job from its *name*, so cluster
configuration arrives via the ``REPRO_CLUSTER_*`` environment (the
same variables ``repro serve --backend cluster --spawn-local N``
sets).  Workers are separate processes with their own registry, which
is why these tests sweep a restriction of the real ``posix``
interface — a dynamically registered scratch interface would fail the
fleet's handshake interface check by design.
"""

import pytest

from repro.service import ArtifactStore, JobManager

from tests.service.conftest import wait_done

PARAMS = {"interface": "posix", "ops": ["link", "stat"]}


@pytest.fixture
def manager(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CLUSTER_SPAWN_LOCAL", "2")
    mgr = JobManager(
        cache=str(tmp_path / "cache.json"),
        store=ArtifactStore(str(tmp_path / "store")),
        workers=2,
    )
    yield mgr
    mgr.shutdown()


class TestClusterJobs:
    def test_heatmap_job_on_a_spawned_fleet(self, manager):
        record = wait_done(
            manager,
            manager.submit(
                "heatmap", dict(PARAMS, backend="cluster")
            ).id,
        )
        assert record.status == "done", record.error
        assert record.computed_pairs == 3
        payload = manager.store.load(record.artifact)
        assert payload["schema"] == "repro.heatmap/1"
        assert [
            (c["op0"], c["op1"]) for c in payload["cells"]
        ] == [("link", "link"), ("link", "stat"), ("stat", "stat")]
        # The stored projection carries no execution identity at all.
        for key in ("backend", "backend_stats", "workers"):
            assert key not in payload

    def test_one_coordinator_lifecycle_per_job(self, manager, monkeypatch):
        """A job is one backend drain: three pairs on a two-worker fleet
        bind, spawn and tear down exactly once (the chunked service
        paid that per ``workers``-sized chunk)."""
        from repro.cluster.coordinator import Coordinator

        starts = []
        start = Coordinator.start
        monkeypatch.setattr(
            Coordinator, "start",
            lambda self: starts.append(self) or start(self),
        )
        record = wait_done(
            manager,
            manager.submit("heatmap", dict(PARAMS, backend="cluster")).id,
        )
        assert record.status == "done", record.error
        assert record.computed_pairs == 3
        assert len(starts) == 1

    def test_serial_resubmission_hits_the_cluster_jobs_memo(self, manager):
        first = wait_done(
            manager,
            manager.submit(
                "heatmap", dict(PARAMS, backend="cluster")
            ).id,
        )
        second = wait_done(
            manager,
            manager.submit("heatmap", dict(PARAMS, backend="serial")).id,
        )
        # Execution knobs are excluded from the request key: the
        # cluster sweep's artifact serves the serial request verbatim.
        assert second.store_hit
        assert second.computed_pairs == 0
        assert second.artifact == first.artifact

    def test_unknown_backend_still_rejected(self, manager):
        from repro.service import BadRequest

        with pytest.raises(BadRequest, match="cluster"):
            manager.submit("heatmap", dict(PARAMS, backend="fleet"))
