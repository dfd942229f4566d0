"""The HTTP layer: routes, NDJSON streaming, and the stdlib client."""

import json

import pytest

from repro.kinds import BadRequest, normalize
from repro.service import (
    ArtifactStore,
    JobManager,
    ServiceClient,
    ServiceError,
    ServiceServer,
)


@pytest.fixture
def service(tmp_path):
    """An in-process server on an ephemeral port, tmp cache and store."""
    manager = JobManager(
        cache=str(tmp_path / "cache.json"),
        store=ArtifactStore(str(tmp_path / "store")),
        workers=2,
    )
    server = ServiceServer(manager, port=0).start_background()
    client = ServiceClient(port=server.port, timeout=120.0)
    yield client, manager
    server.stop_background()


class TestRoutes:
    def test_health(self, service):
        client, _ = service
        assert client.health() == {"ok": True, "jobs": 0}

    def test_interfaces_lists_the_registry(self, service):
        client, _ = service
        interfaces = {
            i["name"]: i for i in client.interfaces()["interfaces"]
        }
        assert "posix" in interfaces
        assert "open" in interfaces["posix"]["ops"]
        assert interfaces["posix"]["kernels"]

    def test_unknown_route_404s(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/v1/frobnicate")
        assert err.value.status == 404

    def test_unknown_job_404s(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client.job("j9999")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            list(client.events("j9999"))
        assert err.value.status == 404

    def test_bad_submission_400s(self, service):
        """The 400 body is ``normalize``'s message, verbatim."""
        client, _ = service
        for kind, params in [
            ("frobnicate", {}),
            ("heatmap", {"interface": "nope"}),
            ("heatmap", {"ncores": True}),
        ]:
            with pytest.raises(BadRequest) as direct:
                normalize(kind, params)
            with pytest.raises(ServiceError) as err:
                client.submit(kind, params)
            assert err.value.status == 400
            assert str(direct.value) in str(err.value)

    def test_malformed_body_400s(self, service):
        import http.client

        client, _ = service
        conn = http.client.HTTPConnection(
            client.host, client.port, timeout=30
        )
        try:
            conn.request("POST", "/v1/jobs", body=b"{not json")
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_unknown_artifact_404s(self, service):
        client, _ = service
        with pytest.raises(ServiceError) as err:
            client.artifact_bytes("0" * 64)
        assert err.value.status == 404

    def test_store_index_roundtrips(self, service):
        client, manager = service
        manager.store.put({"n": 1}, "heatmap", request_key="req")
        index = client.store_index()
        assert index["version"] == 1
        assert len(index["artifacts"]) == 1


class TestJobsOverHttp:
    def test_submit_stream_fetch(self, service):
        client, _ = service
        job = client.submit(
            "analyze", {"interface": "posix", "ops": ["link", "stat"]}
        )
        assert job["schema"] == "repro.job/1"
        assert job["id"] == "j0001"

        events = list(client.events(job["id"]))
        # NDJSON ordering: seqs are 1..N with no gaps, lifecycle markers
        # bracket the per-pair events.
        assert [e["seq"] for e in events] == \
            list(range(1, len(events) + 1))
        assert events[0] == {"seq": 1, "event": "status",
                             "status": "queued"}
        assert events[1]["status"] == "running"
        pairs = [e for e in events if e["event"] == "pair"]
        assert [e["pair"] for e in pairs] == \
            ["link|link", "link|stat", "stat|stat"]
        assert events[-1]["event"] == "done"

        final = client.job(job["id"])
        assert final["status"] == "done"
        payload = json.loads(
            client.artifact_bytes(final["artifact"]).decode()
        )
        assert payload["schema"] == "repro.analyze/1"
        assert len(payload["pairs"]) == 3

    def test_events_resume_from_since(self, service):
        client, _ = service
        job = client.submit(
            "analyze", {"interface": "posix", "ops": ["link"]}
        )
        all_events = list(client.events(job["id"]))
        resumed = list(client.events(job["id"], since=2))
        assert [e["seq"] for e in resumed] == \
            [e["seq"] for e in all_events[2:]]

    def test_wait_returns_the_final_record(self, service):
        client, _ = service
        job = client.submit(
            "heatmap", {"interface": "posix", "ops": ["link"]}
        )
        final = client.wait(job["id"])
        assert final["status"] == "done"
        assert final["computed_pairs"] == 1

    def test_jobs_listing(self, service):
        client, _ = service
        client.wait(client.submit(
            "analyze", {"interface": "posix", "ops": ["link"]}
        )["id"])
        jobs = client.jobs()
        assert len(jobs) == 1 and jobs[0]["id"] == "j0001"

    def test_delete_cancels_or_noops(self, service):
        client, _ = service
        job = client.submit(
            "analyze", {"interface": "posix", "ops": ["link"]}
        )
        client.wait(job["id"])
        assert client.cancel(job["id"]) is False  # already finished

    def test_error_job_surfaces_traceback_over_http(self, service,
                                                    scratch_interface):
        from repro.model.base import OpDef
        from repro.model.posix import op_by_name

        from tests.service.test_jobs import _exploding_stat

        stat = op_by_name("stat")
        scratch_interface(
            "svc-http-error",
            [OpDef("stat", stat.params, _exploding_stat)],
        )
        client, _ = service
        job = client.submit("heatmap", {"interface": "svc-http-error"})
        events = list(client.events(job["id"]))
        assert events[-1]["event"] == "error"
        assert "RuntimeError: boom in the model" in events[-1]["traceback"]
        final = client.job(job["id"])
        assert final["status"] == "error"
        assert "RuntimeError" in final["error"]
