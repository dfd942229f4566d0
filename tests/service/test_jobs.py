"""Job lifecycle: events, store memoization, cancellation, errors, and
incremental re-analysis after a spec edit."""

import os
import threading
import time

import pytest

from repro.model.base import OpDef
from repro.model.posix import op_by_name
from repro.kinds import get_kind, normalize
from repro.pipeline.cache import ResultCache, job_fingerprint
from repro.service import ArtifactStore, BadRequest, JobManager

from tests.service.conftest import wait_done

#: Gates for the cancellation tests: the first analyzed pair blocks on
#: GATE (setting STARTED on entry), so a test can cancel a job that is
#: provably mid-sweep, then release it deterministically.
GATE = threading.Event()
STARTED = threading.Event()


def _gated_link(s, ex, rt, **kwargs):
    STARTED.set()
    GATE.wait(timeout=120)
    return op_by_name("link").fn(s, ex, rt, **kwargs)


def _file_gated_link(s, ex, rt, **kwargs):
    # The cross-process gate: pool workers are forked children, which
    # only share the environment and the filesystem with the test.
    deadline = time.monotonic() + 120
    while not os.path.exists(os.environ["REPRO_TEST_GATE"]):
        assert time.monotonic() < deadline
        time.sleep(0.01)
    return op_by_name("link").fn(s, ex, rt, **kwargs)


def _exploding_stat(s, ex, rt, **kwargs):
    raise RuntimeError("boom in the model")


def _stat_variant(s, ex, rt, **kwargs):
    # Semantically identical to stat, different source: the pair cache
    # must treat it as an edit (and the store must not serve the memo).
    return op_by_name("stat").fn(s, ex, rt, **kwargs)


def _ops(*names):
    return [op_by_name(name) for name in names]


def _pair_events(record):
    return [e for e in record.events if e["event"] == "pair"]


class TestLifecycle:
    def test_heatmap_job_end_to_end(self, manager, scratch_interface):
        scratch_interface("svc-basic", _ops("link", "stat"))
        record = wait_done(
            manager,
            manager.submit("heatmap", {"interface": "svc-basic"}).id,
        )
        assert record.status == "done"
        assert record.computed_pairs == 3 and record.cached_pairs == 0
        assert not record.store_hit
        pairs = _pair_events(record)
        assert [e["pair"] for e in pairs] == \
            ["link|link", "link|stat", "stat|stat"]
        assert all(e["cached"] is False for e in pairs)
        assert all(e["elapsed"] > 0 for e in pairs)
        assert record.events[0] == \
            {"seq": 1, "event": "status", "status": "queued"}
        assert record.events[-1]["event"] == "done"
        payload = manager.store.load(record.artifact)
        assert payload["schema"] == "repro.heatmap/1"
        assert payload["interface"] == "svc-basic"
        # The stored projection carries no volatile execution keys.
        for key in ("elapsed", "workers", "backend", "cached_pairs"):
            assert key not in payload

    def test_event_seqs_are_strictly_increasing(self, manager,
                                                scratch_interface):
        scratch_interface("svc-seq", _ops("link",))
        record = wait_done(
            manager, manager.submit("analyze", {"interface": "svc-seq"}).id
        )
        seqs = [e["seq"] for e in record.events]
        assert seqs == list(range(1, len(seqs) + 1))

    def test_wait_events_resumes_from_cursor(self, manager,
                                             scratch_interface):
        scratch_interface("svc-cursor", _ops("link",))
        record = wait_done(
            manager,
            manager.submit("analyze", {"interface": "svc-cursor"}).id,
        )
        head = manager.events_since(record.id, since=0)[:2]
        rest, finished = manager.wait_events(
            record.id, since=head[-1]["seq"], timeout=1.0
        )
        assert finished
        assert [e["seq"] for e in rest] == \
            [e["seq"] for e in record.events[2:]]

    def test_resubmission_is_served_from_the_store(self, manager,
                                                   scratch_interface):
        scratch_interface("svc-memo", _ops("link", "stat"))
        params = {"interface": "svc-memo"}
        first = wait_done(manager, manager.submit("heatmap", params).id)
        second = wait_done(manager, manager.submit("heatmap", params).id)
        assert second.store_hit
        assert second.computed_pairs == 0
        assert second.cached_pairs == 3
        assert second.artifact == first.artifact
        assert second.summary == first.summary
        events = [e["event"] for e in second.events]
        assert "store" in events and "pair" not in events

    def test_analyze_store_fast_path(self, manager, scratch_interface):
        scratch_interface("svc-an", _ops("link", "unlink"))
        params = {"interface": "svc-an"}
        first = wait_done(manager, manager.submit("analyze", params).id)
        second = wait_done(manager, manager.submit("analyze", params).id)
        assert first.summary["pairs"] == 3
        assert second.store_hit and second.artifact == first.artifact

    def test_compare_job(self, manager):
        record = wait_done(
            manager, manager.submit("compare", {"name": "sockets"}).id,
            timeout=600,
        )
        assert record.status == "done", record.error
        assert record.summary == {"name": "sockets", "holds": True}
        payload = manager.store.load(record.artifact)
        assert payload["schema"] == "repro.compare/1"
        assert "elapsed" not in payload and "execution" not in payload

    def test_scaling_job(self, manager, scratch_interface):
        scratch_interface("svc-scale", _ops("link",))
        record = wait_done(
            manager,
            manager.submit(
                "scaling", {"interface": "svc-scale", "ladder": [2, 4]}
            ).id,
        )
        assert record.status == "done", record.error
        assert record.summary["ladder"] == [2, 4]
        payload = manager.store.load(record.artifact)
        assert payload["schema"] == "repro.scaling/1"
        assert payload["ladder"] == [2, 4]


class TestErrors:
    def test_error_jobs_surface_the_traceback(self, manager,
                                              scratch_interface):
        stat = op_by_name("stat")
        scratch_interface(
            "svc-error", [OpDef("stat", stat.params, _exploding_stat)]
        )
        record = wait_done(
            manager, manager.submit("heatmap", {"interface": "svc-error"}).id
        )
        assert record.status == "error"
        assert "RuntimeError: boom in the model" in record.error
        last = record.events[-1]
        assert last["event"] == "error"
        assert "RuntimeError: boom in the model" in last["traceback"]
        assert record.artifact is None


class TestCancellation:
    def test_cancel_mid_sweep_stops_at_the_next_pair(self, manager,
                                                     scratch_interface):
        link = op_by_name("link")
        scratch_interface(
            "svc-cancel",
            [OpDef("link", link.params, _gated_link), op_by_name("stat")],
        )
        GATE.clear()
        STARTED.clear()
        record = manager.submit("heatmap", {"interface": "svc-cancel"})
        assert STARTED.wait(timeout=120)  # pair 1 is provably running
        assert manager.cancel(record.id) is True
        GATE.set()
        record = wait_done(manager, record.id)
        assert record.status == "cancelled"
        # The in-flight pair finished (and went to the cache); the
        # remaining two pairs never ran.
        assert record.computed_pairs == 1
        assert len(_pair_events(record)) == 1
        assert record.events[-1]["event"] == "cancelled"
        assert record.artifact is None

    def test_cancel_under_pool_keeps_every_finished_pair(
            self, manager, scratch_interface, tmp_path, monkeypatch):
        """A parallel backend cancels the same way: the callback raises
        after a finished pair was persisted, so every pair the stream
        reported is in the cache, and the job is one backend drain."""
        gate = tmp_path / "gate"
        monkeypatch.setenv("REPRO_TEST_GATE", str(gate))
        link = op_by_name("link")
        scratch_interface(
            "svc-cancel-pool",
            [op_by_name("stat"),
             OpDef("link", link.params, _file_gated_link)],
        )
        record = manager.submit(
            "heatmap", {"interface": "svc-cancel-pool", "backend": "pool",
                        "workers": 2},
        )
        # stat|stat finishes; both pairs that use link are held.
        deadline = time.monotonic() + 120
        while not _pair_events(record):
            assert time.monotonic() < deadline
            manager.wait_events(record.id, len(record.events), timeout=1.0)
        assert manager.cancel(record.id) is True
        gate.touch()
        record = wait_done(manager, record.id)
        assert record.status == "cancelled"
        assert record.artifact is None
        reported = [e["pair"] for e in _pair_events(record)]
        assert reported[0] == "stat|stat" and len(reported) == 2
        assert record.computed_pairs == 2
        cache = ResultCache(manager.cache.path)
        jobs = {
            f"{j.op0.name}|{j.op1.name}": j
            for j in get_kind("heatmap").build_jobs(record.params)
        }
        for pair in reported:
            job = jobs[pair]
            assert cache.get(job.key, job_fingerprint(job)) is not None

    def test_cancel_queued_job_runs_no_pairs(self, tmp_path,
                                             scratch_interface):
        link = op_by_name("link")
        scratch_interface(
            "svc-queue", [OpDef("link", link.params, _gated_link)]
        )
        mgr = JobManager(
            cache=str(tmp_path / "cache.json"),
            store=ArtifactStore(str(tmp_path / "store")),
            workers=1,
        )
        try:
            GATE.clear()
            STARTED.clear()
            blocker = mgr.submit("heatmap", {"interface": "svc-queue"})
            assert STARTED.wait(timeout=120)
            queued = mgr.submit("heatmap", {"interface": "svc-queue"})
            assert mgr.cancel(queued.id) is True
            GATE.set()
            assert wait_done(mgr, blocker.id).status == "done"
            queued = wait_done(mgr, queued.id)
            assert queued.status == "cancelled"
            assert queued.computed_pairs == 0
            assert len(_pair_events(queued)) == 0
        finally:
            GATE.set()
            mgr.shutdown()

    def test_cancel_finished_job_is_a_noop(self, manager,
                                           scratch_interface):
        scratch_interface("svc-noop", _ops("link",))
        record = wait_done(
            manager, manager.submit("analyze", {"interface": "svc-noop"}).id
        )
        assert manager.cancel(record.id) is False
        assert record.status == "done"


class TestIncrementalReanalysis:
    def test_spec_edit_recomputes_only_that_ops_row(self, manager,
                                                    scratch_interface):
        """The acceptance criterion: after editing one op, resubmitting
        the same request recomputes exactly that op's row/column and
        serves every other pair from the cache."""
        scratch_interface("svc-spec", _ops("link", "unlink", "stat"))
        params = {"interface": "svc-spec"}
        first = wait_done(manager, manager.submit("heatmap", params).id)
        assert first.computed_pairs == 6 and first.cached_pairs == 0

        stat = op_by_name("stat")
        scratch_interface(
            "svc-spec",
            [op_by_name("link"), op_by_name("unlink"),
             OpDef("stat", stat.params, _stat_variant)],
        )
        second = wait_done(manager, manager.submit("heatmap", params).id)
        # The edit changed stat's fingerprint, so the request-level memo
        # honestly missed...
        assert not second.store_hit
        # ...but only stat's row/column recomputed.
        assert second.cached_pairs == 3
        assert second.computed_pairs == 3
        by_pair = {e["pair"]: e["cached"] for e in _pair_events(second)}
        assert by_pair == {
            "link|link": True,
            "link|unlink": True,
            "unlink|unlink": True,
            "link|stat": False,
            "unlink|stat": False,
            "stat|stat": False,
        }
        # The variant is semantically identical, so the recomputed
        # artifact content-addresses to the very same digest.
        assert second.artifact == first.artifact


def _rejected(manager, kind, params, match):
    """``normalize`` — the one validator — rejects the request, and the
    manager (hence the HTTP 400 body) says exactly the same thing."""
    with pytest.raises(BadRequest, match=match) as direct:
        normalize(kind, params)
    with pytest.raises(BadRequest) as served:
        manager.submit(kind, params)
    assert str(served.value) == str(direct.value)
    assert manager.list() == []


class TestValidation:
    def test_unknown_kind(self, manager):
        _rejected(manager, "frobnicate", {}, "unknown job kind")

    def test_unknown_interface(self, manager):
        _rejected(manager, "heatmap", {"interface": "nope"},
                  "no interface named")

    def test_unknown_op(self, manager):
        _rejected(manager, "heatmap", {"ops": ["link", "frob"]},
                  "unknown operation")

    def test_unknown_parameter(self, manager):
        _rejected(manager, "heatmap", {"cores": 4}, "unknown parameter")

    def test_bad_ncores(self, manager):
        _rejected(manager, "heatmap", {"ncores": 0}, "ncores")

    @pytest.mark.parametrize("kind,params", [
        ("heatmap", {"ncores": True}),
        ("compare", {"name": "sockets", "ncores": True}),
        ("heatmap", {"tests_per_path": True}),
        ("scaling", {"tests_per_path": True}),
        ("heatmap", {"workers": False}),
        ("analyze", {"workers": True}),
        ("scaling", {"ladder": [True, 4]}),
        ("scaling", {"ladder": 5}),
    ])
    def test_booleans_are_not_integers(self, manager, kind, params):
        """``bool`` is an ``int`` subclass: ``"ncores": true`` used to
        validate, then key and store a second copy of the ``"ncores": 1``
        artifact under a different digest."""
        bad = next(k for k in params if k != "name")
        _rejected(manager, kind, params, bad)

    def test_unknown_backend(self, manager):
        _rejected(manager, "heatmap", {"backend": "gpu"}, "unknown backend")

    def test_compare_needs_a_name(self, manager):
        _rejected(manager, "compare", {}, "'name'")

    def test_unknown_redesign(self, manager):
        _rejected(manager, "compare", {"name": "frob"}, "sockets")

    def test_bad_submission_creates_no_job(self, manager):
        with pytest.raises(BadRequest):
            manager.submit("heatmap", {"interface": "nope"})
        assert manager.list() == []

    def test_another_kinds_parameter_is_ignored(self, manager):
        # The pre-registry validator knew one global parameter set;
        # clients that send a superset keep working.
        assert "ladder" not in normalize("heatmap", {"ladder": [2, 4]})
