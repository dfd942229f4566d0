"""The persistent result cache: content-hash keying and incrementality.

The fingerprint must change exactly when a pair's inputs change — an op
body edit invalidates that op's pairs and nothing else; infrastructure
and knob changes invalidate everything.
"""

import json
import os

from repro.model.base import OpDef, Param
from repro.model.posix import op_by_name
from repro.pipeline import (
    PairJob,
    ResultCache,
    SerialBackend,
    job_fingerprint,
    op_fingerprint,
    run_sweep,
)

OPS = ("link", "unlink", "stat")

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _ops():
    return [op_by_name(name) for name in OPS]


def _body_v1(s, ex, rt, pid):
    return 0


def _body_v2(s, ex, rt, pid):
    return 1


def _stat_variant(s, ex, rt, **kwargs):
    # Same observable behavior as stat, different source text: the
    # fingerprint must treat this as a different operation.
    return op_by_name("stat").fn(s, ex, rt, **kwargs)


class TestFingerprints:
    def test_stable_for_same_op(self):
        assert op_fingerprint(op_by_name("open")) == \
            op_fingerprint(op_by_name("open"))

    def test_changes_with_op_body(self):
        a = OpDef("probe", [Param("pid", "pid")], _body_v1)
        b = OpDef("probe", [Param("pid", "pid")], _body_v2)
        assert op_fingerprint(a) != op_fingerprint(b)

    def test_changes_with_params(self):
        a = OpDef("probe", [Param("pid", "pid")], _body_v1)
        b = OpDef("probe", [Param("fd", "fd")], _body_v1)
        assert op_fingerprint(a) != op_fingerprint(b)

    def test_job_fingerprint_changes_with_tests_per_path(self):
        link = op_by_name("link")
        assert job_fingerprint(PairJob(link, link, tests_per_path=1)) != \
            job_fingerprint(PairJob(link, link, tests_per_path=2))

    def test_job_fingerprint_stable(self):
        link, stat = op_by_name("link"), op_by_name("stat")
        assert job_fingerprint(PairJob(link, stat)) == \
            job_fingerprint(PairJob(link, stat))

    def test_pair_key_and_fingerprint_are_order_insensitive(self):
        link, stat = op_by_name("link"), op_by_name("stat")
        assert PairJob(link, stat).key == PairJob(stat, link).key
        assert job_fingerprint(PairJob(link, stat)) == \
            job_fingerprint(PairJob(stat, link))

    def test_model_context_excludes_op_bodies(self):
        import repro.model.fs as fs
        from repro.pipeline.cache import _module_source_without_ops

        stripped = _module_source_without_ops(fs)
        # Shared helpers stay in the hash input; op bodies do not.
        assert "def fd_lookup" in stripped
        for op in fs.FS_OPS:
            assert f"def {op.fn.__name__}" not in stripped


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = ResultCache(path)
        assert cache.get("open|close", "f1") is None
        cache.put("open|close", "f1", {"total": 3})
        cache.save()
        reloaded = ResultCache(path)
        assert reloaded.get("open|close", "f1") == {"total": 3}
        assert reloaded.hits == 1

    def test_stale_fingerprint_is_a_miss(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = ResultCache(path)
        cache.put("open|close", "old", {"total": 3})
        assert cache.get("open|close", "new") is None
        assert cache.misses == 1

    def test_corrupt_file_starts_empty(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        cache = ResultCache(str(path))
        assert len(cache) == 0

    def test_save_is_atomic_and_versioned(self, tmp_path):
        path = str(tmp_path / "sub" / "cache.json")
        cache = ResultCache(path)
        cache.put("a|b", "f", {"total": 0})
        cache.save()
        raw = json.loads(open(path).read())
        assert raw["version"] == 1
        assert "a|b" in raw["entries"]


class TestIncrementalSweep:
    def test_second_run_skips_all_unchanged_pairs(self, tmp_path):
        path = str(tmp_path / "cache.json")
        first = run_sweep(ops=_ops(), cache=path)
        second = run_sweep(ops=_ops(), cache=path)
        assert first.computed_pairs == 6 and first.cached_pairs == 0
        assert second.computed_pairs == 0 and second.cached_pairs == 6
        assert [c.to_dict() for c in first.cells] == \
            [c.to_dict() for c in second.cells]

    def test_op_edit_invalidates_only_its_pairs(self, tmp_path):
        path = str(tmp_path / "cache.json")
        ops = _ops()
        run_sweep(ops=ops, cache=path)

        stat = op_by_name("stat")
        edited = OpDef("stat", stat.params, _stat_variant)
        ops_after_edit = [op_by_name("link"), op_by_name("unlink"), edited]
        incremental = run_sweep(
            ops=ops_after_edit, cache=path, backend=SerialBackend()
        )
        # link|link, link|unlink, unlink|unlink stay cached; the three
        # pairs involving the edited stat recompute.
        assert incremental.cached_pairs == 3
        assert incremental.computed_pairs == 3
        # The variant is semantically identical, so the matrix agrees.
        baseline = run_sweep(ops=ops, backend=SerialBackend())
        assert [c.to_dict() for c in incremental.cells] == \
            [c.to_dict() for c in baseline.cells]

    def test_reordered_pair_request_hits_the_cache(self, tmp_path):
        path = str(tmp_path / "cache.json")
        link, rename = op_by_name("link"), op_by_name("rename")
        run_sweep(ops=[link, rename], cache=path)
        reordered = run_sweep(ops=[rename, link], cache=path)
        assert reordered.computed_pairs == 0
        assert reordered.cached_pairs == 3

    def test_results_persist_as_the_sweep_progresses(self, tmp_path):
        """An interrupted sweep must keep every pair already computed:
        the cache file on disk gains entries pair by pair, not only at
        the end of the run."""
        path = str(tmp_path / "cache.json")
        entries_seen = []

        def spy(_line):
            try:
                with open(path) as f:
                    entries_seen.append(len(json.load(f)["entries"]))
            except OSError:
                entries_seen.append(0)

        run_sweep(ops=_ops(), cache=path, on_progress=spy)
        assert entries_seen == [1, 2, 3, 4, 5, 6]

    def test_cache_object_can_be_passed_directly(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache.json"))
        run_sweep(ops=[op_by_name("link")], cache=cache)
        assert len(cache) == 1
        result = run_sweep(ops=[op_by_name("link")], cache=cache)
        assert result.cached_pairs == 1


class TestConcurrentWriters:
    """``save()`` must merge, not overwrite: concurrent jobs sharing a
    cache path (the service's worker pool, two parallel CLI sweeps)
    may not lose each other's entries."""

    def test_two_writer_stress_threads(self, tmp_path):
        """Two writers (separate ResultCache instances, as two sweeps
        would hold) hammer one path with interleaved per-put saves; the
        final file must contain every entry from both."""
        import threading

        path = str(tmp_path / "cache.json")
        errors = []

        def writer(tag):
            try:
                cache = ResultCache(path)
                for k in range(40):
                    cache.put(f"{tag}|{k}", "fp", {"total": k})
                    cache.save()
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(tag,))
            for tag in ("alpha", "beta")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        with open(path) as f:
            entries = json.load(f)["entries"]
        assert len(entries) == 80
        for tag in ("alpha", "beta"):
            for k in range(40):
                assert entries[f"{tag}|{k}"]["cell"] == {"total": k}

    def test_two_writer_stress_processes(self, tmp_path):
        """The same guarantee across real process boundaries (the
        advisory file lock, not the in-process mutex, is what serializes
        the read-merge-write here)."""
        import os
        import subprocess
        import sys

        path = str(tmp_path / "cache.json")
        script = (
            "import sys\n"
            "from repro.pipeline.cache import ResultCache\n"
            "tag, path = sys.argv[1], sys.argv[2]\n"
            "cache = ResultCache(path)\n"
            "for k in range(40):\n"
            "    cache.put(f'{tag}|{k}', 'fp', {'total': k})\n"
            "    cache.save()\n"
        )
        env = dict(os.environ)
        src = os.path.join(REPO, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, tag, path],
                env=env, stderr=subprocess.PIPE, text=True,
            )
            for tag in ("alpha", "beta")
        ]
        for proc in procs:
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr
        with open(path) as f:
            entries = json.load(f)["entries"]
        assert len(entries) == 80

    def test_shared_instance_is_thread_safe(self, tmp_path):
        """One instance shared by many threads (the service's jobs all
        hold the server's cache object) must not corrupt its entries."""
        import threading

        path = str(tmp_path / "cache.json")
        cache = ResultCache(path)

        def worker(tag):
            for k in range(50):
                cache.put(f"{tag}|{k}", "fp", {"total": k})
                cache.save()
                assert cache.get(f"{tag}|{k}", "fp") == {"total": k}

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        reloaded = ResultCache(path)
        assert len(reloaded) == 200

    def test_save_adopts_concurrent_writers_entries(self, tmp_path):
        """After a merge-save, another writer's disk entries become this
        instance's cache hits (shared caching across service jobs)."""
        path = str(tmp_path / "cache.json")
        ours = ResultCache(path)
        theirs = ResultCache(path)
        theirs.put("their|pair", "fp", {"total": 7})
        theirs.save()
        ours.put("our|pair", "fp", {"total": 3})
        ours.save()
        assert ours.get("their|pair", "fp") == {"total": 7}
        reloaded = ResultCache(path)
        assert reloaded.get("our|pair", "fp") == {"total": 3}
        assert reloaded.get("their|pair", "fp") == {"total": 7}


def test_job_fingerprint_is_thread_safe():
    """The service fingerprints from several job threads at once; on
    CPython 3.11 unserialized ``inspect.getsource`` calls die now and
    then with ``SystemError: AST constructor recursion depth mismatch``
    (``ast.parse`` keeps its depth check in per-interpreter state), and
    the chance grows with threads entering at different stack depths.
    """
    import sys
    import threading

    from repro.pipeline.cache import _context_hash
    from repro.pipeline.sweep import build_pair_jobs

    jobs = build_pair_jobs(interface="posix")
    assert len(jobs) == 171
    serial = [job_fingerprint(job) for job in jobs]
    _context_hash.cache_clear()
    digests, errors = {}, []

    def at_depth(depth, fn):
        return fn() if depth == 0 else at_depth(depth - 1, fn)

    def worker(index):
        try:
            digests[index] = at_depth(
                3 * index, lambda: [job_fingerprint(job) for job in jobs]
            )
        except BaseException as exc:  # SystemError is the known one
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [digests[i] for i in range(8)] == [serial] * 8
