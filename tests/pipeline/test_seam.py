"""The job seam's contract: ``execute_jobs`` is the one cached-batch
executor, for pair jobs and scaling jobs alike.

Whatever the job kind, cache state and backend: identical cells in input
order, honest cached/computed accounting, exactly one ``save()`` per
computed job (none on a fully warm batch), and the runner handed to the
backend is the bare module-level function — ``benchmarks/e2e`` counts
those saves and dispatches on ``fn is run_pair_job`` from outside.
"""

import pytest

from repro.model.posix import op_by_name
from repro.pipeline.backends import ExecutionBackend, SerialBackend
from repro.pipeline.jobs import run_pair_job
from repro.pipeline.scaling import SCALING_JOBS, ScalingJob, run_scaling_job
from repro.pipeline.sweep import (
    PAIR_JOBS,
    build_pair_jobs,
    execute_jobs,
    run_pair_job_timed,
)

OPS = ("link", "stat")
EVICTED_OP = "stat"


def _jobs(kind):
    base = build_pair_jobs(ops=[op_by_name(name) for name in OPS])
    if kind is SCALING_JOBS:
        return [ScalingJob(job, (2, 4)) for job in base]
    return base


class RecordingCache:
    """A duck-typed cache — ``get``/``put``/``save`` and nothing else,
    like the benchmark's ``CacheProxy`` — that counts what the seam does
    to it."""

    def __init__(self, entries=()):
        self.entries = dict(entries)
        self.puts = []
        self.saves = 0

    def get(self, key, fingerprint):
        entry = self.entries.get(key)
        if entry is not None and entry["fingerprint"] == fingerprint:
            return entry["cell"]
        return None

    def put(self, key, fingerprint, cell):
        self.entries[key] = {"fingerprint": fingerprint, "cell": cell}
        self.puts.append(key)

    def save(self):
        self.saves += 1


@pytest.fixture(scope="module", params=[PAIR_JOBS, SCALING_JOBS],
                ids=["pair", "scaling"])
def reference(request):
    """(kind, jobs, uncached serial cells) — the oracle for every case."""
    kind = request.param
    jobs = _jobs(kind)
    return kind, jobs, execute_jobs(jobs, kind=kind).cells


def _cache_for(state, kind, jobs, cells):
    """The cache a state names, and which job indexes it must serve."""
    if state == "none":
        return None, set()
    warm = {
        job.key: {"fingerprint": kind.fingerprint(job), "cell": cell.to_dict()}
        for job, cell in zip(jobs, cells)
    }
    if state == "cold":
        warm = {}
    elif state == "evicted":
        warm = {
            job.key: warm[job.key] for job in jobs
            if EVICTED_OP not in (kind.pair(job).op0.name,
                                  kind.pair(job).op1.name)
        }
    return RecordingCache(warm), {
        index for index, job in enumerate(jobs) if job.key in warm
    }


@pytest.fixture
def runners(monkeypatch):
    """Every ``fn`` any backend's ``map`` was handed."""
    seen = []
    original = ExecutionBackend.map

    def recording_map(self, fn, jobs, on_result=None):
        seen.append(fn)
        return original(self, fn, jobs, on_result)

    monkeypatch.setattr(ExecutionBackend, "map", recording_map)
    return seen


BACKENDS = {
    "serial": lambda: {"backend": "serial"},
    "pool@2": lambda: {"backend": "pool", "workers": 2},
    "instance": lambda: {"backend": SerialBackend()},
}


@pytest.mark.parametrize("backend", list(BACKENDS))
@pytest.mark.parametrize("state", ["none", "cold", "warm", "evicted"])
def test_seam_contract(reference, state, backend, runners):
    kind, jobs, expected = reference
    cache, served = _cache_for(state, kind, jobs, expected)
    lines = []
    executed = execute_jobs(
        jobs, cache=cache, on_progress=lines.append, kind=kind,
        **BACKENDS[backend](),
    )

    assert [c.to_dict() for c in executed.cells] \
        == [c.to_dict() for c in expected]
    assert executed.cached == [i in served for i in range(len(jobs))]
    assert executed.cached_pairs == len(served)
    assert executed.computed_pairs == len(jobs) - len(served)
    assert len(lines) == len(jobs)
    assert sum("cached" in line for line in lines) == len(served)
    assert runners == [run_scaling_job if kind is SCALING_JOBS
                       else run_pair_job]
    if cache is not None:
        computed = [job.key for i, job in enumerate(jobs) if i not in served]
        assert sorted(cache.puts) == sorted(computed)
        assert cache.saves == len(computed)
        assert set(cache.entries) == {job.key for job in jobs}


def test_on_pair_rides_the_timed_runner_where_there_is_one(reference, runners):
    kind, jobs, expected = reference
    events = []
    executed = execute_jobs(
        jobs, kind=kind,
        on_pair=lambda job, cell, cached, elapsed:
            events.append((job, cell.to_dict(), cached, elapsed)),
    )
    assert [c.to_dict() for c in executed.cells] \
        == [c.to_dict() for c in expected]
    assert [(e[0], e[1], e[2]) for e in events] \
        == [(job, cell.to_dict(), False) for job, cell in zip(jobs, expected)]
    if kind is PAIR_JOBS:
        assert runners == [run_pair_job_timed]
        assert all(e[3] > 0.0 for e in events)
    else:
        assert runners == [run_scaling_job]
        assert all(e[3] == 0.0 for e in events)
