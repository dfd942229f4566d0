"""Pipeline execution-layer benchmarks: backends and the result cache.

Times one pair slice three ways — serial, process-pool sharded, and a
fully cached re-run — so regressions in the sweep machinery itself (job
pickling, cache fingerprinting) show up next to the figure benchmarks.
On a multi-core machine the parallel sweep should approach
``serial / workers``; the cached run should be near-instant regardless.
"""

from repro.model.posix import op_by_name
from repro.pipeline import (
    PoolBackend,
    ResultCache,
    SerialBackend,
    default_workers,
    run_sweep,
)

SLICE = ["open", "link", "unlink", "rename", "stat", "fstat"]


def _ops():
    return [op_by_name(n) for n in SLICE]


def test_sweep_serial(benchmark):
    result = benchmark.pedantic(
        lambda: run_sweep(ops=_ops(), backend=SerialBackend()),
        iterations=1, rounds=1,
    )
    benchmark.extra_info["total_tests"] = result.total_tests
    assert result.computed_pairs == 21


def test_sweep_parallel(benchmark):
    workers = max(2, default_workers())
    result = benchmark.pedantic(
        lambda: run_sweep(ops=_ops(), backend=PoolBackend(workers)),
        iterations=1, rounds=1,
    )
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["total_tests"] = result.total_tests
    assert result.computed_pairs == 21


def test_sweep_cached(benchmark, tmp_path):
    cache = ResultCache(str(tmp_path / "cache.json"))
    warm = run_sweep(ops=_ops(), cache=cache)
    result = benchmark.pedantic(
        lambda: run_sweep(ops=_ops(), cache=cache),
        iterations=1, rounds=1,
    )
    benchmark.extra_info["cached_pairs"] = result.cached_pairs
    assert result.cached_pairs == 21
    assert result.computed_pairs == 0
    assert [c.to_dict() for c in result.cells] == \
        [c.to_dict() for c in warm.cells]
