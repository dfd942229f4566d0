"""Redesign-comparison benchmark: ``compare sockets`` end-to-end.

One generic-engine run of the §4.3 comparison — both socket interfaces
through ANALYZER → TESTGEN → MTRACE, claim evaluated.  The counters are
deterministic (test totals, commutative path counts, checks passed), so
CI gates them tightly; the headline assertion is that the claim holds
through the declarative ``Redesign`` spec exactly as it did through the
bespoke command it replaced.

The report additionally carries the run's wall clock
(``interleaved_wall_ms``: both sides' pair jobs go through one shared
batch).  It is machine-dependent and deliberately *not* in the
committed baseline — only the deterministic counts are gated.
"""

from repro.compare import run_compare
from repro.pipeline.backends import backend_names


def _compare_sockets():
    return run_compare("sockets")


def test_compare_sweep(benchmark):
    result = benchmark.pedantic(_compare_sockets, iterations=1, rounds=1)

    assert result.holds
    ordered = result.summaries["baseline"]
    unordered = result.summaries["redesigned"]
    assert unordered["conflict_free"]["scalefs"] == unordered["total_tests"]
    assert ordered["conflict_free"]["scalefs"] == 0

    benchmark.extra_info.update({
        "checks": len(result.claim["checks"]),
        "checks_passed": sum(c["holds"] for c in result.claim["checks"]),
        "baseline_tests": ordered["total_tests"],
        "redesigned_tests": unordered["total_tests"],
        "baseline_commutative_paths": ordered["commutative_paths"],
        "redesigned_commutative_paths": unordered["commutative_paths"],
        "redesigned_scalefs_conflict_free":
            unordered["conflict_free"]["scalefs"],
        "interleaved_wall_ms": round(result.elapsed_seconds * 1000, 1),
    })
    print(
        f"\ncompare sweep [sockets]: baseline "
        f"{ordered['commutative_paths']}/{ordered['explored_paths']} paths "
        f"commute, scalefs conflict-free "
        f"{ordered['conflict_free']['scalefs']}/{ordered['total_tests']}; "
        f"redesigned {unordered['commutative_paths']}/"
        f"{unordered['explored_paths']} paths commute, scalefs "
        f"conflict-free {unordered['conflict_free']['scalefs']}/"
        f"{unordered['total_tests']}; claim "
        f"{'HOLDS' if result.holds else 'DOES NOT HOLD'} "
        f"({sum(c['holds'] for c in result.claim['checks'])}/"
        f"{len(result.claim['checks'])} checks); "
        f"{result.elapsed_seconds * 1000:.0f}ms"
    )


def test_compare_backend_matrix(benchmark):
    """The same §4.3 comparison through every registered execution
    backend: identical summaries (the registry's core invariant) with
    per-backend wall clocks recorded.  The wall counters
    (``<backend>_wall_ms``) are machine-dependent and not in the
    committed baseline; the gated counters are the backend count and
    the parity verdict."""
    import time

    def matrix():
        runs = {}
        for name in backend_names():
            start = time.perf_counter()
            result = run_compare("sockets", backend=name, workers=2)
            runs[name] = (result, time.perf_counter() - start)
        return runs

    runs = benchmark.pedantic(matrix, iterations=1, rounds=1)

    summaries = [result.summaries for result, _ in runs.values()]
    parity = all(summary == summaries[0] for summary in summaries)
    assert parity
    for name, (result, _) in runs.items():
        assert result.holds
        assert result.backend == name
    stolen = runs["work-stealing"][0].backend_stats.get("jobs_stolen", 0)

    benchmark.extra_info.update({
        "backends_compared": len(runs),
        "parity": int(parity),
        "work_stealing_stole": int(stolen >= 1),
        "work_stealing_jobs_stolen": stolen,  # reported, not gated
        **{
            f"{name.replace('-', '_')}_wall_ms": round(wall * 1000, 1)
            for name, (_, wall) in runs.items()
        },
    })
    print(
        "\ncompare backend matrix [sockets]: "
        + ", ".join(
            f"{name} {wall * 1000:.0f}ms"
            for name, (_, wall) in runs.items()
        )
        + f"; parity={'yes' if parity else 'NO'}; "
        f"work-stealing stole {stolen}"
    )


def test_compare_fork_vs_posix_spawn(benchmark):
    """§4's decomposition claim through the proc interface spec (the
    CI gate runs the CLI; this pins the deterministic counts)."""
    result = benchmark.pedantic(
        lambda: run_compare("fork-vs-posix_spawn"),
        iterations=1, rounds=1,
    )

    assert result.holds
    baseline = result.summaries["baseline"]
    redesigned = result.summaries["redesigned"]
    assert redesigned["conflict_free"]["scalefs"] \
        == redesigned["total_tests"]
    assert redesigned["conflict_free"]["mono"] < redesigned["total_tests"]

    benchmark.extra_info.update({
        "checks_passed": sum(c["holds"] for c in result.claim["checks"]),
        "baseline_explored_paths": baseline["explored_paths"],
        "baseline_commutative_paths": baseline["commutative_paths"],
        "redesigned_explored_paths": redesigned["explored_paths"],
        "redesigned_commutative_paths": redesigned["commutative_paths"],
        "redesigned_scalefs_conflict_free":
            redesigned["conflict_free"]["scalefs"],
    })
    print(
        f"\ncompare sweep [fork-vs-posix_spawn]: baseline "
        f"{baseline['commutative_paths']}/{baseline['explored_paths']} "
        f"paths commute; redesigned {redesigned['commutative_paths']}/"
        f"{redesigned['explored_paths']}; claim "
        f"{'HOLDS' if result.holds else 'DOES NOT HOLD'}"
    )
