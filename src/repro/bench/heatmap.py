"""Figure 6: conflict-freedom of commutative syscall pairs on both kernels.

Pipeline: ANALYZER over all pairs of the 18-call model → TESTGEN →
MTRACE on the Linux-like and sv6-like kernels.  The output mirrors the
paper's matrix: per pair, how many generated commutative tests are *not*
conflict-free on each kernel, plus aggregate totals (paper: Linux scales
for 9,389 of 13,664; sv6 for 13,528).

Execution is delegated to :mod:`repro.pipeline`: each pair is an
independent end-to-end job, so the sweep shards across a process pool
(``workers``), skips pairs whose fingerprint matches a persistent JSON
``cache``, and still returns cells in deterministic matrix order.

The residue classifier buckets the scalable kernel's remaining conflicts
into §6.4's categories (idempotent updates, pipe fd reference counts,
same-fd file offsets, length updates).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.pipeline.sweep import SweepResult, run_sweep

#: The Figure 6 result is the sweep's own record.
HeatmapResult = SweepResult


def run_heatmap(
    ops: Optional[Sequence] = None,
    kernels: Optional[dict[str, Callable]] = None,
    tests_per_path: int = 1,
    on_progress: Optional[Callable[[str], None]] = None,
    workers: Optional[int] = None,
    cache=None,
    pair_filter=None,
    solver_cache_size: Optional[int] = None,
    interface: str = "posix",
    ncores: int = 4,
    backend=None,
) -> HeatmapResult:
    """The full Figure 6 pipeline (8 minutes in the paper; similar here
    serially — ``backend``/``workers`` pick the execution backend that
    shards pairs, ``cache`` makes re-runs incremental).  ``interface``
    selects a registered interface bundle (see
    :mod:`repro.model.registry`).  :func:`~repro.pipeline.sweep.run_sweep`
    with ``kernels`` as a name → factory dict."""
    return run_sweep(
        ops=ops,
        kernels=None if kernels is None else tuple(kernels.items()),
        tests_per_path=tests_per_path,
        workers=workers,
        cache=cache,
        pair_filter=pair_filter,
        on_progress=on_progress,
        solver_cache_size=solver_cache_size,
        interface=interface,
        ncores=ncores,
        backend=backend,
    )


__all__ = ["HeatmapResult", "run_heatmap"]
