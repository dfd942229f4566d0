"""Interleaved compare scheduling: heterogeneous batches, one pool.

The compare engine submits both sides' :class:`PairJob`\\ s to a single
:func:`repro.pipeline.sweep.execute_jobs` batch.  These tests pin the
invariants that make that safe: serial/parallel parity on a
mixed-interface batch, per-side summaries identical to a plain per-side
``run_sweep``'s, and cache behavior unchanged by the batching.
"""

import pytest

from repro.compare import get_redesign, run_compare
from repro.compare.spec import SIDES
from repro.pipeline.sweep import (
    build_pair_jobs,
    execute_jobs,
    run_sweep,
    summarize_interface_sweep,
)


def _mixed_jobs(**kwargs):
    """A heterogeneous batch: every pair of both socket interfaces,
    deliberately alternating so scheduling order crosses interfaces."""
    ordered = build_pair_jobs(interface="sockets-ordered", **kwargs)
    unordered = build_pair_jobs(interface="sockets-unordered", **kwargs)
    mixed = []
    for i in range(max(len(ordered), len(unordered))):
        mixed.extend(side[i] for side in (ordered, unordered)
                     if i < len(side))
    return mixed


class TestMixedBatches:
    def test_jobs_carry_their_own_interface(self):
        jobs = _mixed_jobs()
        assert {job.interface for job in jobs} \
            == {"sockets-ordered", "sockets-unordered"}

    def test_serial_parallel_parity_on_a_mixed_batch(self):
        jobs = _mixed_jobs()
        serial = execute_jobs(jobs)
        parallel = execute_jobs(jobs, workers=2)
        assert [c.to_dict() for c in serial.cells] \
            == [c.to_dict() for c in parallel.cells]
        assert serial.cached_pairs == parallel.cached_pairs == 0
        assert parallel.workers == 2

    def test_mixed_batch_progress_lines_name_the_interface(self):
        # Heterogeneous batches tag each line with the job's interface
        # so interleaved output stays legible; homogeneous batches keep
        # the historical untagged format.
        lines = []
        execute_jobs(_mixed_jobs()[:2], on_progress=lines.append)
        assert len(lines) == 2
        assert lines[0].startswith("[sockets-ordered] send/send:")
        assert lines[1].startswith("[sockets-unordered] usend/usend:")
        lines = []
        execute_jobs(build_pair_jobs(interface="sockets-ordered")[:1],
                     on_progress=lines.append)
        assert lines[0].startswith("send/send:")

    def test_mixed_batch_cache_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.json")
        jobs = _mixed_jobs()
        first = execute_jobs(jobs, cache=path)
        second = execute_jobs(jobs, cache=path)
        assert first.cached_pairs == 0
        assert second.cached_pairs == len(jobs)
        assert [c.to_dict() for c in first.cells] \
            == [c.to_dict() for c in second.cells]

    def test_cached_progress_lines_tag_the_interface(self, tmp_path):
        path = str(tmp_path / "cache.json")
        jobs = _mixed_jobs()
        execute_jobs(jobs, cache=path)
        lines = []
        execute_jobs(jobs, cache=path, on_progress=lines.append)
        assert len(lines) == len(jobs)
        assert any(line.startswith("[sockets-ordered]") for line in lines)
        assert any(line.startswith("[sockets-unordered]")
                   for line in lines)


def _per_side_sweeps(**kwargs):
    """The oracle: each side of ``sockets`` as its own ``run_sweep``."""
    sweeps = {}
    for side_name in SIDES:
        side = get_redesign("sockets").sides[side_name]
        ops, pair_filter = side.resolve()
        sweeps[side_name] = run_sweep(
            ops=ops, pair_filter=pair_filter, interface=side.interface,
            **kwargs,
        )
    return sweeps


class TestEngineParity:
    @pytest.fixture(scope="class")
    def both(self):
        return _per_side_sweeps(), run_compare("sockets")

    def test_per_side_summaries_identical(self, both):
        per_side, interleaved = both
        assert interleaved.summaries == {
            name: summarize_interface_sweep(sweep)
            for name, sweep in per_side.items()
        }
        assert interleaved.holds

    def test_per_side_sweeps_carry_matrix_metadata(self, both):
        per_side, interleaved = both
        for side_name, interface in (("baseline", "sockets-ordered"),
                                     ("redesigned", "sockets-unordered")):
            sweep = interleaved.sweeps[side_name]
            assert sweep.interface == interface
            assert sweep.kernels == ("mono", "scalefs")
            assert sweep.computed_pairs == len(sweep.cells)
            assert sweep.op_names == per_side[side_name].op_names
            assert [c.to_dict() for c in sweep.cells] \
                == [c.to_dict() for c in per_side[side_name].cells]

    def test_interleaved_shares_one_cache(self, tmp_path):
        path = str(tmp_path / "cache.json")
        first = run_compare("sockets", cache=path)
        second = run_compare("sockets", cache=path)
        assert first.summaries == second.summaries
        assert all(s.computed_pairs == 0 and s.cached_pairs == 3
                   for s in second.sweeps.values())

    def test_interleaved_parallel_matches_serial(self):
        serial = run_compare("sockets")
        parallel = run_compare("sockets", workers=2)
        assert parallel.summaries == serial.summaries

    def test_cross_engine_cache_reuse(self, tmp_path):
        """Entries written by per-side sweeps serve the compare batch
        (same keys, same fingerprints), and vice versa."""
        path = str(tmp_path / "cache.json")
        _per_side_sweeps(cache=path)
        warm = run_compare("sockets", cache=path)
        assert all(s.computed_pairs == 0 for s in warm.sweeps.values())
        other = str(tmp_path / "other.json")
        run_compare("sockets", cache=other)
        assert all(s.computed_pairs == 0
                   for s in _per_side_sweeps(cache=other).values())
