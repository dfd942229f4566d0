"""Backend interchangeability: the commutativity rule applied to our own
tooling.  Pair jobs commute, so the serial and pool backends must
produce bitwise-identical results, in input order, for any worker count.
(File, class and parameter names keep the historical "driver" spelling so
the test ids stay stable; the code under test is ``backend=``.)
"""

import pytest

from repro.analyzer import analyze_interface
from repro.model.fs import PosixState
from repro.model.posix import op_by_name, posix_state_equal
from repro.pipeline import (
    PoolBackend,
    SerialBackend,
    get_backend,
    run_analysis,
    run_sweep,
)

OPS = ("link", "unlink", "stat")


def _ops():
    return [op_by_name(name) for name in OPS]


def square(n):
    return n * n


class TestDriverContract:
    @pytest.mark.parametrize("driver", [SerialBackend(), PoolBackend(2)])
    def test_results_in_input_order(self, driver):
        assert driver.map(square, [3, 1, 4, 1, 5, 9]) == [9, 1, 16, 1, 25, 81]

    @pytest.mark.parametrize("driver", [SerialBackend(), PoolBackend(2)])
    def test_on_result_sees_every_job(self, driver):
        seen = []
        driver.map(square, [1, 2, 3], on_result=lambda job, r: seen.append((job, r)))
        assert sorted(seen) == [(1, 1), (2, 4), (3, 9)]

    @pytest.mark.parametrize("driver", [SerialBackend(), PoolBackend(2)])
    def test_empty_job_list(self, driver):
        assert driver.map(square, []) == []

    def test_more_jobs_than_pending_window(self):
        driver = PoolBackend(workers=2, max_pending=2)
        jobs = list(range(20))
        assert driver.map(square, jobs) == [n * n for n in jobs]

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            get_backend(None, -3)
        with pytest.raises(ValueError, match="workers must be >= 0"):
            PoolBackend(workers=-1)


class TestSerialParallelParity:
    """The acceptance bar: identical per-pair cells and totals."""

    @pytest.fixture(scope="class")
    def serial(self):
        return run_sweep(ops=_ops(), backend=SerialBackend())

    @pytest.fixture(scope="class")
    def parallel(self):
        return run_sweep(ops=_ops(), backend=PoolBackend(workers=4))

    def test_cells_bitwise_identical(self, serial, parallel):
        assert [c.to_dict() for c in serial.cells] == \
            [c.to_dict() for c in parallel.cells]

    def test_totals_identical(self, serial, parallel):
        assert serial.total_tests == parallel.total_tests
        for kernel in serial.kernels:
            assert serial.conflict_free_total(kernel) == \
                parallel.conflict_free_total(kernel)

    def test_residues_identical(self, serial, parallel):
        assert serial.residues == parallel.residues

    def test_matrix_order(self, serial):
        names = [(c.op0, c.op1) for c in serial.cells]
        assert names == [
            ("link", "link"), ("link", "unlink"), ("link", "stat"),
            ("unlink", "unlink"), ("unlink", "stat"), ("stat", "stat"),
        ]

    def test_accounting(self, parallel):
        assert parallel.workers == 4
        assert parallel.computed_pairs == 6
        assert parallel.cached_pairs == 0


class TestAnalysisParity:
    def test_analysis_summaries_identical(self):
        serial = run_analysis(ops=_ops(), backend=SerialBackend())
        parallel = run_analysis(ops=_ops(), backend=PoolBackend(workers=2))
        assert [s.to_dict() for s in serial.summaries] == \
            [s.to_dict() for s in parallel.summaries]


class TestAnalyzeInterfaceOnDriver:
    def test_explicit_serial_driver_matches_default(self):
        ops = _ops()
        default = analyze_interface(PosixState, posix_state_equal, ops)
        explicit = analyze_interface(
            PosixState, posix_state_equal, ops, backend=SerialBackend()
        )
        assert [(p.op0.name, p.op1.name, len(p.paths),
                 len(p.commutative_paths)) for p in default] == \
            [(p.op0.name, p.op1.name, len(p.paths),
              len(p.commutative_paths)) for p in explicit]

    def test_on_pair_streams_in_matrix_order(self):
        seen = []
        analyze_interface(
            PosixState, posix_state_equal, _ops(),
            on_pair=lambda pair: seen.append((pair.op0.name, pair.op1.name)),
        )
        assert seen == [
            ("link", "link"), ("link", "unlink"), ("link", "stat"),
            ("unlink", "unlink"), ("unlink", "stat"), ("stat", "stat"),
        ]
