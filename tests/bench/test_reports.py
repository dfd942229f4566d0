"""Tests for BENCH_*.json report emission and the CI regression gate."""

import json
import os

import pytest

from repro.bench.regression import (
    check_regressions,
    load_baseline,
    load_reports,
    main as gate_main,
    render_table,
)
from repro.bench.report import bench_report_name, write_bench_report

BASELINE = {
    "schema": "repro.bench-baseline/1",
    "wall_tolerance": 0.25,
    "counter_tolerance": 0.10,
    "benches": {
        "fast": {"wall_s": 1.0, "counters": {"decisions": 100}},
        "slow": {"wall_s": 2.0, "wall_tolerance": 0.5},
    },
}


def _report(name, wall_s, counters=None):
    return {
        "schema": "repro.bench-report/1",
        "name": name,
        "wall_s": wall_s,
        "counters": counters or {},
    }


class TestWriteBenchReport:
    def test_writes_schema_and_counters(self, tmp_path):
        path = write_bench_report(
            "my_bench", 1.25, {"decisions": 7, "label": "dropped"},
            directory=str(tmp_path),
        )
        assert os.path.basename(path) == "BENCH_my_bench.json"
        with open(path) as f:
            raw = json.load(f)
        assert raw == {
            "schema": "repro.bench-report/1",
            "name": "my_bench",
            "wall_s": 1.25,
            "counters": {"decisions": 7},
        }

    def test_name_sanitized(self, tmp_path):
        path = write_bench_report(
            "weird[param-1/2]", 0.5, directory=str(tmp_path)
        )
        assert os.path.basename(path) == "BENCH_weird_param-1_2.json"

    def test_sanitizer(self):
        assert bench_report_name("a b/c") == "a_b_c"
        assert bench_report_name("__x__") == "x"

    def test_loadable_roundtrip(self, tmp_path):
        write_bench_report("one", 0.1, {"n": 1}, directory=str(tmp_path))
        write_bench_report("two", 0.2, directory=str(tmp_path))
        reports = load_reports(str(tmp_path))
        assert set(reports) == {"one", "two"}
        assert reports["one"]["counters"] == {"n": 1}


class TestCheckRegressions:
    def test_within_tolerance_passes(self):
        reports = {
            "fast": _report("fast", 1.2, {"decisions": 105}),
            "slow": _report("slow", 2.9),
        }
        assert check_regressions(reports, BASELINE) == []

    def test_wall_regression_fails(self):
        reports = {
            "fast": _report("fast", 1.3, {"decisions": 100}),
            "slow": _report("slow", 2.9),
        }
        failures = check_regressions(reports, BASELINE)
        assert len(failures) == 1
        assert "fast" in failures[0] and "wall" in failures[0]

    def test_per_bench_tolerance_overrides(self):
        # slow allows 50%: 2.9s passes, 3.1s fails.
        reports = {
            "fast": _report("fast", 0.5, {"decisions": 100}),
            "slow": _report("slow", 3.1),
        }
        failures = check_regressions(reports, BASELINE)
        assert len(failures) == 1
        assert failures[0].startswith("slow:")

    def test_counter_drift_fails_both_directions(self):
        for drifted in (120, 80):
            reports = {
                "fast": _report("fast", 0.5, {"decisions": drifted}),
                "slow": _report("slow", 1.0),
            }
            failures = check_regressions(reports, BASELINE)
            assert len(failures) == 1
            assert "decisions" in failures[0]

    def test_missing_report_fails(self):
        reports = {"fast": _report("fast", 0.5, {"decisions": 100})}
        failures = check_regressions(reports, BASELINE)
        assert len(failures) == 1
        assert "slow" in failures[0]

    def test_missing_counter_fails(self):
        reports = {
            "fast": _report("fast", 0.5),
            "slow": _report("slow", 1.0),
        }
        failures = check_regressions(reports, BASELINE)
        assert "missing" in failures[0]

    def test_table_status_reflects_counter_failures(self):
        # Wall within tolerance, counter drifted: the row must say FAIL.
        reports = {
            "fast": _report("fast", 0.5, {"decisions": 200}),
            "slow": _report("slow", 1.0),
        }
        (fast_row,) = [
            line
            for line in render_table(reports, BASELINE).splitlines()
            if line.startswith("fast")
        ]
        assert "FAIL" in fast_row

    def test_ungated_report_ignored(self):
        reports = {
            "fast": _report("fast", 0.5, {"decisions": 100}),
            "slow": _report("slow", 1.0),
            "brand_new": _report("brand_new", 99.0),
        }
        assert check_regressions(reports, BASELINE) == []
        assert "ungated" in render_table(reports, BASELINE)


class TestGateCli:
    def _write_baseline(self, tmp_path, baseline):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        return str(path)

    def test_pass_exit_zero(self, tmp_path, capsys):
        write_bench_report("fast", 0.5, {"decisions": 100},
                           directory=str(tmp_path))
        write_bench_report("slow", 1.0, directory=str(tmp_path))
        rc = gate_main(
            ["--reports", str(tmp_path),
             "--baseline", self._write_baseline(tmp_path, BASELINE)]
        )
        assert rc == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_regression_exit_one(self, tmp_path, capsys):
        write_bench_report("fast", 5.0, {"decisions": 100},
                           directory=str(tmp_path))
        write_bench_report("slow", 1.0, directory=str(tmp_path))
        rc = gate_main(
            ["--reports", str(tmp_path),
             "--baseline", self._write_baseline(tmp_path, BASELINE)]
        )
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bad_baseline_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema\": \"nope\"}")
        rc = gate_main(["--reports", str(tmp_path), "--baseline", str(bad)])
        assert rc == 2

    def test_committed_baseline_loads(self):
        baseline = load_baseline(
            os.path.join(os.path.dirname(__file__), "..", "..",
                         "benchmarks", "bench_baseline.json")
        )
        assert baseline["benches"]
        for entry in baseline["benches"].values():
            assert isinstance(entry["wall_s"], (int, float))

    def test_repro_cli_subcommand(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        write_bench_report("fast", 0.5, {"decisions": 100},
                           directory=str(tmp_path))
        write_bench_report("slow", 1.0, directory=str(tmp_path))
        rc = repro_main(
            ["bench-gate", "--reports", str(tmp_path),
             "--baseline", self._write_baseline(tmp_path, BASELINE)]
        )
        assert rc == 0


@pytest.mark.parametrize("corrupt", ["not json", "[]", "{}"])
def test_corrupt_reports_skipped(tmp_path, corrupt):
    (tmp_path / "BENCH_bad.json").write_text(corrupt)
    assert load_reports(str(tmp_path)) == {}
