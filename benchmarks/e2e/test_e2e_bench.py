"""Self-tests of the end-to-end benchmark, at small ``--seconds``.

    python -m pytest benchmarks/e2e -q

Outside tier-1's ``testpaths`` on purpose: they run every workload.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = metrics.benchmark_spec()
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def fixture():
    return reference.load_fixture()


def run_cli(out: Path, *args: str) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--out", str(out), *args],
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else {}


# ----------------------------------------------------------------------
# Reference data and draws


def test_fixture_reproduces_the_committed_heatmap(fixture):
    assert reference.COMMITTED_HEATMAP.exists()
    reference.check_fixture_fresh(fixture)
    assert len(fixture.pairs) == 171
    assert sum(pair.cell["total"] for pair in fixture.pairs) == 29848
    assert [len(s) for s in fixture.strata().values()] == [100, 50, 21]


def draws(fixture, name: str, seed: int, seconds: float = workloads.REFERENCE_SECONDS):
    run = workloads.Run(seed, seconds, Path("unused"), fixture)
    return workloads.WORKLOADS[name](run).draw()


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_same_draw_other_seed_other_draw(fixture, name):
    assert draws(fixture, name, 7) == draws(fixture, name, 7)
    assert draws(fixture, name, 7) != draws(fixture, name, 8)


def test_matrix_cold_strata_counts_do_not_depend_on_the_seed(fixture):
    strata = {p.key: name for name, pairs in fixture.strata().items() for p in pairs}
    for seed in range(5):
        drawn = [strata[pair.key] for pair in draws(fixture, "matrix_cold", seed)]
        counts = {name: drawn.count(name) for name in ("heavy", "medium", "light")}
        assert counts == workloads.MatrixCold.counts


def test_balanced_draw_keeps_the_reference_cost_within_a_few_percent(fixture):
    totals = [sum(p.ref_s for p in draws(fixture, "matrix_cold", seed)) for seed in range(20)]
    assert max(totals) / min(totals) < 1.06


def test_service_requests_follow_zipf_exactly(fixture):
    pool, sequences = draws(fixture, "service_roundtrip", 3)
    ranks = [rank for sequence in sequences for rank in sequence]
    assert len(pool) == len(set(pool)) == 32
    assert len(ranks) == 140 and len(sequences[0]) == len(sequences[1])
    counts = [ranks.count(rank) for rank in range(32)]
    assert counts == sorted(counts, reverse=True) and counts[0] == 35 and counts[-1] == 1


# ----------------------------------------------------------------------
# Metric arithmetic


@pytest.mark.parametrize("samples, pct", [(40, 75), (100, 90), (180, 90), (684, 95), (1000, 99)])
def test_tail_percentile_needs_ten_samples_beyond(samples, pct):
    assert metrics.tail_percentile(samples) == pct


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 41)]
    assert metrics.percentile(values, 50) == 20
    assert metrics.percentile(values, 75) == 30
    assert len([v for v in values if v > metrics.percentile(values, 75)]) == 10


def test_self_time_is_duration_minus_what_children_cover():
    # name, start, end, parent, thread, op
    spans = [
        ["root", 0.0, 10.0, None, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["b", 3.0, 6.0, 0, 0, None],  # overlaps a: the union covers 1..6
        ["a", 2.0, 3.0, 1, 0, None],
        ["elsewhere", 0.0, 9.0, None, 1, None],  # another thread's root
    ]
    assert metrics.self_times(spans, 0) == {"root": 5.0, "a": 2.0 + 1.0, "b": 3.0}


def test_tracer_nests_spans_per_thread():
    tracer = tracing.Tracer("t")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (outer, inner) = tracer.spans
    assert outer[3] is None and inner[3] == 0
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_compare_flags_breaches_and_unequal_counts():
    def run(wall, checks):
        return {
            "workload": "matrix_cold",
            "correct": True,
            "attempted": 1,
            "failed": 0,
            "metrics": {
                "wall_s": {"value": wall, "unit": "s"},
                "solver.checks": {"value": checks, "unit": "count"},
            },
        }

    same = metrics.compare([run(10.0, 5)], [run(10.2, 5)], SPEC)
    assert same[1] == 0
    slower = metrics.compare([run(10.0, 5)], [run(13.0, 5)], SPEC)
    assert slower[1] == 1 and "BREACH" in "\n".join(slower[0])
    recount = metrics.compare([run(10.0, 5)], [run(10.0, 6)], SPEC)
    assert recount[1] == 1 and "COUNT DIFFERS" in "\n".join(recount[0])
    noisy = metrics.compare(
        [run(w, 5) for w in (8.0, 10.0, 12.0, 14.0)],
        [run(w, 5) for w in (8.5, 10.0, 12.0, 13.0)],
        SPEC,
    )
    assert noisy[1] == 0 and "unresolved" in "\n".join(noisy[0])


# ----------------------------------------------------------------------
# BENCHMARK.json and what run.py prints


def test_benchmark_json_is_within_the_contract():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["run_seconds"] == workloads.REFERENCE_SECONDS
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOAD_NAMES + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert unit.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert set(metrics.EXACT_COUNTS) <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_workload_prints_exactly_the_declared_metrics(tmp_path, name):
    for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        code, result = run_cli(tmp_path, "--workload", name, "--seconds", "1", "--trace", trace)
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        if trace == "0":
            assert all(entry["value"] > 0 for entry in result["metrics"].values())
    # Nothing is left behind but the run log and the trace.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.json", f"trace_{name}.json"]
    table = json.loads((tmp_path / "runs.json").read_text())[-1]["table"]
    wall = json.loads((tmp_path / "runs.json").read_text())[-1]["wall_s"]
    assert sum(row[1] for row in table) == pytest.approx(wall, rel=0.02)


def test_a_wrong_reference_cell_is_a_failed_operation(tmp_path):
    raw = json.loads(reference.FIXTURE_PATH.read_text())
    for pair in raw["pairs"]:
        # Not part of the heatmap artifact, so the staleness guard lets
        # it through, but part of every verdict.
        pair["cell"]["explored_paths"] += 1
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(raw))
    code, result = run_cli(
        tmp_path / "out", "--workload", "matrix_cold", "--seconds", "1", "--fixture", str(corrupted)
    )
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] > 0


def test_a_stale_fixture_refuses_to_run(tmp_path):
    raw = json.loads(reference.FIXTURE_PATH.read_text())
    raw["pairs"][0]["cell"]["total"] += 1
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(raw))
    code, result = run_cli(
        tmp_path / "out", "--workload", "matrix_cold", "--seconds", "1", "--fixture", str(stale)
    )
    assert code != 0 and result == {}


def test_the_guard_aborts_with_a_named_error_and_leaves_nothing_behind(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "GUARD_SECONDS", 3.0)
    with pytest.raises(run.WorkloadTimeout, match="fleet_drain"):
        run.main(["--workload", "fleet_drain", "--out", str(tmp_path)])
    assert list(tmp_path.iterdir()) == []
    # Coordinator, workers and the child all carried the scratch path or
    # the out path on their command line or in their environment's TMPDIR.
    for proc in Path("/proc").glob("[0-9]*"):
        try:
            environ = (proc / "environ").read_bytes()
        except OSError:
            continue
        assert f"TMPDIR={tmp_path}".encode() not in environ, proc.name
