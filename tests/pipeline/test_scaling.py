"""The many-core scaling sweep: ladder parsing, artifact schema and
round-trips, cache fingerprints, the batched-runner regression pin
against per-ncores sweeps, cost counters, and the CLI/monotonic gate.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.bench.report import heatmap_to_dict
from repro.bench.heatmap import run_heatmap
from repro.pipeline.cache import ResultCache
from repro.pipeline.scaling import (
    DEFAULT_LADDER,
    SCALING_SCHEMA,
    ScalingCellData,
    ScalingJob,
    _VOLATILE_SCALING_KEYS,
    conflict_free_monotonic,
    parse_ladder,
    rung_heatmap_cells,
    run_scaling_sweep,
    scaling_fingerprint,
    scaling_to_dict,
    strip_volatile_scaling,
)
from repro.pipeline.sweep import build_pair_jobs

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def repro_cmd(*args):
    env = dict(os.environ)
    src = os.path.join(REPO, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=600,
    )


class TestParseLadder:
    def test_comma_string(self):
        assert parse_ladder("2,16,64") == (2, 16, 64)

    def test_sorts_and_dedupes(self):
        assert parse_ladder("64,2,16,2") == (2, 16, 64)
        assert parse_ladder([480, 4, 4, 2]) == (2, 4, 480)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_ladder("")
        with pytest.raises(ValueError):
            parse_ladder([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            parse_ladder("2,0")
        with pytest.raises(ValueError):
            parse_ladder("-4")
        with pytest.raises(ValueError, match="must be ints"):
            parse_ladder([True, 4])  # JSON true is not 1 core

    def test_default_ladder_reaches_many_core_regime(self):
        assert parse_ladder(DEFAULT_LADDER) == DEFAULT_LADDER
        assert DEFAULT_LADDER[-1] == 480


@pytest.fixture(scope="module")
def sweep():
    """One batched sockets-unordered sweep over a small ladder."""
    return run_scaling_sweep(interface="sockets-unordered", ladder=(2, 16))


class TestScalingSweep:
    def test_shape(self, sweep):
        assert sweep.ladder == (2, 16)
        assert sweep.interface == "sockets-unordered"
        assert sweep.kernels == ("mono", "scalefs")
        assert len(sweep.cells) == 3  # usend/usend, usend/urecv, urecv/urecv
        assert sweep.total_tests > 0

    def test_every_cell_has_every_rung(self, sweep):
        for cell in sweep.cells:
            assert sorted(cell.rungs) == [2, 16]
            for rung in cell.rungs.values():
                assert set(rung) == {
                    "not_conflict_free", "mismatches", "residues", "cost",
                }

    def test_unordered_socket_claim_at_every_rung(self, sweep):
        # §4.3 at scale: scalefs fully conflict-free, mono fully
        # conflicted, at every core count.
        for ncores in sweep.ladder:
            assert sweep.conflict_free_fraction("scalefs", ncores) == 1.0
            assert sweep.conflict_free_fraction("mono", ncores) == 0.0

    def test_monotonicity_helper(self, sweep):
        verdict = conflict_free_monotonic(sweep, "scalefs")
        assert verdict["nondecreasing"] is True
        assert verdict["fractions"] == [1.0, 1.0]

    def test_monotonicity_detects_decrease(self, sweep):
        broken = conflict_free_monotonic
        import copy

        clone = copy.deepcopy(sweep)
        # Break rung 16: one scalefs failure where rung 2 had none.
        clone.cells[0].rungs[16]["not_conflict_free"]["scalefs"] = 1
        assert broken(clone, "scalefs")["nondecreasing"] is False

    def test_cost_counters_grow_with_ncores(self, sweep):
        # The O(ncores) steal/probe loops must be visible in the Amdahl
        # accounting: more cores, more probes before EAGAIN.
        low = sweep.rung_cost(2)["scalefs"]
        high = sweep.rung_cost(16)["scalefs"]
        assert high["socket_queue_probes"] > low["socket_queue_probes"]
        assert high["credit_steal_probes"] > low["credit_steal_probes"]
        assert high["mem_accesses"] > low["mem_accesses"]

    def test_curve_is_ascending_and_complete(self, sweep):
        curve = sweep.curve()
        assert [entry["ncores"] for entry in curve] == [2, 16]
        for entry in curve:
            assert set(entry["conflict_free"]) == {"mono", "scalefs"}
            assert set(entry["cost"]) == {"mono", "scalefs"}


class TestRegressionPinAgainstPerNcoresSweeps:
    """The batched runner must compute exactly what re-sweeping per
    ncores would: rung N of the scaling sweep, projected to heatmap cell
    shape, is byte-identical to a plain ``run_heatmap(ncores=N)``."""

    @pytest.mark.parametrize("ncores", [2, 16])
    def test_rung_matches_dedicated_sweep(self, sweep, ncores):
        heatmap = run_heatmap(interface="sockets-unordered", ncores=ncores)
        expected = [
            {k: v for k, v in cell.items() if k != "solver"}
            for cell in heatmap_to_dict(heatmap)["cells"]
        ]
        got = rung_heatmap_cells(sweep, ncores)
        assert json.dumps(got, sort_keys=True) == \
            json.dumps(expected, sort_keys=True)


class TestCellRoundTrip:
    def test_rung_keys_survive_json(self, sweep):
        cell = sweep.cells[0]
        raw = json.loads(json.dumps(cell.to_dict()))
        back = ScalingCellData.from_dict(raw)
        # JSON stringifies the int rung keys; from_dict restores them.
        assert sorted(back.rungs) == sorted(cell.rungs)
        assert back.to_dict() == cell.to_dict()
        assert back.rungs[2]["cost"] == cell.rungs[2]["cost"]

    def test_missing_optional_keys_default(self):
        back = ScalingCellData.from_dict(
            {"op0": "a", "op1": "b", "total": 0}
        )
        assert back.rungs == {}
        assert back.explored_paths == 0


class TestFingerprint:
    def _job(self, ladder):
        base = build_pair_jobs(
            interface="sockets-unordered", ncores=ladder[0],
        )[0]
        return ScalingJob(base, ladder)

    def test_ladder_is_in_the_fingerprint(self):
        assert scaling_fingerprint(self._job((2, 16))) != \
            scaling_fingerprint(self._job((2, 64)))

    def test_equal_jobs_agree(self):
        assert scaling_fingerprint(self._job((2, 16))) == \
            scaling_fingerprint(self._job((2, 16)))

    def test_key_is_ladder_and_interface_scoped(self):
        job = self._job((2, 16))
        assert job.key.startswith("scaling|sockets-unordered|2-16|")
        assert self._job((2, 64)).key != job.key


class TestCache:
    def test_second_run_is_fully_cached_and_identical(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        first = run_scaling_sweep(
            interface="sockets-unordered", ladder=(2, 16), cache=cache,
        )
        second = run_scaling_sweep(
            interface="sockets-unordered", ladder=(2, 16), cache=cache,
        )
        assert first.computed_pairs == 3 and first.cached_pairs == 0
        assert second.computed_pairs == 0 and second.cached_pairs == 3
        assert strip_volatile_scaling(scaling_to_dict(first)) == \
            strip_volatile_scaling(scaling_to_dict(second))

    def test_scaling_entries_coexist_with_pair_entries(self, tmp_path):
        cache_path = str(tmp_path / "cache.json")
        run_scaling_sweep(
            interface="sockets-unordered", ladder=(2, 16),
            cache=cache_path,
        )
        cache = ResultCache(cache_path)
        assert len(cache) == 3
        assert all(key.startswith("scaling|") for key in cache._entries)


class TestArtifact:
    @pytest.fixture(scope="class")
    def artifact(self, sweep):
        return scaling_to_dict(sweep)

    def test_schema_and_result_keys(self, artifact):
        assert artifact["schema"] == SCALING_SCHEMA
        assert artifact["interface"] == "sockets-unordered"
        assert artifact["ladder"] == [2, 16]
        assert artifact["pairs"] == 3
        assert len(artifact["curve"]) == 2
        assert set(artifact["monotonicity"]) == {"mono", "scalefs"}
        assert artifact["monotonicity"]["scalefs"]["nondecreasing"] is True

    def test_volatile_keys_present_then_stripped(self, artifact):
        for key in _VOLATILE_SCALING_KEYS:
            assert key in artifact, key
        stripped = strip_volatile_scaling(artifact)
        for key in _VOLATILE_SCALING_KEYS:
            assert key not in stripped, key
        for cell in stripped["cells"]:
            assert "solver" not in cell
        # Result content survives the projection.
        assert stripped["curve"] == artifact["curve"]
        assert stripped["monotonicity"] == artifact["monotonicity"]

    def test_round_trips_through_json(self, artifact):
        raw = json.loads(json.dumps(artifact))
        assert strip_volatile_scaling(raw) == strip_volatile_scaling(artifact)


class TestCommittedArtifact:
    """The committed default-ladder artifact must match what the code
    computes today, and must show the acceptance shape: scalefs
    conflict-free fraction flat-or-rising, mono's conflicted fraction
    at its ceiling at every rung."""

    PATH = os.path.join(REPO, "results", "scaling_sockets-unordered.json")

    @pytest.fixture(scope="class")
    def committed(self):
        with open(self.PATH) as f:
            return json.load(f)

    def test_matches_a_fresh_default_ladder_sweep(self, committed):
        fresh = run_scaling_sweep(interface="sockets-unordered")
        assert json.dumps(
            strip_volatile_scaling(scaling_to_dict(fresh)), sort_keys=True
        ) == json.dumps(strip_volatile_scaling(committed), sort_keys=True)

    def test_acceptance_shape(self, committed):
        assert committed["ladder"] == list(DEFAULT_LADDER)
        fractions = [
            entry["conflict_free_fraction"] for entry in committed["curve"]
        ]
        scalefs = [f["scalefs"] for f in fractions]
        mono_conflicted = [1.0 - f["mono"] for f in fractions]
        assert all(b >= a for a, b in zip(scalefs, scalefs[1:]))
        assert all(b >= a for a, b in
                   zip(mono_conflicted, mono_conflicted[1:]))
        assert mono_conflicted[-1] == 1.0


class TestCli:
    def test_cached_rerun_computes_zero_pairs(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        out = str(tmp_path / "scaling.json")
        args = (
            "scaling", "sockets-unordered", "--ncores", "2,16",
            "--cache", cache, "--out", out, "--quiet",
        )
        first = repro_cmd(*args)
        second = repro_cmd(*args, "--gate-monotonic", "scalefs")
        assert first.returncode == 0, first.stderr
        assert "3 pairs computed, 0 cached" in first.stdout
        assert second.returncode == 0, second.stderr
        assert "0 pairs computed, 3 cached" in second.stdout
        assert "[ok ] scalefs" in second.stdout
        raw = json.load(open(out))
        assert raw["schema"] == SCALING_SCHEMA

    def test_gate_rejects_unknown_kernel(self, tmp_path):
        result = repro_cmd(
            "scaling", "sockets-unordered", "--ncores", "2",
            "--no-cache", "--out", str(tmp_path / "s.json"), "--quiet",
            "--gate-monotonic", "nope",
        )
        assert result.returncode != 0
        assert "unknown kernel" in result.stderr

    def test_bad_ladder_rejected(self):
        result = repro_cmd("scaling", "--ncores", "0")
        assert result.returncode != 0

    def test_help_text_pins_default_ladder(self):
        from repro.cli import build_parser

        parser = build_parser()
        text = parser.format_help()
        joined = ",".join(str(n) for n in DEFAULT_LADDER)
        assert "scaling" in text
        sub = repro_cmd("scaling", "--help")
        assert joined in sub.stdout

    def test_browse_scaling_view(self, tmp_path):
        out = str(tmp_path / "scaling.json")
        run = repro_cmd(
            "scaling", "sockets-unordered", "--ncores", "2,16",
            "--no-cache", "--out", out, "--quiet",
        )
        assert run.returncode == 0, run.stderr
        view = repro_cmd("browse", "--data", out, "scaling")
        assert view.returncode == 0, view.stderr
        assert "ladder 2,16" in view.stdout
        assert "scalefs" in view.stdout
        assert "cost counters" in view.stdout


class TestBatchedBackends:
    def test_pool_backend_matches_serial(self, sweep):
        pooled = run_scaling_sweep(
            interface="sockets-unordered", ladder=(2, 16),
            backend="pool", workers=2,
        )
        assert strip_volatile_scaling(scaling_to_dict(pooled)) == \
            strip_volatile_scaling(scaling_to_dict(sweep))
        assert pooled.backend == "pool"
