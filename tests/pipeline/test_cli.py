"""The unified ``python -m repro`` command line.

The heatmap smoke test exercises the acceptance path end-to-end: a real
subprocess, two workers, a persistent cache, and a second run that must
be served entirely from it.
"""

import json
import os
import subprocess
import sys

import pytest

from repro import cli

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


class TestHeatmapSmoke:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("cli")
        out = str(tmp / "heatmap.json")
        cache = str(tmp / "cache.json")
        first = repro_cmd(
            "heatmap", "--pairs", "open,open", "--workers", "2",
            "--cache", cache, "--out", out, "--quiet",
        )
        second = repro_cmd(
            "heatmap", "--pairs", "open,open", "--workers", "2",
            "--cache", cache, "--out", out, "--quiet",
        )
        return first, second, out

    def test_exit_codes(self, artifacts):
        first, second, _ = artifacts
        assert first.returncode == 0, first.stderr
        assert second.returncode == 0, second.stderr

    def test_artifact_schema(self, artifacts):
        _, _, out = artifacts
        raw = json.load(open(out))
        assert raw["schema"] == "repro.heatmap/1"
        assert raw["ops"] == ["open"]
        assert raw["total"] > 0
        (cell,) = raw["cells"]
        assert (cell["op0"], cell["op1"]) == ("open", "open")
        assert cell["total"] == raw["total"]
        assert set(raw["conflict_free"]) == {"mono", "scalefs"}
        assert all(v == 0 for v in cell["mismatches"].values())

    def test_first_run_computes_second_is_cached(self, artifacts):
        first, second, _ = artifacts
        assert "1 pairs computed, 0 cached" in first.stdout
        assert "0 pairs computed, 1 cached" in second.stdout

    def test_browser_reads_the_artifact(self, artifacts):
        _, _, out = artifacts
        result = repro_cmd("browse", "--data", out, "summary")
        assert result.returncode == 0, result.stderr
        assert "commutative test cases" in result.stdout


class TestInProcessCommands:
    def test_analyze_writes_artifact(self, tmp_path, capsys):
        out = str(tmp_path / "analyze.json")
        rc = cli.main(["analyze", "--pairs", "link,unlink", "--out", out,
                       "--quiet"])
        assert rc == 0
        raw = json.load(open(out))
        assert raw["schema"] == "repro.analyze/1"
        (pair,) = raw["pairs"]
        assert pair["commutative_paths"] > 0
        assert pair["condition"]

    def test_testgen_writes_artifact(self, tmp_path, capsys):
        out = str(tmp_path / "testgen.json")
        rc = cli.main(["testgen", "--pairs", "link,unlink", "--out", out,
                       "--quiet", "--render"])
        assert rc == 0
        raw = json.load(open(out))
        assert raw["total"] > 0
        assert raw["pairs"][0]["cases"] == len(raw["pairs"][0]["names"])
        assert "void setup_" in capsys.readouterr().out

    def test_bench_writes_artifact(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        rc = cli.main(["bench", "--suite", "openbench", "--cores", "1,2",
                       "--duration", "2000", "--out", out])
        assert rc == 0
        raw = json.load(open(out))
        assert raw["schema"] == "repro.bench/1"
        assert {s["label"] for s in raw["series"]} == {"anyfd", "lowest"}
        assert raw["linux_baseline_1core"] > 0

    def test_heatmap_matrix_restriction_via_ops(self, tmp_path, capsys):
        out = str(tmp_path / "hm.json")
        rc = cli.main(["heatmap", "--ops", "link,unlink", "--no-cache",
                       "--out", out, "--quiet"])
        assert rc == 0
        raw = json.load(open(out))
        assert [(c["op0"], c["op1"]) for c in raw["cells"]] == [
            ("link", "link"), ("link", "unlink"), ("unlink", "unlink"),
        ]

    def test_solver_cache_size_flag(self, tmp_path, capsys):
        out = str(tmp_path / "analyze.json")
        rc = cli.main(["analyze", "--pairs", "stat,stat", "--out", out,
                       "--quiet", "--solver-cache-size", "64"])
        assert rc == 0
        raw = json.load(open(out))
        (pair,) = raw["pairs"]
        # Solver accounting flows into the artifact; the tiny cache still
        # produces the same analysis.
        assert pair["solver_stats"]["decisions"] > 0
        assert pair["solver_stats"]["incremental"] is True
        assert raw["solver_totals"]["checks"] > 0

    def test_solver_cache_size_does_not_change_results(self, tmp_path,
                                                       capsys):
        outs = []
        for i, size in enumerate(("8", "0")):
            out = str(tmp_path / f"a{i}.json")
            rc = cli.main(["analyze", "--pairs", "link,stat", "--out", out,
                           "--quiet", "--solver-cache-size", size])
            assert rc == 0
            raw = json.load(open(out))
            outs.append([
                {k: v for k, v in p.items() if k != "solver_stats"}
                for p in raw["pairs"]
            ])
        assert outs[0] == outs[1]

    def test_bad_pair_spec_exits(self):
        with pytest.raises(SystemExit):
            cli.main(["heatmap", "--pairs", "open", "--quiet"])

    def test_negative_workers_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["heatmap", "--workers", "-3", "--quiet"])
        assert excinfo.value.code == 2
        assert "0 = all cores" in capsys.readouterr().err

    def test_filtered_run_defaults_to_partial_artifact(self, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["heatmap", "--pairs", "link,unlink", "--no-cache",
                       "--quiet"])
        assert rc == 0
        assert (tmp_path / "results" / "heatmap_partial.json").exists()
        assert not (tmp_path / "results" / "fig6_heatmap.json").exists()

    def test_unknown_op_exits(self):
        with pytest.raises(SystemExit, match="unknown operation 'bogus'"):
            cli.main(["analyze", "--ops", "bogus", "--quiet"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0


class TestBackendSelection:
    def test_backend_flag_parses_and_lands_in_artifact(self, tmp_path,
                                                       capsys):
        out = str(tmp_path / "hm.json")
        rc = cli.main(["heatmap", "--pairs", "link,stat", "--no-cache",
                       "--backend", "work-stealing", "--workers", "2",
                       "--out", out, "--quiet"])
        assert rc == 0
        raw = json.load(open(out))
        assert raw["backend"] == "work-stealing"
        assert raw["backend_stats"]["backend"] == "work-stealing"
        assert "backend=work-stealing" in capsys.readouterr().out

    def test_workers_alone_keeps_legacy_serial_default(self, tmp_path,
                                                       capsys):
        out = str(tmp_path / "hm.json")
        rc = cli.main(["heatmap", "--pairs", "link,stat", "--no-cache",
                       "--out", out, "--quiet"])
        assert rc == 0
        raw = json.load(open(out))
        assert raw["backend"] == "serial"
        assert raw["workers"] == 1

    def test_unknown_backend_rejected_with_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["heatmap", "--backend", "bogus", "--quiet"])
        assert excinfo.value.code == 2
        assert "subprocess-shard" in capsys.readouterr().err

    def test_backend_stats_line_printed_for_non_serial(self, tmp_path,
                                                       capsys):
        out = str(tmp_path / "hm.json")
        rc = cli.main(["heatmap", "--pairs", "link,stat", "--no-cache",
                       "--backend", "pool", "--workers", "2",
                       "--out", out, "--quiet"])
        assert rc == 0
        assert "backend[pool]:" in capsys.readouterr().out

    def test_docs_check_passes_on_fresh_output(self, tmp_path, capsys):
        out = str(tmp_path / "cli.md")
        assert cli.main(["docs", "--out", out]) == 0
        assert cli.main(["docs", "--out", out, "--check"]) == 0

    def test_docs_check_fails_on_stale_file(self, tmp_path, capsys):
        out = str(tmp_path / "cli.md")
        with open(out, "w") as f:
            f.write("stale\n")
        assert cli.main(["docs", "--out", out, "--check"]) == 1
        assert "stale" in capsys.readouterr().err
