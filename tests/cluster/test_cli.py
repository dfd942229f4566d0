"""The ``--backend cluster`` CLI surface and ``repro cluster worker``.

Everything runs in-process through ``cli.main`` — the spawned workers
are the only subprocesses — so flag validation, the explicit
deployment (``--cluster-listen`` plus ``REPRO_CLUSTER_*``), and the
printed recovery counters are pinned cheaply.
"""

import json
import re

import pytest

from repro.bench.report import strip_volatile_heatmap
from repro import cli

OPS = "link,stat"


def _canon(path):
    return json.dumps(
        strip_volatile_heatmap(json.load(open(path))), sort_keys=True
    )


@pytest.fixture(scope="module")
def serial_artifact(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("serial") / "heatmap.json")
    assert cli.main(["heatmap", "--ops", OPS, "--no-cache", "--out", out,
                     "--quiet"]) == 0
    return out


class TestHeatmapClusterFlags:
    def test_spawn_local_sweep_matches_serial(self, tmp_path, capsys,
                                              serial_artifact):
        out = str(tmp_path / "cluster.json")
        rc = cli.main([
            "heatmap", "--ops", OPS, "--backend", "cluster",
            "--spawn-local", "2", "--no-cache", "--out", out,
        ])
        assert rc == 0
        assert _canon(out) == _canon(serial_artifact)
        raw = json.load(open(out))
        assert raw["backend"] == "cluster"
        assert raw["backend_stats"]["cluster_workers"] == 2
        # The stats line surfaces the recovery counters on stdout.
        printed = capsys.readouterr().out
        assert "backend[cluster]:" in printed
        assert "jobs_requeued=0" in printed

    @pytest.mark.parametrize("flags", [
        ["--spawn-local", "2"],
        ["--cluster-listen", "127.0.0.1:0"],
        ["--backend", "pool", "--spawn-local", "2"],
    ])
    def test_cluster_flags_require_cluster_backend(self, tmp_path, flags):
        out = str(tmp_path / "heatmap.json")
        with pytest.raises(SystemExit, match="require --backend cluster"):
            cli.main(["heatmap", "--ops", OPS, "--no-cache",
                      "--out", out, "--quiet", *flags])


class TestClusterCoordinatorCommand:
    """The explicit deployment: ``heatmap --backend cluster
    --cluster-listen``, configured through ``REPRO_CLUSTER_*``."""

    def test_explicit_deployment_matches_serial(self, tmp_path, capsys,
                                                monkeypatch,
                                                serial_artifact):
        monkeypatch.setenv("REPRO_CLUSTER_MIN_WORKERS", "2")
        out = str(tmp_path / "cluster.json")
        rc = cli.main([
            "heatmap", "--backend", "cluster",
            "--cluster-listen", "127.0.0.1:0", "--spawn-local", "2",
            "--ops", OPS, "--no-cache", "--out", out,
        ])
        assert rc == 0
        assert _canon(out) == _canon(serial_artifact)
        printed = capsys.readouterr().out
        assert re.search(
            r"cluster coordinator listening on 127\.0\.0\.1:\d+", printed
        )
        assert "[coordinator]" in printed
        assert json.load(open(out))["backend_stats"]["workers_joined"] == 2

    def test_fault_injection_surfaces_requeue_counter(self, tmp_path,
                                                      capsys, monkeypatch,
                                                      serial_artifact):
        # The CI gate in .github/workflows/ci.yml greps for exactly
        # this: a mid-sweep worker kill that still completes, with
        # jobs_requeued >= 1 printed and parity intact.
        monkeypatch.setenv("REPRO_CLUSTER_MIN_WORKERS", "2")
        monkeypatch.setenv("REPRO_CLUSTER_FAULT", "kill-after-result=1")
        out = str(tmp_path / "faulted.json")
        rc = cli.main([
            "heatmap", "--backend", "cluster",
            "--cluster-listen", "127.0.0.1:0", "--spawn-local", "2",
            "--ops", OPS, "--no-cache", "--out", out,
        ])
        assert rc == 0
        assert _canon(out) == _canon(serial_artifact)
        printed = capsys.readouterr().out
        assert re.search(r"jobs_requeued=[1-9]", printed)
        assert json.load(open(out))["backend_stats"]["workers_lost"] == 1

    def test_bad_fault_spec_is_a_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CLUSTER_FAULT", "frobnicate=1")
        with pytest.raises(SystemExit, match="--backend cluster"):
            cli.main([
                "heatmap", "--backend", "cluster", "--spawn-local", "2",
                "--ops", OPS, "--no-cache",
                "--out", str(tmp_path / "x.json"),
            ])


class TestClusterWorkerCommand:
    def test_connect_failure_exits_1(self):
        # Nothing listens on a fresh ephemeral port we just closed.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        rc = cli.main([
            "cluster", "worker", "--connect", f"127.0.0.1:{port}",
            "--quiet",
        ])
        assert rc == 1

    def test_bad_address_is_a_usage_error(self):
        with pytest.raises(SystemExit, match="cluster worker"):
            cli.main(["cluster", "worker", "--connect", "no-port-here",
                      "--quiet"])
