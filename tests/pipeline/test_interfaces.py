"""Interface-generic pipeline: --interface end-to-end, per-interface
artifacts, interface-aware cache fingerprints, and the §4.3 comparison.
"""

import json

import pytest

from repro.model.registry import get_interface
from repro.pipeline import PairJob, job_fingerprint, run_sweep
from repro.cli import main as cli_main
from repro.pipeline.sweep import summarize_interface_sweep


def _sockets_job(interface: str, a: str, b: str, **kwargs) -> PairJob:
    iface = get_interface(interface)
    return PairJob(
        iface.op_by_name(a), iface.op_by_name(b),
        build_state=iface.build_state, state_equal=iface.state_equal,
        kernels=tuple(iface.kernels), interface=interface, **kwargs,
    )


class TestFingerprints:
    def test_interface_enters_the_fingerprint(self):
        iface = get_interface("posix")
        base = PairJob(iface.op_by_name("open"), iface.op_by_name("open"))
        ext = PairJob(iface.op_by_name("open"), iface.op_by_name("open"),
                      interface="posix-ext")
        assert job_fingerprint(base) != job_fingerprint(ext)

    def test_ncores_enters_the_fingerprint(self):
        iface = get_interface("posix")
        a = PairJob(iface.op_by_name("open"), iface.op_by_name("open"))
        b = PairJob(iface.op_by_name("open"), iface.op_by_name("open"),
                    ncores=8)
        assert job_fingerprint(a) != job_fingerprint(b)

    def test_socket_jobs_fingerprint_deterministically(self):
        assert job_fingerprint(_sockets_job("sockets-ordered", "send", "recv")) \
            == job_fingerprint(_sockets_job("sockets-ordered", "send", "recv"))


class TestSocketsSweep:
    @pytest.fixture(scope="class")
    def sweeps(self):
        return {
            name: run_sweep(interface=name)
            for name in ("sockets-ordered", "sockets-unordered")
        }

    def test_sweeps_run_end_to_end(self, sweeps):
        for name, sweep in sweeps.items():
            assert sweep.interface == name
            assert sweep.kernels == ("mono", "scalefs")
            assert sweep.total_tests > 0
            for cell in sweep.cells:
                assert all(m == 0 for m in cell.mismatches.values())

    def test_unordered_more_commutative_and_conflict_free(self, sweeps):
        ordered = summarize_interface_sweep(sweeps["sockets-ordered"])
        unordered = summarize_interface_sweep(sweeps["sockets-unordered"])
        assert unordered["commutative_fraction"] > \
            ordered["commutative_fraction"]
        assert unordered["conflict_free_fraction"]["scalefs"] > \
            ordered["conflict_free_fraction"]["scalefs"]
        # The scalable kernel is fully conflict-free for the redesign.
        assert unordered["conflict_free"]["scalefs"] == \
            unordered["total_tests"]

    def test_ordered_fifo_never_scales(self, sweeps):
        ordered = summarize_interface_sweep(sweeps["sockets-ordered"])
        assert ordered["conflict_free"]["scalefs"] == 0


class TestInterfaceCli:
    def test_heatmap_interface_artifact_and_cache(self, tmp_path, capsys):
        out = str(tmp_path / "hm.json")
        cache = str(tmp_path / "cache.json")
        rc = cli_main(["heatmap", "--interface", "sockets-unordered",
                       "--cache", cache, "--out", out, "--quiet"])
        assert rc == 0
        raw = json.load(open(out))
        assert raw["interface"] == "sockets-unordered"
        assert raw["ops"] == ["usend", "urecv"]
        assert raw["conflict_free"]["scalefs"] == raw["total"]
        assert "3 pairs computed, 0 cached" in capsys.readouterr().out
        rc = cli_main(["heatmap", "--interface", "sockets-unordered",
                       "--cache", cache, "--out", out, "--quiet"])
        assert rc == 0
        assert "0 pairs computed, 3 cached" in capsys.readouterr().out

    def test_analyze_interface_artifact(self, tmp_path, capsys):
        out = str(tmp_path / "analyze.json")
        rc = cli_main(["analyze", "--interface", "sockets-ordered",
                       "--out", out, "--quiet"])
        assert rc == 0
        raw = json.load(open(out))
        assert raw["interface"] == "sockets-ordered"
        assert {p["op0"] for p in raw["pairs"]} == {"send", "recv"}

    def test_posix_artifacts_keep_their_schema(self, tmp_path, capsys):
        """No ``interface``/``ncores`` keys on the historical POSIX
        artifacts (default runs stay byte-compatible)."""
        out = str(tmp_path / "hm.json")
        rc = cli_main(["heatmap", "--pairs", "link,unlink", "--no-cache",
                       "--out", out, "--quiet"])
        assert rc == 0
        raw = json.load(open(out))
        assert "interface" not in raw
        assert "ncores" not in raw

    def test_non_default_ncores_recorded_in_artifact(self, tmp_path, capsys):
        out = str(tmp_path / "hm.json")
        rc = cli_main(["heatmap", "--pairs", "link,unlink", "--no-cache",
                       "--ncores", "8", "--out", out, "--quiet"])
        assert rc == 0
        assert json.load(open(out))["ncores"] == 8

    def test_interface_scoped_op_errors(self, capsys):
        with pytest.raises(SystemExit, match="valid names"):
            cli_main(["analyze", "--interface", "sockets-ordered",
                      "--ops", "open", "--quiet"])
        with pytest.raises(SystemExit, match="registered interfaces"):
            cli_main(["analyze", "--interface", "bogus", "--quiet"])

    def test_sockets_compare_claim_holds(self, tmp_path, capsys):
        out = str(tmp_path / "cmp.json")
        rc = cli_main(["compare", "sockets", "--no-cache", "--out", out,
                       "--quiet"])
        assert rc == 0
        raw = json.load(open(out))
        assert raw["schema"] == "repro.compare/1"
        assert raw["claim"]["holds"] is True
        ordered = raw["baseline"]["summary"]
        unordered = raw["redesigned"]["summary"]
        assert unordered["conflict_free_fraction"]["scalefs"] > \
            ordered["conflict_free_fraction"]["scalefs"]
        assert unordered["commutative_fraction"] > \
            ordered["commutative_fraction"]
        assert "claim HOLDS" in capsys.readouterr().out

    def test_testgen_renders_socket_setups(self, tmp_path, capsys):
        out = str(tmp_path / "tg.json")
        rc = cli_main(["testgen", "--interface", "sockets-ordered",
                       "--pairs", "send,recv", "--out", out, "--quiet",
                       "--render"])
        assert rc == 0
        assert "datagram socket" in capsys.readouterr().out
        raw = json.load(open(out))
        assert raw["interface"] == "sockets-ordered"
