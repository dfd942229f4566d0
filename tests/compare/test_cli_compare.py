"""The ``compare`` subcommand (claim pass/fail exit codes, artifacts,
unknown-name errors)."""

import json

import pytest

from repro.compare import (
    Check,
    Claim,
    Redesign,
    Side,
    register_redesign,
    unregister_redesign,
)
from repro.cli import main as cli_main

#: A deliberately failing spec over the tiny send/send matrix: both
#: sides are identical, so no fraction can be strictly higher.
IMPOSSIBLE = Redesign(
    name="test-impossible",
    description="identical sides cannot commute more broadly",
    baseline=Side(interface="sockets-ordered", pairs=(("send", "send"),)),
    redesigned=Side(interface="sockets-ordered", pairs=(("send", "send"),)),
    claim=Claim(
        text="cannot hold",
        checks=(Check("commutative_fraction_higher"),),
    ),
)


@pytest.fixture()
def impossible_redesign():
    register_redesign(IMPOSSIBLE)
    yield IMPOSSIBLE
    unregister_redesign(IMPOSSIBLE.name)


class TestCompareCli:
    def test_list_prints_the_registry(self, capsys):
        rc = cli_main(["compare", "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("sockets", "fstat-vs-fstatx", "open-vs-openany",
                     "fork-vs-posix_spawn"):
            assert name in out

    def test_fork_vs_posix_spawn_claim_passes_with_exit_0(self, tmp_path,
                                                          capsys):
        out = str(tmp_path / "cmp.json")
        rc = cli_main(["compare", "fork-vs-posix_spawn", "--no-cache",
                       "--out", out, "--quiet"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "claim HOLDS" in printed
        raw = json.load(open(out))
        assert raw["claim"]["holds"] is True
        # §4's decomposition numbers: two forks never commute, every
        # commutative spawn-side test conflict-free on the scalable
        # kernel, the Linux-like fork+exec emulation still conflicted.
        assert raw["redesigned"]["summary"]["commutative_fraction"] == 1.0
        assert raw["baseline"]["summary"]["commutative_fraction"] < 1.0
        redesigned = raw["redesigned"]["summary"]
        assert redesigned["conflict_free"]["scalefs"] \
            == redesigned["total_tests"]
        assert redesigned["conflict_free"]["mono"] \
            < redesigned["total_tests"]

    def test_missing_name_lists_comparisons(self, capsys):
        with pytest.raises(SystemExit, match="registered comparisons"):
            cli_main(["compare"])

    def test_unknown_name_lists_comparisons(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["compare", "bogus"])
        assert "sockets" in str(excinfo.value)
        assert "fstat-vs-fstatx" in str(excinfo.value)

    def test_sockets_claim_passes_with_exit_0(self, tmp_path, capsys):
        out = str(tmp_path / "cmp.json")
        rc = cli_main(["compare", "sockets", "--no-cache", "--out", out,
                       "--quiet"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "claim HOLDS" in printed
        assert "[ok ] commutative_fraction_higher" in printed
        raw = json.load(open(out))
        assert raw["schema"] == "repro.compare/1"
        assert raw["claim"]["holds"] is True
        assert raw["redesigned"]["summary"]["conflict_free"]["scalefs"] \
            == raw["redesigned"]["summary"]["total_tests"] == 13
        assert raw["baseline"]["summary"]["conflict_free"]["scalefs"] == 0
        assert raw["baseline"]["summary"]["total_tests"] == 5

    def test_failing_claim_exits_1(self, impossible_redesign, tmp_path,
                                   capsys):
        out = str(tmp_path / "cmp.json")
        rc = cli_main(["compare", impossible_redesign.name, "--no-cache",
                       "--out", out, "--quiet"])
        assert rc == 1
        printed = capsys.readouterr().out
        assert "claim DOES NOT HOLD" in printed
        assert "[FAIL] commutative_fraction_higher" in printed
        raw = json.load(open(out))
        assert raw["claim"]["holds"] is False

    def test_ncores_suffixes_the_default_artifact(self, tmp_path,
                                                  monkeypatch, capsys,
                                                  impossible_redesign):
        monkeypatch.chdir(tmp_path)
        rc = cli_main(["compare", impossible_redesign.name, "--no-cache",
                       "--ncores", "2", "--quiet"])
        assert rc == 1
        expected = (tmp_path / "results"
                    / "compare_test-impossible_ncores2.json")
        assert expected.exists()
