"""CLI-level lint tests: exit codes, JSON shape, artifacts, gating.

The subprocess tests are the acceptance path: ``python -m repro lint
--gate`` must exit 0 on the repository as shipped (including the
soundness cross-check against every committed heatmap) and exit 1
the moment a heatmap refutes a static conflict-free verdict.
"""

import json
import os
import subprocess
import sys
import types

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def repro_lint(cwd, *args):
    env = dict(os.environ)
    src = os.path.join(REPO, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=600,
    )


def test_gate_green_on_shipped_repo():
    # The committed heatmaps are in results/, so this exercises the
    # full soundness cross-check, not just the lint rules.
    proc = repro_lint(REPO, "--gate")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "gate: PASS" in proc.stdout
    assert "sound" in proc.stdout
    assert "UNSOUND" not in proc.stdout


def test_json_report_shape(tmp_path):
    proc = repro_lint(tmp_path, "--interface", "sockets-unordered",
                      "--json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    assert report["schema"] == "repro.lint/1"
    assert report["interfaces"] == ["sockets-unordered"]
    summary = report["staticpredict"]["sockets-unordered"]["summary"]
    assert summary["scalefs"]["conflict_free_balanced"] == 3
    assert summary["mono"]["conflict_free_balanced"] == 0
    # Every reported finding (if any) must be waived here.
    assert all(f["waived"] for f in report["findings"])
    # The artifact landed where the report says it did.
    artifact = tmp_path / "results" / "staticpredict_sockets-unordered.json"
    assert artifact.exists()
    payload = json.loads(artifact.read_text())
    assert payload["schema"] == "repro.staticpredict/1"


def test_gate_fails_on_unsound_heatmap(tmp_path):
    # A heatmap claiming MTRACE conflicts on pairs the analyzer proves
    # balanced-conflict-free (scalefs unordered sockets) must fail.
    heatmap = {
        "schema": "repro.heatmap/1",
        "interface": "sockets-unordered",
        "kernels": ["mono", "scalefs"],
        "ops": ["usend", "urecv"],
        "cells": [
            {"op0": "usend", "op1": "usend", "total": 4,
             "fails": {"mono": 4, "scalefs": 2}},
            {"op0": "usend", "op1": "urecv", "total": 4,
             "fails": {"mono": 4, "scalefs": 0}},
        ],
    }
    path = tmp_path / "bad_heatmap.json"
    path.write_text(json.dumps(heatmap))
    proc = repro_lint(tmp_path, "--interface", "sockets-unordered",
                      "--heatmap", str(path), "--gate")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "soundness violation" in proc.stdout
    assert "scalefs:usend/usend" in proc.stdout
    assert "gate: FAIL" in proc.stdout
    # Without --gate the violation is reported but does not fail.
    proc = repro_lint(tmp_path, "--interface", "sockets-unordered",
                      "--heatmap", str(path))
    assert proc.returncode == 0
    assert "UNSOUND" in proc.stdout


def test_unknown_interface_and_kernel_rejected(tmp_path):
    proc = repro_lint(tmp_path, "--interface", "nope")
    assert proc.returncode != 0
    proc = repro_lint(tmp_path, "--kernel", "nope")
    assert proc.returncode != 0
    assert "not statically analyzable" in proc.stderr


def _lint_args(**overrides):
    args = dict(interface=["sockets-unordered"], kernel=None, rules=None,
                heatmap=None, json=False, gate=True)
    args.update(overrides)
    return types.SimpleNamespace(**args)


def test_gate_fails_on_unwaived_finding(monkeypatch, tmp_path, capsys):
    import repro.staticcheck.linter as linter
    from repro.cli import lint as cli
    from repro.staticcheck.linter import Finding

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        linter, "run_lint_rules",
        lambda **kw: [Finding("schema-drift", "repro.x", "seeded defect")])
    assert cli.cmd_lint(_lint_args()) == 1
    out = capsys.readouterr().out
    assert "gate: FAIL" in out
    assert "seeded defect" in out


def test_waived_findings_do_not_gate(monkeypatch, tmp_path, capsys):
    import repro.staticcheck.linter as linter
    from repro.cli import lint as cli
    from repro.staticcheck.linter import Finding

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        linter, "run_lint_rules",
        lambda **kw: [Finding("unused-param", "toy:op", "dead",
                              waived=True, waive_reason="testing")])
    assert cli.cmd_lint(_lint_args()) == 0
    assert "gate: PASS" in capsys.readouterr().out


def test_precision_floor_gates(monkeypatch, tmp_path):
    # Patch the floor table so the mono kernel (precision 0 on the
    # unordered sockets: statically all-conflict, dynamically clean in
    # this fake heatmap) trips the precision failure path end-to-end.
    from repro.cli import lint as cli

    heatmap = {
        "schema": "repro.heatmap/1",
        "interface": "sockets-unordered",
        "kernels": ["mono", "scalefs"],
        "ops": ["usend", "urecv"],
        "cells": [
            {"op0": "usend", "op1": "urecv", "total": 4,
             "fails": {"mono": 0, "scalefs": 0}},
        ],
    }
    path = tmp_path / "heatmap.json"
    path.write_text(json.dumps(heatmap))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "LINT_PRECISION_FLOORS",
                        {"sockets-unordered": {"mono": 0.5}})
    assert cli.cmd_lint(_lint_args(heatmap=[str(path)])) == 1
