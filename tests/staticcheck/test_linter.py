"""Linter tests: one seeded defect per rule, waivers, and the
regression pin that keeps the shipped repository lint-clean."""

import types

import pytest

from repro.compare.spec import Side
from repro.model.base import Param, defop
from repro.staticcheck.linter import (
    RULES,
    _rule_asymmetric_pairs,
    _rule_dispatch_missing,
    _rule_preconditions,
    _rule_schema_drift,
    _rule_unknown_kernel_binding,
    _rule_unused_param,
    run_lint_rules,
)
from repro.symbolic import terms as T


def make_iface(ops, name="toy", kernels=()):
    return types.SimpleNamespace(
        name=name, ops=ops, kernels=list(kernels),
        build_state=lambda factory: types.SimpleNamespace(),
    )


# -- the shipped repository (regression pin for the lint-fix satellite) --


def test_shipped_repo_has_no_unwaived_findings():
    findings = run_lint_rules()
    unwaived = [f for f in findings if not f.waived]
    assert unwaived == [], [f.render() for f in unwaived]


def test_shipped_waivers_are_exactly_the_proc_ops():
    findings = run_lint_rules()
    waived = sorted((f.rule, f.subject) for f in findings if f.waived)
    assert waived == [
        ("tautological-precondition", "proc:wait"),
        ("unused-param", "proc:posix_spawn"),
        ("unused-param", "proc:wait"),
        ("unused-param", "proc:wait"),
    ]
    for f in findings:
        if f.waived:
            assert f.waive_reason


# -- unused-param --


def test_unused_param_seeded_defect():
    ops = []

    @defop(ops, "deadarg", Param("x", "fd"), Param("y", "fd"))
    def op_deadarg(s, ex, rt, x, y):
        return x

    findings = _rule_unused_param([make_iface(ops)])
    assert [f.subject for f in findings] == ["toy:deadarg"]
    assert "'y'" in findings[0].message
    assert not findings[0].waived


def test_unused_param_waiver_reported_but_waived():
    ops = []

    @defop(ops, "deadarg", Param("y", "fd"),
           lint_waivers={"unused-param": "because the test says so"})
    def op_deadarg(s, ex, rt, y):
        return 0

    findings = _rule_unused_param([make_iface(ops)])
    assert len(findings) == 1
    assert findings[0].waived
    assert findings[0].waive_reason == "because the test says so"
    assert "[waived]" in findings[0].render()


# -- dispatch-missing --


def test_dispatch_missing_seeded_defect():
    ops = []

    @defop(ops, "zz_not_dispatched")
    def op_missing(s, ex, rt):
        return 0

    iface = make_iface(ops, kernels=[("mono", None), ("scalefs", None)])
    findings = _rule_dispatch_missing([iface])
    assert [f.subject for f in findings] == ["toy:zz_not_dispatched"]
    assert "_DISPATCH" in findings[0].message


def test_dispatch_missing_ignores_unbound_interfaces():
    ops = []

    @defop(ops, "zz_not_dispatched")
    def op_missing(s, ex, rt):
        return 0

    # No analyzable kernel bound: MTRACE never runs it, nothing to flag.
    assert _rule_dispatch_missing([make_iface(ops)]) == []


# -- unsat- / tautological-precondition --


def test_unsat_precondition_seeded_defect():
    ops = []

    @defop(ops, "never", Param("x", "fd"))
    def op_never(s, ex, rt, x):
        ex.assume(T.lt(x.term, T.const(0)))  # contradicts x >= 0
        return 0

    findings = _rule_preconditions([make_iface(ops)])
    assert [f.rule for f in findings] == ["unsat-precondition"]


def test_tautological_precondition_seeded_defect():
    ops = []

    @defop(ops, "stub", Param("x", "fd"))
    def op_stub(s, ex, rt, x):
        return x

    findings = _rule_preconditions([make_iface(ops)])
    assert [f.rule for f in findings] == ["tautological-precondition"]


def test_parameterless_straight_line_op_is_fine():
    ops = []

    @defop(ops, "noargs")
    def op_noargs(s, ex, rt):
        return 0

    assert _rule_preconditions([make_iface(ops)]) == []


# -- asymmetric-pairs --


def fake_redesign(monkeypatch, baseline, redesigned):
    import repro.compare.spec as spec

    redesign = types.SimpleNamespace(
        sides={"baseline": baseline, "redesigned": redesigned})
    monkeypatch.setattr(spec, "redesign_names", lambda: ["fake"])
    monkeypatch.setattr(spec, "get_redesign", lambda name: redesign)


def test_asymmetric_pairs_seeded_defect(monkeypatch):
    fake_redesign(
        monkeypatch,
        Side("posix", ops=("open", "close", "read"),
             pairs=(("open", "close"),)),
        Side("posix-ext", ops=("open", "close", "read"),
             pairs=(("open", "read"),)),
    )
    findings = _rule_asymmetric_pairs()
    assert [f.subject for f in findings] == ["fake"]
    assert "non-isomorphic" in findings[0].message


def test_asymmetric_one_side_unrestricted(monkeypatch):
    fake_redesign(
        monkeypatch,
        Side("posix", pairs=(("open", "close"),)),
        Side("posix-ext"),
    )
    findings = _rule_asymmetric_pairs()
    assert len(findings) == 1
    assert "not like-for-like" in findings[0].message


def test_symmetric_pairs_pass(monkeypatch):
    fake_redesign(
        monkeypatch,
        Side("posix", ops=("open", "close"), pairs=(("open", "close"),)),
        Side("posix-ext", ops=("openany", "close"),
             pairs=(("openany", "close"),)),
    )
    assert _rule_asymmetric_pairs() == []


# -- unknown-kernel-binding --


def test_unknown_kernel_binding_seeded_defect():
    spec = types.SimpleNamespace(name="toyspec",
                                 kernels=("mono", "bogus-kernel"))
    findings = _rule_unknown_kernel_binding([spec])
    assert [f.subject for f in findings] == ["toyspec"]
    assert "bogus-kernel" in findings[0].message


def test_registered_specs_bind_known_kernels():
    assert _rule_unknown_kernel_binding() == []


# -- schema-drift --


def seed_repo(tmp_path, code: str, docs: str):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "artifacts.md").write_text(docs)
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "writer.py").write_text(code)
    return tmp_path


def test_schema_drift_undocumented_writer(tmp_path):
    root = seed_repo(tmp_path, 'SCHEMA = "repro.toy/1"\n', "# nothing\n")
    findings = _rule_schema_drift(root)
    assert [f.subject for f in findings] == ["repro.toy"]
    assert "not documented" in findings[0].message


def test_schema_drift_version_mismatch(tmp_path):
    root = seed_repo(tmp_path, 'SCHEMA = "repro.toy/2"\n',
                     "## `repro.toy/1`\n")
    findings = _rule_schema_drift(root)
    assert len(findings) == 1
    assert "version(s) 2" in findings[0].message


def test_schema_drift_documented_but_unwritten(tmp_path):
    root = seed_repo(tmp_path, "# no schemas here\n",
                     "## `repro.gone/1`\n")
    findings = _rule_schema_drift(root)
    assert [f.subject for f in findings] == ["repro.gone"]
    assert "no writer" in findings[0].message


def test_schema_drift_clean(tmp_path):
    root = seed_repo(tmp_path, 'SCHEMA = "repro.toy/1"\n',
                     "## `repro.toy/1`\n")
    assert _rule_schema_drift(root) == []


def test_schema_drift_version_history_may_name_removed_schemas(tmp_path):
    root = seed_repo(
        tmp_path, 'SCHEMA = "repro.toy/1"\n',
        "## `repro.toy/1`\n\n## Version history\n\n"
        "- `repro.gone/1` — removed in PR 13.\n",
    )
    assert _rule_schema_drift(root) == []


# -- driver --


def test_unknown_rule_rejected():
    with pytest.raises(ValueError, match="unknown lint rule"):
        run_lint_rules(rules=["bogus-rule"])


def test_rule_selection_runs_only_requested():
    findings = run_lint_rules(rules=["schema-drift"])
    assert all(f.rule == "schema-drift" for f in findings)
    assert set(RULES) >= {f.rule for f in run_lint_rules()}
