"""Rule-based lints over the interface registry, specs, and artifacts.

Each rule produces :class:`Finding`\\ s; an op can *waive* a rule with a
reason (``OpDef(lint_waivers=...)``), in which case the finding is still
reported but never fails the gate.  Rules:

``dispatch-missing``
    A model op of an interface bound to an analyzable kernel has no
    entry in ``repro.kernels.base._DISPATCH``, or the dispatch entry
    calls a method the kernel class does not define.  Such an op can be
    analyzed symbolically but never validated by MTRACE.
``unused-param``
    A declared ``Param`` never read by the op's symbolic body: dead
    model surface, usually a modeling bug (TESTGEN still enumerates
    concrete values for it, inflating the case count for nothing).
``unsat-precondition``
    Symbolic execution of the op alone (unconstrained initial state)
    yields zero feasible paths: the op can never execute.
``tautological-precondition``
    An op with declared params whose single-path execution never
    branches and records no path condition: its commutativity condition
    is trivially ``true``, so pairing it tests nothing — usually a stub
    body that forgot to model the semantics.
``asymmetric-pairs``
    A registered redesign whose two sides restrict their sweep to
    explicitly named pairs that are not structurally isomorphic (under
    the positional op correspondence), so the comparison would not be
    like-for-like.
``unknown-kernel-binding``
    An :class:`InterfaceSpec` naming a kernel binding the binding
    registry does not know (caught before ``register()`` explodes).
``schema-drift``
    An artifact schema tag (``repro.<family>/<version>``) used by the
    writers in ``src/repro`` that ``docs/artifacts.md`` does not
    document at the same version, or vice versa.
"""

from __future__ import annotations

import ast
import inspect
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.staticcheck.analyzer import ANALYZABLE_KERNELS

RULES = (
    "dispatch-missing",
    "unused-param",
    "unsat-precondition",
    "tautological-precondition",
    "asymmetric-pairs",
    "unknown-kernel-binding",
    "schema-drift",
)

_SCHEMA_RE = re.compile(r"repro\.([a-z0-9_-]+)/(\d+)")


@dataclass(frozen=True)
class Finding:
    rule: str
    subject: str      # "interface:op", redesign name, spec name, or path
    message: str
    waived: bool = False
    waive_reason: str = ""

    def render(self) -> str:
        tag = " [waived]" if self.waived else ""
        return f"{self.rule}{tag} {self.subject}: {self.message}"


def _waive(op, rule: str, finding: Finding) -> Finding:
    reason = getattr(op, "lint_waivers", {}).get(rule)
    if reason is None:
        return finding
    return Finding(finding.rule, finding.subject, finding.message,
                   waived=True, waive_reason=reason)


# ---------------------------------------------------------------------------
# dispatch-missing


class _DispatchTable:
    """The kernel dispatch table, as AST: op name → method names the
    dispatch entry calls on the kernel argument."""

    def __init__(self):
        import repro.kernels.base as base

        self.tree = ast.parse(inspect.getsource(base))
        self.entries: dict[str, ast.AST] = {}
        functions = {
            n.name: n for n in ast.walk(self.tree)
            if isinstance(n, ast.FunctionDef)
        }
        for node in ast.walk(self.tree):
            if not (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "_DISPATCH"
                            for t in node.targets)
                    and isinstance(node.value, ast.Dict)):
                continue
            for k, v in zip(node.value.keys, node.value.values):
                if not isinstance(k, ast.Constant):
                    continue
                if isinstance(v, ast.Lambda):
                    self.entries[k.value] = v
                elif isinstance(v, ast.Name) and v.id in functions:
                    self.entries[k.value] = functions[v.id]

    def called_methods(self, opname: str) -> Optional[set[str]]:
        """Methods the op's dispatch entry calls on the kernel param
        (None when the op has no dispatch entry at all)."""
        fn = self.entries.get(opname)
        if fn is None:
            return None
        kernel_param = fn.args.args[0].arg
        called = set()
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == kernel_param):
                called.add(node.attr)
        return called


def _rule_dispatch_missing(interfaces) -> list[Finding]:
    import importlib

    table = _DispatchTable()
    kernel_classes = {
        name: getattr(importlib.import_module(mod), cls)
        for name, (mod, cls) in ANALYZABLE_KERNELS.items()
    }
    findings = []
    for iface in interfaces:
        bound = [name for name, _ in iface.kernels if name in kernel_classes]
        if not bound:
            continue
        for op in iface.ops:
            called = table.called_methods(op.name)
            if called is None:
                findings.append(_waive(op, "dispatch-missing", Finding(
                    "dispatch-missing", f"{iface.name}:{op.name}",
                    "op has no entry in repro.kernels.base._DISPATCH; "
                    "MTRACE can never validate it")))
                continue
            for kernel in bound:
                missing = sorted(
                    m for m in called
                    if not hasattr(kernel_classes[kernel], m)
                )
                if missing:
                    findings.append(_waive(op, "dispatch-missing", Finding(
                        "dispatch-missing", f"{iface.name}:{op.name}",
                        f"dispatch calls {', '.join(missing)} which "
                        f"kernel {kernel!r} does not define")))
    return findings


# ---------------------------------------------------------------------------
# unused-param


def _rule_unused_param(interfaces) -> list[Finding]:
    findings = []
    seen = set()
    for iface in interfaces:
        for op in iface.ops:
            if not op.params or id(op) in seen:
                continue
            seen.add(id(op))
            try:
                source = inspect.getsource(op.fn)
            except (OSError, TypeError):
                continue
            tree = ast.parse(_dedent(source))
            fn = tree.body[0]
            names = {
                n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
            }
            for param in op.params:
                if param.name not in names:
                    findings.append(_waive(op, "unused-param", Finding(
                        "unused-param", f"{iface.name}:{op.name}",
                        f"declared Param {param.name!r} is never read by "
                        f"the symbolic body (TESTGEN still enumerates "
                        f"it)")))
    return findings


def _dedent(source: str) -> str:
    import textwrap

    return textwrap.dedent(source)


# ---------------------------------------------------------------------------
# unsat- / tautological-precondition


def _explore_single_op(iface, op, max_paths: int = 5000):
    """All feasible paths of one op alone on an unconstrained state."""
    from repro.symbolic.engine import Executor
    from repro.symbolic.solver import Solver
    from repro.symbolic.symtypes import VarFactory

    state_factory = VarFactory("s")
    arg_factory = VarFactory("a0")
    rt = VarFactory("n0")

    def trial(ex):
        state_factory.reset()
        arg_factory.reset()
        rt.reset()
        state = iface.build_state(state_factory)
        args = op.make_args(arg_factory)
        return op.execute(state, args, rt)

    executor = Executor(Solver(), max_paths=max_paths)
    return executor.explore(trial)


def _params_only_condition(iface, op):
    """The path condition contributed by building state and args alone
    (parameter range assumptions), with the op body never run.  A
    single-path op whose full condition equals this baseline branched
    on nothing the body introduced."""
    from repro.symbolic.engine import Executor
    from repro.symbolic.solver import Solver
    from repro.symbolic.symtypes import VarFactory

    state_factory = VarFactory("s")
    arg_factory = VarFactory("a0")

    def trial(ex):
        state_factory.reset()
        arg_factory.reset()
        iface.build_state(state_factory)
        op.make_args(arg_factory)
        return 0

    paths = Executor(Solver(), max_paths=10).explore(trial)
    return paths[0].path_condition if len(paths) == 1 else None


def _rule_preconditions(interfaces) -> list[Finding]:
    findings = []
    analyzed: dict[int, list] = {}
    for iface in interfaces:
        for op in iface.ops:
            if id(op) in analyzed:
                continue
            paths = _explore_single_op(iface, op)
            analyzed[id(op)] = paths
            if not paths:
                findings.append(_waive(op, "unsat-precondition", Finding(
                    "unsat-precondition", f"{iface.name}:{op.name}",
                    "no feasible path: the op's precondition is UNSAT "
                    "on an unconstrained initial state")))
                continue
            if (op.params and len(paths) == 1
                    and not paths[0].decisions
                    and paths[0].path_condition
                    == _params_only_condition(iface, op)):
                findings.append(_waive(
                    op, "tautological-precondition", Finding(
                        "tautological-precondition",
                        f"{iface.name}:{op.name}",
                        "single straight-line path with no branch "
                        "conditions despite declared params: the "
                        "commutativity condition is trivially true")))
    return findings


# ---------------------------------------------------------------------------
# asymmetric-pairs


def _pair_shape(side) -> Optional[frozenset]:
    """A side's pair structure as op-position index pairs."""
    if side.pairs is None:
        return None
    if side.ops is not None:
        order = list(side.ops)
    else:
        order = []
        for a, b in side.pairs:
            for name in (a, b):
                if name not in order:
                    order.append(name)
    shape = set()
    for a, b in side.pairs:
        try:
            i, j = order.index(a), order.index(b)
        except ValueError:
            return frozenset()
        shape.add((min(i, j), max(i, j)))
    return frozenset(shape)


def _rule_asymmetric_pairs() -> list[Finding]:
    from repro.compare.spec import get_redesign, redesign_names

    findings = []
    for name in redesign_names():
        redesign = get_redesign(name)
        sides = redesign.sides
        (label_a, side_a), (label_b, side_b) = sorted(sides.items())
        shape_a, shape_b = _pair_shape(side_a), _pair_shape(side_b)
        if shape_a is None or shape_b is None:
            if (shape_a is None) != (shape_b is None):
                findings.append(Finding(
                    "asymmetric-pairs", name,
                    f"side {label_a!r} {'sweeps all pairs' if shape_a is None else 'restricts pairs'} "
                    f"while side {label_b!r} does not — the comparison "
                    f"is not like-for-like"))
            continue
        if shape_a != shape_b:
            findings.append(Finding(
                "asymmetric-pairs", name,
                f"sides restrict to non-isomorphic pair structures "
                f"{sorted(shape_a)} vs {sorted(shape_b)} under the "
                f"positional op correspondence"))
    return findings


# ---------------------------------------------------------------------------
# unknown-kernel-binding


def _rule_unknown_kernel_binding(specs=None) -> list[Finding]:
    from repro.model.spec import get_spec, kernel_binding_names, spec_names

    if specs is None:
        specs = [get_spec(n) for n in spec_names()]
    known = set(kernel_binding_names())
    findings = []
    for spec in specs:
        for entry in spec.kernels:
            if isinstance(entry, str) and entry not in known:
                findings.append(Finding(
                    "unknown-kernel-binding", spec.name,
                    f"spec binds kernel {entry!r} but no such binding "
                    f"is registered (known: {', '.join(sorted(known))})"))
    return findings


# ---------------------------------------------------------------------------
# schema-drift


def _schema_versions(text: str) -> dict[str, set[str]]:
    versions: dict[str, set[str]] = {}
    for family, version in _SCHEMA_RE.findall(text):
        versions.setdefault(family, set()).add(version)
    return versions


def _rule_schema_drift(root: Optional[Path] = None) -> list[Finding]:
    root = Path(root) if root is not None else _repo_root()
    docs = root / "docs" / "artifacts.md"
    src = root / "src" / "repro"
    if not docs.exists() or not src.exists():
        return [Finding("schema-drift", str(root),
                        "docs/artifacts.md or src/repro missing; cannot "
                        "check schema versions")]
    # The version history also names removed schemas; the sections
    # before it document what writers emit today.
    documented = _schema_versions(
        docs.read_text().split("\n## Version history", 1)[0]
    )
    in_code: dict[str, set[str]] = {}
    for path in sorted(src.rglob("*.py")):
        for family, vs in _schema_versions(path.read_text()).items():
            in_code.setdefault(family, set()).update(vs)
    findings = []
    for family, versions in sorted(in_code.items()):
        doc_versions = documented.get(family)
        if doc_versions is None:
            findings.append(Finding(
                "schema-drift", f"repro.{family}",
                f"schema used by writers (versions "
                f"{', '.join(sorted(versions))}) is not documented in "
                f"docs/artifacts.md"))
        elif not versions <= doc_versions:
            missing = sorted(versions - doc_versions)
            findings.append(Finding(
                "schema-drift", f"repro.{family}",
                f"writers emit version(s) {', '.join(missing)} but "
                f"docs/artifacts.md documents "
                f"{', '.join(sorted(doc_versions))}"))
    for family, versions in sorted(documented.items()):
        if family not in in_code:
            findings.append(Finding(
                "schema-drift", f"repro.{family}",
                f"documented in docs/artifacts.md (versions "
                f"{', '.join(sorted(versions))}) but no writer in "
                f"src/repro mentions it"))
    return findings


def _repo_root() -> Path:
    # src/repro/staticcheck/linter.py -> repo root three parents up
    # from the package directory.
    return Path(__file__).resolve().parents[3]


# ---------------------------------------------------------------------------
# Driver


def run_lint_rules(interfaces: Optional[list[str]] = None,
                   rules: Optional[list[str]] = None,
                   root: Optional[Path] = None) -> list[Finding]:
    """Run the requested lint rules (default: all) over the requested
    interfaces (default: every registered one)."""
    from repro.model.registry import get_interface, interface_names

    selected = set(rules if rules is not None else RULES)
    unknown = selected - set(RULES)
    if unknown:
        raise ValueError(
            f"unknown lint rule(s): {', '.join(sorted(unknown))}; "
            f"valid rules: {', '.join(RULES)}")
    names = interfaces if interfaces is not None else interface_names()
    ifaces = [get_interface(n) for n in names]
    findings: list[Finding] = []
    if "dispatch-missing" in selected:
        findings.extend(_rule_dispatch_missing(ifaces))
    if "unused-param" in selected:
        findings.extend(_rule_unused_param(ifaces))
    if selected & {"unsat-precondition", "tautological-precondition"}:
        pre = _rule_preconditions(ifaces)
        findings.extend(f for f in pre if f.rule in selected)
    if "asymmetric-pairs" in selected:
        findings.extend(_rule_asymmetric_pairs())
    if "unknown-kernel-binding" in selected:
        findings.extend(_rule_unknown_kernel_binding())
    if "schema-drift" in selected:
        findings.extend(_rule_schema_drift(root))
    return findings
