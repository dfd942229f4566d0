"""``python -m repro lint``: the spec/model linter and the static
sharing analyzer, cross-checked against MTRACE heatmaps (docs/lint.md)."""

from __future__ import annotations

from repro.cli.common import split_names
from repro.kinds import DEFAULT_HEATMAP_OUT, INTERFACE, interface_artifact_path

#: Minimum crosscheck precision per interface → kernel that
#: ``lint --gate`` enforces: the unordered-sockets redesign is the
#: claim the static analyzer exists to prove, so the scalable kernel
#: must get at least half of MTRACE's conflict-free pairs right there.
LINT_PRECISION_FLOORS = {"sockets-unordered": {"scalefs": 0.5}}


def _lint_heatmaps(names, explicit):
    """Heatmap artifacts for the soundness cross-check, keyed by
    interface: explicit ``--heatmap`` paths (the interface is read from
    the artifact), or each linted interface's default committed
    artifact when one exists on disk."""
    import json
    import os

    out: dict[str, list] = {}
    if explicit:
        for path in explicit:
            try:
                with open(path) as f:
                    payload = json.load(f)
            except (OSError, ValueError) as exc:
                raise SystemExit(f"--heatmap {path}: {exc}")
            out.setdefault(payload.get("interface", "posix"), []).append(
                (path, payload))
        return out
    for name in names:
        path = interface_artifact_path(DEFAULT_HEATMAP_OUT, name)
        if os.path.exists(path):
            with open(path) as f:
                out[name] = [(path, json.load(f))]
    return out


def _render_crosscheck(name: str, path: str, result: dict) -> str:
    precision = ", ".join(
        f"{kernel} "
        + ("n/a" if st["precision"] is None else
           f"{st['precision']:.2f} ({st['agree_cf']}/{st['dynamic_cf']})")
        for kernel, st in result["kernels"].items()
    )
    verdict = ("sound" if result["sound"]
               else f"UNSOUND ({', '.join(result['violations'])})")
    return (f"crosscheck [{name}] vs {path}: {verdict}; "
            f"precision {precision}")


def cmd_lint(args) -> int:
    """Spec/model lint rules + the static sharing analyzer, with the
    predicted conflict maps cross-checked against MTRACE heatmaps."""
    import json

    from repro.bench.report import write_artifact
    from repro.model.registry import interface_names
    from repro.staticcheck.analyzer import ANALYZABLE_KERNELS
    from repro.staticcheck.crosscheck import (
        crosscheck_heatmap,
        gate_crosscheck,
    )
    from repro.staticcheck.linter import run_lint_rules
    from repro.staticcheck.predict import (
        staticpredict_artifact_path,
        staticpredict_payload,
    )

    names = (list(args.interface) if args.interface
             else list(interface_names()))
    for name in names:
        INTERFACE.check(name, {})
    kernels = list(args.kernel) if args.kernel else None
    if kernels:
        unknown = [k for k in kernels if k not in ANALYZABLE_KERNELS]
        if unknown:
            raise SystemExit(
                f"--kernel: not statically analyzable: "
                f"{', '.join(unknown)} "
                f"(known: {', '.join(sorted(ANALYZABLE_KERNELS))})")
    try:
        findings = run_lint_rules(
            interfaces=names if args.interface else None,
            rules=split_names(args.rules))
    except ValueError as exc:
        raise SystemExit(str(exc))

    predictions = {}
    artifacts = {}
    for name in names:
        payload = staticpredict_payload(name, kernels)
        predictions[name] = payload
        artifacts[name] = write_artifact(
            staticpredict_artifact_path(name), payload)

    failures = [f.render() for f in findings if not f.waived]
    crosschecks: dict[str, list] = {}
    for name, entries in _lint_heatmaps(names, args.heatmap).items():
        payload = predictions.get(name)
        if payload is None:
            continue  # a --heatmap for an interface outside this run
        for path, heatmap in entries:
            result = crosscheck_heatmap(payload, heatmap)
            crosschecks.setdefault(name, []).append(
                {"heatmap": path, **result})
            failures.extend(gate_crosscheck(
                result, LINT_PRECISION_FLOORS.get(name)))

    report = {
        "schema": "repro.lint/1",
        "interfaces": names,
        "findings": [
            {"rule": f.rule, "subject": f.subject, "message": f.message,
             "waived": f.waived, "waive_reason": f.waive_reason}
            for f in findings
        ],
        "staticpredict": {
            n: {"artifact": artifacts[n],
                "summary": predictions[n]["summary"]}
            for n in names
        },
        "crosscheck": crosschecks,
        "gate": {"enabled": bool(args.gate), "failures": failures},
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        waived = sum(1 for f in findings if f.waived)
        print(f"lint: {len(findings)} finding(s), {waived} waived, "
              f"across {len(names)} interface(s)")
        for f in findings:
            print("  " + f.render())
        for name in names:
            summary = predictions[name]["summary"]
            parts = ", ".join(
                f"{k} {s['conflict_free_balanced']}/{s['pairs']} "
                f"balanced-CF ({s['conflict_free_strict']} strict)"
                for k, s in summary.items())
            print(f"staticpredict [{name}]: {parts} -> {artifacts[name]}")
        for name, entries in crosschecks.items():
            for entry in entries:
                print(_render_crosscheck(name, entry["heatmap"], entry))
        if args.gate:
            for msg in failures:
                print(f"  [FAIL] {msg}")
            print("gate: " + ("FAIL" if failures else "PASS"))
    return 1 if args.gate and failures else 0


def register(sub) -> None:
    p = sub.add_parser(
        "lint",
        help="static sharing analyzer + spec/model linter: predicted "
             "conflict maps per interface (repro.staticpredict/1), "
             "cross-checked for soundness against committed MTRACE "
             "heatmaps",
    )
    p.add_argument("--interface", action="append", default=None,
                   metavar="NAME",
                   help="lint only this interface (repeatable; default: "
                        "every registered interface)")
    p.add_argument("--kernel", action="append", default=None,
                   metavar="NAME",
                   help="restrict the sharing analysis to this kernel "
                        "(repeatable; default: each interface's "
                        "analyzable kernel bindings)")
    p.add_argument("--rules", metavar="a,b,c",
                   help="run only these lint rules (default: all; "
                        "see docs/lint.md)")
    p.add_argument("--heatmap", action="append", default=None,
                   metavar="PATH",
                   help="heatmap artifact for the soundness cross-check "
                        "(repeatable; default: each linted interface's "
                        "committed default artifact, when present)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout "
                        "(schema repro.lint/1)")
    p.add_argument("--gate", action="store_true",
                   help="exit 1 on any unwaived finding, soundness "
                        "violation, or crosscheck precision below the "
                        "floor")
    p.set_defaults(fn=cmd_lint)
